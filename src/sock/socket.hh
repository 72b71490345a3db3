/**
 * @file
 * Socket facade over the transports: the API applications and
 * benchmarks program against.
 *
 * Both transports run one connection protocol (tcp/protocol.hh) under
 * two cost models, so `sock::Socket` wraps one stack-owned
 * `tcp::Connection` whichever transport made it, and `sock::Listener`
 * one `tcp::Listener`.  `sock::Transport` is the once-per-connection
 * control path (connect/listen) over a node's stack; a node exposes
 * one via `core::Node::transport()`.  No transport type appears in
 * this facade's public signatures: callers never name `tcp::` or
 * `xpt::` internals.
 *
 * The data-path members (sendAll, recv, recvAll) are not coroutines:
 * they return the connection's awaitable directly, so
 * `co_await sock.recvAll(n)` compiles to exactly the frames the raw
 * connection call would.  Only connect()/accept() — once per
 * connection — add a frame.
 *
 * The message-framing helpers (sendMessage/recvMessage/...) are
 * members, written against the facade's own forwarders.
 */

#ifndef IOAT_SOCK_SOCKET_HH
#define IOAT_SOCK_SOCKET_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "simcore/assert.hh"
#include "simcore/coro.hh"
#include "sock/types.hh"
#include "tcp/protocol.hh"

namespace ioat::sock {

class Transport;
class Listener;

/**
 * Non-owning handle to one established byte-stream connection.
 *
 * Copyable (it is a view); the connection lives in its stack
 * until the stack is destroyed.  A default-constructed Socket is
 * invalid; connect()/accept() failures yield a Socket whose
 * `usable()` is false (with `aborted()` holding the typed reason),
 * mirroring a failed ::connect.
 */
class Socket
{
  public:
    Socket() = default;

    /** A connection was ever attached (even if it later failed). */
    bool valid() const { return conn_ != nullptr; }

    /** @name Data path (non-coroutine forwarders; see file header)
     *  @{ */

    /**
     * Send @p bytes; resumes when the last byte has been accepted by
     * the NIC (peer-buffer credit may stall us).
     * @param meta optional application header delivered to the
     *        peer's metadata queue together with the first segment.
     */
    sim::Coro<void>
    sendAll(std::size_t bytes, SendOptions opts = {},
            const MsgMeta *meta = nullptr)
    {
        return checked().send(bytes, opts, meta);
    }

    /** Receive up to @p max_bytes; 0 means the peer closed. */
    sim::Coro<std::size_t>
    recv(std::size_t max_bytes, sim::TraceContext ctx = {})
    {
        return checked().recv(max_bytes, ctx);
    }

    /** Receive exactly @p bytes unless the peer closes first. */
    sim::Coro<std::size_t>
    recvAll(std::size_t bytes, sim::TraceContext ctx = {})
    {
        return checked().recvAll(bytes, ctx);
    }
    /** @} */

    /** Half-close: the peer's recv() returns 0 after draining. */
    void close() { checked().close(); }

    /** Locally abort (the simulated close of a stuck socket). */
    void abort() { checked().abortLocal(); }

    /** @name In-band message metadata
     *  @{ */
    MsgMeta popMeta() { return checked().popMeta(); }
    std::size_t
    metaAvailable() const
    {
        return conn_ ? conn_->metaAvailable() : 0;
    }
    /** @} */

    /** @name State
     *  @{ */
    bool established() const { return conn_ && conn_->established(); }
    bool aborted() const { return conn_ && conn_->aborted(); }
    bool peerClosed() const { return conn_ && conn_->peerClosed(); }
    /** Established, not aborted, peer still open: safe to use. */
    bool usable() const { return conn_ && conn_->usable(); }
    std::uint64_t bytesSent() const { return conn_ ? conn_->bytesSent() : 0; }
    std::uint64_t
    bytesReceived() const
    {
        return conn_ ? conn_->bytesReceived() : 0;
    }
    /** Transport flow id (keys the telemetry flow table). */
    std::uint64_t flow() const { return conn_ ? conn_->flow() : 0; }
    /** @} */

    /** The simulation the connection's stack runs in. */
    sim::Simulation &simulation() { return checked().simulation(); }

    /** @name Message framing (formerly sock/message.hh)
     *  @{ */

    /**
     * Send a message header, then its payload (if any).
     * @param payload_opts options for the payload bytes (e.g.
     *        zero-copy sendfile for static file content).
     */
    sim::Coro<void> sendMessage(const Message &msg,
                                SendOptions payload_opts = {});

    /**
     * Receive the next message header.  The caller is responsible
     * for consuming `payloadBytes` afterwards (recvAll).
     * @param ctx request context the header receive is attributed to
     *        (the message carries its own onward context in .trace).
     * @return std::nullopt on orderly EOF.
     */
    sim::Coro<std::optional<Message>>
    recvMessage(sim::TraceContext ctx = {});

    /** Receive a message header and drain its payload in one call. */
    sim::Coro<std::optional<Message>>
    recvMessageAndPayload(sim::TraceContext ctx = {});

    /**
     * Receive the next message with a deadline.  If the deadline
     * expires first, the connection is locally aborted (releasing
     * the blocked read) and std::nullopt is returned with @p status
     * (when given) set to MsgStatus::Timeout.  A @p timeout of 0
     * means no deadline.
     */
    sim::Coro<std::optional<Message>>
    recvMessageTimed(sim::Tick timeout, MsgStatus *status = nullptr,
                     sim::TraceContext ctx = {});

    /**
     * Receive exactly @p bytes with a deadline, aborting the
     * connection when it expires (same contract as recvMessageTimed).
     * Bounds the *payload* read that follows a timed header read.  A
     * @p timeout of 0 means no deadline.  @return bytes actually
     * received (short on EOF / abort / deadline).
     */
    sim::Coro<std::size_t> recvAllTimed(std::size_t bytes,
                                        sim::Tick timeout,
                                        sim::TraceContext ctx = {});
    /** @} */

  private:
    friend class Transport;
    friend class Listener;

    explicit Socket(tcp::Connection *conn) : conn_(conn) {}

    tcp::Connection &
    checked() const
    {
        sim::simAssert(conn_ != nullptr, "operation on invalid Socket");
        return *conn_;
    }

    tcp::Connection *conn_ = nullptr;
};

/**
 * Passive endpoint on one port: accept() yields established Sockets.
 *
 * A value type minted by `Transport::listen()`; default construction
 * yields an invalid listener (`valid()` false) and accept() on it is
 * a simulator assertion — the typed-failure surface mirroring
 * Socket's.
 */
class Listener
{
  public:
    Listener() = default;

    /** Convenience: `Listener l(node.transport(), port)`. */
    Listener(Transport &transport, std::uint16_t port);

    /** A transport listener is attached; accept() is legal. */
    bool valid() const { return inner_ != nullptr; }

    /** Awaitable: the next established connection on this port. */
    sim::Coro<Socket> accept();

  private:
    friend class Transport;

    explicit Listener(tcp::Listener *inner) : inner_(inner) {}

    tcp::Listener *inner_ = nullptr;
};

/**
 * The once-per-connection control path (connect/listen) over one
 * node's protocol stack, kernel or bypass, plus the stack statistics
 * benches compare across transports.
 */
class Transport
{
  public:
    explicit Transport(tcp::Protocol &stack) : stack_(stack) {}

    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /**
     * Active open to (remote, port).  A nonzero @p timeout bounds
     * the handshake wait where the stack honours it (DESIGN.md §9);
     * on failure the returned socket reports !usable() (never a
     * hang, never a null).
     */
    sim::Coro<Socket>
    connect(net::NodeId remote, std::uint16_t port,
            sim::Tick timeout = sim::Tick{0})
    {
        tcp::Connection *c = co_await stack_.connect(remote, port, timeout);
        co_return Socket(c);
    }

    /** Passive open; repeated calls on one port share the queue. */
    Listener listen(std::uint16_t port)
    {
        return Listener(&stack_.listen(port));
    }

    /** The simulation this transport's stack runs in. */
    sim::Simulation &simulation() { return stack_.host().sim; }

    /** @name Transport-agnostic stack statistics (for benches)
     *  @{ */
    std::uint64_t txPayloadBytes() const { return stack_.txPayloadBytes(); }
    std::uint64_t rxPayloadBytes() const { return stack_.rxPayloadBytes(); }
    /** Data segments resent by the transport's loss recovery. */
    std::uint64_t retransmits() const { return stack_.retransmits(); }
    /** Connections that failed after retry exhaustion. */
    std::uint64_t
    abortedConnections() const
    {
        return stack_.abortedConnections();
    }
    /** @} */

  private:
    tcp::Protocol &stack_;
};

// --------------------------------------------------------------------
// Inline implementations
// --------------------------------------------------------------------

inline Listener::Listener(Transport &transport, std::uint16_t port)
{
    *this = transport.listen(port);
}

inline sim::Coro<Socket>
Listener::accept()
{
    sim::simAssert(valid(), "accept on invalid Listener");
    tcp::Connection *c = co_await inner_->accept();
    co_return Socket(c);
}

inline sim::Coro<void>
Socket::sendMessage(const Message &msg, SendOptions payload_opts)
{
    MsgMeta meta;
    meta.w[0] = msg.tag;
    meta.w[1] = msg.a;
    meta.w[2] = msg.b;
    meta.w[3] = msg.c;
    meta.w[4] = msg.payloadBytes;
    meta.w[5] = msg.trace.pack();
    SendOptions header_opts;
    header_opts.trace = msg.trace;
    if (!payload_opts.trace.valid())
        payload_opts.trace = msg.trace;
    co_await sendAll(kMessageHeaderBytes, header_opts, &meta);
    if (msg.payloadBytes > 0)
        co_await sendAll(msg.payloadBytes, payload_opts);
}

inline sim::Coro<std::optional<Message>>
Socket::recvMessage(sim::TraceContext ctx)
{
    const std::size_t got = co_await recvAll(kMessageHeaderBytes, ctx);
    if (got != kMessageHeaderBytes || metaAvailable() == 0) {
        // Orderly EOF, or a close/abort truncated the header.
        co_return std::nullopt;
    }
    const MsgMeta meta = popMeta();
    Message msg;
    msg.tag = meta.w[0];
    msg.a = meta.w[1];
    msg.b = meta.w[2];
    msg.c = meta.w[3];
    msg.payloadBytes = meta.w[4];
    msg.trace = sim::TraceContext::unpack(meta.w[5]);
    co_return msg;
}

inline sim::Coro<std::optional<Message>>
Socket::recvMessageAndPayload(sim::TraceContext ctx)
{
    auto msg = co_await recvMessage(ctx);
    if (msg && msg->payloadBytes > 0) {
        const sim::TraceContext pctx =
            msg->trace.valid() ? msg->trace : ctx;
        const std::size_t got =
            co_await recvAll(msg->payloadBytes, pctx);
        if (got != msg->payloadBytes)
            co_return std::nullopt; // closed/aborted mid-payload
    }
    co_return msg;
}

inline sim::Coro<std::optional<Message>>
Socket::recvMessageTimed(sim::Tick timeout, MsgStatus *status,
                         sim::TraceContext ctx)
{
    if (timeout == sim::Tick{0}) {
        auto msg = co_await recvMessage(ctx);
        if (status)
            *status = msg         ? MsgStatus::Ok
                      : aborted() ? MsgStatus::Aborted
                                  : MsgStatus::Eof;
        co_return msg;
    }

    struct Watch
    {
        bool done = false;
        bool fired = false;
    };
    auto watch = std::make_shared<Watch>();
    simulation().spawn(
        [](Socket s, sim::Tick t,
           std::shared_ptr<Watch> w) -> sim::Coro<void> {
            co_await s.simulation().delay(t);
            if (!w->done) {
                w->fired = true;
                s.abort();
            }
        }(*this, timeout, watch));

    auto msg = co_await recvMessage(ctx);
    watch->done = true;
    if (status) {
        *status = msg            ? MsgStatus::Ok
                  : watch->fired ? MsgStatus::Timeout
                  : aborted()    ? MsgStatus::Aborted
                                 : MsgStatus::Eof;
    }
    co_return msg;
}

inline sim::Coro<std::size_t>
Socket::recvAllTimed(std::size_t bytes, sim::Tick timeout,
                     sim::TraceContext ctx)
{
    if (timeout == sim::Tick{0})
        co_return co_await recvAll(bytes, ctx);

    struct Watch
    {
        bool done = false;
    };
    auto watch = std::make_shared<Watch>();
    simulation().spawn(
        [](Socket s, sim::Tick t,
           std::shared_ptr<Watch> w) -> sim::Coro<void> {
            co_await s.simulation().delay(t);
            if (!w->done)
                s.abort();
        }(*this, timeout, watch));
    const std::size_t got = co_await recvAll(bytes, ctx);
    watch->done = true;
    co_return got;
}

} // namespace ioat::sock

#endif // IOAT_SOCK_SOCKET_HH
