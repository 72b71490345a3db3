/**
 * @file
 * Socket facade over the transports: the API applications and
 * benchmarks program against.
 *
 * `sock::Socket` wraps a stack-owned stream endpoint — kernel TCP
 * (`tcp::Connection`) or the user-space bypass library
 * (`xpt::Endpoint`) — behind one small value type, and
 * `sock::Listener` wraps passive opens.  `sock::Transport` is the
 * once-per-connection control-path interface (connect/listen); a
 * node exposes one via `core::Node::transport()`.  No transport type
 * appears in this facade's public signatures: callers never name
 * `tcp::` or `xpt::` internals.
 *
 * Devirtualization rule (the transport-interface contract, DESIGN.md
 * §11): `Transport` is virtual because it runs once per connection.
 * The data-path members (sendAll, recv, recvAll) are *not* virtual
 * and *not* coroutines; they branch on which endpoint pointer is set
 * and return the underlying awaitable directly, so
 * `co_await sock.recvAll(n)` compiles to exactly the frames the raw
 * endpoint call would — both transports return identical Coro types
 * by design.  Only connect()/accept() — once per connection — add a
 * frame.
 *
 * The message-framing helpers (sendMessage/recvMessage/...) that used
 * to live in sock/message.hh as free functions over tcp::Connection&
 * are members here, written against the facade's own forwarders, so
 * they work unchanged on every transport.
 */

#ifndef IOAT_SOCK_SOCKET_HH
#define IOAT_SOCK_SOCKET_HH

#include <cstdint>
#include <memory>
#include <optional>

#include "simcore/assert.hh"
#include "simcore/coro.hh"
#include "sock/types.hh"
#include "tcp/stack.hh"
#include "xpt/bypass.hh"

namespace ioat::sock {

class Transport;
class TcpTransport;
class BypassTransport;
class Listener;

/**
 * Non-owning handle to one established byte-stream connection.
 *
 * Copyable (it is a view); the endpoint object lives in its stack
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
    bool valid() const { return tcp_ != nullptr || byp_ != nullptr; }

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
        if (tcp_)
            return tcp_->send(bytes, opts, meta);
        return checkedByp().send(bytes, opts, meta);
    }

    /** Receive up to @p max_bytes; 0 means the peer closed. */
    sim::Coro<std::size_t>
    recv(std::size_t max_bytes, sim::TraceContext ctx = {})
    {
        if (tcp_)
            return tcp_->recv(max_bytes, ctx);
        return checkedByp().recv(max_bytes, ctx);
    }

    /** Receive exactly @p bytes unless the peer closes first. */
    sim::Coro<std::size_t>
    recvAll(std::size_t bytes, sim::TraceContext ctx = {})
    {
        if (tcp_)
            return tcp_->recvAll(bytes, ctx);
        return checkedByp().recvAll(bytes, ctx);
    }
    /** @} */

    /** Half-close: the peer's recv() returns 0 after draining. */
    void
    close()
    {
        if (tcp_)
            tcp_->close();
        else
            checkedByp().close();
    }

    /** Locally abort (the simulated close of a stuck socket). */
    void
    abort()
    {
        if (tcp_)
            tcp_->abortLocal();
        else
            checkedByp().abortLocal();
    }

    /** @name In-band message metadata
     *  @{ */
    MsgMeta
    popMeta()
    {
        if (tcp_)
            return tcp_->popMeta();
        return checkedByp().popMeta();
    }
    std::size_t
    metaAvailable() const
    {
        if (tcp_)
            return tcp_->metaAvailable();
        return byp_ ? byp_->metaAvailable() : 0;
    }
    /** @} */

    /** @name State
     *  @{ */
    bool
    established() const
    {
        return tcp_ ? tcp_->established()
                    : byp_ && byp_->established();
    }
    bool
    aborted() const
    {
        return tcp_ ? tcp_->aborted() : byp_ && byp_->aborted();
    }
    bool
    peerClosed() const
    {
        return tcp_ ? tcp_->peerClosed() : byp_ && byp_->peerClosed();
    }
    /** Established, not aborted, peer still open: safe to use. */
    bool
    usable() const
    {
        return tcp_ ? tcp_->usable() : byp_ && byp_->usable();
    }
    std::uint64_t
    bytesSent() const
    {
        return tcp_ ? tcp_->bytesSent() : byp_ ? byp_->bytesSent() : 0;
    }
    std::uint64_t
    bytesReceived() const
    {
        return tcp_   ? tcp_->bytesReceived()
               : byp_ ? byp_->bytesReceived()
                      : 0;
    }
    /** Transport flow id (keys the telemetry flow table). */
    std::uint64_t
    flow() const
    {
        return tcp_ ? tcp_->flow() : byp_ ? byp_->flow() : 0;
    }
    /** @} */

    /** The simulation the connection's stack runs in. */
    sim::Simulation &
    simulation()
    {
        if (tcp_)
            return tcp_->simulation();
        return checkedByp().simulation();
    }

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
    friend class TcpTransport;
    friend class BypassTransport;
    friend class Listener;

    explicit Socket(tcp::Connection *conn) : tcp_(conn) {}
    explicit Socket(xpt::Endpoint *ep) : byp_(ep) {}

    xpt::Endpoint &
    checkedByp() const
    {
        sim::simAssert(byp_ != nullptr, "operation on invalid Socket");
        return *byp_;
    }

    /** At most one of these is non-null. */
    tcp::Connection *tcp_ = nullptr;
    xpt::Endpoint *byp_ = nullptr;
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

    /** A transport endpoint is attached; accept() is legal. */
    bool valid() const { return tcp_ != nullptr || byp_ != nullptr; }

    /** Awaitable: the next established connection on this port. */
    sim::Coro<Socket> accept();

  private:
    friend class TcpTransport;
    friend class BypassTransport;

    explicit Listener(tcp::Listener *inner) : tcp_(inner) {}
    explicit Listener(xpt::Listener *inner) : byp_(inner) {}

    tcp::Listener *tcp_ = nullptr;
    xpt::Listener *byp_ = nullptr;
};

/**
 * The once-per-connection control path a transport must provide (the
 * transport-interface contract; DESIGN.md §11).  Virtual dispatch is
 * confined to here — the per-byte data path lives in Socket's
 * devirtualized forwarders.
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    Transport() = default;
    Transport(const Transport &) = delete;
    Transport &operator=(const Transport &) = delete;

    /** Transport name for tables and CLI flags ("tcp", "bypass"). */
    virtual const char *name() const = 0;

    /**
     * Active open to (remote, port).  A nonzero @p timeout bounds
     * the handshake wait; on failure the returned socket reports
     * !usable() (never a hang, never a null).
     */
    sim::Coro<Socket>
    connect(net::NodeId remote, std::uint16_t port,
            sim::Tick timeout = sim::Tick{0})
    {
        return doConnect(remote, port, timeout);
    }

    /** Passive open; repeated calls on one port share the queue. */
    virtual Listener listen(std::uint16_t port) = 0;

    /** The simulation this transport's stack runs in. */
    virtual sim::Simulation &simulation() = 0;

    /** @name Transport-agnostic stack statistics (for benches)
     *  @{ */
    virtual std::uint64_t txPayloadBytes() const = 0;
    virtual std::uint64_t rxPayloadBytes() const = 0;
    /** Data segments resent by the transport's loss recovery. */
    virtual std::uint64_t retransmits() const = 0;
    /** Endpoints that failed after retry exhaustion. */
    virtual std::uint64_t abortedConnections() const = 0;
    /** @} */

  protected:
    virtual sim::Coro<Socket> doConnect(net::NodeId remote,
                                        std::uint16_t port,
                                        sim::Tick timeout) = 0;
};

/** Kernel-TCP transport: adapts tcp::TcpStack to the facade. */
class TcpTransport final : public Transport
{
  public:
    explicit TcpTransport(tcp::TcpStack &stack) : stack_(stack) {}

    const char *name() const override { return "tcp"; }

    Listener
    listen(std::uint16_t port) override
    {
        return Listener(&stack_.listen(port));
    }

    sim::Simulation &simulation() override { return stack_.host().sim; }

    std::uint64_t
    txPayloadBytes() const override
    {
        return stack_.txPayloadBytes();
    }
    std::uint64_t
    rxPayloadBytes() const override
    {
        return stack_.rxPayloadBytes();
    }
    std::uint64_t
    retransmits() const override
    {
        return stack_.retransmits();
    }
    std::uint64_t
    abortedConnections() const override
    {
        return stack_.abortedConnections();
    }

  protected:
    sim::Coro<Socket>
    doConnect(net::NodeId remote, std::uint16_t port,
              sim::Tick timeout) override
    {
        tcp::Connection *c =
            co_await stack_.connect(remote, port, timeout);
        co_return Socket(c);
    }

  private:
    tcp::TcpStack &stack_;
};

/** Kernel-bypass transport: adapts xpt::BypassStack to the facade. */
class BypassTransport final : public Transport
{
  public:
    explicit BypassTransport(xpt::BypassStack &stack) : stack_(stack) {}

    const char *name() const override { return "bypass"; }

    Listener
    listen(std::uint16_t port) override
    {
        return Listener(&stack_.listen(port));
    }

    sim::Simulation &simulation() override { return stack_.host().sim; }

    std::uint64_t
    txPayloadBytes() const override
    {
        return stack_.txPayloadBytes();
    }
    std::uint64_t
    rxPayloadBytes() const override
    {
        return stack_.rxPayloadBytes();
    }
    std::uint64_t
    retransmits() const override
    {
        return stack_.retransmits();
    }
    std::uint64_t
    abortedConnections() const override
    {
        return stack_.abortedConnections();
    }

  protected:
    sim::Coro<Socket>
    doConnect(net::NodeId remote, std::uint16_t port,
              sim::Tick timeout) override
    {
        xpt::Endpoint *e = co_await stack_.connect(remote, port, timeout);
        co_return Socket(e);
    }

  private:
    xpt::BypassStack &stack_;
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
    if (tcp_) {
        tcp::Connection *c = co_await tcp_->accept();
        co_return Socket(c);
    }
    xpt::Endpoint *e = co_await byp_->accept();
    co_return Socket(e);
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
