/**
 * @file
 * The transport stack: connections, flow control and — critically —
 * the sender/receiver CPU cost accounting the paper measures.
 *
 * Data is virtual (only byte counts move); what the stack simulates
 * faithfully is *where time goes*: syscalls, per-frame protocol work,
 * kernel↔user copies (CPU or I/OAT DMA engine), interrupts, wakeups,
 * credit returns, and their interaction with the cache and memory-bus
 * models.
 *
 * Flow control is credit-based: a sender may have at most the peer's
 * socket-buffer size outstanding; credit returns when the receiving
 * *application* drains bytes with recv(), which is what couples
 * receiver CPU load to achieved bandwidth (the paper's central
 * effect).
 */

#ifndef IOAT_TCP_STACK_HH
#define IOAT_TCP_STACK_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "mem/rolling_bytes.hh"
#include "net/burst.hh"
#include "nic/nic.hh"
#include "simcore/channel.hh"
#include "simcore/coro.hh"
#include "simcore/pool.hh"
#include "simcore/reqtrace.hh"
#include "simcore/stats.hh"
#include "simcore/sync.hh"
#include "simcore/telemetry/histogram.hh"
#include "simcore/telemetry/registry.hh"
#include "sock/types.hh"
#include "tcp/config.hh"
#include "tcp/host.hh"

namespace ioat::tcp {

using net::Burst;
using net::NodeId;
using sim::Coro;
using sim::Tick;

class TcpStack;

/** Transport-level packet types carried in Burst::kind. */
enum class BurstKind : std::uint32_t {
    Syn = 1,
    SynAck = 2,
    Data = 3,
    Ack = 4, ///< credit return
    Fin = 5,
    DataAck = 6,  ///< cumulative sequence ack (reliable mode)
    WinProbe = 7, ///< persist probe re-soliciting a credit return
};

/**
 * Sender-side copy of one in-flight data segment, kept until it is
 * cumulatively acked so an RTO can rebuild and resend it.
 */
struct TxSegment
{
    std::uint64_t seq = 0;      ///< stream offset of the first byte
    std::uint32_t payload = 0;  ///< segment payload bytes
    bool hasMeta = false;       ///< first segment of a message
    std::uint64_t meta[net::kBurstMetaWords] = {};
    std::uint64_t trace = 0;    ///< packed TraceContext (0 = untraced)
};

/** Per-send options: now a first-class sock:: type (migration alias). */
using SendOptions = sock::SendOptions;

/** In-band message metadata: now a first-class sock:: type. */
using MsgMeta = sock::MsgMeta;

/**
 * One established connection (single writer, single reader).
 *
 * Owned by its TcpStack; applications hold non-owning pointers.
 */
class Connection
{
  public:
    /**
     * Blocking send of @p bytes.  Returns when the last byte has been
     * accepted by the NIC (credit may stall us on the peer's buffer).
     *
     * @param meta optional application header delivered to the
     *        peer's metadata queue together with the first segment.
     */
    Coro<void> send(std::size_t bytes, SendOptions opts = {},
                    const MsgMeta *meta = nullptr);

    /** Pop the oldest delivered application header. */
    MsgMeta popMeta();

    /** Number of delivered-but-unpopped application headers. */
    std::size_t metaAvailable() const { return metaQueue_.size(); }

    /**
     * Blocking receive: waits for data, drains up to @p max_bytes
     * from the socket buffer (kernel→user copy happens here).
     * @param ctx request context the copy is attributed to; when
     *        invalid, the last context seen on arriving data is used.
     * @return bytes received; 0 means the peer closed.
     */
    Coro<std::size_t> recv(std::size_t max_bytes,
                           sim::TraceContext ctx = {});

    /** Receive exactly @p bytes (looping) unless the peer closes. */
    Coro<std::size_t> recvAll(std::size_t bytes,
                              sim::TraceContext ctx = {});

    /** Half-close: peer's recv() returns 0 after draining. */
    void close();

    /**
     * Locally abort the connection (the simulated equivalent of
     * closing a stuck socket): blocked send()/recv() callers are
     * released, recv() returns 0, later send()s are no-ops, and
     * `aborted()` reports the typed failure.  Also how the stack
     * surfaces retry exhaustion instead of hanging.
     */
    void abortLocal();

    bool established() const { return established_; }
    /** True once the connection failed (RTO exhaustion or abortLocal). */
    bool aborted() const { return aborted_; }
    /** Established, not aborted, peer still open: safe to use. */
    bool
    usable() const
    {
        return established_ && !aborted_ && !peerClosed_;
    }
    bool peerClosed() const { return peerClosed_; }
    /** Peer receive-buffer size learned in the handshake. */
    std::size_t peerSockBuf() const { return peerSockBuf_; }
    std::size_t rxAvailable() const { return rxBuffered_; }
    std::uint64_t flow() const { return flow_; }
    NodeId remoteNode() const { return remoteNode_; }

    std::uint64_t bytesSent() const { return bytesSent_; }
    std::uint64_t bytesReceived() const { return bytesReceived_; }

    /** @name Flow telemetry (see telemetry::FlowSample)
     *  @{ */
    /** Data segments this connection resent via the RTO path. */
    std::uint64_t flowRetransmits() const { return retrans_; }
    /** Retransmission timeouts that fired on this connection. */
    std::uint64_t rtoFires() const { return rtoFires_; }
    /** connect()/accept -> established (0 until established). */
    Tick
    handshakeLatency() const
    {
        return established_ ? establishedAt_ - openedAt_ : Tick{0};
    }
    /** established -> local FIN/abort (0 while still open). */
    Tick
    finLatency() const
    {
        return finishedAt_ > Tick{0} ? finishedAt_ - establishedAt_
                                     : Tick{0};
    }
    /** @} */

    /** The simulation this connection's stack runs in. */
    sim::Simulation &simulation();

    /** Passkey: only TcpStack can mint one, so construction stays
     *  stack-owned while std::make_unique does the allocation. */
    class Key
    {
        friend class TcpStack;
        Key() = default;
    };

    Connection(Key, TcpStack &stack, std::uint64_t local_token);

  private:
    friend class TcpStack;

    TcpStack &stack_;
    std::uint64_t localToken_;
    std::uint64_t remoteToken_ = 0;
    NodeId remoteNode_ = net::kInvalidNode;
    std::uint64_t flow_ = 0;
    bool established_ = false;
    sim::Event establishedEvt_;

    // --- sender state ---
    std::size_t credit_ = 0;      ///< unused peer-buffer bytes
    std::size_t peerSockBuf_ = 0; ///< learned during the handshake
    sim::Event creditAvail_;

    // --- receiver state ---
    std::size_t rxBuffered_ = 0; ///< bytes in the kernel socket buffer
    bool rxWaiting_ = false;     ///< a recv() is blocked on data
    sim::Event rxReady_;
    bool peerClosed_ = false;
    bool localClosed_ = false;
    std::deque<MsgMeta> metaQueue_; ///< delivered application headers
    /** Context of the most recent traced data arrival: lets recv()
     *  attribute its copy when the caller didn't thread a context
     *  (sink-style receivers). */
    sim::TraceContext rxCtx_{};

    // --- loss tolerance (live only with TcpConfig::reliable) ---
    bool aborted_ = false;
    std::uint64_t sndNxt_ = 0;       ///< next stream offset to send
    std::uint64_t sndUna_ = 0;       ///< oldest unacked stream offset
    std::uint64_t peerDrained_ = 0;  ///< cumulative bytes peer app drained
    std::uint64_t rcvNxt_ = 0;       ///< next expected stream offset
    std::uint64_t drainedTotal_ = 0; ///< cumulative bytes our app drained
    /** Sent-but-unacked segments; nodes come from the stack's arena. */
    sim::PooledFifo<TxSegment> retransQ_;
    sim::Event txActivity_;          ///< retransQ went non-empty / closed
    sim::Event ackProgress_;         ///< sndUna_ advanced (or abort)

    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesReceived_ = 0;

    // --- flow telemetry ---
    std::uint64_t retrans_ = 0;  ///< segments resent on this flow
    std::uint64_t rtoFires_ = 0; ///< RTO expiries on this flow
    Tick openedAt_{};            ///< connection object creation
    Tick establishedAt_{};       ///< handshake completion
    Tick finishedAt_{};          ///< local FIN or abort (0 = open)
};

/**
 * Passive endpoint: a queue of connections accepted on a port.
 */
class Listener
{
  public:
    /** Awaitable: next established connection on this port. */
    Coro<Connection *> accept();

    /** Passkey: see Connection::Key. */
    class Key
    {
        friend class TcpStack;
        Key() = default;
    };

    Listener(Key, sim::Simulation &sim) : pending_(sim) {}

  private:
    friend class TcpStack;

    sim::Channel<Connection *> pending_;
};

/**
 * One node's transport stack, bound to its NIC and hardware models.
 */
class TcpStack
{
  public:
    TcpStack(const Host &host, nic::Nic &nic, const TcpConfig &cfg);
    ~TcpStack();

    TcpStack(const TcpStack &) = delete;
    TcpStack &operator=(const TcpStack &) = delete;

    /**
     * Active open to (remote node, port).
     *
     * With `TcpConfig::reliable`, the SYN is retried with backoff and
     * the returned connection may come back `aborted()` instead of
     * hanging when the peer is unreachable.  A nonzero @p timeout
     * bounds the wait the same way for non-reliable stacks (0 = wait
     * forever, the seed behaviour).
     */
    Coro<Connection *> connect(NodeId remote, std::uint16_t port,
                               Tick timeout = Tick{0});

    /** Passive open; one listener per port. */
    Listener &listen(std::uint16_t port);

    /**
     * Process-crash semantics (used by sim::Lifecycle): abort every
     * connection — blocked senders/receivers/connectors are released
     * and see the typed failure — and forget the SYN-dedup state, as
     * a freshly exec'd process would.  Listeners persist: the restart
     * re-listens on the same ports, so the accept loops parked on
     * them simply start receiving post-restart connections.
     */
    void crashReset();

    const TcpConfig &config() const { return cfg_; }
    const Host &host() const { return host_; }
    nic::Nic &nicDev() { return nic_; }
    NodeId nodeId() const { return nic_.id(); }

    /** @name Stack-level statistics
     *  @{ */
    std::uint64_t txPayloadBytes() const { return txPayload_.value(); }
    std::uint64_t rxPayloadBytes() const { return rxPayload_.value(); }
    std::uint64_t rxSegments() const { return rxSegments_.value(); }
    std::uint64_t dmaOffloadedCopies() const { return dmaCopies_.value(); }
    std::uint64_t cpuCopies() const { return cpuCopies_.value(); }
    /** Data segments resent by the RTO path. */
    std::uint64_t retransmits() const { return retransmits_.value(); }
    /** Received data segments below rcvNxt (already-delivered dups). */
    std::uint64_t rxDuplicateSegments() const { return rxDups_.value(); }
    /** Received data segments beyond rcvNxt (go-back-N discards). */
    std::uint64_t rxOutOfOrderDrops() const { return rxOoo_.value(); }
    /** Persist probes sent while credit-starved. */
    std::uint64_t windowProbes() const { return winProbes_.value(); }
    /** SYN retransmissions during active opens. */
    std::uint64_t synRetries() const { return synRetries_.value(); }
    /** Connections that gave up after retry exhaustion. */
    std::uint64_t abortedConnections() const { return aborts_.value(); }
    /** @} */

    /**
     * Publish counters, handshake/lifetime histograms, the live-
     * connection probe and the per-flow table (called by the owning
     * Node's hierarchy walk under its "tcp" scope).
     */
    void instrument(sim::telemetry::Registry &reg);

  private:
    friend class Connection;

    /** NIC interrupt entry point. */
    void onRxBatch(unsigned queue, std::vector<Burst> &&bursts);

    /**
     * Per-queue softirq service loop (NAPI-style): batches of one RX
     * queue are processed strictly in order, one at a time.
     */
    Coro<void> softirqLoop(unsigned queue);

    /** Process one interrupt's worth of bursts. */
    Coro<void> processBatch(unsigned queue,
                            const std::vector<Burst> &bursts);

    /** Core that services interrupts for a given flow's port. */
    int rxCoreFor(unsigned queue, std::uint64_t flow) const;

    /**
     * Transmit a zero-payload control burst on a connection's flow.
     * @param handshake_sockbuf nonzero on SYN/SYN-ACK: advertises the
     *        local receive buffer to bound the peer's send credit.
     */
    void sendControl(NodeId dst, std::uint64_t flow, BurstKind kind,
                     std::uint64_t conn_token, std::uint64_t arg,
                     std::uint64_t handshake_sockbuf = 0);

    /** Kernel→user copy inside recv() (CPU or DMA-engine path). */
    Coro<void> receiveCopy(sim::Bytes bytes, sim::TraceContext ctx = {});

    /** Record CPU-streamed payload bytes (cache-pollution tracking). */
    void noteStreamBytes(sim::Bytes bytes);

    /** @name Loss-tolerance machinery (reliable mode only)
     *  @{ */
    /** Per-connection retransmission timer (spawned when reliable). */
    Coro<void> rtoLoop(std::uint64_t token);
    /** Rebuild and resend the oldest unacked segment. */
    Coro<void> retransmitTask(std::uint64_t token, TxSegment seg);
    /** Mark @p c failed and release every blocked waiter on it. */
    void abortConnection(Connection &c);
    /** @} */

    Connection *newConnection();
    Connection *connFor(std::uint64_t token);

    Host host_;
    nic::Nic &nic_;
    TcpConfig cfg_;

    /**
     * Shared arena for every connection's retransmission queue —
     * declared before conns_ so it outlives the queues built on it.
     */
    sim::PooledFifo<TxSegment>::NodePool txSegPool_;

    std::vector<std::unique_ptr<Connection>> conns_;
    std::unordered_map<std::uint16_t, std::unique_ptr<Listener>> listeners_;
    std::uint64_t flowCounter_ = 0;
    /** (src node, flow) → local token: dedups retransmitted SYNs. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        synSeen_;

    /** One batch mailbox per RX queue, drained by softirqLoop(). */
    std::vector<std::unique_ptr<nic::RxMailbox>> rxMailboxes_;

    /** Header/metadata pool footprint (protected iff split-header). */
    mem::FootprintId hdrPool_;
    /** Streaming payload footprint from recent CPU copies/touches. */
    mem::FootprintId netStream_;
    /** Cached size slot: noteStreamBytes runs per segment. */
    std::size_t *netStreamSize_ = nullptr;
    mem::RollingBytes streamWindow_;

    sim::stats::Counter txPayload_;
    sim::stats::Counter rxPayload_;
    sim::stats::Counter rxSegments_;
    sim::stats::Counter dmaCopies_;
    sim::stats::Counter cpuCopies_;
    sim::stats::Counter retransmits_;
    sim::stats::Counter rxDups_;
    sim::stats::Counter rxOoo_;
    sim::stats::Counter winProbes_;
    sim::stats::Counter synRetries_;
    sim::stats::Counter aborts_;

    /** Active-open handshake latency distribution (ticks). */
    sim::telemetry::Histogram handshakeHist_;
    /** Flow lifetime, established -> FIN/abort (ticks). */
    sim::telemetry::Histogram lifetimeHist_;

    /** Record the FIN/abort instant once per connection. */
    void noteFlowFinished(Connection &c);
};

} // namespace ioat::tcp

#endif // IOAT_TCP_STACK_HH
