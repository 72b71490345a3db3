/**
 * @file
 * The connection protocol both transports run: the connection table,
 * the handshake with SYN dedup, credit-based flow control, cumulative
 * acks with go-back-N retransmission on an RTO timer, FIN/abort, and
 * the per-node flow table.
 *
 * A transport is this protocol plus a *cost model*.  A concrete stack
 * (`tcp::TcpStack` for the kernel, `xpt::BypassStack` for the
 * user-space library) derives from `Protocol` and supplies what
 * differs: the CPU charged per send call and per segment, per recv
 * call (a copy, a DMA, or nothing), per RX pass and per burst; the
 * core an RX queue is serviced on; its footprints, counters and span
 * names; and four constants (`Protocol::Spec`).  The protocol's own
 * statements run in the same order under both, so one fault schedule
 * fails and recovers the same way on either, with one documented
 * exception: whether connect() honours a caller's deadline
 * (`Spec::deadlineOverridesRetries`, DESIGN.md §9).
 *
 * Data is virtual (only byte counts move).  Flow control is
 * credit-based: a sender may have at most the peer's receive buffer
 * outstanding; credit returns when the receiving *application* drains
 * bytes with recv(), which couples receiver CPU load to achieved
 * bandwidth (the paper's central effect).
 */

#ifndef IOAT_TCP_PROTOCOL_HH
#define IOAT_TCP_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <map>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/burst.hh"
#include "nic/nic.hh"
#include "simcore/assert.hh"
#include "simcore/channel.hh"
#include "simcore/coro.hh"
#include "simcore/pool.hh"
#include "simcore/reqtrace.hh"
#include "simcore/stats.hh"
#include "simcore/sync.hh"
#include "simcore/telemetry/histogram.hh"
#include "simcore/telemetry/registry.hh"
#include "sock/types.hh"
#include "tcp/host.hh"

namespace ioat::tcp {

using net::Burst;
using net::NodeId;
using sim::Coro;
using sim::Tick;

class Protocol;

/**
 * Transport-level packet types carried in Burst::kind, offset on the
 * wire by the stack's `Spec::kindBase`.
 */
enum class BurstKind : std::uint32_t {
    Syn = 1,
    SynAck = 2,
    Data = 3,
    Ack = 4, ///< credit return
    Fin = 5,
    DataAck = 6,  ///< cumulative sequence ack (reliable mode)
    WinProbe = 7, ///< persist probe re-soliciting a credit return
};

/** Number of BurstKind values (1..kBurstKinds). */
inline constexpr std::uint32_t kBurstKinds = 7;

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

/**
 * One CPU charge, itemised the way a request trace splits it: the
 * charge costs the sum of its parts.  An empty charge is not charged
 * at all (no compute() call).
 */
class Charge
{
  public:
    using Part = sim::RequestTracer::Component;
    static constexpr std::size_t kMaxParts = 6;

    Charge() = default;
    Charge(std::initializer_list<Part> parts)
    {
        sim::simAssert(parts.size() <= kMaxParts, "too many charge parts");
        for (const Part &p : parts) {
            parts_[count_++] = p;
            total_ += p.ticks;
        }
    }

    Tick total() const { return total_; }
    bool empty() const { return count_ == 0; }
    std::span<const Part> parts() const { return {parts_.data(), count_}; }

  private:
    std::array<Part, kMaxParts> parts_{};
    std::size_t count_ = 0;
    Tick total_{};
};

/**
 * One established connection (single writer, single reader).
 *
 * Owned by its stack; applications hold non-owning pointers (normally
 * wrapped in a sock::Socket).
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
    Coro<void> send(std::size_t bytes, sock::SendOptions opts = {},
                    const sock::MsgMeta *meta = nullptr);

    /** Pop the oldest delivered application header. */
    sock::MsgMeta popMeta();

    /** Number of delivered-but-unpopped application headers. */
    std::size_t metaAvailable() const { return metaQueue_.size(); }

    /**
     * Blocking receive: waits for data, drains up to @p max_bytes
     * from the receive buffer (the stack's copy, if any, happens
     * here).
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
    /** A recv() is blocked waiting for data. */
    bool recvBlocked() const { return rxWaiting_; }
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

    /** Passkey: only Protocol can mint one, so construction stays
     *  stack-owned while std::make_unique does the allocation. */
    class Key
    {
        friend class Protocol;
        Key() = default;
    };

    Connection(Key, Protocol &stack, std::uint64_t local_token);

  private:
    friend class Protocol;

    /** Buffer an in-order data burst for recv() and wake it. */
    void deliver(const Burst &b);

    Protocol &stack_;
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
    std::size_t rxBuffered_ = 0; ///< bytes in the receive buffer
    bool rxWaiting_ = false;     ///< a recv() is blocked on data
    sim::Event rxReady_;
    bool peerClosed_ = false;
    bool localClosed_ = false;
    std::deque<sock::MsgMeta> metaQueue_; ///< delivered app headers
    /** Context of the most recent traced data arrival: lets recv()
     *  attribute its copy when the caller didn't thread a context
     *  (sink-style receivers). */
    sim::TraceContext rxCtx_{};

    // --- loss tolerance (live only when Spec::reliable) ---
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
        friend class Protocol;
        Key() = default;
    };

    Listener(Key, sim::Simulation &sim) : pending_(sim) {}

  private:
    friend class Protocol;

    sim::Channel<Connection *> pending_;
};

/**
 * One node's instance of the protocol, bound to its NIC.  Abstract:
 * a concrete stack supplies the cost model.  Construction takes over
 * the NIC's RX delivery (setRxHandler), so the stack built last on a
 * node receives its traffic.
 */
class Protocol
{
  public:
    virtual ~Protocol() = default;

    Protocol(const Protocol &) = delete;
    Protocol &operator=(const Protocol &) = delete;

    /**
     * Active open to (remote node, port).
     *
     * A reliable stack retries the SYN with backoff and returns an
     * `aborted()` connection instead of hanging when the peer is
     * unreachable.  A nonzero @p timeout gives a single SYN that
     * deadline instead — on a non-reliable stack always, on a
     * reliable one only if `Spec::deadlineOverridesRetries` (0 = no
     * deadline; a non-reliable stack then waits forever).
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

    const Host &host() const { return host_; }
    NodeId nodeId() const { return nic_.id(); }

    /** @name Protocol statistics
     *  @{ */
    std::uint64_t txPayloadBytes() const { return txPayload_.value(); }
    std::uint64_t rxPayloadBytes() const { return rxPayload_.value(); }
    /** Data segments resent by the RTO path. */
    std::uint64_t retransmits() const { return retransmits_.value(); }
    /** Received data segments below rcvNxt (already-delivered dups). */
    std::uint64_t rxDuplicateSegments() const { return rxDups_.value(); }
    /** Received data segments beyond rcvNxt (go-back-N discards). */
    std::uint64_t rxOutOfOrderDrops() const { return rxOoo_.value(); }
    /** Persist probes sent while credit-starved. */
    std::uint64_t windowProbes() const { return winProbes_.value(); }
    /** send() segments that had to wait for peer-buffer credit. */
    std::uint64_t creditStalls() const { return creditStalls_.value(); }
    /** SYN retransmissions during active opens. */
    std::uint64_t synRetries() const { return synRetries_.value(); }
    /** Connections that gave up after retry exhaustion. */
    std::uint64_t abortedConnections() const { return aborts_.value(); }
    /** @} */

    /**
     * Publish counters, handshake/lifetime histograms, the connection
     * probes and the per-flow table (called by the owning Node's
     * hierarchy walk under the stack's scope).
     */
    void instrument(sim::telemetry::Registry &reg);

  protected:
    /**
     * What a concrete stack fixes about the protocol: its four
     * constants, the limits and timers of its config, and the flat
     * CPU charges of its calls.
     */
    struct Spec
    {
        /** @name The four per-transport constants
         *  @{ */
        /** Added to every BurstKind on the wire, so a burst misrouted
         *  to the other transport trips an assert (0 or 100). */
        std::uint32_t kindBase = 0;
        /** Added to the flow ids this node opens, so two stacks on
         *  one node never share one (0 or 3571). */
        std::uint64_t flowOffset = 0;
        /** Sequence numbers, cumulative acks and credit, RTO
         *  retransmission, SYN retries. */
        bool reliable = false;
        /** A nonzero connect() deadline replaces a reliable stack's
         *  SYN retry budget with one SYN and that deadline. */
        bool deadlineOverridesRetries = false;
        /** @} */

        /** @name Limits and timers (see TcpConfig)
         *  @{ */
        std::size_t bufBytes = 0; ///< receive buffer = peer's credit
        std::size_t maxSegment = 0;
        Tick connSetupCost{};
        Tick rtoInitial{};
        Tick rtoMax{};
        unsigned maxRetransmits = 0;
        Tick persistTimeout{};
        Tick synRetryTimeout{};
        unsigned maxSynRetries = 0;
        /** @} */

        /** @name Flat charges and names
         *  @{ */
        Charge sendCall; ///< entering send(); empty for a library call
        Charge recvCall; ///< entering recv()
        Charge ackGen;   ///< building the credit return recv() sends
        /** CPU to rebuild and resend one segment. */
        Tick retransmitCost{};
        /** Request-trace span of a resend. */
        const char *retransmitSpan = nullptr;
        /** Telemetry key of the connection count. */
        const char *connectionsKey = nullptr;
        /** @} */
    };

    /** One traced data burst's share of an RX pass. */
    struct RxShare
    {
        sim::TraceContext ctx;
        Tick off;      ///< pass cost accumulated before this burst
        Charge charge; ///< the burst's parts, laid out from off
    };

    Protocol(const Host &host, nic::Nic &nic, Spec spec);

    /** @name The cost model a concrete stack supplies
     *  @{ */
    /** CPU for one outgoing segment of @p bytes in @p frames (any
     *  copy's bus and cache effects are applied here). */
    virtual Charge segmentCharge(std::size_t bytes, std::uint32_t frames,
                                 bool zero_copy) = 0;
    /** Move @p bytes to the application inside recv(); a zero-copy
     *  stack returns an empty Coro and nothing is awaited. */
    virtual Coro<void> receiveCopy(sim::Bytes bytes,
                                   sim::TraceContext ctx) = 0;
    /** CPU for one RX pass over @p bursts; traced data bursts append
     *  their shares to @p shares (null when tracing is off). */
    virtual Tick rxPassCost(const std::vector<Burst> &bursts,
                            std::vector<RxShare> *shares) = 0;
    /** Core that services RX queue @p queue. */
    virtual int rxCoreFor(unsigned queue) const = 0;
    /** Publish the cost model's own counters. */
    virtual void instrumentCosts(sim::telemetry::Registry &reg) = 0;
    /** @} */

    /** Protocol kind of a burst received by this stack. */
    BurstKind
    kindOf(const Burst &b) const
    {
        return static_cast<BurstKind>(b.kind - spec_.kindBase);
    }

    Connection *connFor(std::uint64_t token);

    Host host_;
    nic::Nic &nic_;
    /** send() segments that waited for credit (published by the
     *  stacks that report it). */
    sim::stats::Counter creditStalls_;

  private:
    friend class Connection;

    /** NIC interrupt entry point. */
    void onRxBatch(unsigned queue, std::vector<Burst> &&bursts);

    /**
     * Per-queue service loop (a softirq, or a busy-poll loop):
     * batches of one RX queue are processed strictly in order, one at
     * a time.  Each pass charges its CPU cost on the queue's core,
     * then applies the batch's protocol effects.
     */
    Coro<void> rxLoop(unsigned queue);

    /** Pass 1: the batch's bus traffic and the CPU cost of the pass
     *  (traced data bursts append their shares to @p shares). */
    Tick chargeRxPass(const std::vector<Burst> &bursts,
                      std::vector<RxShare> *shares);

    /** Pass 2: apply the batch's protocol effects, in burst order. */
    void applyRxPass(const std::vector<Burst> &bursts);

    /**
     * Transmit a zero-payload control burst on a connection's flow.
     * @param handshake_buf nonzero on SYN/SYN-ACK: advertises the
     *        local receive buffer to bound the peer's send credit.
     */
    void sendControl(NodeId dst, std::uint64_t flow, BurstKind kind,
                     std::uint64_t conn_token, std::uint64_t arg,
                     std::uint64_t handshake_buf = 0);

    /** @name Loss-tolerance machinery (reliable mode only)
     *  @{ */
    /** Per-connection retransmission timer. */
    Coro<void> rtoLoop(std::uint64_t token);
    /** Rebuild and resend the oldest unacked segment. */
    Coro<void> retransmitTask(std::uint64_t token, TxSegment seg);
    /** @} */

    /** Mark @p c failed and release every blocked waiter on it. */
    void abortConnection(Connection &c);

    /** Record the FIN/abort instant once per connection. */
    void noteFlowFinished(Connection &c);

    Connection *newConnection();

    const Spec spec_;

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

    /** One batch mailbox per RX queue, drained by rxLoop(). */
    std::vector<std::unique_ptr<nic::RxMailbox>> rxMailboxes_;

    sim::stats::Counter txPayload_;
    sim::stats::Counter rxPayload_;
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
};

} // namespace ioat::tcp

#endif // IOAT_TCP_PROTOCOL_HH
