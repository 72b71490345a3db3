/**
 * @file
 * User-space polled kernel-bypass transport (the path that won
 * historically: DPDK/RDMA-style NIC queue mapping, no kernel socket
 * layer).  This header is the xpt/ *interface*: `sock/` may include
 * it and nothing else from this directory.
 *
 * What the model keeps and what it drops, relative to tcp/stack.hh:
 *
 *  - **No syscalls, no interrupts.**  The NIC RX/TX queues are mapped
 *    into the application; a busy-poll loop pinned per RX queue
 *    notices completed descriptors.  Each poll pass is charged to the
 *    CPU through the existing `cpu.compute()` slicing (a small poll
 *    entry plus per-descriptor work), replacing the kernel's IRQ
 *    entry + softirq + syscall costs.  Empty poll spins are not
 *    simulated as events — the poll core's cost is charged per
 *    serviced batch, which is the steady-state approximation the
 *    gem5 kernel-bypass study makes too.
 *
 *  - **Zero-copy.**  Payload lands in a registered buffer pool via
 *    NIC DMA and the application reads it in place: recv() charges no
 *    kernel→user copy, send() no user→kernel copy.  Only the bus
 *    bandwidth of the NIC DMA itself is consumed.
 *
 *  - **Credit-based flow control** against the peer's registered
 *    buffer pool (`BypassConfig::bufPoolBytes`), advertised during
 *    the handshake exactly like the TCP socket buffer: a sender may
 *    have at most that many bytes outstanding, and credit returns
 *    when the receiving application drains bytes.
 *
 *  - **Loss handling lives in the user-space library.**  Every
 *    endpoint runs sequence/cumulative-ack + go-back-N retransmission
 *    with an RTO timer (the reliable-mode subset of tcp/stack.cc), so
 *    `FaultInjector` drops at NIC/link sites are recovered, not
 *    wedged.  There is no unreliable mode: a transport without a
 *    kernel has nobody else to do it.
 *
 * Burst kinds are numbered from 101 so a misrouted burst from the TCP
 * stack (kinds 1..7) is caught by an assert instead of being
 * misinterpreted.
 */

#ifndef IOAT_XPT_BYPASS_HH
#define IOAT_XPT_BYPASS_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

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
#include "tcp/host.hh"

namespace ioat::xpt {

using net::Burst;
using net::NodeId;
using sim::Coro;
using sim::Tick;

class BypassStack;

/** Transport-level packet types (disjoint from tcp::BurstKind). */
enum class BypassKind : std::uint32_t {
    Syn = 101,
    SynAck = 102,
    Data = 103,
    Ack = 104,      ///< credit return (cumulative drained bytes)
    Fin = 105,
    DataAck = 106,  ///< cumulative sequence ack
    WinProbe = 107, ///< persist probe re-soliciting a credit return
};

/** First burst-kind value owned by this transport. */
inline constexpr std::uint32_t kBypassKindBase = 100;

/**
 * Library configuration and CPU cost table.  The costs contrast with
 * TcpConfig's: no syscall entry/exit, no IRQ entry, no copies — just
 * descriptor work and the poll loop.  Values follow published
 * user-space stack measurements (a few hundred ns per descriptor on
 * 2006-era cores).
 */
struct BypassConfig
{
    /** @name Flow control and segmentation
     *  @{ */
    /** Registered receive buffer pool = flow-control credit. */
    std::size_t bufPoolBytes = 256 * 1024;
    /** Largest segment handed to the NIC in one descriptor chain. */
    std::size_t maxSegment = 64 * 1024;
    /** @} */

    /** @name Sender-side CPU costs (library, not kernel)
     *  @{ */
    /** Build a TX descriptor chain + doorbell write, per segment. */
    Tick txDescCost = sim::nanoseconds(250);
    /** Per-frame descriptor slot work when the NIC lacks TSO. */
    Tick txPerFrame = sim::nanoseconds(100);
    /** @} */

    /** @name Receiver-side CPU costs (the busy-poll loop)
     *  @{ */
    /** Poll-pass entry: ring pointer check + prefetch. */
    Tick rxPollEntry = sim::nanoseconds(100);
    /** Per-frame RX descriptor check + buffer recycle. */
    Tick rxPerFrame = sim::nanoseconds(150);
    /** Per-burst library demux/reassembly (flow lookup, seq check). */
    Tick rxPerBurst = sim::nanoseconds(200);
    /** recv() call into the library (no syscall). */
    Tick libRecvCost = sim::nanoseconds(150);
    /** Building and sending a credit-return/ack descriptor. */
    Tick ackGenCost = sim::nanoseconds(100);
    /** @} */

    /** @name Connection management
     *  @{ */
    /** Handshake CPU cost per endpoint (queue-pair setup). */
    Tick connSetupCost = sim::microseconds(1);
    /** @} */

    /** @name Loss tolerance (always on — see file header)
     *  @{ */
    Tick rtoInitial = sim::milliseconds(3);
    Tick rtoMax = sim::milliseconds(200);
    /** RTO expiries without ack progress before the endpoint aborts. */
    unsigned maxRetransmits = 8;
    /** Probe period while blocked on (possibly lost) credit returns. */
    Tick persistTimeout = sim::milliseconds(10);
    /** Initial SYN retransmission timeout (also backed off). */
    Tick synRetryTimeout = sim::milliseconds(5);
    /** SYN (re)transmissions before an active open aborts. */
    unsigned maxSynRetries = 5;
    /** CPU cost to rebuild and requeue one retransmitted segment. */
    Tick retransmitCost = sim::nanoseconds(1000);
    /** @} */
};

/** Sender-side copy of one in-flight segment (see tcp::TxSegment). */
struct XptTxSegment
{
    std::uint64_t seq = 0;
    std::uint32_t payload = 0;
    bool hasMeta = false;
    std::uint64_t meta[net::kBurstMetaWords] = {};
    std::uint64_t trace = 0;
};

/**
 * One established bypass endpoint (single writer, single reader).
 *
 * Owned by its BypassStack; applications hold non-owning pointers
 * (normally wrapped in a sock::Socket).  The data-path members return
 * the same Coro types as tcp::Connection's, which is what lets the
 * facade forward without a wrapper frame.
 */
class Endpoint
{
  public:
    /** Blocking send; zero-copy by construction (opts.zeroCopy is
     *  ignored — there is no kernel buffer to copy into). */
    Coro<void> send(std::size_t bytes, sock::SendOptions opts = {},
                    const sock::MsgMeta *meta = nullptr);

    /** Pop the oldest delivered application header. */
    sock::MsgMeta popMeta();

    /** Number of delivered-but-unpopped application headers. */
    std::size_t metaAvailable() const { return metaQueue_.size(); }

    /** Blocking receive: waits for data, drains up to @p max_bytes in
     *  place from the buffer pool (no copy).  0 = peer closed. */
    Coro<std::size_t> recv(std::size_t max_bytes,
                           sim::TraceContext ctx = {});

    /** Receive exactly @p bytes (looping) unless the peer closes. */
    Coro<std::size_t> recvAll(std::size_t bytes,
                              sim::TraceContext ctx = {});

    /** Half-close: peer's recv() returns 0 after draining. */
    void close();

    /** Locally abort (releases every blocked waiter). */
    void abortLocal();

    bool established() const { return established_; }
    bool aborted() const { return aborted_; }
    /** Established, not aborted, peer still open: safe to use. */
    bool
    usable() const
    {
        return established_ && !aborted_ && !peerClosed_;
    }
    bool peerClosed() const { return peerClosed_; }
    /** Peer buffer-pool size learned in the handshake. */
    std::size_t peerBufPool() const { return peerBufPool_; }
    std::size_t rxAvailable() const { return rxBuffered_; }
    std::uint64_t flow() const { return flow_; }
    NodeId remoteNode() const { return remoteNode_; }

    std::uint64_t bytesSent() const { return bytesSent_; }
    std::uint64_t bytesReceived() const { return bytesReceived_; }

    /** @name Flow telemetry (see telemetry::FlowSample)
     *  @{ */
    std::uint64_t flowRetransmits() const { return retrans_; }
    std::uint64_t rtoFires() const { return rtoFires_; }
    Tick
    handshakeLatency() const
    {
        return established_ ? establishedAt_ - openedAt_ : Tick{0};
    }
    Tick
    finLatency() const
    {
        return finishedAt_ > Tick{0} ? finishedAt_ - establishedAt_
                                     : Tick{0};
    }
    /** @} */

    /** The simulation this endpoint's stack runs in. */
    sim::Simulation &simulation();

    /** Passkey: only BypassStack can mint one. */
    class Key
    {
        friend class BypassStack;
        Key() = default;
    };

    Endpoint(Key, BypassStack &stack, std::uint64_t local_token);

  private:
    friend class BypassStack;

    BypassStack &stack_;
    std::uint64_t localToken_;
    std::uint64_t remoteToken_ = 0;
    NodeId remoteNode_ = net::kInvalidNode;
    std::uint64_t flow_ = 0;
    bool established_ = false;
    sim::Event establishedEvt_;

    // --- sender state ---
    std::size_t credit_ = 0;       ///< unused peer-pool bytes
    std::size_t peerBufPool_ = 0;  ///< learned during the handshake
    sim::Event creditAvail_;

    // --- receiver state ---
    std::size_t rxBuffered_ = 0; ///< bytes parked in the buffer pool
    bool rxWaiting_ = false;
    sim::Event rxReady_;
    bool peerClosed_ = false;
    bool localClosed_ = false;
    std::deque<sock::MsgMeta> metaQueue_;
    sim::TraceContext rxCtx_{};

    // --- reliability (always on) ---
    bool aborted_ = false;
    std::uint64_t sndNxt_ = 0;
    std::uint64_t sndUna_ = 0;
    std::uint64_t peerDrained_ = 0;
    std::uint64_t rcvNxt_ = 0;
    std::uint64_t drainedTotal_ = 0;
    sim::PooledFifo<XptTxSegment> retransQ_;
    sim::Event txActivity_;
    sim::Event ackProgress_;

    std::uint64_t bytesSent_ = 0;
    std::uint64_t bytesReceived_ = 0;

    // --- flow telemetry ---
    std::uint64_t retrans_ = 0;
    std::uint64_t rtoFires_ = 0;
    Tick openedAt_{};
    Tick establishedAt_{};
    Tick finishedAt_{};
};

/** Passive endpoint: a queue of endpoints accepted on a port. */
class Listener
{
  public:
    /** Awaitable: next established endpoint on this port. */
    Coro<Endpoint *> accept();

    /** Passkey: see Endpoint::Key. */
    class Key
    {
        friend class BypassStack;
        Key() = default;
    };

    Listener(Key, sim::Simulation &sim) : pending_(sim) {}

  private:
    friend class BypassStack;

    sim::Channel<Endpoint *> pending_;
};

/**
 * One node's user-space transport library, bound to its NIC.
 *
 * Construction takes over the NIC's RX delivery (setRxHandler): a
 * node is either kernel-TCP or bypass, never both at once.
 */
class BypassStack
{
  public:
    BypassStack(const tcp::Host &host, nic::Nic &nic,
                const BypassConfig &cfg);
    ~BypassStack();

    BypassStack(const BypassStack &) = delete;
    BypassStack &operator=(const BypassStack &) = delete;

    /**
     * Active open to (remote node, port).  The SYN is retried with
     * backoff; an unreachable peer yields an aborted() endpoint, not
     * a hang.  A nonzero @p timeout substitutes for the retry budget.
     */
    Coro<Endpoint *> connect(NodeId remote, std::uint16_t port,
                             Tick timeout = Tick{0});

    /** Passive open; one listener per port. */
    Listener &listen(std::uint16_t port);

    /** Process-crash semantics: abort every endpoint, forget the
     *  SYN-dedup state (see tcp::TcpStack::crashReset). */
    void crashReset();

    const BypassConfig &config() const { return cfg_; }
    const tcp::Host &host() const { return host_; }
    nic::Nic &nicDev() { return nic_; }
    NodeId nodeId() const { return nic_.id(); }

    /** @name Stack-level statistics
     *  @{ */
    std::uint64_t txPayloadBytes() const { return txPayload_.value(); }
    std::uint64_t rxPayloadBytes() const { return rxPayload_.value(); }
    std::uint64_t rxBursts() const { return rxBursts_.value(); }
    /** Poll passes that serviced at least one descriptor. */
    std::uint64_t pollPasses() const { return pollPasses_.value(); }
    /** send() calls that stalled on exhausted buffer-pool credit. */
    std::uint64_t creditStalls() const { return creditStalls_.value(); }
    std::uint64_t retransmits() const { return retransmits_.value(); }
    std::uint64_t rxDuplicateSegments() const { return rxDups_.value(); }
    std::uint64_t rxOutOfOrderDrops() const { return rxOoo_.value(); }
    std::uint64_t windowProbes() const { return winProbes_.value(); }
    std::uint64_t synRetries() const { return synRetries_.value(); }
    std::uint64_t abortedConnections() const { return aborts_.value(); }
    /** @} */

    /** Publish counters/histograms/flows under the node's "xpt"
     *  scope. */
    void instrument(sim::telemetry::Registry &reg);

  private:
    friend class Endpoint;

    /** NIC delivery entry point (doorbell for the poll loop). */
    void onRxBatch(unsigned queue, std::vector<Burst> &&bursts);

    /** Per-queue busy-poll service loop (pinned core). */
    Coro<void> pollLoop(unsigned queue);

    /** Process one poll pass's worth of bursts. */
    Coro<void> processBatch(unsigned queue,
                            const std::vector<Burst> &bursts);

    /** Core a queue's poll loop is pinned to. */
    int pollCoreFor(unsigned queue) const;

    /** Transmit a zero-payload control burst on an endpoint's flow. */
    void sendControl(NodeId dst, std::uint64_t flow, BypassKind kind,
                     std::uint64_t conn_token, std::uint64_t arg,
                     std::uint64_t handshake_pool = 0);

    /** Per-endpoint retransmission timer. */
    Coro<void> rtoLoop(std::uint64_t token);
    /** Rebuild and resend the oldest unacked segment. */
    Coro<void> retransmitTask(std::uint64_t token, XptTxSegment seg);
    /** Mark @p e failed and release every blocked waiter on it. */
    void abortEndpoint(Endpoint &e);

    Endpoint *newEndpoint();
    Endpoint *endpointFor(std::uint64_t token);
    void noteFlowFinished(Endpoint &e);

    tcp::Host host_;
    nic::Nic &nic_;
    BypassConfig cfg_;

    sim::PooledFifo<XptTxSegment>::NodePool txSegPool_;

    std::vector<std::unique_ptr<Endpoint>> endpoints_;
    std::unordered_map<std::uint16_t, std::unique_ptr<Listener>>
        listeners_;
    std::uint64_t flowCounter_ = 0;
    /** (src node, flow) → local token: dedups retransmitted SYNs. */
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t>
        synSeen_;

    /** One batch mailbox per RX queue, drained by pollLoop(). */
    std::vector<std::unique_ptr<nic::RxMailbox>> rxMailboxes_;

    /** Registered buffer pool's cache footprint (pinned, reused). */
    mem::FootprintId bufPool_;

    sim::stats::Counter txPayload_;
    sim::stats::Counter rxPayload_;
    sim::stats::Counter rxBursts_;
    sim::stats::Counter pollPasses_;
    sim::stats::Counter creditStalls_;
    sim::stats::Counter retransmits_;
    sim::stats::Counter rxDups_;
    sim::stats::Counter rxOoo_;
    sim::stats::Counter winProbes_;
    sim::stats::Counter synRetries_;
    sim::stats::Counter aborts_;

    sim::telemetry::Histogram handshakeHist_;
    sim::telemetry::Histogram lifetimeHist_;
};

} // namespace ioat::xpt

#endif // IOAT_XPT_BYPASS_HH
