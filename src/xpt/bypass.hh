/**
 * @file
 * User-space polled kernel-bypass transport (the path that won
 * historically: DPDK/RDMA-style NIC queue mapping, no kernel socket
 * layer).
 *
 * The bypass stack runs the same connection protocol as the kernel
 * stack (tcp/protocol.hh) — one `tcp::Connection`/`tcp::Listener`
 * serves both — and is only a second cost model on top of it:
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
 *  - **The registered pool is the receive buffer**
 *    (`BypassConfig::bufPoolBytes`), advertised in the handshake and
 *    bounding the peer's send credit exactly like the TCP socket
 *    buffer.
 *
 *  - **Always reliable.**  Loss handling lives in the user-space
 *    library: a transport without a kernel has nobody else to do it,
 *    so sequence numbers, cumulative acks and go-back-N retransmission
 *    are always on, and `FaultInjector` drops are recovered, not
 *    wedged.
 *
 *  - **A connect() deadline replaces the SYN retry budget**: one SYN,
 *    aborted at the deadline (kernel TCP ignores the deadline when
 *    reliable; DESIGN.md §9).
 *
 * Burst kinds are offset by 100 so a misrouted burst from the kernel
 * stack (kinds 1..7) is caught by an assert instead of being
 * misinterpreted, and flow ids by 3571 so a node's two stacks never
 * share one.
 */

#ifndef IOAT_XPT_BYPASS_HH
#define IOAT_XPT_BYPASS_HH

#include <cstdint>
#include <vector>

#include "tcp/protocol.hh"

namespace ioat::xpt {

using sim::Tick;

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
    /** RTO expiries without ack progress before a connection aborts. */
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

/**
 * One node's user-space transport library, bound to its NIC.
 *
 * Built after the node's kernel stack, so it takes over the NIC's RX
 * delivery: a node is either kernel-TCP or bypass, never both at once.
 */
class BypassStack final : public tcp::Protocol
{
  public:
    BypassStack(const tcp::Host &host, nic::Nic &nic,
                const BypassConfig &cfg);
    ~BypassStack() override;

    const BypassConfig &config() const { return cfg_; }

    /** @name Cost-model statistics
     *  @{ */
    std::uint64_t rxBursts() const { return rxBursts_.value(); }
    /** Poll passes that serviced at least one descriptor. */
    std::uint64_t pollPasses() const { return pollPasses_.value(); }
    /** @} */

  private:
    /** The protocol as this config drives it. */
    static Spec specOf(const BypassConfig &cfg);

    tcp::Charge segmentCharge(std::size_t bytes, std::uint32_t frames,
                              bool zero_copy) override;
    /** Zero-copy: the application reads the pool in place. */
    sim::Coro<void> receiveCopy(sim::Bytes bytes,
                                sim::TraceContext ctx) override;
    Tick rxPassCost(const std::vector<net::Burst> &bursts,
                    std::vector<RxShare> *shares) override;
    int rxCoreFor(unsigned queue) const override;
    void instrumentCosts(sim::telemetry::Registry &reg) override;

    BypassConfig cfg_;

    /** Registered buffer pool's cache footprint (pinned, reused). */
    mem::FootprintId bufPool_;

    sim::stats::Counter rxBursts_;
    sim::stats::Counter pollPasses_;
};

} // namespace ioat::xpt

#endif // IOAT_XPT_BYPASS_HH
