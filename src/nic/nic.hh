/**
 * @file
 * Gigabit-Ethernet NIC model.
 *
 * Models the parts of the adapter the paper's features live in:
 *  - multiple physical ports (Testbed 1 has six 1 GbE ports), with
 *    per-port full-duplex serialization and VLAN-style flow→port
 *    pinning (§4: "a separate VLAN for each network adapter ... to
 *    ensure an even distribution of network traffic");
 *  - MTU / jumbo frames (Fig. 5 Case 4);
 *  - TSO capability flag (Fig. 5 Case 3) — the CPU cost difference is
 *    charged by the transport;
 *  - interrupt coalescing (Fig. 5 Case 5);
 *  - split-header delivery flag (I/OAT feature 1);
 *  - multiple receive queues with flow affinity (I/OAT feature 3 —
 *    present in the device model but disabled by default, exactly as
 *    it was in the paper's Linux kernel).
 */

#ifndef IOAT_NIC_NIC_HH
#define IOAT_NIC_NIC_HH

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "net/burst.hh"
#include "net/switch.hh"
#include "simcore/assert.hh"
#include "simcore/pool.hh"
#include "simcore/sim.hh"
#include "simcore/stats.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/types.hh"

namespace ioat::nic {

using net::Burst;
using net::NodeId;
using sim::Bytes;
using sim::BytesPerSec;
using sim::Simulation;
using sim::Tick;

/** Adapter configuration. */
struct NicConfig
{
    unsigned ports = 1;
    BytesPerSec portRate = BytesPerSec::gbps(1.0);
    /** Maximum transmission unit (payload per frame). */
    std::size_t mtu = 1500;
    /** Per-frame wire overhead: headers, CRC, preamble, IFG. */
    std::size_t frameOverhead = 58;
    /** Adapter segments large sends itself (TSO). */
    bool tso = false;
    /** Adapter separates headers from payload on receive (I/OAT). */
    bool splitHeader = false;
    /**
     * Receive queues per port.  Every port always has its own
     * interrupt line (the testbed spread six ports' interrupts over
     * the cores); the I/OAT "multiple receive queues" feature
     * multiplies that by spreading *flows of one port* over several
     * queues.  The paper could not enable it (disabled in Linux), so
     * 1 is both the default and the evaluated configuration.
     */
    unsigned rxQueuesPerPort = 1;
    /** Wait this long after first packet before interrupting (0 = off). */
    Tick coalesceDelay{};
    /** Interrupt immediately once this many bursts are pending. */
    unsigned coalesceMaxBursts = 32;
    /**
     * Soft-timer polling period (0 = interrupt-driven).  When set,
     * the device never raises interrupts; a periodic soft-timer poll
     * (Aron & Druschel, TOCS'00 — the paper's §7 notes it can
     * co-exist with I/OAT) drains each queue every period, trading
     * bounded extra latency for near-zero notification cost.
     */
    Tick pollingPeriod{};
    /**
     * Descriptor slots per RX queue (0 = unbounded, the seed's
     * idealized adapter).  When bounded, a burst completing into a
     * full ring is a modeled overflow drop: counted, traced, and —
     * with a loss-tolerant transport above — recovered by
     * retransmission instead of being an impossible state.
     */
    unsigned rxRingSlots = 0;
};

/**
 * One RX queue's hand-off from the NIC interrupt to the stack's
 * receive loop: a FIFO of batches, one per interrupt.  The mailbox has
 * exactly one consumer, so it parks that loop in a single handle: a
 * batch posted while the loop is parked posts one resume (at the
 * current tick, behind already-queued events), a batch posted while it
 * is busy posts nothing, and a woken loop always finds a batch.
 */
class RxMailbox
{
  public:
    explicit RxMailbox(Simulation &sim) : sim_(sim) {}

    RxMailbox(const RxMailbox &) = delete;
    RxMailbox &operator=(const RxMailbox &) = delete;

    /** Queue one interrupt's batch and wake the parked loop. */
    void
    post(std::vector<Burst> &&batch)
    {
        // Reclaim the taken prefix once it is at least half the
        // buffer: the live tail moves down at most once per taken
        // slot, and a standing backlog keeps the buffer bounded.
        if (head_ * 2 >= batches_.size()) {
            batches_.erase(batches_.begin(),
                           batches_.begin() +
                               static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
        batches_.push_back(std::move(batch));
        if (parked_) {
            sim_.queue().post(
                [h = std::exchange(parked_, {})] { h.resume(); });
        }
    }

    /** Awaitable: the oldest queued batch, waiting while none is. */
    auto
    next()
    {
        struct Awaiter
        {
            RxMailbox &box;

            bool
            await_ready() const noexcept
            {
                return box.head_ < box.batches_.size();
            }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                sim::simAssert(!box.parked_,
                               "RX mailbox has a second consumer");
                box.parked_ = h;
            }

            std::vector<Burst>
            await_resume()
            {
                sim::simAssert(await_ready(), "RX loop woke to no batch");
                return std::move(box.batches_[box.head_++]);
            }
        };
        return Awaiter{*this};
    }

  private:
    Simulation &sim_;
    std::vector<std::vector<Burst>> batches_; ///< taken below head_
    std::size_t head_ = 0;
    /** The consumer, while it waits for a batch. */
    std::coroutine_handle<> parked_;
};

/**
 * One adapter complex (all ports of a node), attached to a Switch.
 */
class Nic
{
  public:
    /** Delivered-batch callback: one NIC interrupt's worth of bursts. */
    using RxBatchHandler =
        std::function<void(unsigned queue, std::vector<Burst> &&)>;

    Nic(Simulation &sim, net::Switch &fabric, const NicConfig &cfg)
        : sim_(sim), fabric_(fabric), cfg_(cfg),
          txNextFree_(cfg.ports, Tick{0}), rxNextFree_(cfg.ports, Tick{0}),
          rxQueues_(cfg.ports * cfg.rxQueuesPerPort)
    {
        sim::simAssert(cfg.ports > 0, "NIC needs at least one port");
        sim::simAssert(cfg.rxQueuesPerPort > 0,
                       "NIC needs at least one RX queue per port");
        sim::simAssert(cfg.mtu > 0, "NIC MTU must be positive");
        id_ = fabric_.attach([this](const Burst &b) { ingress(b); });
        if (cfg_.pollingPeriod > Tick{0}) {
            for (unsigned q = 0; q < rxQueueCount(); ++q)
                schedulePoll(q);
        }
    }

    ~Nic()
    {
        // In-flight bursts toward a destroyed adapter become switch
        // dead letters instead of invoking a dangling handler.
        fabric_.detach(id_);
    }

    Nic(const Nic &) = delete;
    Nic &operator=(const Nic &) = delete;

    NodeId id() const { return id_; }
    const NicConfig &config() const { return cfg_; }

    /** Inject RX-path faults from site "nic.<id>.rx" (nullptr = off). */
    void
    setFaultInjector(sim::FaultInjector *injector)
    {
        rxFaultSite_ = injector
            ? &injector->site("nic." + std::to_string(id_) + ".rx")
            : nullptr;
        faults_ = injector;
    }

    void setRxHandler(RxBatchHandler h) { rxHandler_ = std::move(h); }

    /** Port a flow is pinned to (both endpoints compute the same). */
    unsigned
    portFor(std::uint64_t flow) const
    {
        return static_cast<unsigned>(flow % cfg_.ports);
    }

    /** Total RX queues (ports × queues-per-port). */
    unsigned
    rxQueueCount() const
    {
        return cfg_.ports * cfg_.rxQueuesPerPort;
    }

    /**
     * RX queue for a flow.  Base queue per port (per-port interrupt
     * line); with the MRQ feature, flows of a port spread over its
     * queuesPerPort queues.
     */
    unsigned
    queueFor(std::uint64_t flow) const
    {
        const unsigned port = portFor(flow);
        if (cfg_.rxQueuesPerPort == 1)
            return port;
        const auto sub = static_cast<unsigned>(
            (flow / cfg_.ports) % cfg_.rxQueuesPerPort);
        return port * cfg_.rxQueuesPerPort + sub;
    }

    /** Frames needed to carry @p payload bytes at the current MTU. */
    std::uint32_t
    framesFor(Bytes payload) const
    {
        if (payload == Bytes{0})
            return 1; // pure control packet
        return static_cast<std::uint32_t>(
            sim::divCeil(payload, Bytes{cfg_.mtu}));
    }

    /** Wire bytes for @p payload, including per-frame overheads. */
    Bytes
    wireBytesFor(Bytes payload) const
    {
        return payload +
               Bytes{framesFor(payload) * cfg_.frameOverhead};
    }

    /** Serialization time of @p wire_bytes on one port. */
    Tick
    wireTime(Bytes wire_bytes) const
    {
        return cfg_.portRate.transferTime(wire_bytes);
    }

    /**
     * Transmit a burst: serialize on the flow's port, then hand to
     * the switch (which, without a fault injector, schedules the
     * delivery right away).  Returns the tick at which the last bit
     * leaves.
     */
    Tick
    transmit(Burst burst)
    {
        burst.src = id_;
        const unsigned port = portFor(burst.flow);
        const Tick tx_time = wireTime(Bytes{burst.wireBytes});
        const Tick start = std::max(sim_.now(), txNextFree_[port]);
        const Tick depart = start + tx_time;
        txNextFree_[port] = depart;
        txBytes_.inc(burst.wireBytes);
        if (burst.trace != 0) {
            // Stamp serialization start; the receiving NIC closes the
            // wire span (TX serialize + switch transit + RX DMA).
            burst.traceTxStart = start;
        }

        fabric_.admit(burst, depart);
        return depart;
    }

    /** True when notifications come from soft-timer polls. */
    bool pollingMode() const { return cfg_.pollingPeriod > Tick{0}; }

    /**
     * Return a drained RX batch vector so its capacity is reused by a
     * future interrupt instead of reallocated per batch.  Optional —
     * an unreturned batch is simply freed.
     */
    void
    recycleBatch(std::vector<Burst> &&batch)
    {
        batchPool_.release(std::move(batch));
    }

    /** @name Statistics
     *  @{ */
    std::uint64_t txWireBytes() const { return txBytes_.value(); }
    std::uint64_t rxWireBytes() const { return rxBytes_.value(); }
    std::uint64_t interrupts() const { return interrupts_.value(); }
    std::uint64_t softPolls() const { return polls_.value(); }
    std::uint64_t rxBursts() const { return rxBursts_.value(); }
    /** Bursts dropped because an RX ring was full. */
    std::uint64_t rxOverflowDrops() const { return rxOverflows_.value(); }
    /** Bursts dropped by the injected NIC RX fault site. */
    std::uint64_t rxFaultDrops() const { return rxFaultDrops_.value(); }
    /** @} */

    /** Publish NIC telemetry (called under the node's "nic" scope). */
    void
    instrument(sim::telemetry::Registry &reg)
    {
        reg.counter("txWireBytes", txBytes_, "wire bytes transmitted");
        reg.counter("rxWireBytes", rxBytes_, "wire bytes received");
        reg.counter("interrupts", interrupts_, "RX interrupts raised");
        reg.counter("softPolls", polls_, "softirq poll passes");
        reg.counter("rxBursts", rxBursts_, "bursts received");
        reg.counter("rxOverflowDrops", rxOverflows_,
                    "bursts dropped on a full RX ring");
        reg.counter("rxFaultDrops", rxFaultDrops_,
                    "bursts dropped by the NIC RX fault site");
        reg.probe(
            "wireBytes", sim::telemetry::ProbeKind::delta,
            [this] {
                return static_cast<double>(txBytes_.value() +
                                           rxBytes_.value());
            },
            "link bytes (tx+rx) per sample interval");
        reg.probe(
            "rxRingDepth", sim::telemetry::ProbeKind::gauge,
            [this] {
                std::size_t n = 0;
                for (const auto &q : rxQueues_)
                    n += q.pending.size();
                return static_cast<double>(n);
            },
            "bursts waiting in RX descriptor rings, all queues");
    }

  private:
    struct RxQueue
    {
        std::vector<Burst> pending;
        /** Coalescing timer; empty while no window is open. */
        sim::EventQueue::TimerHandle irqTimer;
    };

    /** Burst reached our egress link on the switch side. */
    void
    ingress(const Burst &burst)
    {
        const unsigned port = portFor(burst.flow);
        const Tick rx_time = wireTime(Bytes{burst.wireBytes});
        const Tick start = std::max(sim_.now(), rxNextFree_[port]);
        const Tick done = start + rx_time;
        rxNextFree_[port] = done;
        sim_.queue().schedule(done, [this, burst] { rxComplete(burst); });
    }

    /** Last bit of the burst landed in host memory via NIC DMA. */
    void
    rxComplete(const Burst &burst)
    {
        // Wire time was consumed either way; the drop happens at the
        // descriptor ring, after the bits crossed the link.
        rxBytes_.inc(burst.wireBytes);
        const unsigned queue = queueFor(burst.flow);
        auto &q = rxQueues_[queue];
        if (cfg_.rxRingSlots > 0 && q.pending.size() >= cfg_.rxRingSlots) {
            rxOverflows_.inc();
            traceRxDrop("nic:rx-overflow");
            return;
        }
        if (rxFaultSite_ && rxFaultSite_->decide().drop) {
            rxFaultDrops_.inc();
            traceRxDrop("nic:rx-fault-drop");
            return;
        }
        rxBursts_.inc();
        if (burst.trace != 0) {
            // Dropped bursts never get here: their wire time falls to
            // the request's residual (queue-wait), not a wire span.
            if (sim::RequestTracer *rt = sim_.requestTracer())
                rt->record(sim::TraceContext::unpack(burst.trace),
                           "wire", sim::CostCat::wire,
                           burst.traceTxStart, sim_.now(),
                           sim::TraceWriter::Lanes::wire +
                               static_cast<int>(portFor(burst.flow)));
        }
        q.pending.push_back(burst);

        if (cfg_.pollingPeriod > Tick{0}) {
            // Soft-timer mode: the periodic poll will pick it up.
            return;
        }

        if (q.pending.size() >= cfg_.coalesceMaxBursts) {
            fireInterrupt(queue);
        } else if (!q.irqTimer) {
            q.irqTimer = sim_.queue().scheduleIn(
                cfg_.coalesceDelay, [this, queue] { fireInterrupt(queue); });
        }
    }

    void
    fireInterrupt(unsigned queue)
    {
        auto &q = rxQueues_[queue];
        // Closes the coalescing window.  After an early (max-bursts)
        // fire the armed timer must not fire the next batch early;
        // cancelling clears the handle in every case.
        sim_.queue().cancel(q.irqTimer);
        if (q.pending.empty())
            return;
        interrupts_.inc();
        std::vector<Burst> batch = std::move(q.pending);
        q.pending = batchPool_.acquire();
        if (rxHandler_)
            rxHandler_(queue, std::move(batch));
    }

    /** Recurring soft-timer poll for one queue. */
    void
    schedulePoll(unsigned queue)
    {
        sim_.queue().scheduleIn(cfg_.pollingPeriod, [this, queue] {
            auto &q = rxQueues_[queue];
            if (!q.pending.empty()) {
                polls_.inc();
                std::vector<Burst> batch = std::move(q.pending);
                q.pending = batchPool_.acquire();
                if (rxHandler_)
                    rxHandler_(queue, std::move(batch));
            }
            schedulePoll(queue);
        });
    }

    void
    traceRxDrop(const char *what)
    {
        if (faults_) {
            if (sim::TraceWriter *tw = faults_->tracer())
                tw->instant(what, "fault", sim_.now(),
                            sim::TraceWriter::Lanes::fault);
        }
    }

    Simulation &sim_;
    net::Switch &fabric_;
    NicConfig cfg_;
    NodeId id_ = net::kInvalidNode;
    RxBatchHandler rxHandler_;
    std::vector<Tick> txNextFree_;
    std::vector<Tick> rxNextFree_;
    std::vector<RxQueue> rxQueues_;
    sim::VectorPool<Burst> batchPool_;
    sim::FaultInjector *faults_ = nullptr;
    sim::FaultSite *rxFaultSite_ = nullptr;
    sim::stats::Counter txBytes_;
    sim::stats::Counter rxBytes_;
    sim::stats::Counter interrupts_;
    sim::stats::Counter polls_;
    sim::stats::Counter rxBursts_;
    sim::stats::Counter rxOverflows_;
    sim::stats::Counter rxFaultDrops_;
};

} // namespace ioat::nic

#endif // IOAT_NIC_NIC_HH
