/**
 * @file
 * The cluster switch: routes bursts between attached devices.
 *
 * Models a non-blocking store-and-forward switch (the testbed's
 * 24-port Netgear GigE switch): infinite backplane, fixed forwarding
 * latency.  Link-level serialization happens in the NIC ports on both
 * sides, so the switch itself only routes.
 *
 * The switch is also the simulator's only cross-node edge.  Every
 * forwarded burst is scheduled with a cross-lane key — priority lane =
 * sender, execution lane = receiver (see simcore/event_queue.hh) — so
 * delivery order at a tick follows the sender's lane and the
 * delivered work runs on the receiver's.
 *
 * Without an injector nothing happens when a burst's last bit leaves
 * the sender, so `admit()` schedules the delivery at transmit time,
 * for depart + latency: one event per hop instead of two.  The
 * delivery keeps its (when, sender lane) key and its order among the
 * sender's other deliveries; only its seq relative to the sender's
 * own events at the arrival tick moves, and those touch no state a
 * delivery touches (DESIGN.md §4).
 *
 * The switch is also the network's fault-injection point: with a
 * `sim::FaultInjector` attached, every forwarded burst consults the
 * per-link fault site ("link.<src>.<dst>") for drop / duplicate /
 * extra-delay faults, and deliveries to nodes inside a crash window
 * are dropped.  Sites are keyed by the (src, dst) pair, so each
 * site's RNG stream is drawn only from one sender's traffic to one
 * receiver.  The link decision, its RNG draw and the sender-crash
 * check belong to the depart tick, so with an injector attached a
 * burst still reaches `forward()` at that tick.
 */

#ifndef IOAT_NET_SWITCH_HH
#define IOAT_NET_SWITCH_HH

#include <functional>
#include <string>
#include <vector>

#include "net/burst.hh"
#include "simcore/assert.hh"
#include "simcore/fault.hh"
#include "simcore/sim.hh"

namespace ioat::net {

using sim::Simulation;
using sim::Tick;

/**
 * Routes bursts to attached receivers after a fixed latency.
 */
class Switch : public sim::telemetry::Instrumented
{
  public:
    /** Receiver callback: invoked when a burst reaches the egress port. */
    using RxHandler = std::function<void(const Burst &)>;

    explicit Switch(Simulation &sim, Tick forward_latency = sim::nanoseconds(2000))
        : sim_(sim), latency_(forward_latency)
    {
        sim_.telemetry().add("fabric", this);
    }

    ~Switch() override { sim_.telemetry().remove(this); }

    Switch(const Switch &) = delete;
    Switch &operator=(const Switch &) = delete;

    /** Attach a device; returns its NodeId. */
    NodeId
    attach(RxHandler handler)
    {
        ports_.push_back(std::move(handler));
        linkSites_.resize(ports_.size());
        return static_cast<NodeId>(ports_.size() - 1);
    }

    /**
     * Detach a device: its NodeId stays reserved, but bursts still in
     * flight toward it (or addressed to it later) are dropped instead
     * of invoking the stale handler.
     */
    void
    detach(NodeId id)
    {
        sim::simAssert(id < ports_.size(), "detach of unattached node");
        ports_[id] = nullptr;
    }

    std::size_t attachedCount() const { return ports_.size(); }
    Tick forwardLatency() const { return latency_; }

    /**
     * Route every burst through @p injector (nullptr to disable).
     * Attach it before traffic starts: a delivery scheduled at
     * transmit while no injector was attached has skipped the
     * depart-tick link decision the injector would have made.
     */
    void
    setFaultInjector(sim::FaultInjector *injector)
    {
        sim::simAssert(faults_ != nullptr || inFlight_ == 0,
                       "fault injector attached with fault-free "
                       "deliveries in flight");
        faults_ = injector;
        linkSites_.clear();
        linkSites_.resize(ports_.size());
    }

    /**
     * Take a burst from a NIC at transmit time; its last bit leaves
     * the sender at @p depart (>= now).  Without an injector the
     * delivery is scheduled here, at depart + latency; with one, the
     * burst reaches forward() at @p depart.
     */
    void
    admit(const Burst &burst, Tick depart)
    {
        if (faults_) {
            sim_.queue().schedule(depart,
                                  [this, burst] { forward(burst); });
            return;
        }
        send(burst, depart + latency_);
    }

    /**
     * Accept a burst that finished serializing into the switch at the
     * current simulated time; deliver it to the destination device
     * after the forwarding latency.
     */
    void
    forward(const Burst &burst)
    {
        sim::simAssert(burst.dst < ports_.size(),
                       "burst addressed to unattached node");
        Tick latency = latency_;
        if (faults_) {
            const Tick now = sim_.now();
            // A burst leaving a node that crashed while it was
            // serializing never makes it into the backplane.
            if (faults_->nodeDown(burst.src, now)) {
                faults_->noteOutageDrop(now);
                return;
            }
            sim::FaultDecision d =
                linkSite(burst.src, burst.dst).decide();
            if (d.drop) {
                traceFault("fault:drop link", burst.dst);
                return;
            }
            if (d.extraDelay > sim::Tick{0}) {
                traceFault("fault:delay link", burst.dst);
                latency += d.extraDelay;
            }
            if (d.duplicate) {
                traceFault("fault:dup link", burst.dst);
                send(burst, sim_.now() + latency);
            }
        }
        send(burst, sim_.now() + latency);
    }

    /** @name Statistics
     *  @{ */
    /** Deliveries dropped because the destination had detached. */
    std::uint64_t deadLetters() const { return deadLetters_.value(); }
    /** @} */

    /** Publish switch telemetry (registered with the Hub as "fabric"). */
    void
    instrument(sim::telemetry::Registry &reg) override
    {
        reg.scalar(
            "attachedPorts",
            [this] { return static_cast<double>(ports_.size()); },
            "devices ever attached to the switch");
        reg.counter("deadLetters", deadLetters_,
                    "deliveries dropped at detached ports");
    }

  private:
    /**
     * Schedule one delivery at @p arrive: ordered on the sender's
     * lane, executed on the receiver's.
     */
    void
    send(const Burst &burst, Tick arrive)
    {
        const auto prio = static_cast<std::uint32_t>(burst.src) + 1;
        const auto exec = static_cast<std::uint32_t>(burst.dst) + 1;
        ++inFlight_;
        sim_.queue().scheduleCross(arrive, prio, exec,
                                   [this, burst] { deliver(burst); });
    }

    /** Complete one delivery at the egress port. */
    void
    deliver(const Burst &burst)
    {
        --inFlight_;
        // admit() schedules before any port check, so the fault-free
        // path checks the destination here, inside the run.
        sim::simAssert(burst.dst < ports_.size(),
                       "burst addressed to unattached node");
        // The destination may have detached or crashed while the
        // burst was in flight; finish the drop here rather than
        // invoking a dead handler.
        if (!ports_[burst.dst]) {
            deadLetters_.inc();
            return;
        }
        if (faults_ && faults_->nodeDown(burst.dst, sim_.now())) {
            faults_->noteOutageDrop(sim_.now());
            return;
        }
        ports_[burst.dst](burst);
    }

    /**
     * Per-(src, dst) fault site, created lazily and cached.  The
     * outer vector is sized at attach/setFaultInjector time.
     */
    sim::FaultSite &
    linkSite(NodeId src, NodeId dst)
    {
        auto &row = linkSites_[src];
        if (dst >= row.size())
            row.resize(dst + 1, nullptr);
        if (!row[dst])
            row[dst] = &faults_->site("link." + std::to_string(src) +
                                      "." + std::to_string(dst));
        return *row[dst];
    }

    void
    traceFault(const char *what, NodeId dst)
    {
        if (sim::TraceWriter *tw = faults_->tracer())
            tw->instant(std::string(what) + std::to_string(dst), "fault",
                        sim_.now(), sim::TraceWriter::Lanes::fault);
    }

    Simulation &sim_;
    Tick latency_;
    std::vector<RxHandler> ports_;
    sim::FaultInjector *faults_ = nullptr;
    std::vector<std::vector<sim::FaultSite *>> linkSites_;
    /** Deliveries scheduled and not yet run. */
    std::uint64_t inFlight_ = 0;
    sim::stats::Counter deadLetters_;
};

} // namespace ioat::net

#endif // IOAT_NET_SWITCH_HH
