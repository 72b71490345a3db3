/**
 * @file
 * Session: one instrumented run, end to end.
 *
 * Construction registers the simulator's own metrics — "sim.events"
 * per interval, "sim.liveTasks" and the four event-wheel depths —
 * walks the Simulation's Hub (every self-registered component) into
 * the run's one Registry, and, when a sampling interval is given,
 * starts the run's one Sampler.  `captureInto()` stops sampling and
 * encodes the timeline into a RunReport; the OpenMetrics writer
 * (snapshot.hh) encodes the same timeline.  A Session is what the
 * bench harness opens for any artifact flag; without one, no
 * telemetry code runs at all.
 */

#ifndef IOAT_SIMCORE_TELEMETRY_SESSION_HH
#define IOAT_SIMCORE_TELEMETRY_SESSION_HH

#include <string>
#include <utility>

#include "simcore/sim.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/telemetry/report.hh"
#include "simcore/telemetry/sampler.hh"

namespace ioat::sim::telemetry {

class Session
{
  public:
    /** @param sample_interval probe sampling spacing; 0 samples
     *        nothing */
    explicit Session(Simulation &sim, Tick sample_interval = Tick{0})
        : sim_(sim), sampler_(sim, reg_, sample_interval)
    {
        {
            Registry::Scope scope(reg_, "sim");
            EventQueue &q = sim.queue();
            reg_.probe(
                "events", ProbeKind::delta,
                [&q] { return static_cast<double>(q.executedEvents()); },
                "events executed per interval");
            reg_.probe(
                "liveTasks", ProbeKind::gauge,
                [&sim] {
                    return static_cast<double>(sim.liveRootTasks());
                },
                "live root coroutines");
            using Depth = std::size_t (EventQueue::*)() const;
            for (const auto &[level, depth] :
                 {std::pair<const char *, Depth>{"L0", &EventQueue::l0Depth},
                  {"L1", &EventQueue::l1Depth},
                  {"L2", &EventQueue::l2Depth},
                  {"Heap", &EventQueue::heapDepth}})
                reg_.probe(
                    std::string("queueDepth") + level, ProbeKind::gauge,
                    [&q, d = depth] { return static_cast<double>((q.*d)()); },
                    "pending events at this event-queue level");
        }
        sim.telemetry().instrumentAll(reg_);
        sampler_.track();
        if (sample_interval > Tick{0})
            sampler_.start();
    }

    ~Session()
    {
        if (tracer_)
            sim_.telemetry().attachTracerAll(nullptr);
    }

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /**
     * Instrument a component the Hub doesn't know (FaultInjector,
     * model-only rigs) under @p name.  Its metrics are sampled from
     * the first tick on, so call this before the first sample.
     */
    void
    add(const std::string &name, Instrumented &component)
    {
        Registry::Scope scope(reg_, name);
        component.instrument(reg_);
        sampler_.track();
    }

    /** Route component-internal traces into @p t (detached again at
     *  Session destruction). */
    void
    attachTracer(TraceWriter *t)
    {
        tracer_ = t;
        sim_.telemetry().attachTracerAll(t);
    }

    Sampler &sampler() { return sampler_; }

    /** Stop sampling and encode the timeline into @p report. */
    void
    captureInto(RunReport &report)
    {
        sampler_.stop();
        report.capture(sampler_, sim_.now());
    }

  private:
    Simulation &sim_;
    Registry reg_;
    Sampler sampler_;
    TraceWriter *tracer_ = nullptr;
};

} // namespace ioat::sim::telemetry

#endif // IOAT_SIMCORE_TELEMETRY_SESSION_HH
