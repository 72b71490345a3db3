/**
 * @file
 * The run's one simulated-time sampler, and the timeline it fills.
 *
 * Every `interval` simulated ticks the sampler reads every scalar and
 * probe of its Registry — in registration order — into one columnar
 * timeline: a column of raw readings per metric, plus, for each delta
 * probe, the baseline read when sampling began.  Both timeline
 * artifacts encode these same samples: RunReport (report.hh) derives
 * the probe series from them, and the OpenMetrics writer
 * (snapshot.hh) writes every column.
 *
 * Determinism properties:
 *
 *  - sampling is driven by the event queue (never the host clock),
 *    so the same run produces the same timeline on every host;
 *  - samples are taken by a lane-0 event.  Lane 0 sorts before every
 *    node lane, so a sample at tick T observes exactly the state
 *    after all events < T and before any node event at T;
 *  - metrics only *read* model state: enabling sampling changes no
 *    model outcome, only adds read-only events between model events;
 *  - the sample count is capped (kMaxSamples) so a sampler can never
 *    keep an otherwise-drained event queue alive forever and the
 *    timeline's memory stays bounded.
 *
 * Until start() nothing is scheduled or read — the
 * pay-for-what-you-use half of the telemetry contract.
 */

#ifndef IOAT_SIMCORE_TELEMETRY_SAMPLER_HH
#define IOAT_SIMCORE_TELEMETRY_SAMPLER_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simcore/sim.hh"
#include "simcore/telemetry/registry.hh"

namespace ioat::sim::telemetry {

class Sampler
{
  public:
    /** Stop after this many samples (bounds memory and guarantees
     *  sim.run() termination). */
    static constexpr std::size_t kMaxSamples = 4096;

    /** @param interval spacing between samples (> 0 to start()) */
    Sampler(Simulation &sim, Registry &reg, Tick interval)
        : sim_(sim), reg_(reg), interval_(interval)
    {}

    ~Sampler() { stop(); }

    Sampler(const Sampler &) = delete;
    Sampler &operator=(const Sampler &) = delete;

    /**
     * Begin sampling: the first sample lands interval ticks from
     * now.  Reads every delta probe's baseline so the first interval
     * reports the true increase.
     */
    void
    start()
    {
        simAssert(interval_ > Tick{0}, "sampler interval must be > 0");
        simAssert(!started_, "sampler started twice");
        track();
        started_ = running_ = true;
        start_ = sim_.now();
        for (std::size_t i = 0; i < probeCols_.size(); ++i)
            probeCols_[i].baseline = baseline(i);
        arm();
    }

    /** Cancel the pending sample event (idempotent). */
    void
    stop()
    {
        if (!running_)
            return;
        running_ = false;
        sim_.queue().cancel(pending_);
    }

    /**
     * Give every metric registered since the last call its column
     * (Session::add calls this).  Once sampling has started, a new
     * delta probe's baseline is read now; a call after the first
     * sample fails, since its columns would be misaligned with every
     * other.
     */
    void
    track()
    {
        const auto &probes = reg_.probes();
        simAssert(taken_ == 0, "metric added after the first sample");
        scalarCols_.resize(reg_.scalars().size());
        for (std::size_t i = probeCols_.size(); i < probes.size(); ++i)
            probeCols_.push_back({started_ ? baseline(i) : 0.0, {}});
    }

    bool running() const { return running_; }
    std::size_t samplesTaken() const { return taken_; }

    /** @name The timeline (read by the encoders)
     *  @{ */
    const Registry &registry() const { return reg_; }
    Tick startTick() const { return start_; }
    Tick interval() const { return interval_; }

    /** End of sample @p i's interval on the simulated timeline. */
    Tick
    timeAt(std::size_t i) const
    {
        return start_ + interval_ * (static_cast<std::uint64_t>(i) + 1);
    }

    /** Raw readings of scalar @p m, one per sample. */
    const std::vector<double> &
    scalarReadings(std::size_t m) const
    {
        return scalarCols_.at(m);
    }

    /** Raw readings of probe @p p, one per sample. */
    const std::vector<double> &
    probeReadings(std::size_t p) const
    {
        return probeCols_.at(p).raw;
    }

    /**
     * Series value @p i of probe @p p: the reading for a gauge, the
     * increase over the previous reading (or the baseline) for a
     * delta.
     */
    double
    seriesValue(std::size_t p, std::size_t i) const
    {
        const ProbeColumn &col = probeCols_.at(p);
        if (reg_.probes()[p].kind == ProbeKind::gauge)
            return col.raw[i];
        return col.raw[i] - (i ? col.raw[i - 1] : col.baseline);
    }
    /** @} */

  private:
    struct ProbeColumn
    {
        double baseline; ///< reading at start() (delta probes)
        std::vector<double> raw;
    };

    double
    baseline(std::size_t p) const
    {
        const auto &probe = reg_.probes()[p];
        return probe.kind == ProbeKind::delta ? probe.read() : 0.0;
    }

    void
    arm()
    {
        pending_ = sim_.queue().scheduleLane(sim_.now() + interval_, 0,
                                             [this] { tick(); });
    }

    void
    tick()
    {
        const auto &scalars = reg_.scalars();
        const auto &probes = reg_.probes();
        simAssert(scalarCols_.size() == scalars.size() &&
                      probeCols_.size() == probes.size(),
                  "metric registered after start() without track()");
        for (std::size_t m = 0; m < scalars.size(); ++m)
            scalarCols_[m].push_back(scalars[m].read());
        for (std::size_t p = 0; p < probes.size(); ++p)
            probeCols_[p].raw.push_back(probes[p].read());
        if (++taken_ < kMaxSamples)
            arm();
        else
            running_ = false;
    }

    Simulation &sim_;
    Registry &reg_;
    Tick interval_;
    Tick start_{};
    std::size_t taken_ = 0;
    bool started_ = false;
    bool running_ = false;
    EventQueue::TimerHandle pending_;
    std::vector<std::vector<double>> scalarCols_;
    std::vector<ProbeColumn> probeCols_;
};

} // namespace ioat::sim::telemetry

#endif // IOAT_SIMCORE_TELEMETRY_SAMPLER_HH
