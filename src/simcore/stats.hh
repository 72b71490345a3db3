/**
 * @file
 * Model-side statistic primitives: event counters, running summaries
 * and time-weighted averages.
 *
 * Models update these on their own paths and expose them through
 * accessors; naming and export belong to the telemetry registry
 * (telemetry/registry.hh), which publishes a Counter with
 * `Registry::counter` and anything else as a scalar or probe.
 */

#ifndef IOAT_SIMCORE_STATS_HH
#define IOAT_SIMCORE_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "simcore/assert.hh"
#include "simcore/types.hh"

namespace ioat::sim::stats {

/**
 * Monotonic event counter.  Model code is single-threaded, so this is
 * a plain integer: counting an event costs one add.
 */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/** Running summary of a sampled quantity (mean/min/max/stddev). */
class Accumulator
{
  public:
    void
    sample(double v)
    {
        ++n_;
        sum_ += v;
        sumSq_ += v * v;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const { return n_ ? sum_ / static_cast<double>(n_) : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

    double
    stddev() const
    {
        if (n_ < 2)
            return 0.0;
        const double m = mean();
        const double var =
            (sumSq_ - static_cast<double>(n_) * m * m) /
            static_cast<double>(n_ - 1);
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    void
    reset()
    {
        n_ = 0;
        sum_ = sumSq_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

    /**
     * Fold another accumulator into this one.  Used to combine
     * per-node partials in a fixed (node-index) order: floating-point
     * sums depend on the order of their terms, so the merge order is
     * part of the result.
     */
    void
    merge(const Accumulator &o)
    {
        n_ += o.n_;
        sum_ += o.sum_;
        sumSq_ += o.sumSq_;
        min_ = std::min(min_, o.min_);
        max_ = std::max(max_, o.max_);
    }

  private:
    std::uint64_t n_ = 0;
    double sum_ = 0.0;
    double sumSq_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/**
 * Time-weighted average of a piecewise-constant signal (queue depth,
 * busy cores, ...).  Call update() at every change, then read the
 * average over [start, now].
 */
class TimeWeighted
{
  public:
    explicit TimeWeighted(double initial = 0.0) : value_(initial) {}

    void
    update(Tick now, double new_value)
    {
        simAssert(now >= lastChange_, "TimeWeighted time went backwards");
        area_ += value_ * static_cast<double>((now - lastChange_).count());
        lastChange_ = now;
        value_ = new_value;
    }

    double value() const { return value_; }

    /** Average over [windowStart, now]. */
    double
    average(Tick now) const
    {
        if (now <= windowStart_)
            return value_;
        const double total =
            area_ + value_ * static_cast<double>((now - lastChange_).count());
        return total / static_cast<double>((now - windowStart_).count());
    }

    /** Restart the averaging window at @p now, keeping the level. */
    void
    resetWindow(Tick now)
    {
        windowStart_ = now;
        lastChange_ = now;
        area_ = 0.0;
    }

  private:
    double value_;
    double area_ = 0.0;
    Tick windowStart_{};
    Tick lastChange_{};
};

} // namespace ioat::sim::stats

#endif // IOAT_SIMCORE_STATS_HH
