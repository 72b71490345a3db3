/**
 * @file
 * Statistics collection framework.
 *
 * Models report through these types and experiments read them back;
 * a Registry gives every stat a hierarchical name and a one-line dump
 * format, loosely following gem5's stats package.
 */

#ifndef IOAT_SIMCORE_STATS_HH
#define IOAT_SIMCORE_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

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

/** Power-of-two bucketed histogram (bucket i covers [2^i, 2^(i+1))). */
class Log2Histogram
{
  public:
    void
    sample(std::uint64_t v)
    {
        ++buckets_[bucketFor(v)];
        ++count_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t bucket(unsigned i) const
    {
        return i < kBuckets ? buckets_[i] : 0;
    }

    /** Smallest value v such that at least `q` of the mass is <= v. */
    std::uint64_t
    quantileUpperBound(double q) const
    {
        if (count_ == 0)
            return 0;
        const auto target = static_cast<std::uint64_t>(
            q * static_cast<double>(count_));
        std::uint64_t seen = 0;
        for (unsigned i = 0; i < kBuckets; ++i) {
            seen += buckets_[i];
            if (seen >= target)
                return i >= 63 ? ~std::uint64_t{0} : (std::uint64_t{2} << i);
        }
        return ~std::uint64_t{0};
    }

  private:
    static constexpr unsigned kBuckets = 64;

    static unsigned
    bucketFor(std::uint64_t v)
    {
        if (v == 0)
            return 0;
        return 63 - static_cast<unsigned>(__builtin_clzll(v));
    }

    std::uint64_t buckets_[kBuckets] = {};
    std::uint64_t count_ = 0;
};

/** A named view onto any stat, for dumping. */
struct NamedStat
{
    std::string name;
    std::string description;
    // Snapshot function: returns current value as double.
    double (*read)(const void *);
    const void *object;
};

/**
 * Registry of named stats for end-of-run dumps.
 *
 * Objects register their stats under dotted names
 * ("node0.cpu.utilization"); dump() prints name, value, description.
 */
class Registry
{
  public:
    void
    addCounter(std::string name, const Counter &c, std::string desc = "")
    {
        stats_.push_back({std::move(name), std::move(desc),
                          [](const void *p) {
                              return static_cast<double>(
                                  static_cast<const Counter *>(p)->value());
                          },
                          &c});
    }

    void
    addAccumulatorMean(std::string name, const Accumulator &a,
                       std::string desc = "")
    {
        stats_.push_back({std::move(name), std::move(desc),
                          [](const void *p) {
                              return static_cast<const Accumulator *>(p)
                                  ->mean();
                          },
                          &a});
    }

    std::size_t size() const { return stats_.size(); }

    void
    dump(std::ostream &os) const
    {
        for (const auto &s : stats_) {
            os << s.name << " = " << s.read(s.object);
            if (!s.description.empty())
                os << "   # " << s.description;
            os << '\n';
        }
    }

  private:
    std::vector<NamedStat> stats_;
};

} // namespace ioat::sim::stats

#endif // IOAT_SIMCORE_STATS_HH
