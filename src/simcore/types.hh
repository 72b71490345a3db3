/**
 * @file
 * Fundamental simulation types and unit helpers.
 *
 * The whole simulator measures time in integer nanoseconds (`Tick`)
 * and data in whole bytes (`Bytes`).  Both are *strong* types: they
 * must be constructed explicitly, only unit-preserving arithmetic is
 * defined (tick+tick, tick*scalar, tick/tick → scalar, …), and
 * mixing ticks with byte counts or untyped scalars is a compile
 * error.  Every figure in the reproduction is a golden digest of a
 * deterministic run, so a silent ticks-vs-bytes mix-up corrupts
 * results the way miscalibrated hardware would — the type system is
 * the cheapest place to catch that whole bug class.
 *
 * Helper functions build Tick values from human units and convert
 * data rates; keeping them `constexpr` lets configuration tables live
 * in headers without any runtime cost.
 */

#ifndef IOAT_SIMCORE_TYPES_HH
#define IOAT_SIMCORE_TYPES_HH

#include <compare>
#include <concepts>
#include <cstddef>
#include <cstdint>

namespace ioat::sim {

/**
 * Simulated time in nanoseconds.
 *
 * A wrapper over `uint64_t` with unit-safe arithmetic only:
 *  - Tick ± Tick → Tick
 *  - Tick * integer scalar, Tick / integer scalar → Tick
 *  - Tick / Tick → dimensionless count, Tick % Tick → Tick
 *  - comparisons only against other Ticks
 *
 * Construction from a raw integer is explicit (`Tick{5}`), and
 * construction from floating point is deleted outright: float-derived
 * durations must round through an explicit policy (see
 * `Rate::transferTime`), never an implicit truncation.
 */
class Tick
{
  public:
    constexpr Tick() = default;

    constexpr explicit Tick(std::uint64_t ns) : ns_(ns) {}

    /** No implicit (or explicit) float→tick truncation. */
    constexpr explicit Tick(std::floating_point auto) = delete;

    /** Raw nanosecond count, for formatting and bit-level indexing. */
    constexpr std::uint64_t count() const { return ns_; }

    /** A point in simulated time later than any real event. */
    static constexpr Tick
    max()
    {
        return Tick{~std::uint64_t{0}};
    }

    friend constexpr bool operator==(Tick, Tick) = default;
    friend constexpr std::strong_ordering operator<=>(Tick, Tick) = default;

    friend constexpr Tick
    operator+(Tick a, Tick b)
    {
        return Tick{a.ns_ + b.ns_};
    }

    friend constexpr Tick
    operator-(Tick a, Tick b)
    {
        return Tick{a.ns_ - b.ns_};
    }

    constexpr Tick &
    operator+=(Tick b)
    {
        ns_ += b.ns_;
        return *this;
    }

    constexpr Tick &
    operator-=(Tick b)
    {
        ns_ -= b.ns_;
        return *this;
    }

    friend constexpr Tick
    operator*(Tick a, std::integral auto s)
    {
        return Tick{a.ns_ * static_cast<std::uint64_t>(s)};
    }

    friend constexpr Tick
    operator*(std::integral auto s, Tick a)
    {
        return a * s;
    }

    friend constexpr Tick
    operator/(Tick a, std::integral auto s)
    {
        return Tick{a.ns_ / static_cast<std::uint64_t>(s)};
    }

    constexpr Tick &
    operator*=(std::integral auto s)
    {
        ns_ *= static_cast<std::uint64_t>(s);
        return *this;
    }

    constexpr Tick &
    operator/=(std::integral auto s)
    {
        ns_ /= static_cast<std::uint64_t>(s);
        return *this;
    }

    /** Ratio of two durations (how many @p b fit in @p a). */
    friend constexpr std::uint64_t
    operator/(Tick a, Tick b)
    {
        return a.ns_ / b.ns_;
    }

    friend constexpr Tick
    operator%(Tick a, Tick b)
    {
        return Tick{a.ns_ % b.ns_};
    }

    /** Scaling by a float silently truncates; route through Rate. */
    friend constexpr Tick operator*(Tick, std::floating_point auto) = delete;
    friend constexpr Tick operator*(std::floating_point auto, Tick) = delete;
    friend constexpr Tick operator/(Tick, std::floating_point auto) = delete;

  private:
    std::uint64_t ns_ = 0;
};

/** A point in simulated time that compares larger than any real time. */
inline constexpr Tick kTickMax = Tick::max();

/** @name Time-unit constructors
 *  @{ */
constexpr Tick
nanoseconds(std::uint64_t n)
{
    return Tick{n};
}

constexpr Tick
microseconds(std::uint64_t n)
{
    return Tick{n * 1000};
}

constexpr Tick
milliseconds(std::uint64_t n)
{
    return Tick{n * 1000 * 1000};
}

constexpr Tick
seconds(std::uint64_t n)
{
    return Tick{n * 1000 * 1000 * 1000};
}
/** @} */

/**
 * Explicit float→tick conversion (truncating), for models that blend
 * rates in floating point before committing to simulated time.
 *
 * This is the only sanctioned way (besides `Rate::transferTime`) to
 * turn a floating-point nanosecond figure into a Tick; simcheck's
 * float-tick rule flags ad-hoc casts so every conversion point stays
 * greppable and audited.
 */
constexpr Tick
ticksFromDouble(double ns)
{
    return Tick{static_cast<std::uint64_t>(ns)};
}

/** Convert a tick count to (floating) seconds. */
constexpr double
toSeconds(Tick t)
{
    return static_cast<double>(t.count()) * 1e-9;
}

/** Convert a tick count to (floating) microseconds. */
constexpr double
toMicroseconds(Tick t)
{
    return static_cast<double>(t.count()) * 1e-3;
}

/**
 * A byte count.
 *
 * Strong type mirroring `Tick`: explicit construction, byte-preserving
 * arithmetic only, no implicit mixing with ticks or raw scalars.  Used
 * in the mem/nic/tcp transfer-size signatures so a caller cannot pass
 * a duration (or an element count) where a size is expected.
 */
class Bytes
{
  public:
    constexpr Bytes() = default;

    constexpr explicit Bytes(std::uint64_t n) : n_(n) {}

    /** No fractional byte counts. */
    constexpr explicit Bytes(std::floating_point auto) = delete;

    /** Raw byte count, for formatting and buffer sizing. */
    constexpr std::uint64_t count() const { return n_; }

    friend constexpr bool operator==(Bytes, Bytes) = default;
    friend constexpr std::strong_ordering operator<=>(Bytes, Bytes) = default;

    friend constexpr Bytes
    operator+(Bytes a, Bytes b)
    {
        return Bytes{a.n_ + b.n_};
    }

    friend constexpr Bytes
    operator-(Bytes a, Bytes b)
    {
        return Bytes{a.n_ - b.n_};
    }

    constexpr Bytes &
    operator+=(Bytes b)
    {
        n_ += b.n_;
        return *this;
    }

    constexpr Bytes &
    operator-=(Bytes b)
    {
        n_ -= b.n_;
        return *this;
    }

    friend constexpr Bytes
    operator*(Bytes a, std::integral auto s)
    {
        return Bytes{a.n_ * static_cast<std::uint64_t>(s)};
    }

    friend constexpr Bytes
    operator*(std::integral auto s, Bytes a)
    {
        return a * s;
    }

    friend constexpr Bytes
    operator/(Bytes a, std::integral auto s)
    {
        return Bytes{a.n_ / static_cast<std::uint64_t>(s)};
    }

    /** Ratio of two sizes (how many @p b fit in @p a). */
    friend constexpr std::uint64_t
    operator/(Bytes a, Bytes b)
    {
        return a.n_ / b.n_;
    }

    friend constexpr Bytes
    operator%(Bytes a, Bytes b)
    {
        return Bytes{a.n_ % b.n_};
    }

  private:
    std::uint64_t n_ = 0;
};

/**
 * Ceiling division of two sizes: the number of @p unit -sized pieces
 * needed to cover @p total (the last piece may be partial).  This is
 * the audited door for the classic `(n + unit - 1) / unit` framing /
 * chunking idiom — writing it out against `.count()` raw values is a
 * simcheck strong-type finding.
 */
constexpr std::uint64_t
divCeil(Bytes total, Bytes unit)
{
    return unit.count() == 0
               ? 0
               : (total.count() + unit.count() - 1) / unit.count();
}

/**
 * Dimensionless fraction @p num / @p den of two durations, in
 * floating point (0.0 when @p den is zero).  The audited door for
 * utilization/overlap ratios: float-domain math on ticks happens
 * here, and re-enters Tick only through `ticksFromDouble` or
 * `Rate::transferTime`.
 */
constexpr double
fractionOf(Tick num, Tick den)
{
    return den == Tick{0}
               ? 0.0
               : static_cast<double>(num.count()) /
                     static_cast<double>(den.count());
}

/** @name Size-unit constructors
 *
 * `kib`/`mib` stay raw `std::size_t` helpers for buffer/capacity
 * arithmetic; `bytes`/`kibibytes`/`mebibytes` build the strong type
 * for transfer-size signatures.
 *  @{ */
constexpr std::size_t
kib(std::size_t n)
{
    return n * 1024;
}

constexpr std::size_t
mib(std::size_t n)
{
    return n * 1024 * 1024;
}

constexpr Bytes
bytes(std::uint64_t n)
{
    return Bytes{n};
}

constexpr Bytes
kibibytes(std::uint64_t n)
{
    return Bytes{n * 1024};
}

constexpr Bytes
mebibytes(std::uint64_t n)
{
    return Bytes{n * 1024 * 1024};
}
/** @} */

/**
 * A transfer rate expressed as bytes per simulated second.
 *
 * Stored as a double so sub-byte-per-tick rates (1 Gbps is only
 * 0.125 bytes/ns) stay exact enough for the experiments.  This class
 * is the *only* sanctioned float→Tick conversion point: every
 * "duration of a transfer" in the simulator rounds up to a whole tick
 * here, with one policy, instead of ad-hoc casts at call sites.
 */
class BytesPerSec
{
  public:
    constexpr BytesPerSec() : bytesPerSec_(0.0) {}

    /** Build a rate from bits per second. */
    static constexpr BytesPerSec
    bitsPerSec(double bps)
    {
        return BytesPerSec(bps / 8.0);
    }

    /** Build a rate from bytes per second. */
    static constexpr BytesPerSec
    bytesPerSec(double value)
    {
        return BytesPerSec(value);
    }

    /** Build a rate from gigabits per second (network convention, 1e9). */
    static constexpr BytesPerSec
    gbps(double value)
    {
        return bitsPerSec(value * 1e9);
    }

    /** Build a rate from megabytes per second (storage convention, 1e6). */
    static constexpr BytesPerSec
    mbytesPerSec(double value)
    {
        return bytesPerSec(value * 1e6);
    }

    constexpr double bytesPerSecond() const { return bytesPerSec_; }
    constexpr double bitsPerSecond() const { return bytesPerSec_ * 8.0; }

    /** Time to move @p n bytes at this rate, rounded up to a whole tick. */
    constexpr Tick
    transferTime(std::size_t n) const
    {
        if (bytesPerSec_ <= 0.0)
            return Tick{0};
        double ns = static_cast<double>(n) / bytesPerSec_ * 1e9;
        auto whole = static_cast<std::uint64_t>(ns);
        return Tick{(static_cast<double>(whole) < ns) ? whole + 1 : whole};
    }

    /** Strong-typed overload of transferTime. */
    constexpr Tick
    transferTime(Bytes n) const
    {
        return transferTime(static_cast<std::size_t>(n.count()));
    }

    constexpr bool valid() const { return bytesPerSec_ > 0.0; }

  private:
    constexpr explicit BytesPerSec(double bytes_per_sec)
        : bytesPerSec_(bytes_per_sec)
    {}

    double bytesPerSec_;
};

/** Historical name: the simulator grew up calling this Rate. */
using Rate = BytesPerSec;

/** Throughput of a byte count over a duration, in Mbps (1e6 bits). */
constexpr double
throughputMbps(std::size_t n, Tick duration)
{
    if (duration == Tick{0})
        return 0.0;
    return static_cast<double>(n) * 8.0 / toSeconds(duration) / 1e6;
}

/** Throughput of a byte count over a duration, in MB/s (1e6 bytes). */
constexpr double
throughputMBps(std::size_t n, Tick duration)
{
    if (duration == Tick{0})
        return 0.0;
    return static_cast<double>(n) / toSeconds(duration) / 1e6;
}

} // namespace ioat::sim

#endif // IOAT_SIMCORE_TYPES_HH
