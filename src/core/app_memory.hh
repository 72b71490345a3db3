/**
 * @file
 * Application working-set accounting.
 *
 * Gives an application component a cache footprint (competing with
 * the stack's buffers in the node's L2 model) and a way to charge the
 * CPU for streaming over payload data at the residency that footprint
 * currently enjoys.  This is the coupling that makes cache pollution
 * visible to applications — the effect behind the paper's Fig. 7b and
 * the 4x thread-scaling result (Fig. 9).
 */

#ifndef IOAT_CORE_APP_MEMORY_HH
#define IOAT_CORE_APP_MEMORY_HH

#include <algorithm>
#include <string>

#include "mem/rolling_bytes.hh"
#include "simcore/coro.hh"
#include "tcp/host.hh"

namespace ioat::core {

using sim::Coro;
using sim::Tick;

/**
 * One application component's view of node memory.
 */
class AppMemory
{
  public:
    AppMemory(const tcp::Host &host, std::string name,
              sim::Tick window = sim::milliseconds(1))
        : host_(host), window_(host.sim, window)
    {
        footprint_ = host_.cache.addFootprint(std::move(name), 0);
    }

    ~AppMemory() { host_.cache.removeFootprint(footprint_); }

    AppMemory(const AppMemory &) = delete;
    AppMemory &operator=(const AppMemory &) = delete;

    /** Current residency of this component's working set. */
    double residency() const { return host_.cache.residency(footprint_); }

    /**
     * Declare @p bytes of long-lived, repeatedly-reused buffers
     * (message buffers, object caches).  Unlike noteBuffer(), this is
     * a persistent part of the working set: a 4 x 1 MB receive-buffer
     * set stays 4 MB of cache demand no matter how fast it is cycled
     * — the arithmetic behind the paper's Fig. 7b.
     */
    void
    reserve(std::size_t bytes)
    {
        persistent_ += bytes;
        refreshFootprint();
    }

    /** Release previously reserved buffer space. */
    void
    release(std::size_t bytes)
    {
        persistent_ = bytes > persistent_ ? 0 : persistent_ - bytes;
        refreshFootprint();
    }

    /** Set the persistent working set to an absolute value. */
    void
    setReserved(std::uint64_t bytes)
    {
        persistent_ = bytes;
        refreshFootprint();
    }

    std::uint64_t reservedBytes() const { return persistent_; }

    /**
     * Note that @p bytes of application data became part of the
     * working set (buffers filled, objects created) without charging
     * CPU time.
     */
    void
    noteBuffer(std::size_t bytes)
    {
        window_.add(bytes);
        refreshFootprint();
    }

    /**
     * Stream-read @p bytes of working data (parse, checksum,
     * template...).  Charges the CPU at current residency and
     * memory-bus pressure, and grows the working set.
     */
    Coro<void>
    touch(std::size_t bytes, sim::TraceContext ctx = {})
    {
        const double res = residency();
        const Tick t =
            host_.copy.touchTime(sim::Bytes{bytes}, res,
                                 host_.bus.slowdown());
        noteBuffer(bytes);
        host_.bus.consume(sim::Bytes{static_cast<std::size_t>(
            static_cast<double>(bytes) * (1.0 - res))});
        const Tick t0 = host_.sim.now();
        co_await host_.cpu.compute(t);
        if (sim::RequestTracer *rt = host_.sim.requestTracer();
            rt && ctx.valid()) {
            const Tick hot = std::min(
                host_.copy.touchTime(sim::Bytes{bytes}, 1.0, 1.0), t);
            rt->recordComputeSplit(
                ctx, t0, host_.sim.now(),
                {{"app.touch", sim::CostCat::memcpy, hot},
                 {"app.touch-miss", sim::CostCat::cache, t - hot}});
        }
    }

    /**
     * Copy @p bytes through application memory without retaining it
     * in the working set (streaming store, e.g. an I/O daemon moving
     * a write payload into ramfs pages that are never re-read).
     */
    Coro<void>
    streamCopy(std::size_t bytes, sim::TraceContext ctx = {})
    {
        const double res = residency();
        const Tick t =
            host_.copy.copyTime(sim::Bytes{bytes}, res,
                                host_.bus.slowdown());
        host_.bus.consume(sim::Bytes{static_cast<std::size_t>(
            static_cast<double>(2 * bytes) * (1.0 - res))});
        const Tick t0 = host_.sim.now();
        co_await host_.cpu.compute(t);
        recordCopySplit(ctx, "app.copy", t0, t, bytes);
    }

    /**
     * Copy @p bytes within application memory (e.g. proxy storing a
     * fetched object into its cache).
     */
    Coro<void>
    copyInto(std::size_t bytes, sim::TraceContext ctx = {})
    {
        const double res = residency();
        const Tick t =
            host_.copy.copyTime(sim::Bytes{bytes}, res,
                                host_.bus.slowdown());
        noteBuffer(bytes);
        host_.bus.consume(sim::Bytes{static_cast<std::size_t>(
            static_cast<double>(2 * bytes) * (1.0 - res))});
        const Tick t0 = host_.sim.now();
        co_await host_.cpu.compute(t);
        recordCopySplit(ctx, "app.copy", t0, t, bytes);
    }

  private:
    /** Split one already-charged copy into hot/memcpy + miss/cache. */
    void
    recordCopySplit(sim::TraceContext ctx, const char *name, Tick t0,
                    Tick cost, std::size_t bytes)
    {
        sim::RequestTracer *rt = host_.sim.requestTracer();
        if (!rt || !ctx.valid())
            return;
        const Tick hot =
            std::min(host_.copy.hotCopyTime(sim::Bytes{bytes}), cost);
        rt->recordComputeSplit(
            ctx, t0, host_.sim.now(),
            {{name, sim::CostCat::memcpy, hot},
             {"app.copy-miss", sim::CostCat::cache, cost - hot}});
    }
    void
    refreshFootprint()
    {
        const std::uint64_t transient = std::min<std::uint64_t>(
            window_.estimate(), 8 * host_.cache.capacity());
        host_.cache.resizeFootprint(
            footprint_, static_cast<std::size_t>(persistent_ + transient));
    }

    tcp::Host host_;
    mem::RollingBytes window_;
    mem::FootprintId footprint_;
    std::uint64_t persistent_ = 0;
};

} // namespace ioat::core

#endif // IOAT_CORE_APP_MEMORY_HH
