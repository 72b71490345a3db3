/**
 * @file
 * Deterministic hierarchical profiler: folded call-stack cost ledgers
 * built from the request tracer's span trees.
 *
 * The profiler piggybacks on the reqtrace machinery instead of adding
 * its own hot-path hooks: model code keeps emitting `ScopedSpan`s
 * exactly as before (zero new work per span), and when a request
 * *finalizes*, the tracer's clipped-interval attribution walk — the
 * one that already partitions the request's latency exactly across
 * cost categories — also reports each charge here together with the
 * root-to-span *name path* it was charged on.  Folding those paths
 * yields, per cost category, a classic flame-graph profile: the cost
 * of `GET;proxy.backend;tcp.rx;softirq` is the time the attribution
 * rule charged to the `tcp.rx`→`softirq` frames of GET requests, and
 * the per-category ledger sums to exactly the summed request
 * breakdowns (the partition property, pinned by `ctest -L profile`).
 *
 * Output is the Brendan Gregg folded-stack format — one line per
 * (stack, category): `frames;...;[cat] <ticks>` — which
 * `flamegraph.pl` and speedscope render directly.  Lines are sorted
 * lexically and counts are simulated ticks, so the bytes are
 * reproducible run to run.
 *
 * Costs: nothing on the span hot path (begin/end span never touch the
 * profiler), allocation only at request finalize (one string per tree
 * level of the walk), and nothing at all when no profiler is attached
 * — the tracer's null pointer is the off fast path, and golden
 * digests are byte-identical with the profiler compiled in.
 */

#ifndef IOAT_SIMCORE_PROFILE_HH
#define IOAT_SIMCORE_PROFILE_HH

#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <string>

#include "simcore/assert.hh"
#include "simcore/reqtrace.hh"
#include "simcore/types.hh"

namespace ioat::sim {

/**
 * Folded-stack cost ledger.  Attach to a RequestTracer
 * (`tracer.attachProfiler(&p)`); every finalized request's exact
 * attribution is folded in, keyed by the semicolon-joined span-name
 * path from the request root.
 */
class Profiler : public ProfileSink
{
  public:
    /** Per-stack ticks, one slot per cost category. */
    using CatTicks = std::array<std::uint64_t, kCostCatCount>;

    /**
     * Charge @p ticks of @p cat against @p stack (semicolon-joined
     * span names, root first).  Called by RequestTracer::finalize —
     * not by model code.
     */
    void
    add(const std::string &stack, CostCat cat, Tick ticks) override
    {
        if (ticks <= Tick{})
            return;
        folded_[stack][static_cast<std::size_t>(cat)] +=
            static_cast<std::uint64_t>(ticks.count());
    }

    /** Ledger totals per category (the partition-property check). */
    CatTicks
    totals() const
    {
        CatTicks t{};
        for (const auto &[stack, cats] : folded_) {
            (void)stack;
            for (std::size_t i = 0; i < kCostCatCount; ++i)
                t[i] += cats[i];
        }
        return t;
    }

    /** Distinct (stack) keys folded so far. */
    std::size_t stackCount() const { return folded_.size(); }

    const std::map<std::string, CatTicks> &folded() const
    {
        return folded_;
    }

    /**
     * Brendan Gregg folded-stack lines: `a;b;[cat] ticks`, sorted
     * (std::map iteration + fixed category order), one line per
     * non-zero (stack, category) pair.  The `[cat]` leaf frame keeps
     * one flame graph renderable per category mix while staying a
     * plain frame for tools that don't know our categories.
     */
    void
    writeFolded(std::ostream &os) const
    {
        for (const auto &[stack, cats] : folded_) {
            for (std::size_t i = 0; i < kCostCatCount; ++i) {
                if (cats[i] == 0)
                    continue;
                os << stack << ";["
                   << costCatName(static_cast<CostCat>(i)) << "] "
                   << cats[i] << "\n";
            }
        }
    }

    void
    saveFolded(const std::string &path) const
    {
        std::ofstream out(path);
        simAssert(out.good(), "cannot open folded-stack file");
        writeFolded(out);
    }

  private:
    /** stack -> per-category ticks; std::map for sorted iteration. */
    std::map<std::string, CatTicks> folded_;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_PROFILE_HH
