/**
 * @file
 * Deterministic fault-injection framework.
 *
 * A `FaultInjector` owns a seeded fault plan for a whole simulation.
 * Components pull per-site decision streams from it: each named site
 * (a switch link, a NIC RX path, a DMA engine, ...) gets its own
 * `FaultSite` whose PRNG is derived from the global seed and the site
 * name, so the fault schedule at one site is a pure function of
 * (seed, site name, number of decisions taken there).  Adding or
 * removing sites never perturbs the streams of the others, and the
 * same seed replays the exact same schedule.
 *
 * Two kinds of fault are modeled:
 *  - probabilistic per-unit faults (drop / duplicate / extra delay),
 *    decided by `FaultSite::decide()`;
 *  - scheduled whole-node outage windows (pause, crash, restart),
 *    queried with `nodeDown()` — delivery to (or from) a down node is
 *    the injection point for crash semantics.
 *
 * Everything is observable: per-site counters, aggregate counters,
 * optional trace instants, and `instrument()` for end-of-run reports.
 */

#ifndef IOAT_SIMCORE_FAULT_HH
#define IOAT_SIMCORE_FAULT_HH

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/random.hh"
#include "simcore/stats.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/trace.hh"
#include "simcore/types.hh"

namespace ioat::sim {

/** Probabilistic fault mix for one site (probabilities sum to <= 1). */
struct FaultSiteConfig
{
    double dropProb = 0.0;  ///< unit vanishes
    double dupProb = 0.0;   ///< unit delivered twice
    double delayProb = 0.0; ///< unit delivered late by delayTicks
    Tick delayTicks{};    ///< extra latency applied on a delay fault
};

/** What the injector decided for one unit of work at a site. */
struct FaultDecision
{
    bool drop = false;
    bool duplicate = false;
    Tick extraDelay{};
};

/** A scheduled whole-node outage window [start, end). */
struct OutageWindow
{
    std::uint32_t node = 0;
    Tick start{};
    Tick end = kTickMax; ///< kTickMax = permanent crash
};

class FaultInjector;

/**
 * One named fault-injection point with its own deterministic
 * decision stream and counters.
 */
class FaultSite
{
  public:
    const std::string &name() const { return name_; }
    const FaultSiteConfig &config() const { return cfg_; }
    void configure(const FaultSiteConfig &cfg) { cfg_ = cfg; }

    /**
     * Decide the fate of the next unit of work at this site.  Exactly
     * one PRNG draw per call, so the stream stays aligned across runs
     * even when the configured probabilities differ.
     */
    FaultDecision decide(); // defined after FaultInjector

    /** @name Per-site counters
     *  @{ */
    std::uint64_t decisions() const { return decisions_.value(); }
    std::uint64_t drops() const { return drops_.value(); }
    std::uint64_t dups() const { return dups_.value(); }
    std::uint64_t delays() const { return delays_.value(); }
    /** @} */

    /** Passkey: only FaultInjector can mint one, so sites are
     *  injector-owned while std::make_unique does the allocation. */
    class Key
    {
        friend class FaultInjector;
        Key() = default;
    };

    FaultSite(Key, FaultInjector &parent, std::string name,
              std::uint64_t seed, const FaultSiteConfig &cfg)
        : parent_(parent), name_(std::move(name)), rng_(seed), cfg_(cfg)
    {}

  private:
    friend class FaultInjector;

    FaultInjector &parent_;
    std::string name_;
    Rng rng_;
    FaultSiteConfig cfg_;
    stats::Counter decisions_;
    stats::Counter drops_;
    stats::Counter dups_;
    stats::Counter delays_;
};

/**
 * The simulation-wide fault plan: site registry, outage schedule,
 * aggregate counters, optional tracing.
 */
class FaultInjector : public telemetry::Instrumented
{
  public:
    explicit FaultInjector(std::uint64_t seed = 1) : seed_(seed) {}

    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    std::uint64_t seed() const { return seed_; }

    /**
     * Default config applied to sites created on demand (handy for
     * "uniform loss on every link" sweeps).  Affects only sites
     * created after the call.
     */
    void setDefaultConfig(const FaultSiteConfig &cfg) { defaultCfg_ = cfg; }

    /**
     * Get or create the site named @p name.  A site's seed depends
     * only on its name, so creation *order* does not matter.
     */
    FaultSite &
    site(const std::string &name)
    {
        auto it = sites_.find(name);
        if (it == sites_.end()) {
            it = sites_
                     .emplace(name, std::make_unique<FaultSite>(
                                        FaultSite::Key{}, *this, name,
                                        siteSeed(name), defaultCfg_))
                     .first;
        }
        return *it->second;
    }

    /** Get or create the site named @p name and (re)configure it. */
    FaultSite &
    site(const std::string &name, const FaultSiteConfig &cfg)
    {
        FaultSite &s = site(name);
        s.configure(cfg);
        return s;
    }

    /** @name Scheduled node outages
     *  @{ */

    /** Take @p node down over [start, end); end defaults to forever.
     *  Inverted or empty windows (`end <= start`) are rejected. */
    void
    addOutage(std::uint32_t node, Tick start, Tick end = kTickMax)
    {
        simAssert(end > start,
                  "outage window must satisfy end > start");
        outages_.push_back(OutageWindow{node, start, end});
        insertIndexed(node, start, end);
    }

    /**
     * Is @p node inside any of its outage windows at @p now?
     *
     * Queried on every switch delivery, so it is indexed: windows are
     * kept per node, merged and sorted by start, and the lookup is one
     * map find plus a binary search instead of a scan over the whole
     * schedule.
     */
    bool
    nodeDown(std::uint32_t node, Tick now) const
    {
        const auto it = index_.find(node);
        if (it == index_.end())
            return false;
        const auto &wins = it->second;
        // First window starting strictly after `now`; its predecessor
        // is the only candidate (windows are merged, so disjoint).
        auto up = std::upper_bound(
            wins.begin(), wins.end(), now,
            [](Tick t, const OutageWindow &w) { return t < w.start; });
        if (up == wins.begin())
            return false;
        return now < std::prev(up)->end;
    }

    /** The raw outage schedule, in the order it was added. */
    const std::vector<OutageWindow> &outages() const { return outages_; }

    /**
     * Per-node outage windows, merged (overlaps and adjacencies
     * coalesced) and sorted by start — the process-level view a
     * crash/restart supervisor needs: one merged window is one
     * crash + one restart, however many raw windows produced it.
     * @return empty when @p node has no scheduled outages.
     */
    std::vector<OutageWindow>
    mergedOutages(std::uint32_t node) const
    {
        const auto it = index_.find(node);
        if (it == index_.end())
            return {};
        return it->second;
    }

    /** Nodes with at least one scheduled outage, ascending. */
    std::vector<std::uint32_t>
    outageNodes() const
    {
        std::vector<std::uint32_t> nodes;
        nodes.reserve(index_.size());
        for (const auto &[node, wins] : index_)
            nodes.push_back(node);
        return nodes;
    }

    /** Record a delivery dropped because an endpoint was down. */
    void
    noteOutageDrop(Tick now)
    {
        outageDrops_.inc();
        if (trace_)
            trace_->instant("fault:outage-drop", "fault", now,
                            TraceWriter::Lanes::fault);
    }
    /** @} */

    /** Emit fault instants into @p tw (injected vs recovered audit). */
    void setTracer(TraceWriter *tw) { trace_ = tw; }
    TraceWriter *tracer() const { return trace_; }

    /** Instrumented hook: same as setTracer. */
    void attachTracer(TraceWriter *tw) override { trace_ = tw; }

    /** @name Aggregate counters (sum over all sites + outages)
     *  @{ */
    std::uint64_t totalDrops() const { return drops_.value(); }
    std::uint64_t totalDups() const { return dups_.value(); }
    std::uint64_t totalDelays() const { return delays_.value(); }
    std::uint64_t outageDrops() const { return outageDrops_.value(); }
    /** @} */

    /**
     * Publish the fault plan's counters under the caller's scope
     * (aggregate + one group per site; sites_ is a std::map, so the
     * order is deterministic).
     */
    void
    instrument(telemetry::Registry &reg) override
    {
        reg.counter("drops", drops_, "bursts dropped by injector");
        reg.counter("dups", dups_, "bursts duplicated by injector");
        reg.counter("delays", delays_, "bursts delayed by injector");
        reg.counter("outageDrops", outageDrops_,
                    "deliveries dropped at crashed nodes");
        // Echo the outage *plan* itself (not just its effects) so a
        // chaos run's report is self-describing: one scope per raw
        // window, in schedule order.
        reg.scalar(
            "outageWindows",
            [this] { return static_cast<double>(outages_.size()); },
            "scheduled outage windows in the fault plan");
        for (std::size_t i = 0; i < outages_.size(); ++i) {
            telemetry::Registry::Scope scope(
                reg, "outage" + std::to_string(i));
            const OutageWindow w = outages_[i];
            reg.scalar(
                "node", [w] { return static_cast<double>(w.node); },
                "node taken down by this window");
            reg.scalar(
                "startUs",
                [w] { return toMicroseconds(w.start); },
                "window start (us)");
            reg.scalar(
                "endUs",
                [w] {
                    return w.end == kTickMax ? -1.0
                                             : toMicroseconds(w.end);
                },
                "window end (us; -1 = permanent crash)");
        }
        for (const auto &[name, s] : sites_) {
            telemetry::Registry::Scope scope(reg, name);
            reg.counter("drops", s->drops_);
            reg.counter("dups", s->dups_);
            reg.counter("delays", s->delays_);
        }
    }

  private:
    friend class FaultSite;

    /** Per-site seed: mix the site name into the global seed. */
    std::uint64_t
    siteSeed(const std::string &name) const
    {
        // FNV-1a over the name, then xor into the plan seed.
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (unsigned char c : name) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        return seed_ ^ h;
    }

    /** Keep the per-node index merged and sorted by start. */
    void
    insertIndexed(std::uint32_t node, Tick start, Tick end)
    {
        auto &wins = index_[node];
        auto pos = std::lower_bound(
            wins.begin(), wins.end(), start,
            [](const OutageWindow &w, Tick t) { return w.start < t; });
        pos = wins.insert(pos, OutageWindow{node, start, end});
        // Coalesce with the predecessor, then with any successors the
        // (possibly grown) window swallows.
        if (pos != wins.begin() && std::prev(pos)->end >= pos->start) {
            auto prev = std::prev(pos);
            prev->end = std::max(prev->end, pos->end);
            pos = wins.erase(pos);
            pos = std::prev(pos);
        }
        while (std::next(pos) != wins.end() &&
               pos->end >= std::next(pos)->start) {
            pos->end = std::max(pos->end, std::next(pos)->end);
            wins.erase(std::next(pos));
        }
    }

    std::uint64_t seed_;
    FaultSiteConfig defaultCfg_;
    // std::map: deterministic iteration order for stats registration.
    std::map<std::string, std::unique_ptr<FaultSite>> sites_;
    std::vector<OutageWindow> outages_;
    /** node → merged windows sorted by start (nodeDown fast path). */
    std::map<std::uint32_t, std::vector<OutageWindow>> index_;
    TraceWriter *trace_ = nullptr;
    stats::Counter drops_;
    stats::Counter dups_;
    stats::Counter delays_;
    stats::Counter outageDrops_;
};

inline FaultDecision
FaultSite::decide()
{
    decisions_.inc();
    FaultDecision d;
    const double sum = cfg_.dropProb + cfg_.dupProb + cfg_.delayProb;
    if (sum <= 0.0) {
        // Keep the stream aligned even for a currently-clean site.
        (void)rng_.uniform();
        return d;
    }
    const double u = rng_.uniform();
    if (u < cfg_.dropProb) {
        d.drop = true;
        drops_.inc();
        parent_.drops_.inc();
    } else if (u < cfg_.dropProb + cfg_.dupProb) {
        d.duplicate = true;
        dups_.inc();
        parent_.dups_.inc();
    } else if (u < sum) {
        d.extraDelay = cfg_.delayTicks;
        delays_.inc();
        parent_.delays_.inc();
    }
    return d;
}

} // namespace ioat::sim

#endif // IOAT_SIMCORE_FAULT_HH
