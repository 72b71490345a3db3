/**
 * @file
 * Periodic metrics snapshots: OpenMetrics-style gauge/counter dumps
 * sampled on simulated-time intervals.
 *
 * Where the Sampler (sampler.hh) accumulates per-probe TimeSeries for
 * the RunReport, MetricsSnapshot captures the *whole registry* —
 * every scalar and probe — at fixed simulated ticks and renders the
 * result in the Prometheus/OpenMetrics text exposition format (or a
 * JSON twin for jq), so the queue depths, credit occupancy, ring
 * depths and shed counters that are invisible in end-of-run totals
 * become a reproducible time-lapse.
 *
 * Determinism contract (pinned by `ctest -L profile`):
 *
 *  - sampling is event-queue driven at fixed ticks, never wall-clock;
 *  - samples are taken by a lane-0 event.  Lane 0 sorts before every
 *    node lane, so a sample at tick T observes exactly the state after
 *    all events < T and before any node event at T, and the bytes are
 *    identical across reruns;
 *  - engine metrics (wheel depths, executed events, live tasks)
 *    describe the *simulator*, not the model — they are emitted only
 *    with Config::engine.
 */

#ifndef IOAT_SIMCORE_TELEMETRY_SNAPSHOT_HH
#define IOAT_SIMCORE_TELEMETRY_SNAPSHOT_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/sim.hh"
#include "simcore/telemetry/registry.hh"

namespace ioat::sim::telemetry {

class MetricsSnapshot
{
  public:
    struct Config
    {
        /** Spacing between snapshots (> 0). */
        Tick interval = microseconds(100);
        /** Stop after this many snapshot ticks. */
        std::size_t maxSnapshots = 4096;
        /** Also emit the engine (simulator-internals) section. */
        bool engine = false;
    };

    MetricsSnapshot(Simulation &sim, Config cfg) : cfg_(cfg), sim_(sim)
    {
        simAssert(cfg_.interval > Tick{0},
                  "snapshot interval must be > 0");
        sim.telemetry().instrumentAll(reg_);
        for (const auto &s : reg_.scalars())
            addMetric(s.name, s.description, "counter",
                      [read = s.read] { return read(); });
        for (const auto &p : reg_.probes())
            addMetric(p.name, p.description,
                      p.kind == ProbeKind::delta ? "counter" : "gauge",
                      [read = p.read] { return read(); });
        if (cfg_.engine) {
            EventQueue &q = sim.queue();
            addEngine("queueDepthL0", "gauge", [&q] {
                return static_cast<double>(q.l0Depth());
            });
            addEngine("queueDepthL1", "gauge", [&q] {
                return static_cast<double>(q.l1Depth());
            });
            addEngine("queueDepthL2", "gauge", [&q] {
                return static_cast<double>(q.l2Depth());
            });
            addEngine("queueDepthHeap", "gauge", [&q] {
                return static_cast<double>(q.heapDepth());
            });
            addEngine("executedEvents", "counter", [&q] {
                return static_cast<double>(q.executedEvents());
            });
            addEngine("liveTasks", "gauge", [&sim] {
                return static_cast<double>(sim.liveRootTasks());
            });
        }
        arm();
    }

    MetricsSnapshot(const MetricsSnapshot &) = delete;
    MetricsSnapshot &operator=(const MetricsSnapshot &) = delete;

    /**
     * OpenMetrics text exposition: `# HELP`/`# TYPE` per family, then
     * `family{instance="node3"} value tick` lines sorted by (family,
     * instance, tick).  Call after the run, before teardown.
     */
    void
    writeText(std::ostream &os) const
    {
        os << "# ioat-metrics-snapshot-v1\n";
        const auto rows = collect();
        std::string family;
        for (const auto &[key, recs] : rows) {
            if (key.family != family) {
                family = key.family;
                os << "# HELP " << family << " " << key.help << "\n";
                os << "# TYPE " << family << " " << key.type << "\n";
            }
            for (const auto &rec : recs)
                os << family << "{instance=\"" << key.instance
                   << "\"} " << formatValue(rec.value) << " "
                   << rec.when.count() << "\n";
        }
        os << "# EOF\n";
    }

    /** JSON twin ("ioat-metrics-snapshot-v1") for jq validation. */
    void
    writeJson(std::ostream &os) const
    {
        os << "{\"schema\":\"ioat-metrics-snapshot-v1\",\n"
           << "\"intervalTicks\":" << cfg_.interval.count() << ",\n"
           << "\"metrics\":[";
        const auto rows = collect();
        bool first = true;
        for (const auto &[key, recs] : rows) {
            os << (first ? "\n" : ",\n");
            first = false;
            os << " {\"family\":\"" << key.family
               << "\",\"instance\":\"" << key.instance
               << "\",\"type\":\"" << key.type << "\",\"samples\":[";
            for (std::size_t i = 0; i < recs.size(); ++i)
                os << (i ? "," : "") << "[" << recs[i].when.count()
                   << "," << formatValue(recs[i].value) << "]";
            os << "]}";
        }
        os << "\n]}\n";
    }

    /** Write @p path: JSON when it ends in ".json", else text. */
    void
    save(const std::string &path) const
    {
        std::ofstream out(path);
        simAssert(out.good(), "cannot open metrics snapshot file");
        const bool json = path.size() >= 5 &&
                          path.compare(path.size() - 5, 5, ".json") == 0;
        if (json)
            writeJson(out);
        else
            writeText(out);
    }

  private:
    /** One metric sampled every snapshot tick. */
    struct Metric
    {
        std::string family;   ///< ioat_-prefixed OpenMetrics name
        std::string instance; ///< first dotted segment ("node3")
        std::string help;
        const char *type; ///< "gauge" or "counter"
        std::function<double()> read;
    };

    struct Rec
    {
        std::uint32_t metric;
        Tick when;
        double value;
    };

    /** Register one model metric from its dotted registry name. */
    void
    addMetric(const std::string &qualified, const std::string &help,
              const char *type, std::function<double()> read)
    {
        const std::size_t dot = qualified.find('.');
        std::string instance =
            dot == std::string::npos ? std::string("sim")
                                     : qualified.substr(0, dot);
        std::string metric = dot == std::string::npos
                                 ? qualified
                                 : qualified.substr(dot + 1);
        for (char &c : metric)
            if (c == '.')
                c = '_';
        metrics_.push_back(Metric{"ioat_" + metric, std::move(instance),
                                  help, type, std::move(read)});
    }

    void
    addEngine(const char *name, const char *type,
              std::function<double()> read)
    {
        metrics_.push_back(Metric{std::string("ioat_engine_") + name,
                                  "sim", "simulator engine internals",
                                  type, std::move(read)});
    }

    /**
     * Self-rearming lane-0 snapshot event.  Setup and rearm both run
     * on lane 0, so every sample sorts before node work at its tick.
     */
    void
    arm()
    {
        sim_.queue().scheduleIn(cfg_.interval, [this] {
            const Tick now = sim_.now();
            for (std::uint32_t i = 0;
                 i < static_cast<std::uint32_t>(metrics_.size()); ++i)
                recs_.push_back(Rec{i, now, metrics_[i].read()});
            if (++taken_ < cfg_.maxSnapshots)
                arm();
        });
    }

    struct RowKey
    {
        std::string family;
        std::string instance;
        std::string help;
        const char *type;

        bool
        operator<(const RowKey &o) const
        {
            if (family != o.family)
                return family < o.family;
            return instance < o.instance;
        }
    };

    /** Group the records into sorted (family, instance) rows; each
     *  row keeps its records in tick order. */
    std::map<RowKey, std::vector<Rec>>
    collect() const
    {
        std::map<RowKey, std::vector<Rec>> rows;
        for (const auto &rec : recs_) {
            const Metric &m = metrics_[rec.metric];
            rows[RowKey{m.family, m.instance, m.help, m.type}]
                .push_back(rec);
        }
        return rows;
    }

    /** Integers stay integral; everything model-side is integral. */
    static std::string
    formatValue(double v)
    {
        if (v == static_cast<double>(static_cast<std::int64_t>(v)))
            return strprintf("%lld",
                             static_cast<long long>(
                                 static_cast<std::int64_t>(v)));
        return strprintf("%.17g", v);
    }

    Config cfg_;
    Simulation &sim_;
    Registry reg_; ///< keeps probe read-lambdas alive
    std::vector<Metric> metrics_;
    std::vector<Rec> recs_;
    std::size_t taken_ = 0;
};

} // namespace ioat::sim::telemetry

#endif // IOAT_SIMCORE_TELEMETRY_SNAPSHOT_HH
