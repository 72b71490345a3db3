/**
 * @file
 * OpenMetrics encoder of the Sampler's timeline: every scalar and
 * probe reading at every sampled tick, rendered in the
 * Prometheus/OpenMetrics text exposition format (or a JSON twin for
 * jq), so the queue depths, credit occupancy, ring depths and shed
 * counters that are invisible in end-of-run totals become a
 * reproducible time-lapse.
 *
 * A dotted registry name splits at its first dot into an instance
 * ("node3") and an `ioat_`-prefixed family ("ioat_tcp_creditBytes");
 * a name without a dot belongs to instance "sim".  Scalars and delta
 * probes are written as counters (the raw reading, not the
 * per-interval increase the RunReport series carries), gauge probes
 * as gauges.  The bytes are a pure function of the timeline, so
 * identical runs write identical files (pinned by `ctest -L
 * profile`).
 */

#ifndef IOAT_SIMCORE_TELEMETRY_SNAPSHOT_HH
#define IOAT_SIMCORE_TELEMETRY_SNAPSHOT_HH

#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/telemetry/report.hh"
#include "simcore/telemetry/sampler.hh"
#include "simcore/trace.hh"

namespace ioat::sim::telemetry {

class OpenMetricsWriter
{
  public:
    /** Group @p timeline's columns into (family, instance) rows. */
    explicit OpenMetricsWriter(const Sampler &timeline)
        : timeline_(timeline)
    {
        if (timeline.samplesTaken() == 0)
            return;
        const Registry &reg = timeline.registry();
        for (std::size_t m = 0; m < reg.scalars().size(); ++m)
            addColumn(reg.scalars()[m].name, reg.scalars()[m].description,
                      "counter", timeline.scalarReadings(m));
        for (std::size_t p = 0; p < reg.probes().size(); ++p) {
            const auto &probe = reg.probes()[p];
            addColumn(probe.name, probe.description,
                      probe.kind == ProbeKind::delta ? "counter" : "gauge",
                      timeline.probeReadings(p));
        }
    }

    /**
     * OpenMetrics text exposition: `# HELP`/`# TYPE` per family, then
     * `family{instance="node3"} value tick` lines sorted by (family,
     * instance, tick).
     */
    void
    writeText(std::ostream &os) const
    {
        os << "# ioat-metrics-snapshot-v1\n";
        const std::string *family = nullptr;
        for (const auto &[key, row] : rows_) {
            if (!family || *family != key.first) {
                family = &key.first;
                os << "# HELP " << key.first << " " << row.help << "\n";
                os << "# TYPE " << key.first << " " << row.type << "\n";
            }
            for (std::size_t i = 0; i < timeline_.samplesTaken(); ++i)
                for (const auto *col : row.columns)
                    os << key.first << "{instance=\"" << key.second
                       << "\"} " << RunReport::number((*col)[i]) << " "
                       << timeline_.timeAt(i).count() << "\n";
        }
        os << "# EOF\n";
    }

    /** JSON twin ("ioat-metrics-snapshot-v1") for jq validation. */
    void
    writeJson(std::ostream &os) const
    {
        os << "{\"schema\":\"ioat-metrics-snapshot-v1\",\n"
           << "\"intervalTicks\":" << timeline_.interval().count()
           << ",\n"
           << "\"metrics\":[";
        bool first = true;
        for (const auto &[key, row] : rows_) {
            os << (first ? "\n" : ",\n");
            first = false;
            os << " {\"family\":\"" << jsonEscape(key.first)
               << "\",\"instance\":\"" << jsonEscape(key.second)
               << "\",\"type\":\"" << row.type << "\",\"samples\":[";
            bool first_sample = true;
            for (std::size_t i = 0; i < timeline_.samplesTaken(); ++i)
                for (const auto *col : row.columns) {
                    os << (first_sample ? "" : ",") << "["
                       << timeline_.timeAt(i).count() << ","
                       << RunReport::number((*col)[i]) << "]";
                    first_sample = false;
                }
            os << "]}";
        }
        os << "\n]}\n";
    }

    /** Write @p path: JSON when it ends in ".json", else text. */
    void
    save(const std::string &path) const
    {
        std::ofstream out(path);
        simAssert(out.good(), "cannot open metrics file");
        const bool json = path.size() >= 5 &&
                          path.compare(path.size() - 5, 5, ".json") == 0;
        if (json)
            writeJson(out);
        else
            writeText(out);
    }

  private:
    /** Metrics sharing one (family, instance); the first registered
     *  names the row's help and type. */
    struct Row
    {
        std::string help;
        const char *type;
        std::vector<const std::vector<double> *> columns;
    };

    void
    addColumn(const std::string &qualified, const std::string &help,
              const char *type, const std::vector<double> &readings)
    {
        const std::size_t dot = qualified.find('.');
        std::string instance = dot == std::string::npos
                                   ? std::string("sim")
                                   : qualified.substr(0, dot);
        std::string metric = dot == std::string::npos
                                 ? qualified
                                 : qualified.substr(dot + 1);
        for (char &c : metric)
            if (c == '.')
                c = '_';
        auto row = rows_.try_emplace(
            {"ioat_" + metric, std::move(instance)}, Row{help, type, {}});
        row.first->second.columns.push_back(&readings);
    }

    const Sampler &timeline_;
    /** Keyed (family, instance): std::map keeps the output sorted. */
    std::map<std::pair<std::string, std::string>, Row> rows_;
};

} // namespace ioat::sim::telemetry

#endif // IOAT_SIMCORE_TELEMETRY_SNAPSHOT_HH
