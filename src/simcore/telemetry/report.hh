/**
 * @file
 * RunReport: serialize one instrumented run — config echo, git
 * revision, every registry scalar/histogram/series/flow table — as
 * JSON (machine-readable, jq-friendly) or CSV (series, for plotting).
 *
 * capture() snapshots the registry *by value* at a chosen instant and
 * encodes the Sampler's timeline into one series per probe, so the
 * report stays valid after the Simulation and its components are
 * torn down; writers are pure functions of the snapshot.  All output
 * is registration-ordered and locale-independent (strprintf with
 * explicit formats), keeping report bytes deterministic for a given
 * run.
 */

#ifndef IOAT_SIMCORE_TELEMETRY_REPORT_HH
#define IOAT_SIMCORE_TELEMETRY_REPORT_HH

#include <cmath>
#include <cstdint>
#include <fstream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "simcore/table.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/telemetry/sampler.hh"
#include "simcore/trace.hh"
#include "simcore/types.hh"

namespace ioat::sim::telemetry {

/**
 * Revision of the tree this binary was built from, stamped at build
 * time (tools/gitrev.cmake): the short HEAD hash, "-dirty" when tracked
 * files differed from HEAD, "unknown" outside a git checkout.
 */
const char *gitRevision();

class RunReport
{
  public:
    /** @name Run metadata
     *  @{ */
    void setBench(std::string name) { bench_ = std::move(name); }

    /** Echo one config knob (flag values, figure parameters). */
    void
    addConfig(std::string key, std::string value)
    {
        config_.emplace_back(std::move(key), std::move(value));
    }
    /** @} */

    /**
     * Snapshot @p timeline's registry: read every scalar, copy every
     * histogram, derive every probe's series from the timeline and
     * materialize every flow table.  Call while the instrumented
     * components are still alive (typically right after the
     * measurement window, before teardown).
     */
    void
    capture(const Sampler &timeline, Tick now)
    {
        const Registry &reg = timeline.registry();
        capturedAt_ = now;
        seriesStart_ = timeline.startTick();
        seriesInterval_ = timeline.interval();
        scalars_.clear();
        hists_.clear();
        series_.clear();
        flows_.clear();
        for (const auto &s : reg.scalars())
            scalars_.push_back({s.name, s.read()});
        for (const auto &h : reg.histograms())
            hists_.push_back({h.name, h.scale, *h.hist});
        const auto &probes = reg.probes();
        for (std::size_t p = 0; p < probes.size(); ++p) {
            SeriesSample series{probes[p].name, probes[p].kind, {}};
            // Milli-units (value * 1000, rounded), so fractional
            // gauges like utilization keep three decimal digits
            // through the integer histogram.
            Histogram dist;
            const std::size_t n = timeline.probeReadings(p).size();
            for (std::size_t i = 0; i < n; ++i) {
                const double v = timeline.seriesValue(p, i);
                series.values.push_back(v);
                const double milli = v * 1000.0;
                dist.sample(milli > 0.0 ? static_cast<std::uint64_t>(
                                              std::llround(milli))
                                        : 0);
            }
            series_.push_back(std::move(series));
            hists_.push_back({probes[p].name + ".dist", 1.0e-3, dist});
        }
        for (const auto &f : reg.flowSources())
            flows_.push_back({f.name, f.read()});
    }

    /** @name JSON export
     *  @{ */
    void
    writeJson(std::ostream &os) const
    {
        os << "{\n";
        os << "  \"schema\": \"ioat-run-report-v1\",\n";
        os << "  \"bench\": " << quoted(bench_) << ",\n";
        os << "  \"gitRev\": " << quoted(gitRevision()) << ",\n";
        os << "  \"capturedAtTick\": " << capturedAt_.count() << ",\n";

        os << "  \"config\": {";
        for (std::size_t i = 0; i < config_.size(); ++i) {
            os << (i ? ", " : "") << quoted(config_[i].first) << ": "
               << quoted(config_[i].second);
        }
        os << "},\n";

        os << "  \"stats\": {";
        for (std::size_t i = 0; i < scalars_.size(); ++i) {
            os << (i ? "," : "") << "\n    " << quoted(scalars_[i].name)
               << ": " << number(scalars_[i].value);
        }
        os << (scalars_.empty() ? "" : "\n  ") << "},\n";

        os << "  \"histograms\": {";
        for (std::size_t i = 0; i < hists_.size(); ++i) {
            const auto &h = hists_[i];
            os << (i ? "," : "") << "\n    " << quoted(h.name) << ": {"
               << "\"count\": " << h.hist.count()
               << ", \"scale\": " << number(h.scale)
               << ", \"mean\": " << number(h.hist.mean() * h.scale)
               << ", \"min\": " << scaled(h.hist.min(), h.scale)
               << ", \"p50\": " << scaled(h.hist.p50(), h.scale)
               << ", \"p95\": " << scaled(h.hist.p95(), h.scale)
               << ", \"p99\": " << scaled(h.hist.p99(), h.scale)
               << ", \"max\": " << scaled(h.hist.max(), h.scale)
               << "}";
        }
        os << (hists_.empty() ? "" : "\n  ") << "},\n";

        os << "  \"series\": {";
        for (std::size_t i = 0; i < series_.size(); ++i) {
            const auto &s = series_[i];
            os << (i ? "," : "") << "\n    " << quoted(s.name) << ": {"
               << "\"kind\": "
               << (s.kind == ProbeKind::delta ? "\"delta\"" : "\"gauge\"")
               << ", \"startTick\": " << seriesStart_.count()
               << ", \"intervalTicks\": " << seriesInterval_.count()
               << ", \"values\": [";
            for (std::size_t j = 0; j < s.values.size(); ++j)
                os << (j ? ", " : "") << number(s.values[j]);
            os << "]}";
        }
        os << (series_.empty() ? "" : "\n  ") << "},\n";

        os << "  \"flows\": {";
        for (std::size_t i = 0; i < flows_.size(); ++i) {
            os << (i ? "," : "") << "\n    " << quoted(flows_[i].name)
               << ": [";
            const auto &list = flows_[i].samples;
            for (std::size_t j = 0; j < list.size(); ++j) {
                const auto &f = list[j];
                os << (j ? ", " : "")
                   << "{\"flow\": " << f.flow
                   << ", \"bytesSent\": " << f.bytesSent
                   << ", \"bytesReceived\": " << f.bytesReceived
                   << ", \"retransmits\": " << f.retransmits
                   << ", \"rtoFires\": " << f.rtoFires
                   << ", \"handshakeTicks\": "
                   << f.handshakeLatency.count()
                   << ", \"finTicks\": " << f.finLatency.count()
                   << ", \"open\": " << (f.open ? "true" : "false")
                   << "}";
            }
            os << "]";
        }
        os << (flows_.empty() ? "" : "\n  ") << "}\n";
        os << "}\n";
    }

    bool
    saveJson(const std::string &path) const
    {
        std::ofstream os(path);
        if (!os)
            return false;
        writeJson(os);
        return os.good();
    }
    /** @} */

    /** @name CSV export (long format: series,tick,value)
     *  @{ */
    void
    writeCsv(std::ostream &os) const
    {
        os << "series,tick,value\n";
        for (const auto &s : series_) {
            for (std::size_t j = 0; j < s.values.size(); ++j) {
                const Tick at =
                    seriesStart_ +
                    seriesInterval_ * (static_cast<std::uint64_t>(j) + 1);
                os << s.name << ',' << at.count() << ','
                   << number(s.values[j]) << '\n';
            }
        }
    }
    /** @} */

    /** Shortest round-trippable decimal; integers stay integral.
     *  Non-finite values become 0 — JSON has no NaN/Inf literal.
     *  The one number format of both timeline encoders. */
    static std::string
    number(double v)
    {
        if (!std::isfinite(v))
            return "0";
        if (std::abs(v) < 9.0e15 &&
            v == static_cast<double>(static_cast<std::int64_t>(v))) {
            return strprintf("%lld",
                             static_cast<long long>(
                                 static_cast<std::int64_t>(v)));
        }
        return strprintf("%.17g", v);
    }

  private:
    static std::string
    quoted(const std::string &s)
    {
        return '"' + jsonEscape(s) + '"';
    }

    static std::string
    scaled(std::uint64_t v, double scale)
    {
        if (scale == 1.0)
            return strprintf("%llu",
                             static_cast<unsigned long long>(v));
        return number(static_cast<double>(v) * scale);
    }

    struct ScalarSample
    {
        std::string name;
        double value;
    };

    struct HistSample
    {
        std::string name;
        double scale;
        Histogram hist;
    };

    struct SeriesSample
    {
        std::string name;
        ProbeKind kind;
        std::vector<double> values;
    };

    struct FlowTable
    {
        std::string name;
        std::vector<FlowSample> samples;
    };

    std::string bench_ = "unnamed";
    std::vector<std::pair<std::string, std::string>> config_;
    Tick capturedAt_{};
    Tick seriesStart_{};    ///< every series shares the timeline's
    Tick seriesInterval_{}; ///< start and spacing
    std::vector<ScalarSample> scalars_;
    std::vector<HistSample> hists_;
    std::vector<SeriesSample> series_;
    std::vector<FlowTable> flows_;
};

} // namespace ioat::sim::telemetry

#endif // IOAT_SIMCORE_TELEMETRY_REPORT_HH
