/**
 * @file
 * Shared harness for the figure-reproduction benchmarks: ttcp-style
 * stream generators/sinks (written against the sock facade),
 * measurement-window utilities, and the common command-line surface
 * (`Options` + `benchMain`) every bench binary exposes —
 * `--report <file>` (RunReport JSON), `--trace <file>` (Chrome
 * trace), `--sample-interval <us>`, `--seed <n>`, plus bench-specific
 * numeric knobs.
 */

#ifndef IOAT_BENCH_COMMON_HH
#define IOAT_BENCH_COMMON_HH

#include <sys/resource.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/app_memory.hh"
#include "core/node.hh"
#include "core/testbed.hh"
#include "simcore/profile.hh"
#include "simcore/simcore.hh"
#include "simcore/telemetry.hh"
#include "sock/socket.hh"

namespace ioat::bench {

using core::IoatConfig;
using core::Node;
using core::NodeConfig;
using sim::Coro;
using sim::Simulation;
using sim::Tick;

/** Stream sink options. */
struct SinkOptions
{
    std::size_t recvChunk = 64 * 1024;
    /** Stream over received data (consumer behaviour). */
    bool touchPayload = false;
};

/**
 * ttcp-style server: accept forever; per connection, recv forever.
 * One AppMemory per node models the receive buffers' cache footprint.
 */
inline Coro<void>
streamSinkLoop(Node &node, std::uint16_t port, SinkOptions opts,
               core::AppMemory &mem)
{
    sock::Listener listener(node.transport(), port);
    for (;;) {
        sock::Socket conn = co_await listener.accept();
        node.spawn(
            [](sock::Socket c, SinkOptions o,
               core::AppMemory &m) -> Coro<void> {
                m.reserve(o.recvChunk); // long-lived receive buffer
                for (;;) {
                    const std::size_t got =
                        co_await c.recvAll(o.recvChunk);
                    if (got == 0)
                        co_return;
                    if (o.touchPayload)
                        co_await m.touch(got);
                    else
                        m.noteBuffer(got);
                }
            }(conn, opts, mem));
    }
}

/** ttcp-style sender: connect once, then send chunks forever. */
inline Coro<void>
streamSenderLoop(Node &node, net::NodeId dst, std::uint16_t port,
                 std::size_t chunk, bool zero_copy = false)
{
    sock::Socket conn = co_await node.transport().connect(dst, port);
    const sock::SendOptions opts{.zeroCopy = zero_copy};
    for (;;)
        co_await conn.sendAll(chunk, opts);
}

/**
 * One measurement: warm up, reset utilization windows, run the
 * window, and report payload deltas.
 */
class Meter
{
  public:
    explicit Meter(Simulation &sim) : sim_(sim) {}

    /** Run the warmup phase then reset the given nodes' CPU windows. */
    void
    warmup(Tick duration, std::initializer_list<Node *> nodes)
    {
        sim_.runFor(duration);
        for (Node *n : nodes)
            n->cpu().resetUtilizationWindow();
        windowStart_ = sim_.now();
    }

    /** Run the measurement window. */
    void run(Tick duration) { sim_.runFor(duration); }

    Tick windowStart() const { return windowStart_; }
    Tick elapsed() const { return sim_.now() - windowStart_; }

  private:
    Simulation &sim_;
    Tick windowStart_{};
};

/**
 * The `--transport` choice: pin a bench to one transport/feature
 * configuration instead of its default comparison table.
 */
enum class TransportChoice {
    none,   ///< flag absent: the bench renders its usual comparison
    tcp,    ///< kernel TCP, I/OAT features off
    ioat,   ///< kernel TCP with the full I/OAT feature set
    bypass, ///< user-space kernel-bypass transport
};

/** Map a TransportChoice onto a node configuration. */
inline void
applyTransport(core::NodeConfig &cfg, TransportChoice choice)
{
    switch (choice) {
    case TransportChoice::none:
        break;
    case TransportChoice::tcp:
        cfg.ioat = IoatConfig::disabled();
        cfg.transport = core::TransportKind::tcp;
        break;
    case TransportChoice::ioat:
        cfg.ioat = IoatConfig::enabled();
        cfg.transport = core::TransportKind::tcp;
        break;
    case TransportChoice::bypass:
        cfg.ioat = IoatConfig::disabled();
        cfg.transport = core::TransportKind::bypass;
        break;
    }
}

/** Relative benefit (b - a) / b as the paper defines it (§4). */
inline double
relativeBenefit(double ioat, double non_ioat)
{
    return non_ioat > 0.0 ? (non_ioat - ioat) / non_ioat : 0.0;
}

/** Pretty percent for tables. */
inline std::string
pct(double fraction, int precision = 1)
{
    return sim::strprintf("%.*f%%", precision, fraction * 100.0);
}

inline std::string
num(double v, int precision = 1)
{
    return sim::strprintf("%.*f", precision, v);
}

/**
 * The common command-line surface of every bench binary.
 *
 * Construct with the bench name, register bench-specific knobs with
 * `knob()`, then hand everything to `benchMain` — it parses, handles
 * `--help`, and only then runs the body.
 */
class Options
{
  public:
    explicit Options(std::string bench_name)
        : bench_(std::move(bench_name))
    {}

    const std::string &benchName() const { return bench_; }
    const std::string &reportPath() const { return report_; }
    const std::string &tracePath() const { return trace_; }
    const std::string &requestTracePath() const { return reqTrace_; }
    const std::string &spanReportPath() const { return spanReport_; }
    const std::string &profilePath() const { return profile_; }
    const std::string &metricsPath() const { return metrics_; }
    std::uint64_t seed() const { return seed_; }
    bool wantReport() const { return !report_.empty(); }
    bool wantTrace() const { return !trace_.empty(); }
    bool wantRequestTrace() const { return !reqTrace_.empty(); }
    bool wantSpanReport() const { return !spanReport_.empty(); }
    bool wantProfile() const { return !profile_.empty(); }
    bool wantMetrics() const { return !metrics_.empty(); }
    bool wantEngineMetrics() const { return metricsEngine_; }
    /** Any artifact that needs telemetry/tracing machinery on. */
    bool
    instrumented() const
    {
        return wantReport() || wantTrace() || wantRequestTrace() ||
               wantSpanReport() || wantProfile() || wantMetrics();
    }

    /** Probe sampling period for instrumented runs. */
    Tick sampleInterval() const { return sampleInterval_; }

    /** Metrics snapshot spacing (defaults to the sample interval). */
    Tick
    metricsInterval() const
    {
        return metricsInterval_ > Tick{0} ? metricsInterval_
                                          : sampleInterval_;
    }

    /** @name Transport pinning (`--transport {tcp,ioat,bypass}`)
     *  @{ */
    /** The raw flag value ("" when absent). */
    const std::string &transportName() const { return transport_; }
    /** True when the bench should render one transport, not a table
     *  of comparisons. */
    bool singleTransport() const { return !transport_.empty(); }
    TransportChoice
    transportChoice() const
    {
        if (transport_ == "tcp")
            return TransportChoice::tcp;
        if (transport_ == "ioat")
            return TransportChoice::ioat;
        if (transport_ == "bypass")
            return TransportChoice::bypass;
        return TransportChoice::none;
    }
    /** @} */

    /** Register a numeric knob: `--<name> <value>` writes to @p slot. */
    void
    knob(std::string name, double *slot, std::string desc)
    {
        knobs_.push_back(Knob{std::move(name), std::move(desc), slot});
    }

    /**
     * Parse argv.  @return false when the process should exit
     * immediately (--help, or a bad flag or value); exitCode() says
     * how.  A numeric value must parse completely and lie in range.
     */
    bool
    parse(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(stdout);
                exitCode_ = 0;
                return false;
            }
            if (arg == "--transport") {
                if (i + 1 >= argc)
                    return fail(arg + " needs a value");
                const std::string val = argv[++i];
                if (val != "tcp" && val != "ioat" && val != "bypass")
                    return fail("--transport wants tcp, ioat or bypass");
                transport_ = val;
                continue;
            }
            if (arg == "--metrics-engine") {
                metricsEngine_ = true;
                continue;
            }
            if (arg == "--report" || arg == "--trace" ||
                arg == "--trace-requests" || arg == "--span-report" ||
                arg == "--profile" || arg == "--metrics" ||
                arg == "--metrics-interval" || arg == "--bench-json" ||
                arg == "--sample-interval" || arg == "--seed") {
                if (i + 1 >= argc)
                    return fail(arg + " needs a value");
                const std::string val = argv[++i];
                if (arg == "--report")
                    report_ = val;
                else if (arg == "--trace")
                    trace_ = val;
                else if (arg == "--trace-requests")
                    reqTrace_ = val;
                else if (arg == "--span-report")
                    spanReport_ = val;
                else if (arg == "--profile")
                    profile_ = val;
                else if (arg == "--metrics")
                    metrics_ = val;
                else if (arg == "--bench-json")
                    benchJson_ = val;
                else if (arg == "--metrics-interval") {
                    if (!parseInterval(val, metricsInterval_))
                        return fail(arg + " wants whole microseconds >= 1");
                } else if (arg == "--sample-interval") {
                    if (!parseInterval(val, sampleInterval_))
                        return fail(arg + " wants whole microseconds >= 1");
                } else if (!parseWhole(val, seed_)) {
                    return fail("--seed wants a whole number >= 0");
                }
                continue;
            }
            bool matched = false;
            for (const Knob &k : knobs_) {
                if (arg == "--" + k.name) {
                    if (i + 1 >= argc)
                        return fail(arg + " needs a value");
                    if (!parseNumber(argv[++i], *k.slot))
                        return fail(arg + " wants a number >= 0");
                    matched = true;
                    break;
                }
            }
            if (!matched)
                return fail("unknown flag " + arg);
        }
        return true;
    }

    int exitCode() const { return exitCode_; }

    /** @name Perf trajectory (BENCH_<bench>.json)
     *  @{ */
    /** Add simulator events executed by one of the bench's runs.
     *  Called from run bodies (hence const + mutable accumulator);
     *  benchMain folds the total into the trajectory JSON. */
    void noteEvents(std::uint64_t n) const { eventsNoted_ += n; }

    std::uint64_t eventsNoted() const { return eventsNoted_; }

    /** Trajectory output path ("" = BENCH_<bench>.json). */
    std::string
    benchJsonPath() const
    {
        return benchJson_.empty() ? "BENCH_" + bench_ + ".json"
                                  : benchJson_;
    }
    /** @} */

    void
    usage(std::FILE *out) const
    {
        std::fprintf(out, "usage: %s [flags]\n", bench_.c_str());
        std::fprintf(out,
                     "  --report <file>           write RunReport JSON\n"
                     "  --trace <file>            write Chrome trace JSON\n"
                     "  --trace-requests <file>   write per-request Chrome "
                     "trace with flow events\n"
                     "  --span-report <file>      write per-request span "
                     "JSON (breakdown + critical path)\n"
                     "  --profile <file>          write folded-stack "
                     "profile (flamegraph.pl format)\n"
                     "  --metrics <file>          write periodic metrics "
                     "snapshots (OpenMetrics text;\n"
                     "                            JSON when the path ends "
                     "in .json)\n"
                     "  --metrics-interval <us>   snapshot spacing "
                     "(default: the sample interval)\n"
                     "  --metrics-engine          include simulator-engine "
                     "gauges in --metrics\n"
                     "  --bench-json <file>       perf-trajectory JSON "
                     "path (default BENCH_<bench>.json)\n"
                     "  --sample-interval <us>    probe sampling period "
                     "(default 100)\n"
                     "  --seed <n>                run seed echoed into the "
                     "report\n"
                     "  --transport <t>           pin one transport: tcp, "
                     "ioat or bypass (default: render\n"
                     "                            the bench's usual "
                     "comparison table)\n");
        for (const Knob &k : knobs_)
            std::fprintf(out, "  --%-23s %s (default %g)\n",
                         (k.name + " <value>").c_str(), k.desc.c_str(),
                         *k.slot);
    }

    /** Echo of every flag for the RunReport config block. */
    std::vector<std::pair<std::string, std::string>>
    configEcho() const
    {
        std::vector<std::pair<std::string, std::string>> cfg;
        cfg.emplace_back("sampleIntervalTicks",
                         std::to_string(sampleInterval_.count()));
        cfg.emplace_back("transport",
                         transport_.empty() ? "default" : transport_);
        for (const Knob &k : knobs_)
            cfg.emplace_back(k.name, sim::strprintf("%g", *k.slot));
        return cfg;
    }

  private:
    struct Knob
    {
        std::string name;
        std::string desc;
        double *slot;
    };

    bool
    fail(const std::string &why)
    {
        std::fprintf(stderr, "%s: %s\n", bench_.c_str(), why.c_str());
        usage(stderr);
        exitCode_ = 2;
        return false;
    }

    /** Digits only (no sign, space or suffix), within uint64. */
    static bool
    parseWhole(const std::string &text, std::uint64_t &out)
    {
        if (text.empty() ||
            !std::isdigit(static_cast<unsigned char>(text[0])))
            return false;
        errno = 0;
        char *end = nullptr;
        const unsigned long long v =
            std::strtoull(text.c_str(), &end, 10);
        if (errno == ERANGE || *end != '\0')
            return false;
        out = v;
        return true;
    }

    /** Whole microseconds >= 1 that fit a Tick. */
    static bool
    parseInterval(const std::string &text, Tick &out)
    {
        std::uint64_t us = 0;
        if (!parseWhole(text, us) || us < 1 ||
            us > std::numeric_limits<std::uint64_t>::max() / 1000)
            return false;
        out = sim::microseconds(us);
        return true;
    }

    /** A finite decimal >= 0 with nothing after it. */
    static bool
    parseNumber(const char *text, double &out)
    {
        if (!std::isdigit(static_cast<unsigned char>(text[0])) &&
            text[0] != '.')
            return false;
        errno = 0;
        char *end = nullptr;
        const double v = std::strtod(text, &end);
        if (errno == ERANGE || *end != '\0' || !std::isfinite(v))
            return false;
        out = v;
        return true;
    }

    std::string bench_;
    std::string report_;
    std::string trace_;
    std::string reqTrace_;
    std::string spanReport_;
    std::string profile_;
    std::string metrics_;
    std::string benchJson_;
    bool metricsEngine_ = false;
    Tick sampleInterval_ = sim::microseconds(100);
    Tick metricsInterval_{};
    std::uint64_t seed_ = 1;
    std::string transport_;
    std::vector<Knob> knobs_;
    int exitCode_ = 0;
    /** Simulator events the bench body reported via noteEvents():
     *  mutable so run functions taking `const Options&` can report. */
    mutable std::uint64_t eventsNoted_ = 0;
};

/** Peak resident set in bytes (ru_maxrss is KiB on Linux). */
inline std::uint64_t
peakRssBytes()
{
    struct rusage ru
    {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024u;
}

/**
 * The normalized perf-trajectory record every bench emits
 * ("ioat-bench-v1"): events/sec, wall time, peak RSS, the config
 * echo and the git revision.  `tools/benchdiff.py` compares two of
 * these with noise tolerance; CI gates on the comparison.  Written
 * silently (no stdout) so bench-table golden digests are untouched.
 */
inline void
writeBenchJson(const Options &opts, double wall_seconds)
{
    std::ofstream out(opts.benchJsonPath());
    if (!out)
        return;
    const std::uint64_t events = opts.eventsNoted();
    const double eps =
        wall_seconds > 0.0
            ? static_cast<double>(events) / wall_seconds
            : 0.0;
    out << "{\n  \"schema\": \"ioat-bench-v1\",\n"
        << "  \"bench\": \"" << opts.benchName() << "\",\n"
        << "  \"gitRev\": \"" << sim::telemetry::gitRevision()
        << "\",\n  \"config\": {";
    const auto cfg = opts.configEcho();
    for (std::size_t i = 0; i < cfg.size(); ++i)
        out << (i ? ", " : "") << "\"" << cfg[i].first << "\": \""
            << cfg[i].second << "\"";
    out << "},\n  \"metrics\": {\"events\": " << events
        << ", \"wallSeconds\": " << sim::strprintf("%.3f", wall_seconds)
        << ", \"eventsPerSec\": " << sim::strprintf("%.0f", eps)
        << ", \"peakRssBytes\": " << peakRssBytes() << "}\n}\n";
}

/**
 * Parse flags, then run the bench body.  The body receives the parsed
 * Options and returns the process exit code.  On success the
 * perf-trajectory JSON (BENCH_<bench>.json) is written with the
 * body's wall time and whatever events the body noteEvents()ed.
 */
inline int
benchMain(int argc, char **argv, Options &opts,
          const std::function<int(const Options &)> &body)
{
    if (!opts.parse(argc, argv))
        return opts.exitCode();
    const auto wall0 = std::chrono::steady_clock::now();
    const int rc = body(opts);
    const auto wall1 = std::chrono::steady_clock::now();
    if (rc == 0)
        writeBenchJson(
            opts,
            std::chrono::duration<double>(wall1 - wall0).count());
    return rc;
}

/**
 * Telemetry artifacts for one instrumented run.
 *
 * Construct *after* the Simulation exists and before the workload
 * runs: it opens a telemetry::Session (sampling at
 * `opts.sampleInterval()` when a report was requested) and attaches a
 * trace writer when `--trace` was given.  `finish()` captures the
 * RunReport and writes every requested artifact.
 */
class TelemetryRun
{
  public:
    TelemetryRun(Simulation &sim, const Options &opts)
        : opts_(opts), session_(sim, sessionConfig(opts))
    {
        if (opts_.wantTrace()) {
            tracer_ = std::make_unique<sim::TraceWriter>();
            session_.attachTracer(tracer_.get());
        }
        if (opts_.wantRequestTrace() || opts_.wantSpanReport() ||
            opts_.wantProfile()) {
            // Must happen before the workload spawns so requests are
            // minted from the first iteration on.
            reqTracer_ = &sim.enableRequestTracing();
            session_.add("requestTrace", *reqTracer_);
            if (opts_.wantProfile()) {
                profiler_.emplace();
                reqTracer_->attachProfiler(&*profiler_);
            }
        }
        if (opts_.wantMetrics())
            metrics_.emplace(sim, snapshotConfig(opts_));
    }

    sim::telemetry::Session &session() { return session_; }

    /**
     * Capture and write artifacts.  @p extra_config is appended to
     * the standard flag echo in the report's config block.
     */
    void
    finish(std::vector<std::pair<std::string, std::string>>
               extra_config = {})
    {
        if (opts_.wantReport()) {
            sim::telemetry::RunReport report;
            report.setBench(opts_.benchName());
            report.setSeed(opts_.seed());
            auto cfg = opts_.configEcho();
            for (auto &kv : extra_config)
                cfg.push_back(std::move(kv));
            for (auto &kv : cfg)
                report.addConfig(std::move(kv.first),
                                 std::move(kv.second));
            session_.captureInto(report);
            report.saveJson(opts_.reportPath());
        }
        if (tracer_)
            tracer_->save(opts_.tracePath());
        if (reqTracer_) {
            if (opts_.wantSpanReport())
                reqTracer_->saveSpanJson(opts_.spanReportPath());
            if (opts_.wantRequestTrace()) {
                sim::TraceWriter rtw;
                reqTracer_->exportChrome(rtw);
                rtw.save(opts_.requestTracePath());
            }
        }
        if (profiler_)
            profiler_->saveFolded(opts_.profilePath());
        if (metrics_)
            metrics_->save(opts_.metricsPath());
    }

    /** The request tracer, when --trace-requests/--span-report is on. */
    sim::RequestTracer *requestTracer() { return reqTracer_; }

    /** The profiler, when --profile is on. */
    sim::Profiler *profiler()
    {
        return profiler_ ? &*profiler_ : nullptr;
    }

    /** The metrics snapshotter, when --metrics is on. */
    sim::telemetry::MetricsSnapshot *metrics()
    {
        return metrics_ ? &*metrics_ : nullptr;
    }

  private:
    static sim::telemetry::Session::Config
    sessionConfig(const Options &opts)
    {
        return sim::telemetry::Session::Config{
            opts.wantReport() ? opts.sampleInterval() : Tick{0},
            sim::telemetry::Sampler::kDefaultMaxSamples};
    }

    static sim::telemetry::MetricsSnapshot::Config
    snapshotConfig(const Options &opts)
    {
        sim::telemetry::MetricsSnapshot::Config cfg;
        cfg.interval = opts.metricsInterval();
        cfg.engine = opts.wantEngineMetrics();
        return cfg;
    }

    const Options &opts_;
    std::unique_ptr<sim::TraceWriter> tracer_;
    sim::RequestTracer *reqTracer_ = nullptr;
    sim::telemetry::Session session_;
    std::optional<sim::Profiler> profiler_;
    std::optional<sim::telemetry::MetricsSnapshot> metrics_;
};

} // namespace ioat::bench

#endif // IOAT_BENCH_COMMON_HH
