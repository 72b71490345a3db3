/**
 * @file
 * Shared harness for the figure-reproduction benchmarks: the
 * two-node ttcp stream rig (`StreamPair`, written against the sock
 * facade), measurement-window utilities, and the common command-line
 * surface (`Options` + `benchMain`) of every bench binary —
 * `--report <file>` (RunReport JSON), `--bench-json <file>`, the
 * TelemetryRun artifacts (`--metrics`, `--trace`, `--sample-interval`,
 * ...), `--transport` where the bench can pin one, plus
 * bench-specific numeric knobs.
 */

#ifndef IOAT_BENCH_COMMON_HH
#define IOAT_BENCH_COMMON_HH

#include <sys/resource.h>

#include <array>
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
#include <string_view>
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
                 std::size_t chunk)
{
    sock::Socket conn = co_await node.transport().connect(dst, port);
    for (;;)
        co_await conn.sendAll(chunk, sock::SendOptions{});
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
 * The flag groups a bench honours besides `--report`, `--bench-json`
 * and its knobs.  A bench declares them when it constructs Options.
 */
struct Surface
{
    /** TelemetryRun's artifacts: `--trace`, `--trace-requests`,
     *  `--span-report`, `--profile`, `--metrics`, `--sample-interval`. */
    bool telemetry = true;
    /** `--transport`: the bench can pin one transport. */
    bool transport = false;
};

/**
 * The common command-line surface of every bench binary.
 *
 * Construct with the bench name and its Surface, register
 * bench-specific knobs with `knob()`, then hand everything to
 * `benchMain` — it parses, handles `--help`, and only then runs the
 * body.  A flag outside the bench's surface exits 2 like an unknown
 * one and is not listed by `--help`: no flag is accepted and ignored.
 */
class Options
{
  public:
    explicit Options(std::string bench_name, Surface surface = {})
        : bench_(std::move(bench_name)), surface_(surface)
    {}

    /** True when @p arg is one of the flags Options parses, whether
     *  or not this bench honours it. */
    static bool isFlag(std::string_view arg) { return find(arg) != nullptr; }

    const std::string &benchName() const { return bench_; }
    const std::string &reportPath() const { return report_; }
    const std::string &tracePath() const { return trace_; }
    const std::string &requestTracePath() const { return reqTrace_; }
    const std::string &spanReportPath() const { return spanReport_; }
    const std::string &profilePath() const { return profile_; }
    const std::string &metricsPath() const { return metrics_; }
    bool wantReport() const { return !report_.empty(); }
    bool wantTrace() const { return !trace_.empty(); }
    bool wantRequestTrace() const { return !reqTrace_.empty(); }
    bool wantSpanReport() const { return !spanReport_.empty(); }
    bool wantProfile() const { return !profile_.empty(); }
    bool wantMetrics() const { return !metrics_.empty(); }
    /** Any artifact that needs telemetry/tracing machinery on. */
    bool
    instrumented() const
    {
        return wantReport() || wantTrace() || wantRequestTrace() ||
               wantSpanReport() || wantProfile() || wantMetrics();
    }

    /** Timeline sampling period for --report and --metrics. */
    Tick sampleInterval() const { return sampleInterval_; }

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
     * how.  A numeric value must parse completely and lie in range,
     * and --sample-interval needs a sampler to feed.
     */
    bool
    parse(int argc, char **argv)
    {
        bool interval = false;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                usage(stdout);
                exitCode_ = 0;
                return false;
            }
            const Flag *flag = find(arg);
            const Knob *knob = findKnob(arg);
            if (flag != nullptr && !honours(*flag))
                return fail(arg + " does not apply to this bench");
            if (flag == nullptr && knob == nullptr)
                return fail("unknown flag " + arg);
            if (i + 1 >= argc)
                return fail(arg + " needs a value");
            const std::string val = argv[++i];
            if (knob != nullptr) {
                if (!parseNumber(val.c_str(), *knob->slot))
                    return fail(arg + " wants a number >= 0");
            } else if (arg == "--sample-interval") {
                if (!parseInterval(val, sampleInterval_))
                    return fail(arg + " wants whole microseconds >= 1");
                interval = true;
            } else if (arg == "--transport" && val != "tcp" &&
                       val != "ioat" && val != "bypass") {
                return fail("--transport wants tcp, ioat or bypass");
            } else {
                this->*flag->slot = val;
            }
        }
        // Only the timeline sampler reads the interval.
        if (interval && !wantReport() && !wantMetrics())
            return fail("--sample-interval needs --report or --metrics");
        return true;
    }

    int exitCode() const { return exitCode_; }

    /** Perf-trajectory output path ("" = BENCH_<bench>.json). */
    std::string
    benchJsonPath() const
    {
        return benchJson_.empty() ? "BENCH_" + bench_ + ".json"
                                  : benchJson_;
    }

    void
    usage(std::FILE *out) const
    {
        std::fprintf(out, "usage: %s [flags]\n", bench_.c_str());
        for (const Flag &f : kFlags)
            if (honours(f))
                std::fprintf(out, "  %-25s %s\n",
                             (std::string(f.name) + " " + f.arg).c_str(),
                             f.help);
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
    /** One value-taking flag Options parses itself. */
    struct Flag
    {
        std::string_view name;
        const char *arg;
        const char *help;
        std::string Options::*slot; ///< where the value goes, if a string
        bool Surface::*needs;       ///< nullptr: every bench honours it
    };

    struct Knob
    {
        std::string name;
        std::string desc;
        double *slot;
    };

    static const Flag *
    find(std::string_view arg)
    {
        for (const Flag &f : kFlags)
            if (arg == f.name)
                return &f;
        return nullptr;
    }

    bool
    honours(const Flag &f) const
    {
        return f.needs == nullptr || surface_.*f.needs;
    }

    const Knob *
    findKnob(const std::string &arg) const
    {
        for (const Knob &k : knobs_)
            if (arg == "--" + k.name)
                return &k;
        return nullptr;
    }

    bool
    fail(const std::string &why)
    {
        std::fprintf(stderr, "%s: %s\n", bench_.c_str(), why.c_str());
        usage(stderr);
        exitCode_ = 2;
        return false;
    }

    /** Whole microseconds >= 1 that fit a Tick: digits only (no
     *  sign, space or suffix). */
    static bool
    parseInterval(const std::string &text, Tick &out)
    {
        if (text.empty() ||
            !std::isdigit(static_cast<unsigned char>(text[0])))
            return false;
        errno = 0;
        char *end = nullptr;
        const unsigned long long us =
            std::strtoull(text.c_str(), &end, 10);
        if (errno == ERANGE || *end != '\0' || us < 1 ||
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
    Surface surface_;
    std::string report_;
    std::string trace_;
    std::string reqTrace_;
    std::string spanReport_;
    std::string profile_;
    std::string metrics_;
    std::string benchJson_;
    Tick sampleInterval_ = sim::microseconds(100);
    std::string transport_;
    std::vector<Knob> knobs_;
    int exitCode_ = 0;

    /** Every such flag, in --help order. */
    static constexpr std::array<Flag, 9> kFlags{{
        {"--report", "<file>", "write the run's JSON report",
         &Options::report_, nullptr},
        {"--trace", "<file>", "write Chrome trace JSON", &Options::trace_,
         &Surface::telemetry},
        {"--trace-requests", "<file>",
         "write per-request Chrome trace with flow events",
         &Options::reqTrace_, &Surface::telemetry},
        {"--span-report", "<file>",
         "write per-request span JSON (breakdown + critical path)",
         &Options::spanReport_, &Surface::telemetry},
        {"--profile", "<file>",
         "write folded-stack profile (flamegraph.pl format)",
         &Options::profile_, &Surface::telemetry},
        {"--metrics", "<file>",
         "write the sampled timeline as OpenMetrics (JSON if *.json)",
         &Options::metrics_, &Surface::telemetry},
        {"--bench-json", "<file>",
         "perf-trajectory JSON path (default BENCH_<bench>.json)",
         &Options::benchJson_, nullptr},
        {"--sample-interval", "<us>",
         "timeline period for --report and --metrics (default 100)",
         nullptr, &Surface::telemetry},
        {"--transport", "<t>",
         "pin one transport: tcp, ioat or bypass (default: compare)",
         &Options::transport_, &Surface::transport},
    }};
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
 * silently (no stdout), so the goldens, which compare stdout, are
 * untouched.
 */
inline void
writeBenchJson(const Options &opts, std::uint64_t events,
               double wall_seconds)
{
    std::ofstream out(opts.benchJsonPath());
    sim::simAssert(out.good(), "cannot open bench JSON for writing");
    const double eps =
        wall_seconds > 0.0
            ? static_cast<double>(events) / wall_seconds
            : 0.0;
    out << "{\n  \"schema\": \"ioat-bench-v1\",\n"
        << "  \"bench\": \"" << sim::jsonEscape(opts.benchName())
        << "\",\n"
        << "  \"gitRev\": \"" << sim::telemetry::gitRevision()
        << "\",\n  \"config\": {";
    const auto cfg = opts.configEcho();
    for (std::size_t i = 0; i < cfg.size(); ++i)
        out << (i ? ", " : "") << "\"" << sim::jsonEscape(cfg[i].first)
            << "\": \"" << sim::jsonEscape(cfg[i].second) << "\"";
    out << "},\n  \"metrics\": {\"events\": " << events
        << ", \"wallSeconds\": " << sim::strprintf("%.3f", wall_seconds)
        << ", \"eventsPerSec\": " << sim::strprintf("%.0f", eps)
        << ", \"peakRssBytes\": " << peakRssBytes() << "}\n}\n";
}

/**
 * Parse flags, then run the bench body.  The body receives the parsed
 * Options and returns the process exit code.  On success the
 * perf-trajectory JSON (BENCH_<bench>.json) is written with the
 * body's wall time and every event its simulations executed, counted
 * at the source as each event queue is destroyed.
 */
inline int
benchMain(int argc, char **argv, Options &opts,
          const std::function<int(const Options &)> &body)
{
    if (!opts.parse(argc, argv))
        return opts.exitCode();
    const std::uint64_t events0 = sim::EventQueue::retiredEvents();
    const auto wall0 = std::chrono::steady_clock::now();
    const int rc = body(opts);
    const auto wall1 = std::chrono::steady_clock::now();
    if (rc == 0)
        writeBenchJson(
            opts, sim::EventQueue::retiredEvents() - events0,
            std::chrono::duration<double>(wall1 - wall0).count());
    return rc;
}

/**
 * Telemetry artifacts for one instrumented run.
 *
 * Construct *after* the Simulation exists and before the workload
 * runs: it opens a telemetry::Session (sampling at
 * `opts.sampleInterval()` when a report or metrics were requested)
 * and attaches a trace writer when `--trace` was given.  `finish()`
 * stops sampling and writes every requested artifact; the RunReport
 * and the OpenMetrics file encode the same samples.
 */
class TelemetryRun
{
  public:
    TelemetryRun(Simulation &sim, const Options &opts)
        : opts_(opts),
          session_(sim, opts.wantReport() || opts.wantMetrics()
                            ? opts.sampleInterval()
                            : Tick{0})
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
        session_.sampler().stop();
        if (opts_.wantReport()) {
            sim::telemetry::RunReport report;
            report.setBench(opts_.benchName());
            auto cfg = opts_.configEcho();
            for (auto &kv : extra_config)
                cfg.push_back(std::move(kv));
            for (auto &kv : cfg)
                report.addConfig(std::move(kv.first),
                                 std::move(kv.second));
            session_.captureInto(report);
            sim::simAssert(report.saveJson(opts_.reportPath()),
                           "cannot write RunReport file");
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
        if (opts_.wantMetrics())
            sim::telemetry::OpenMetricsWriter(session_.sampler())
                .save(opts_.metricsPath());
    }

    /** The request tracer, when --trace-requests/--span-report is on. */
    sim::RequestTracer *requestTracer() { return reqTracer_; }

    /** The profiler, when --profile is on. */
    sim::Profiler *profiler()
    {
        return profiler_ ? &*profiler_ : nullptr;
    }

  private:
    const Options &opts_;
    std::unique_ptr<sim::TraceWriter> tracer_;
    sim::RequestTracer *reqTracer_ = nullptr;
    sim::telemetry::Session session_;
    std::optional<sim::Profiler> profiler_;
};

/** One ttcp load on a StreamPair. */
struct StreamLoad
{
    /** Senders per direction, one connection each. */
    unsigned streams = 1;
    /** Bytes per send, and per receive at the sinks. */
    std::size_t chunk = 64 * 1024;
    /** The sinks stream over what they receive (consumer behaviour). */
    bool touchPayload = false;
    /** b also runs `streams` senders toward a sink on a. */
    bool bidirectional = false;
    Tick warmup = sim::milliseconds(100);
    Tick window = sim::milliseconds(400);
};

/** What one StreamPair::run measured over its window. */
struct StreamResult
{
    double mbps;              ///< payload received, both directions
    double cpu;               ///< node b's utilization, 0..1
    std::uint64_t interrupts; ///< node b's NIC interrupts
    std::uint64_t polls;      ///< node b's NIC soft-timer polls
};

/**
 * The paper's §4 stream testbed: two Testbed-1 nodes built from one
 * NodeConfig behind the switch, ttcp senders on `a` streaming to a
 * sink on `b` (and back, for bi-directional loads).
 *
 * Given Options, the rig also opens the run's TelemetryRun; the
 * caller finishes it with its config echo.  Anything else a caller
 * attaches (a fault injector on `fabric`, a session component) goes
 * on before run().
 */
class StreamPair
{
  public:
    explicit StreamPair(const NodeConfig &cfg,
                        const Options *report = nullptr)
        : fabric(sim, sim::nanoseconds(2000)), a(sim, fabric, cfg),
          b(sim, fabric, cfg), sinkB_(b.host(), "sinkB")
    {
        if (report)
            telemetry_.emplace(sim, *report);
    }

    /** The TelemetryRun, when the rig was given Options. */
    TelemetryRun *telemetry() { return telemetry_ ? &*telemetry_ : nullptr; }

    /** Spawn @p load's sinks and senders, warm up, reset both CPU
     *  windows, then measure one window.  Once per rig. */
    StreamResult
    run(const StreamLoad &load)
    {
        const SinkOptions sink{.recvChunk = load.chunk,
                               .touchPayload = load.touchPayload};
        sim.spawn(streamSinkLoop(b, kPort, sink, sinkB_));
        for (unsigned i = 0; i < load.streams; ++i)
            sim.spawn(streamSenderLoop(a, b.id(), kPort, load.chunk));
        if (load.bidirectional) {
            sinkA_.emplace(a.host(), "sinkA");
            sim.spawn(streamSinkLoop(a, kPort, sink, *sinkA_));
            for (unsigned i = 0; i < load.streams; ++i)
                sim.spawn(streamSenderLoop(b, a.id(), kPort, load.chunk));
        }

        Meter meter(sim);
        meter.warmup(load.warmup, {&a, &b});
        const std::uint64_t rx0 = rxPayload();
        const std::uint64_t irq0 = b.nic().interrupts();
        const std::uint64_t poll0 = b.nic().softPolls();
        meter.run(load.window);
        return {sim::throughputMbps(rxPayload() - rx0, meter.elapsed()),
                b.cpu().utilization(), b.nic().interrupts() - irq0,
                b.nic().softPolls() - poll0};
    }

    Simulation sim;
    net::Switch fabric;
    Node a;
    Node b;

  private:
    static constexpr std::uint16_t kPort = 5001;

    std::uint64_t
    rxPayload()
    {
        return b.transport().rxPayloadBytes() +
               a.transport().rxPayloadBytes();
    }

    core::AppMemory sinkB_;
    std::optional<core::AppMemory> sinkA_;
    std::optional<TelemetryRun> telemetry_;
};

} // namespace ioat::bench

#endif // IOAT_BENCH_COMMON_HH
