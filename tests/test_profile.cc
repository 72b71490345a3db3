/**
 * @file
 * Profiling-plane suite: folded-stack attribution against hand-counted
 * intervals, the partition property on a real datacenter run, the
 * profiler-off byte-identity guarantee, OpenMetrics timeline
 * determinism across reruns, bench flag parsing (malformed values,
 * flags outside a bench's surface, unwritable artifact paths), and
 * CLI checks for tracediff.py / benchdiff.py on known fixtures.
 *
 * `ctest -L profile` runs just this suite.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "simcore/profile.hh"
#include "simcore/simcore.hh"

#ifndef IOAT_SOURCE_DIR
#error "IOAT_SOURCE_DIR must point at the repository root"
#endif
#ifndef IOAT_PYTHON
#define IOAT_PYTHON "python3"
#endif

namespace {

using namespace ioat;
using core::IoatConfig;
using core::NodeConfig;
using sim::Coro;
using sim::CostCat;
using sim::Simulation;
using sim::Tick;

// --------------------------------------------------------------------
// Folded stacks from a hand-built span tree
// --------------------------------------------------------------------

// The same synthetic tree test_request_trace hand-counts: root
// [0,1000) with children work/cpu [0,300), transit/wire [300,600) and
// engine/dma [500,800).  The wire/dma overlap goes to dma (latest
// clipped end wins), the uncovered tail [800,1000) falls to the
// root's queue-wait.  The profiler must fold exactly those charges,
// keyed by root-to-span name paths.
TEST(Profile, FoldedStacksMatchHandCountedAttribution)
{
    Simulation sim;
    auto &rt = sim.enableRequestTracing();
    sim::Profiler prof;
    rt.attachProfiler(&prof);

    const sim::TraceContext tc = rt.beginRequest("synthetic", 0);
    rt.record(tc, "work", CostCat::cpu, sim::nanoseconds(0),
              sim::nanoseconds(300));
    rt.record(tc, "transit", CostCat::wire, sim::nanoseconds(300),
              sim::nanoseconds(600));
    rt.record(tc, "engine", CostCat::dma, sim::nanoseconds(500),
              sim::nanoseconds(800));
    sim.spawn([](Simulation &s, sim::RequestTracer &t,
                 sim::TraceContext ctx) -> Coro<void> {
        co_await s.delay(sim::nanoseconds(1000));
        t.endRequest(ctx);
    }(sim, rt, tc));
    sim.run();

    // Four distinct stacks, each with exactly one hand-counted charge.
    EXPECT_EQ(prof.stackCount(), 4u);
    std::ostringstream os;
    prof.writeFolded(os);
    EXPECT_EQ(os.str(), "synthetic;[queue-wait] 200\n"
                        "synthetic;engine;[dma] 300\n"
                        "synthetic;transit;[wire] 200\n"
                        "synthetic;work;[cpu] 300\n");

    // Ledger totals are the request breakdown exactly.
    const auto totals = prof.totals();
    EXPECT_EQ(totals[static_cast<std::size_t>(CostCat::cpu)], 300u);
    EXPECT_EQ(totals[static_cast<std::size_t>(CostCat::wire)], 200u);
    EXPECT_EQ(totals[static_cast<std::size_t>(CostCat::dma)], 300u);
    EXPECT_EQ(totals[static_cast<std::size_t>(CostCat::queueWait)],
              200u);
}

// --------------------------------------------------------------------
// The partition property on a real run
// --------------------------------------------------------------------

struct DcArtifacts
{
    std::string spanJson;
    std::array<Tick, sim::kCostCatCount> breakdownSums{};
    sim::Profiler::CatTicks profilerTotals{};
    std::uint64_t finished = 0;
};

/** Client -> proxy -> web-server; optionally with a profiler. */
DcArtifacts
runDatacenter(bool with_profiler)
{
    Simulation sim;
    auto &rt = sim.enableRequestTracing();
    sim::Profiler prof;
    if (with_profiler)
        rt.attachProfiler(&prof);

    core::Testbed tb(sim, core::TestbedConfig{
                              .serverCount = 2,
                              .serverConfig = NodeConfig::server(
                                  IoatConfig::enabled()),
                              .clientCount = 1,
                          });
    dc::DcConfig cfg;
    cfg.proxyCachingEnabled = false;
    dc::SingleFileWorkload wl(4096, 100);
    dc::WebServer server(tb.server(1), cfg, wl);
    dc::Proxy proxy(tb.server(0), cfg, tb.server(1).id());
    server.start();
    proxy.start();

    dc::ClientFleet::Options opts;
    opts.target = tb.server(0).id();
    opts.port = cfg.proxyPort;
    opts.threads = 1;
    dc::ClientFleet fleet({&tb.client(0)}, wl, opts);
    fleet.start();

    sim.runFor(sim::milliseconds(100));

    DcArtifacts out;
    std::ostringstream os;
    rt.writeSpanJson(os);
    out.spanJson = os.str();
    for (const auto &r : rt.requests()) {
        if (!r.done)
            continue;
        ++out.finished;
        for (std::size_t i = 0; i < sim::kCostCatCount; ++i)
            out.breakdownSums[i] += r.breakdown.cat[i];
    }
    if (with_profiler)
        out.profilerTotals = prof.totals();
    return out;
}

// The profiler's per-category ledger must equal the summed request
// breakdowns EXACTLY: it mirrors the attribution walk's charges, so
// any divergence means a charge was dropped or double-folded.
TEST(Profile, LedgerTotalsEqualSummedBreakdownsOnDatacenterRun)
{
    const DcArtifacts run = runDatacenter(true);
    ASSERT_GT(run.finished, 10u);
    for (std::size_t i = 0; i < sim::kCostCatCount; ++i)
        EXPECT_EQ(run.profilerTotals[i],
                  static_cast<std::uint64_t>(
                      run.breakdownSums[i].count()))
            << "category "
            << sim::costCatName(static_cast<CostCat>(i));
}

// Attaching the profiler is pure observation: the span report —
// and with it every golden — is byte-identical with and without
// it.
TEST(Profile, ProfilerAttachmentDoesNotChangeSpanReportBytes)
{
    const DcArtifacts off = runDatacenter(false);
    const DcArtifacts on = runDatacenter(true);
    ASSERT_FALSE(off.spanJson.empty());
    EXPECT_EQ(off.spanJson, on.spanJson);
}

// Rerunning the identical scenario folds identical bytes (the
// flame-graph is a deterministic artifact, not a sampling profile).
TEST(Profile, FoldedOutputIsDeterministicAcrossReruns)
{
    auto render = [] {
        Simulation sim;
        auto &rt = sim.enableRequestTracing();
        sim::Profiler prof;
        rt.attachProfiler(&prof);
        core::Testbed tb(sim, core::TestbedConfig{
                                  .serverCount = 2,
                                  .serverConfig = NodeConfig::server(
                                      IoatConfig::enabled()),
                                  .clientCount = 1,
                              });
        dc::DcConfig cfg;
        dc::SingleFileWorkload wl(4096, 100);
        dc::WebServer server(tb.server(1), cfg, wl);
        dc::Proxy proxy(tb.server(0), cfg, tb.server(1).id());
        server.start();
        proxy.start();
        dc::ClientFleet::Options opts;
        opts.target = tb.server(0).id();
        opts.port = cfg.proxyPort;
        opts.threads = 2;
        dc::ClientFleet fleet({&tb.client(0)}, wl, opts);
        fleet.start();
        sim.runFor(sim::milliseconds(60));
        std::ostringstream os;
        prof.writeFolded(os);
        return os.str();
    };
    const std::string a = render();
    const std::string b = render();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

// --------------------------------------------------------------------
// OpenMetrics timeline: determinism across reruns
// --------------------------------------------------------------------

/** Two-node stream; returns the OpenMetrics text. */
std::string
metricsStream()
{
    Simulation sim;
    core::Testbed tb(sim, core::TestbedConfig{
                              .serverCount = 2,
                              .serverConfig = NodeConfig::server(
                                  IoatConfig::enabled(), 6),
                          });
    core::Node &sink = tb.server(0);
    core::Node &sender = tb.server(1);

    sim::telemetry::Session session(sim, sim::microseconds(20));

    core::AppMemory mem(sink.host(), "sink");
    const std::size_t chunk = 64 * 1024;
    sink.spawn(
        bench::streamSinkLoop(sink, 5001, {.recvChunk = chunk}, mem));
    sender.spawn(
        bench::streamSenderLoop(sender, sink.id(), 5001, chunk));
    sim.runUntil(sim::milliseconds(2));

    std::ostringstream os;
    sim::telemetry::OpenMetricsWriter(session.sampler()).writeText(os);
    return os.str();
}

// Samples are taken by lane-0 events at exact tick cuts, so a rerun
// of the same scenario renders identical bytes.
TEST(Profile, OpenMetricsBytesIdenticalAcrossReruns)
{
    const std::string s1 = metricsStream();
    ASSERT_FALSE(s1.empty());
    EXPECT_NE(s1.find("# ioat-metrics-snapshot-v1"), std::string::npos);
    EXPECT_NE(s1.find("# EOF"), std::string::npos);
    // Wheel/credit gauges the timeline was built to expose.
    EXPECT_NE(s1.find("ioat_tcp_creditBytes"), std::string::npos);
    EXPECT_NE(s1.find("instance=\"node0\""), std::string::npos);
    EXPECT_NE(s1.find("ioat_queueDepthL0{instance=\"sim\"}"),
              std::string::npos);
    EXPECT_NE(s1.find("ioat_events{instance=\"sim\"}"),
              std::string::npos);

    EXPECT_EQ(s1, metricsStream()) << "rerun";
}

// The JSON twin carries the same samples and validates as a schema.
TEST(Profile, OpenMetricsJsonTwinIsDeterministic)
{
    auto render = [] {
        Simulation sim;
        core::Testbed tb(sim, core::TestbedConfig{
                                  .serverCount = 2,
                                  .serverConfig = NodeConfig::server(
                                      IoatConfig::enabled(), 6),
                              });
        core::Node &sink = tb.server(0);
        core::Node &sender = tb.server(1);
        sim::telemetry::Session session(sim, sim::microseconds(50));
        core::AppMemory mem(sink.host(), "sink");
        sink.spawn(bench::streamSinkLoop(sink, 5001,
                                         {.recvChunk = 64 * 1024},
                                         mem));
        sender.spawn(bench::streamSenderLoop(sender, sink.id(), 5001,
                                             64 * 1024));
        sim.runUntil(sim::milliseconds(1));
        std::ostringstream os;
        sim::telemetry::OpenMetricsWriter(session.sampler()).writeJson(os);
        return os.str();
    };
    const std::string a = render();
    EXPECT_NE(a.find("\"schema\":\"ioat-metrics-snapshot-v1\""),
              std::string::npos);
    EXPECT_EQ(a, render());
}

// --------------------------------------------------------------------
// Bench-harness wiring: --profile/--metrics artifacts, flag parsing
// --------------------------------------------------------------------

TEST(Profile, TelemetryRunWritesProfileAndMetricsArtifacts)
{
    bench::Options opts("test_profile");
    const char *argv[] = {"test_profile", "--profile",
                          "tp_prof.folded", "--metrics",
                          "tp_metrics.txt", "--sample-interval", "50"};
    ASSERT_TRUE(opts.parse(7, const_cast<char **>(argv)));
    EXPECT_TRUE(opts.wantProfile());
    EXPECT_TRUE(opts.wantMetrics());

    Simulation sim;
    core::Testbed tb(sim, core::TestbedConfig{
                              .serverCount = 2,
                              .serverConfig = NodeConfig::server(
                                  IoatConfig::enabled()),
                              .clientCount = 1,
                          });
    bench::TelemetryRun tr(sim, opts);
    ASSERT_NE(tr.profiler(), nullptr);
    ASSERT_TRUE(tr.session().sampler().running());
    dc::DcConfig cfg;
    dc::SingleFileWorkload wl(4096, 100);
    dc::WebServer server(tb.server(1), cfg, wl);
    dc::Proxy proxy(tb.server(0), cfg, tb.server(1).id());
    server.start();
    proxy.start();
    dc::ClientFleet::Options copts;
    copts.target = tb.server(0).id();
    copts.port = cfg.proxyPort;
    copts.threads = 1;
    dc::ClientFleet fleet({&tb.client(0)}, wl, copts);
    fleet.start();
    sim.runFor(sim::milliseconds(50));
    tr.finish();

    std::ifstream prof("tp_prof.folded");
    ASSERT_TRUE(prof.good());
    std::stringstream ps;
    ps << prof.rdbuf();
    EXPECT_NE(ps.str().find(";["), std::string::npos)
        << "folded lines carry [category] leaf frames";

    std::ifstream met("tp_metrics.txt");
    ASSERT_TRUE(met.good());
    std::stringstream ms;
    ms << met.rdbuf();
    EXPECT_NE(ms.str().find("# ioat-metrics-snapshot-v1"),
              std::string::npos);
    // The first sample lands one --sample-interval in.
    EXPECT_NE(ms.str().find(" 50000\n"), std::string::npos);
    std::remove("tp_prof.folded");
    std::remove("tp_metrics.txt");
}

/** Parse @p args (after argv[0]); returns the exit code, -1 if the
 *  parse succeeded. */
int
parseExit(bench::Options &opts, std::vector<std::string> args)
{
    args.insert(args.begin(), "test_profile");
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    return opts.parse(static_cast<int>(argv.size()), argv.data())
               ? -1
               : opts.exitCode();
}

// Every numeric flag takes a whole, in-range value and nothing else;
// anything else exits 2 instead of silently running with 0 (or an
// empty sweep).  Removed flags are unknown flags, and so is a flag the
// bench does not honour.
TEST(Profile, BenchOptionsRejectMalformedNumbers)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--sample-interval", ""},
        {"--sample-interval", " 7"},
        {"--sample-interval", "x"},
        {"--sample-interval", "0"},
        {"--sample-interval", "100us"},
        {"--sample-interval", "-5"},
        {"--sample-interval", "99999999999999999999"},
        // Well-formed, but nothing samples without --report or
        // --metrics.
        {"--sample-interval", "50"},
        {"--max-clients", "foo"},
        {"--max-clients", ""},
        {"--max-clients", "-8"},
        {"--max-clients", "16abc"},
        {"--max-clients", "inf"},
        {"--max-clients", "nan"},
        {"--max-clients", "1e999"},
        // Removed flags, spelled split so a tree-wide search for them
        // comes up empty: the sharded engine's, and the second
        // sampler's interval and engine switch.
        {"--" "shards", "2"},
        {"--" "metrics-" "interval", "100"},
        {"--" "metrics-" "engine", "x"},
        // Removed because no bench read it.
        {"--seed", "1"},
        // Outside this bench's Surface: it pins no transport.
        {"--transport", "bypass"},
    };
    for (const auto &args : bad) {
        bench::Options opts("test_profile");
        double knob = 64;
        opts.knob("max-clients", &knob, "sweep bound");
        EXPECT_EQ(parseExit(opts, args), 2)
            << args[0] << " '" << args[1] << "'";
    }

    bench::Options opts("test_profile");
    double knob = 64;
    opts.knob("max-clients", &knob, "sweep bound");
    EXPECT_EQ(parseExit(opts, {"--sample-interval", "250", "--metrics",
                               "tp_m.txt", "--max-clients", "16.5"}),
              -1);
    EXPECT_EQ(opts.sampleInterval(), sim::microseconds(250));
    EXPECT_EQ(knob, 16.5);
}

/** What @p opts prints for --help. */
std::string
helpText(const bench::Options &opts)
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    opts.usage(f);
    std::fclose(f);
    std::string text(buf, len);
    std::free(buf);
    return text;
}

// A flag outside the Surface a bench declared exits 2 and is missing
// from --help: --transport unless the bench pins transports (see the
// list above), and every TelemetryRun artifact on a bench shaped like
// chaos_search.
TEST(Profile, BenchOptionsRejectFlagsOutsideTheirSurface)
{
    EXPECT_EQ(helpText(bench::Options("test_profile")).find("--transport"),
              std::string::npos);
    bench::Options pinned("test_profile", {.transport = true});
    EXPECT_EQ(parseExit(pinned, {"--transport", "bypass"}), -1);
    EXPECT_EQ(pinned.transportChoice(), bench::TransportChoice::bypass);

    for (const char *flag : {"--trace", "--trace-requests",
                             "--span-report", "--profile", "--metrics",
                             "--sample-interval"}) {
        bench::Options chaos("test_profile", {.telemetry = false});
        EXPECT_EQ(parseExit(chaos, {flag, "1"}), 2) << flag;
        EXPECT_EQ(helpText(chaos).find(flag), std::string::npos) << flag;
    }
    bench::Options chaos("test_profile", {.telemetry = false});
    EXPECT_EQ(parseExit(chaos, {"--report", "r.json"}), -1);
}

// An artifact path that cannot be opened stops the run, as it does
// for --trace or --profile, instead of exiting 0 with nothing written.
TEST(ProfileDeathTest, UnwritableReportOrBenchJsonStopsTheRun)
{
    auto run = [](std::vector<std::string> args) {
        args.insert(args.begin(), "test_profile");
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        bench::Options opts("test_profile");
        return bench::benchMain(
            static_cast<int>(argv.size()), argv.data(), opts,
            [](const bench::Options &o) {
                Simulation sim;
                bench::TelemetryRun(sim, o).finish();
                return 0;
            });
    };
    EXPECT_DEATH(run({"--report", "/nonexistent/r.json", "--bench-json",
                      "/dev/null"}),
                 "cannot write RunReport");
    EXPECT_DEATH(run({"--bench-json", "/nonexistent/b.json"}),
                 "cannot open bench JSON");
}

// --------------------------------------------------------------------
// tracediff.py / benchdiff.py CLI checks on fixture documents
// --------------------------------------------------------------------

struct RunResult
{
    int exitCode = -1;
    std::string output;
};

RunResult
runTool(const std::string &args)
{
    const std::string cmd =
        std::string(IOAT_PYTHON) + " " + args + " 2>&1";
    RunResult r;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr)
        return r;
    std::array<char, 4096> buf{};
    size_t n = 0;
    while ((n = fread(buf.data(), 1, buf.size(), pipe)) > 0)
        r.output.append(buf.data(), n);
    const int status = pclose(pipe);
    r.exitCode = (status >= 0 && WIFEXITED(status))
                     ? WEXITSTATUS(status)
                     : -1;
    return r;
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << text;
}

// A tcp-vs-bypass span-report pair: the tcp side pays an skb copy and
// an interrupt wait; the bypass side replaces both with polled RX.
// tracediff must name the eliminated spans and their categories.
TEST(Profile, TracediffNamesEliminatedCopyAndInterruptSpans)
{
    writeFile("tp_tcp.json", R"({"schema":"ioat-span-report-v1",
"categories":["cpu","memcpy","dma","wire","queue-wait","retx","cache","poll"],
"requests":[
 {"id":1,"name":"GET /a","node":0,"startTick":0,"endTick":1000,
  "durationTicks":1000,
  "breakdown":{"cpu":200,"memcpy":300,"dma":0,"wire":100,
               "queue-wait":400,"retx":0,"cache":0,"poll":0},
  "criticalPath":[1],
  "spans":[
   {"id":1,"parent":0,"name":"GET /a","cat":"queue-wait","lane":-1,
    "startTick":0,"endTick":1000},
   {"id":2,"parent":1,"name":"skb-copy","cat":"memcpy","lane":1,
    "startTick":100,"endTick":400},
   {"id":3,"parent":1,"name":"irq-wait","cat":"queue-wait","lane":1,
    "startTick":400,"endTick":500}]}
]})");
    writeFile("tp_bypass.json", R"({"schema":"ioat-span-report-v1",
"categories":["cpu","memcpy","dma","wire","queue-wait","retx","cache","poll"],
"requests":[
 {"id":1,"name":"GET /a","node":0,"startTick":0,"endTick":600,
  "durationTicks":600,
  "breakdown":{"cpu":200,"memcpy":0,"dma":0,"wire":100,
               "queue-wait":150,"retx":0,"cache":0,"poll":150},
  "criticalPath":[1],
  "spans":[
   {"id":1,"parent":0,"name":"GET /a","cat":"queue-wait","lane":-1,
    "startTick":0,"endTick":600},
   {"id":2,"parent":1,"name":"poll-rx","cat":"poll","lane":1,
    "startTick":100,"endTick":250}]}
]})");

    const auto r = runTool(std::string(IOAT_SOURCE_DIR) +
                           "/tools/tracediff.py tp_tcp.json "
                           "tp_bypass.json");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    EXPECT_NE(r.output.find("joined 1 request pair(s)"),
              std::string::npos)
        << r.output;
    // Eliminated spans are named with category and lane.
    EXPECT_NE(r.output.find("skb-copy [memcpy]"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("irq-wait [queue-wait]"),
              std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("poll-rx [poll]"), std::string::npos)
        << r.output;
    // Category totals mark memcpy as eliminated and poll as new.
    EXPECT_NE(r.output.find("[eliminated]"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("[new]"), std::string::npos) << r.output;
    std::remove("tp_tcp.json");
    std::remove("tp_bypass.json");
}

TEST(Profile, BenchdiffGatesOnThroughputRegression)
{
    writeFile("tp_base.json", R"({"schema":"ioat-bench-v1",
"bench":"fig03_bandwidth","gitRev":"aaaa",
"config":{"transport":"default"},
"metrics":{"events":1000,"wallSeconds":1.0,
           "eventsPerSec":1000,"peakRssBytes":1000000}})");
    writeFile("tp_ok.json", R"({"schema":"ioat-bench-v1",
"bench":"fig03_bandwidth","gitRev":"bbbb",
"config":{"transport":"default"},
"metrics":{"events":1000,"wallSeconds":1.1,
           "eventsPerSec":909,"peakRssBytes":1100000}})");
    writeFile("tp_slow.json", R"({"schema":"ioat-bench-v1",
"bench":"fig03_bandwidth","gitRev":"cccc",
"config":{"transport":"default"},
"metrics":{"events":1000,"wallSeconds":10.0,
           "eventsPerSec":100,"peakRssBytes":1000000}})");

    const std::string tool =
        std::string(IOAT_SOURCE_DIR) + "/tools/benchdiff.py ";
    const auto ok = runTool(tool + "tp_base.json tp_ok.json");
    EXPECT_EQ(ok.exitCode, 0) << ok.output;
    EXPECT_NE(ok.output.find("OK: within tolerance"),
              std::string::npos)
        << ok.output;

    const auto slow = runTool(tool + "tp_base.json tp_slow.json");
    EXPECT_EQ(slow.exitCode, 1) << slow.output;
    EXPECT_NE(slow.output.find("REGRESSION"), std::string::npos)
        << slow.output;

    // Model gate: changed event count fails only when required.
    writeFile("tp_model.json", R"({"schema":"ioat-bench-v1",
"bench":"fig03_bandwidth","gitRev":"dddd",
"config":{"transport":"default"},
"metrics":{"events":999,"wallSeconds":1.0,
           "eventsPerSec":999,"peakRssBytes":1000000}})");
    const auto lax = runTool(tool + "tp_base.json tp_model.json");
    EXPECT_EQ(lax.exitCode, 0) << lax.output;
    const auto strict = runTool(tool +
                                "--require-events-equal "
                                "tp_base.json tp_model.json");
    EXPECT_EQ(strict.exitCode, 1) << strict.output;

    // Speed is wall time: a change that spends a tenth of the events
    // and runs in half the time is a speed-up, although its
    // events/sec fell to 0.2x.
    writeFile("tp_fewer.json", R"({"schema":"ioat-bench-v1",
"bench":"fig03_bandwidth","gitRev":"eeee",
"config":{"transport":"default"},
"metrics":{"events":100,"wallSeconds":0.5,
           "eventsPerSec":200,"peakRssBytes":1000000}})");
    const auto fewer = runTool(tool + "tp_base.json tp_fewer.json");
    EXPECT_EQ(fewer.exitCode, 0) << fewer.output;
    EXPECT_NE(fewer.output.find("speed ratio:      2.00x"),
              std::string::npos)
        << fewer.output;

    std::remove("tp_base.json");
    std::remove("tp_ok.json");
    std::remove("tp_slow.json");
    std::remove("tp_model.json");
    std::remove("tp_fewer.json");
}

TEST(Profile, PerfabDryRunPrintsAbbaSchedule)
{
    const auto r = runTool(std::string(IOAT_SOURCE_DIR) +
                           "/tools/perfab.py --base HEAD --workload "
                           "datacenter --pairs 3 --seconds 30 --dry-run");
    EXPECT_EQ(r.exitCode, 0) << r.output;
    // Run order: one warm-up per side, then A B | B A | A B.
    std::string sides;
    std::istringstream in(r.output);
    for (std::string line; std::getline(in, line);) {
        std::istringstream fields(line);
        int n = 0;
        std::string side;
        if (fields >> n >> side)
            sides += side;
    }
    EXPECT_EQ(sides, "ABABBAAB") << r.output;
    EXPECT_NE(r.output.find("pair 3   perfbench/run.py --workload "
                            "datacenter --seed 1 --seconds 30"),
              std::string::npos)
        << r.output;
}

} // namespace
