/**
 * @file
 * Deterministic chaos search: seeded random fault schedules (link
 * faults plus crash/restart of random server nodes at random ticks)
 * driven through a combined web + PVFS cluster, with machine-checked
 * end-to-end invariants after every run:
 *
 *  1. every scheduled crash and restart executed (Lifecycle counts
 *     match the injector's merged windows);
 *  2. request conservation: every request the client fleet issued
 *     terminated as exactly one of response / 503 / typed failure,
 *     and every PVFS op returned Ok or a typed PvfsErrc;
 *  3. durability: no PVFS write acked to a client was lost across
 *     iod crash/restarts (ack-after-journal, replayed on restart);
 *  4. the simulation quiesces: after the horizon plus a drain window
 *     every client thread has exited and the event queue is empty —
 *     no leaked coroutines, no orphaned timers.
 *
 * Every run is a pure function of its seed: a reported violation
 * replays bit-exactly from the seed alone (`--replay`), and the
 * harness shrinks a failing schedule to a minimal failing subset of
 * its outage windows by greedy re-execution.
 *
 * `--journal 0` removes the iods' intent log while keeping the
 * durability tracking: the sweep then *finds* the acked-write-lost
 * regression and prints the seed that reproduces it.
 */

#include <cstdint>
#include <cstdio>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "common.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "pvfs/deployment.hh"
#include "simcore/lifecycle.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct ChaosParams
{
    double schedules = 32; ///< seeds swept
    double seed0 = 1;      ///< first seed
    double windows = 3;    ///< outage windows per schedule
    double journal = 1;    ///< iod intent log on (0 = regression)
    double shrink = 1;     ///< shrink failing schedules
    double replay = 0;     ///< nonzero: replay this one seed
};

/** One generated outage window (victim is an index into the fixed
 *  server-victim list, resolved to a node id per run). */
struct WindowSpec
{
    unsigned victim;
    Tick start;
    Tick end;
};

constexpr unsigned kVictims = 6; // proxy, 2 web, mgr, 2 iods

/**
 * The whole fault schedule is a pure function of the seed: a link
 * loss mix plus `windows` crash/restart windows over the victims.
 */
std::vector<WindowSpec>
makeSchedule(std::uint64_t seed, unsigned windows, double *loss_out)
{
    sim::Rng rng(seed);
    static const double kLoss[] = {0.0, 1e-4, 1e-3};
    *loss_out = kLoss[rng.uniformInt(0, 2)];
    std::vector<WindowSpec> wins;
    for (unsigned i = 0; i < windows; ++i) {
        WindowSpec w;
        w.victim = static_cast<unsigned>(rng.uniformInt(0, kVictims - 1));
        w.start = sim::microseconds(rng.uniformInt(60'000, 300'000));
        w.end = w.start +
                sim::microseconds(rng.uniformInt(5'000, 50'000));
        wins.push_back(w);
    }
    return wins;
}

struct PvfsDriverState
{
    std::uint64_t ops = 0;
    std::uint64_t okOps = 0;
    std::uint64_t errOps = 0;
    bool stop = false;
    bool done = false;
};

/**
 * Closed-loop PVFS workload: streaming writes with periodic
 * read-back.  Every op terminates with Ok or a typed PvfsErrc (all
 * waits are bounded by rpcTimeout), so ops == okOps + errOps is the
 * PVFS half of the conservation invariant.
 */
Coro<void>
pvfsDriver(pvfs::PvfsClient &cl, pvfs::FileHandle h,
           PvfsDriverState &st)
{
    const pvfs::PvfsErrc conn = co_await cl.connect();
    if (conn != pvfs::PvfsErrc::Ok) {
        st.done = true;
        co_return;
    }
    std::uint64_t offset = 0;
    const std::size_t chunk = 256 * 1024;
    while (!st.stop) {
        ++st.ops;
        const pvfs::PvfsResult<std::size_t> wr =
            co_await cl.write(h, offset, chunk);
        if (wr.ok())
            ++st.okOps;
        else
            ++st.errOps;
        offset += chunk;
        if (st.stop)
            break;
        if (st.ops % 4 == 0) {
            ++st.ops;
            const pvfs::PvfsResult<std::size_t> rd =
                co_await cl.read(h, 0, chunk);
            if (rd.ok())
                ++st.okOps;
            else
                ++st.errOps;
        }
    }
    st.done = true;
}

struct RunStats
{
    double lossRate = 0.0;
    std::uint64_t mergedWindows = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t issued = 0;
    std::uint64_t completed = 0;
    std::uint64_t failures = 0;
    std::uint64_t rejected = 0;
    std::uint64_t failovers = 0;
    std::uint64_t pvfsOps = 0;
    std::uint64_t pvfsErrs = 0;
    std::uint64_t ackedWrites = 0;
    std::uint64_t lostWrites = 0;
    std::uint64_t journalReplays = 0;
    std::size_t queueLeft = 0;
    unsigned threadsLeft = 0;
    std::vector<std::string> violations;
};

/**
 * Execute one chaos schedule and machine-check every invariant.
 * @p dropped indexes into the generated window list are skipped
 * (the shrinking loop's lever); the schedule itself is always the
 * full pure function of @p seed.
 */
RunStats
runOne(std::uint64_t seed, const ChaosParams &p,
       const std::set<unsigned> &dropped = {},
       std::vector<WindowSpec> *schedule_out = nullptr)
{
    RunStats out;
    const auto windows = makeSchedule(
        seed, static_cast<unsigned>(p.windows), &out.lossRate);
    if (schedule_out)
        *schedule_out = windows;

    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    sim::FaultInjector faults(seed);
    sim::FaultSiteConfig lossCfg;
    lossCfg.dropProb = out.lossRate;
    lossCfg.dupProb = out.lossRate / 10.0;
    faults.setDefaultConfig(lossCfg);
    fabric.setFaultInjector(&faults);

    NodeConfig nodeCfg = NodeConfig::server(IoatConfig::enabled(), 6);
    nodeCfg.tcp.reliable = true;
    Node clientNode(sim, fabric, nodeCfg);
    Node proxyNode(sim, fabric, nodeCfg);
    Node web0(sim, fabric, nodeCfg);
    Node web1(sim, fabric, nodeCfg);
    Node pvfsClientNode(sim, fabric, nodeCfg);
    Node mgrNode(sim, fabric, nodeCfg);
    Node iod0Node(sim, fabric, nodeCfg);
    Node iod1Node(sim, fabric, nodeCfg);

    // ---- web tier -------------------------------------------------
    dc::DcConfig cfg;
    cfg.proxyCachingEnabled = false;
    cfg.serveStaleOnError = true;
    cfg.requestDeadline = sim::milliseconds(5);
    cfg.backendRetries = 3;
    cfg.heartbeatInterval = sim::milliseconds(2);

    dc::SingleFileWorkload wl(16 * 1024, 100);
    dc::WebServer server0(web0, cfg, wl);
    dc::WebServer server1(web1, cfg, wl);
    server0.start();
    server1.start();
    dc::Proxy proxy(proxyNode, cfg,
                    std::vector<net::NodeId>{web0.id(), web1.id()}, 8);
    proxy.start();

    dc::ClientFleet::Options fleetOpts;
    fleetOpts.target = proxyNode.id();
    fleetOpts.port = cfg.proxyPort;
    fleetOpts.threads = 8;
    fleetOpts.requestTimeout = sim::milliseconds(20);
    fleetOpts.reconnectDelay = sim::milliseconds(5);
    fleetOpts.reconnectBackoffCap = sim::milliseconds(40);
    dc::ClientFleet fleet({&clientNode}, wl, fleetOpts);
    fleet.start();

    // ---- PVFS tier ------------------------------------------------
    pvfs::PvfsConfig pcfg;
    pcfg.iodCount = 2;
    pcfg.rpcTimeout = sim::milliseconds(5);
    pcfg.rpcMaxRetries = 4;
    pcfg.trackDurability = true;
    pcfg.journaledWrites = p.journal != 0;
    pvfs::Deployment fsd(pcfg, mgrNode, {&iod0Node, &iod1Node});
    const pvfs::FileHandle fh = fsd.presizeFile("chaos", 32 * 1024 * 1024);
    const auto pvfsClient = fsd.makeClient(pvfsClientNode);
    PvfsDriverState pvfsState;
    sim.spawn(pvfsDriver(*pvfsClient, fh, pvfsState));

    // ---- crash/restart supervision --------------------------------
    const std::vector<net::NodeId> victims = {
        proxyNode.id(), web0.id(),     web1.id(),
        mgrNode.id(),   iod0Node.id(), iod1Node.id()};

    sim::Lifecycle lifecycle(sim, faults);
    // Node (transport reset) first, daemons after: a crash tears the
    // stack down before the process-level hooks run.
    lifecycle.attach(proxyNode.id(), &proxyNode);
    lifecycle.attach(proxyNode.id(), &proxy);
    lifecycle.attach(web0.id(), &web0);
    lifecycle.attach(web0.id(), &server0);
    lifecycle.attach(web1.id(), &web1);
    lifecycle.attach(web1.id(), &server1);
    lifecycle.attach(mgrNode.id(), &mgrNode);
    lifecycle.attach(mgrNode.id(), &fsd.manager());
    lifecycle.attach(iod0Node.id(), &iod0Node);
    lifecycle.attach(iod0Node.id(), &fsd.iod(0));
    lifecycle.attach(iod1Node.id(), &iod1Node);
    lifecycle.attach(iod1Node.id(), &fsd.iod(1));

    for (unsigned i = 0; i < windows.size(); ++i) {
        if (dropped.count(i) > 0)
            continue;
        faults.addOutage(victims[windows[i].victim], windows[i].start,
                         windows[i].end);
    }
    lifecycle.start();

    for (const std::uint32_t node : faults.outageNodes())
        out.mergedWindows += faults.mergedOutages(node).size();

    // ---- run, stop, drain -----------------------------------------
    const Tick horizon = sim::milliseconds(400);
    sim.runFor(horizon);
    fleet.stop();
    proxy.stop();
    pvfsState.stop = true;
    // Quiesce bound: every timer in the system resolves well inside
    // 2s (worst case is reliable-TCP retransmission backoff running
    // to abort, ~800ms).  Anything still queued past the bound is a
    // leak, not a straggler.
    const Tick drainStep = sim::milliseconds(50);
    const Tick drainBound = sim.now() + sim::seconds(2);
    while (!sim.queue().empty() && sim.now() < drainBound)
        sim.runFor(drainStep);

    // ---- machine-check the invariants -----------------------------
    out.crashes = lifecycle.crashes();
    out.restarts = lifecycle.restarts();
    out.issued = fleet.issued();
    out.completed = fleet.completed();
    out.failures = fleet.failures();
    out.rejected = fleet.rejected();
    out.failovers = proxy.failovers();
    out.pvfsOps = pvfsState.ops;
    out.pvfsErrs = pvfsState.errOps;
    out.ackedWrites = pvfsClient->ackedWrites().size();
    out.journalReplays =
        fsd.iod(0).journalReplays() + fsd.iod(1).journalReplays();
    out.queueLeft = sim.queue().size();
    out.threadsLeft = fleet.activeThreads();

    auto fail = [&out](std::string why) {
        out.violations.push_back(std::move(why));
    };

    if (out.crashes != out.mergedWindows ||
        out.restarts != out.mergedWindows)
        fail(sim::strprintf(
            "lifecycle: %llu merged windows but %llu crashes / %llu "
            "restarts executed",
            static_cast<unsigned long long>(out.mergedWindows),
            static_cast<unsigned long long>(out.crashes),
            static_cast<unsigned long long>(out.restarts)));

    if (out.issued != out.completed + out.failures + out.rejected)
        fail(sim::strprintf(
            "conservation: issued %llu != completed %llu + failed %llu "
            "+ rejected %llu",
            static_cast<unsigned long long>(out.issued),
            static_cast<unsigned long long>(out.completed),
            static_cast<unsigned long long>(out.failures),
            static_cast<unsigned long long>(out.rejected)));

    if (pvfsState.ops != pvfsState.okOps + pvfsState.errOps)
        fail(sim::strprintf(
            "conservation: pvfs ops %llu != ok %llu + err %llu",
            static_cast<unsigned long long>(pvfsState.ops),
            static_cast<unsigned long long>(pvfsState.okOps),
            static_cast<unsigned long long>(pvfsState.errOps)));

    for (const auto &w : pvfsClient->ackedWrites()) {
        if (!fsd.iod(0).writeApplied(w.first) &&
            !fsd.iod(1).writeApplied(w.first)) {
            ++out.lostWrites;
            if (out.lostWrites <= 3) // cap the report, count the rest
                fail(sim::strprintf(
                    "durability: acked write id %llu (%llu bytes) lost",
                    static_cast<unsigned long long>(w.first),
                    static_cast<unsigned long long>(w.second)));
        }
    }

    if (!pvfsState.done)
        fail("quiesce: pvfs driver still running after drain");
    if (out.threadsLeft != 0)
        fail(sim::strprintf("quiesce: %u client threads still live "
                            "after drain",
                            out.threadsLeft));
    if (out.queueLeft != 0)
        fail(sim::strprintf("quiesce: %llu events still queued after "
                            "drain",
                            static_cast<unsigned long long>(
                                out.queueLeft)));

    return out;
}

/** Same seed, same params -> identical violation list? */
bool
reproduces(std::uint64_t seed, const ChaosParams &p,
           const std::vector<std::string> &expected)
{
    const RunStats again = runOne(seed, p);
    return again.violations == expected;
}

/**
 * Greedy shrink: drop each window in turn, keep the drop whenever
 * the remaining schedule still violates an invariant.  The survivors
 * are a minimal (1-minimal) failing schedule.
 */
std::set<unsigned>
shrinkSchedule(std::uint64_t seed, const ChaosParams &p,
               unsigned window_count)
{
    std::set<unsigned> dropped;
    for (unsigned i = 0; i < window_count; ++i) {
        std::set<unsigned> trial = dropped;
        trial.insert(i);
        if (trial.size() == window_count)
            break; // keep at least one window
        if (!runOne(seed, p, trial).violations.empty())
            dropped = trial;
    }
    return dropped;
}

std::string
windowJson(const WindowSpec &w)
{
    return sim::strprintf(
        "{\"victim\": %u, \"startUs\": %llu, \"endUs\": %llu}",
        w.victim,
        static_cast<unsigned long long>(sim::toMicroseconds(w.start)),
        static_cast<unsigned long long>(sim::toMicroseconds(w.end)));
}

struct FailureRecord
{
    std::uint64_t seed;
    bool reproduced;
    std::vector<std::string> violations;
    std::vector<WindowSpec> minimal;
};

void
writeReport(const std::string &path, const ChaosParams &p,
            std::uint64_t totalViolations,
            const std::vector<std::pair<std::uint64_t, RunStats>> &runs,
            const std::vector<FailureRecord> &failures)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    sim::simAssert(f != nullptr, "cannot open chaos report for writing");
    std::fprintf(f, "{\n  \"bench\": \"chaos_search\",\n");
    std::fprintf(f, "  \"schedules\": %u,\n",
                 static_cast<unsigned>(runs.size()));
    std::fprintf(f, "  \"windowsPerSchedule\": %u,\n",
                 static_cast<unsigned>(p.windows));
    std::fprintf(f, "  \"journaledWrites\": %s,\n",
                 p.journal != 0 ? "true" : "false");
    std::fprintf(f, "  \"violations\": %llu,\n",
                 static_cast<unsigned long long>(totalViolations));
    std::fprintf(f, "  \"runs\": [\n");
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const RunStats &r = runs[i].second;
        std::fprintf(
            f,
            "    {\"seed\": %llu, \"ok\": %s, \"crashes\": %llu, "
            "\"restarts\": %llu, \"issued\": %llu, \"completed\": "
            "%llu, \"failures\": %llu, \"rejected\": %llu, "
            "\"pvfsOps\": %llu, \"ackedWrites\": %llu, "
            "\"lostWrites\": %llu, \"journalReplays\": %llu}%s\n",
            static_cast<unsigned long long>(runs[i].first),
            r.violations.empty() ? "true" : "false",
            static_cast<unsigned long long>(r.crashes),
            static_cast<unsigned long long>(r.restarts),
            static_cast<unsigned long long>(r.issued),
            static_cast<unsigned long long>(r.completed),
            static_cast<unsigned long long>(r.failures),
            static_cast<unsigned long long>(r.rejected),
            static_cast<unsigned long long>(r.pvfsOps),
            static_cast<unsigned long long>(r.ackedWrites),
            static_cast<unsigned long long>(r.lostWrites),
            static_cast<unsigned long long>(r.journalReplays),
            i + 1 < runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"failures\": [\n");
    for (std::size_t i = 0; i < failures.size(); ++i) {
        const FailureRecord &fr = failures[i];
        std::fprintf(f,
                     "    {\"seed\": %llu, \"reproduced\": %s,\n"
                     "     \"violations\": [",
                     static_cast<unsigned long long>(fr.seed),
                     fr.reproduced ? "true" : "false");
        for (std::size_t v = 0; v < fr.violations.size(); ++v)
            std::fprintf(f, "%s\"%s\"", v > 0 ? ", " : "",
                         fr.violations[v].c_str());
        std::fprintf(f, "],\n     \"minimalSchedule\": [");
        for (std::size_t w = 0; w < fr.minimal.size(); ++w)
            std::fprintf(f, "%s%s", w > 0 ? ", " : "",
                         windowJson(fr.minimal[w]).c_str());
        std::fprintf(f, "]}%s\n", i + 1 < failures.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
}

} // namespace

int
main(int argc, char **argv)
{
    // Only --report (its own sweep JSON) and --bench-json apply.
    Options opts("chaos_search", {.telemetry = false});
    ChaosParams p;
    opts.knob("schedules", &p.schedules, "fault schedules to sweep");
    opts.knob("seed0", &p.seed0, "first schedule seed");
    opts.knob("windows", &p.windows, "outage windows per schedule");
    opts.knob("journal", &p.journal,
              "iod intent log (0 plants the durability regression)");
    opts.knob("shrink", &p.shrink, "shrink failing schedules");
    opts.knob("replay", &p.replay, "replay one seed and exit");

    return benchMain(argc, argv, opts, [&](const Options &o) {
        if (p.replay != 0) {
            const auto seed = static_cast<std::uint64_t>(p.replay);
            std::vector<WindowSpec> schedule;
            const RunStats r = runOne(seed, p, {}, &schedule);
            std::cout << "=== chaos replay: seed " << seed << " ===\n";
            for (const auto &w : schedule)
                std::cout << "  victim " << w.victim << " down "
                          << sim::toMicroseconds(w.start) << "us - "
                          << sim::toMicroseconds(w.end) << "us\n";
            std::cout << "crashes " << r.crashes << ", restarts "
                      << r.restarts << ", issued " << r.issued
                      << ", completed " << r.completed << ", failed "
                      << r.failures << ", rejected " << r.rejected
                      << ", acked writes " << r.ackedWrites
                      << ", lost " << r.lostWrites << "\n";
            if (r.violations.empty()) {
                std::cout << "all invariants hold\n";
            } else {
                for (const auto &v : r.violations)
                    std::cout << "VIOLATION: " << v << "\n";
            }
            if (o.wantReport())
                writeReport(o.reportPath(), p, r.violations.size(),
                            {{seed, r}}, {});
            return r.violations.empty() ? 0 : 1;
        }

        const auto n = static_cast<unsigned>(p.schedules);
        std::cout << "=== chaos search: " << n << " fault schedules, "
                  << static_cast<unsigned>(p.windows)
                  << " outage windows each, journal "
                  << (p.journal != 0 ? "on" : "off") << " ===\n\n";

        sim::Table t({"seed", "loss", "crashes", "issued", "done",
                      "failed", "503s", "pvfs ops", "acked", "lost",
                      "verdict"});
        std::vector<std::pair<std::uint64_t, RunStats>> runs;
        std::vector<FailureRecord> failures;
        std::uint64_t totalViolations = 0;
        for (unsigned i = 0; i < n; ++i) {
            const std::uint64_t seed =
                static_cast<std::uint64_t>(p.seed0) + i;
            std::vector<WindowSpec> schedule;
            RunStats r = runOne(seed, p, {}, &schedule);
            totalViolations += r.violations.size();
            t.addRow({std::to_string(seed),
                      sim::strprintf("%g", r.lossRate),
                      std::to_string(r.crashes),
                      std::to_string(r.issued),
                      std::to_string(r.completed),
                      std::to_string(r.failures),
                      std::to_string(r.rejected),
                      std::to_string(r.pvfsOps),
                      std::to_string(r.ackedWrites),
                      std::to_string(r.lostWrites),
                      r.violations.empty() ? "ok" : "VIOLATION"});
            if (!r.violations.empty()) {
                FailureRecord fr;
                fr.seed = seed;
                fr.violations = r.violations;
                fr.reproduced = reproduces(seed, p, r.violations);
                std::set<unsigned> dropped;
                if (p.shrink != 0)
                    dropped = shrinkSchedule(
                        seed, p, static_cast<unsigned>(schedule.size()));
                for (unsigned w = 0;
                     w < static_cast<unsigned>(schedule.size()); ++w)
                    if (dropped.count(w) == 0)
                        fr.minimal.push_back(schedule[w]);
                failures.push_back(std::move(fr));
            }
            runs.emplace_back(seed, std::move(r));
        }
        t.print(std::cout);

        std::cout << "\n" << totalViolations << " violation(s) across "
                  << n << " schedules.\n";
        for (const auto &fr : failures) {
            std::cout << "seed " << fr.seed << " ("
                      << (fr.reproduced ? "replays bit-exactly"
                                        : "UNSTABLE REPLAY")
                      << "), minimal schedule "
                      << fr.minimal.size() << " window(s):\n";
            for (const auto &v : fr.violations)
                std::cout << "    " << v << "\n";
            std::cout << "  replay with: chaos_search --replay "
                      << fr.seed << " --journal "
                      << (p.journal != 0 ? 1 : 0) << "\n";
        }
        if (o.wantReport())
            writeReport(o.reportPath(), p, totalViolations, runs,
                        failures);
        return totalViolations == 0 ? 0 : 1;
    });
}
