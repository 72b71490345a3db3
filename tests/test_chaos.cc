/**
 * @file
 * Crash–restart recovery tests (`ctest -L chaos`): exact-tick pins
 * for the client reconnect backoff schedule, heartbeat/lease-declared
 * failover at the proxy, PVFS journal replay across an iod crash (and
 * the acked-write loss that removing the journal reintroduces), and
 * the RunReport echo of the outage plan plus executed crash/restart
 * counts.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/node.hh"
#include "core/testbed.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "pvfs/deployment.hh"
#include "simcore/lifecycle.hh"
#include "simcore/simcore.hh"
#include "simcore/telemetry.hh"

namespace {

using namespace ioat;
using core::IoatConfig;
using core::Node;
using core::NodeConfig;
using sim::Coro;
using sim::FaultInjector;
using sim::Simulation;
using sim::Tick;

NodeConfig
reliableServer()
{
    NodeConfig cfg = NodeConfig::server(IoatConfig::enabled(), 4);
    cfg.tcp.reliable = true;
    return cfg;
}

/** Run until the event queue empties (or the bound trips). */
void
drain(Simulation &sim, Tick bound = sim::seconds(2))
{
    const Tick limit = sim.now() + bound;
    while (!sim.queue().empty() && sim.now() < limit)
        sim.runFor(sim::milliseconds(10));
}

// --------------------------------------------------------------------
// CappedBackoff: the schedule itself, pinned value by value.
// --------------------------------------------------------------------

TEST(CappedBackoff, PinnedSchedule)
{
    sim::CappedBackoff b(sim::milliseconds(5), sim::milliseconds(40));
    EXPECT_EQ(b.next(), sim::milliseconds(5));
    EXPECT_EQ(b.next(), sim::milliseconds(10));
    EXPECT_EQ(b.next(), sim::milliseconds(20));
    EXPECT_EQ(b.next(), sim::milliseconds(40));
    EXPECT_EQ(b.next(), sim::milliseconds(40)); // capped
    b.reset();
    EXPECT_EQ(b.next(), sim::milliseconds(5));
}

TEST(CappedBackoff, CapBelowBaseClampsToBase)
{
    sim::CappedBackoff b(sim::milliseconds(5), sim::milliseconds(1));
    EXPECT_EQ(b.next(), sim::milliseconds(5));
    EXPECT_EQ(b.next(), sim::milliseconds(5));
}

// --------------------------------------------------------------------
// Client reconnect backoff against a crashed (never-restarting)
// server: the gaps between consecutive reconnect decisions are
// pause_i + C where C (one failed connect cycle) is constant, so the
// *differences of the gaps* pin the backoff schedule exactly:
// +5ms, +10ms, +20ms, then +0 once the 40ms cap is reached.
// --------------------------------------------------------------------

TEST(ChaosReconnect, CappedBackoffPinsReconnectSchedule)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(11);
    fabric.setFaultInjector(&faults);
    const NodeConfig ncfg = reliableServer();
    Node clientNode(sim, fabric, ncfg);
    Node serverNode(sim, fabric, ncfg);

    dc::DcConfig cfg;
    dc::SingleFileWorkload wl(16 * 1024, 10);
    dc::WebServer server(serverNode, cfg, wl);
    server.start();

    dc::ClientFleet::Options opts;
    opts.target = serverNode.id();
    opts.port = cfg.serverPort;
    opts.threads = 1;
    opts.requestTimeout = sim::milliseconds(20);
    opts.reconnectDelay = sim::milliseconds(5);
    opts.reconnectBackoffCap = sim::milliseconds(40);
    dc::ClientFleet fleet({&clientNode}, wl, opts);

    // Crash 1ms in and never restart: the client cycles reconnects.
    faults.addOutage(serverNode.id(), sim::milliseconds(1),
                     sim::kTickMax);
    sim::Lifecycle lifecycle(sim, faults);
    lifecycle.attach(serverNode.id(), &serverNode);
    lifecycle.attach(serverNode.id(), &server);
    lifecycle.start();

    fleet.start();
    sim.runFor(sim::milliseconds(1500));

    const std::vector<Tick> &ticks = fleet.reconnectTicks();
    ASSERT_GE(ticks.size(), 6u);
    std::vector<Tick> gaps;
    for (std::size_t i = 1; i < 6; ++i)
        gaps.push_back(ticks[i] - ticks[i - 1]);
    // gap_i = pause_i + C; pauses are 5, 10, 20, 40, 40 ms.
    EXPECT_EQ(gaps[1] - gaps[0], sim::milliseconds(5));
    EXPECT_EQ(gaps[2] - gaps[1], sim::milliseconds(10));
    EXPECT_EQ(gaps[3] - gaps[2], sim::milliseconds(20));
    EXPECT_EQ(gaps[4], gaps[3]); // cap reached: identical cycles
    // And every gap is at least its backoff pause.
    EXPECT_GE(gaps[0], sim::milliseconds(5));
    EXPECT_GE(gaps[3], sim::milliseconds(40));

    fleet.stop();
    drain(sim);
    EXPECT_EQ(fleet.activeThreads(), 0u);
    EXPECT_EQ(fleet.issued(), fleet.completed() + fleet.failures() +
                                  fleet.rejected());
    EXPECT_TRUE(sim.queue().empty());
    EXPECT_EQ(lifecycle.crashes(), 1u);
    EXPECT_EQ(lifecycle.restarts(), 0u); // open-ended window
}

// --------------------------------------------------------------------
// Heartbeat/lease failure detector: crashing one backend expires its
// lease within effectiveLease() and rotation fails over without
// burning a full request timeout per request; the restarted backend
// answers heartbeats again.
// --------------------------------------------------------------------

TEST(ChaosFailover, HeartbeatLeaseDeclaresDeadBackend)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(23);
    fabric.setFaultInjector(&faults);
    const NodeConfig ncfg = reliableServer();
    Node clientNode(sim, fabric, ncfg);
    Node proxyNode(sim, fabric, ncfg);
    Node b0(sim, fabric, ncfg);
    Node b1(sim, fabric, ncfg);

    dc::DcConfig cfg;
    cfg.proxyCachingEnabled = false;
    cfg.requestDeadline = sim::milliseconds(5);
    cfg.backendRetries = 3;
    cfg.heartbeatInterval = sim::milliseconds(2);

    dc::SingleFileWorkload wl(16 * 1024, 10);
    dc::WebServer server0(b0, cfg, wl);
    dc::WebServer server1(b1, cfg, wl);
    server0.start();
    server1.start();
    dc::Proxy proxy(proxyNode, cfg,
                    std::vector<net::NodeId>{b0.id(), b1.id()}, 4);
    proxy.start();

    dc::ClientFleet::Options opts;
    opts.target = proxyNode.id();
    opts.port = cfg.proxyPort;
    opts.threads = 4;
    opts.requestTimeout = sim::milliseconds(20);
    opts.reconnectDelay = sim::milliseconds(5);
    opts.reconnectBackoffCap = sim::milliseconds(40);
    dc::ClientFleet fleet({&clientNode}, wl, opts);

    faults.addOutage(b0.id(), sim::milliseconds(30),
                     sim::milliseconds(60));
    sim::Lifecycle lifecycle(sim, faults);
    lifecycle.attach(b0.id(), &b0);
    lifecycle.attach(b0.id(), &server0);
    lifecycle.start();

    fleet.start();
    sim.runFor(sim::milliseconds(120));

    // The detector declared the dead backend and rotation skipped it.
    EXPECT_GE(lifecycle.crashes(), 1u);
    EXPECT_GE(lifecycle.restarts(), 1u);
    EXPECT_GT(proxy.heartbeatsAcked(), 0u);
    EXPECT_GE(proxy.leaseExpiries(), 1u);
    EXPECT_GE(proxy.failovers(), 1u);
    // Both backends answered pings (b0 again after its restart).
    EXPECT_GT(server0.pingsAnswered(), 0u);
    EXPECT_GT(server1.pingsAnswered(), 0u);
    // Service kept flowing through the outage.
    EXPECT_GT(fleet.completed(), 0u);

    fleet.stop();
    proxy.stop();
    drain(sim);
    EXPECT_EQ(fleet.activeThreads(), 0u);
    EXPECT_EQ(fleet.issued(), fleet.completed() + fleet.failures() +
                                  fleet.rejected());
    EXPECT_TRUE(sim.queue().empty());
}

// --------------------------------------------------------------------
// PVFS durability across an iod crash: with the intent log every
// acked write survives the restart (replayed from the journal);
// without it, writes acked before the crash are silently gone.
// --------------------------------------------------------------------

struct PvfsChaosOutcome
{
    std::uint64_t acked = 0;
    std::uint64_t lost = 0;
    std::uint64_t replays = 0;
    std::uint64_t errOps = 0;
    bool done = false;
    bool quiesced = false;
};

PvfsChaosOutcome
runPvfsChaos(bool journaled)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(31);
    fabric.setFaultInjector(&faults);
    const NodeConfig ncfg = reliableServer();
    Node clientNode(sim, fabric, ncfg);
    Node mgrNode(sim, fabric, ncfg);
    Node iod0Node(sim, fabric, ncfg);
    Node iod1Node(sim, fabric, ncfg);

    pvfs::PvfsConfig pcfg;
    pcfg.iodCount = 2;
    pcfg.rpcTimeout = sim::milliseconds(2);
    pcfg.rpcMaxRetries = 3;
    pcfg.trackDurability = true;
    pcfg.journaledWrites = journaled;

    pvfs::Deployment fsd(pcfg, mgrNode, {&iod0Node, &iod1Node});
    pvfs::IodServer &iod0 = fsd.iod(0);
    pvfs::IodServer &iod1 = fsd.iod(1);
    const pvfs::FileHandle fh = fsd.presizeFile("chaos", 8 * 1024 * 1024);
    const auto client = fsd.makeClient(clientNode);

    struct Driver
    {
        bool stop = false;
        bool done = false;
        std::uint64_t errOps = 0;
    } st;
    // 128KB per op = one 64KB stripe chunk on *each* iod, so acked
    // ids accumulate on the crash victim from the first op on.
    sim.spawn([](pvfs::PvfsClient &cl, pvfs::FileHandle h,
                 Driver &d) -> Coro<void> {
        if ((co_await cl.connect()) != pvfs::PvfsErrc::Ok) {
            d.done = true;
            co_return;
        }
        std::uint64_t off = 0;
        while (!d.stop) {
            const pvfs::PvfsResult<std::size_t> wr =
                co_await cl.write(h, off, 128 * 1024);
            if (!wr.ok())
                ++d.errOps;
            off += 128 * 1024;
        }
        d.done = true;
    }(*client, fh, st));

    faults.addOutage(iod0Node.id(), sim::milliseconds(10),
                     sim::milliseconds(25));
    sim::Lifecycle lifecycle(sim, faults);
    lifecycle.attach(iod0Node.id(), &iod0Node);
    lifecycle.attach(iod0Node.id(), &iod0);
    lifecycle.start();

    sim.runFor(sim::milliseconds(50));
    st.stop = true;
    drain(sim);

    PvfsChaosOutcome out;
    out.acked = client->ackedWrites().size();
    for (const auto &w : client->ackedWrites())
        if (!iod0.writeApplied(w.first) && !iod1.writeApplied(w.first))
            ++out.lost;
    out.replays = iod0.journalReplays();
    out.errOps = st.errOps;
    out.done = st.done;
    out.quiesced = sim.queue().empty();
    return out;
}

TEST(ChaosPvfs, JournalReplayPreservesAckedWritesAcrossIodCrash)
{
    const PvfsChaosOutcome out = runPvfsChaos(true);
    EXPECT_TRUE(out.done);
    EXPECT_TRUE(out.quiesced);
    EXPECT_GT(out.acked, 0u);
    EXPECT_GT(out.replays, 0u); // the restart replayed the journal
    EXPECT_EQ(out.lost, 0u);    // no acked write lost
}

TEST(ChaosPvfs, WithoutJournalAckedWritesAreLost)
{
    // The planted regression the chaos sweep must find: volatile
    // apply state, ack before crash, no journal to replay.
    const PvfsChaosOutcome out = runPvfsChaos(false);
    EXPECT_TRUE(out.done);
    EXPECT_TRUE(out.quiesced);
    EXPECT_GT(out.acked, 0u);
    EXPECT_EQ(out.replays, 0u);
    EXPECT_GT(out.lost, 0u); // acked-before-crash writes are gone
}

// --------------------------------------------------------------------
// Telemetry echo (RunReport): the outage plan and the executed
// crash/restart counts appear in the report.
// --------------------------------------------------------------------

TEST(ChaosTelemetry, RunReportEchoesOutagePlanAndLifecycle)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(5);
    fabric.setFaultInjector(&faults);
    Node a(sim, fabric, reliableServer());

    faults.addOutage(a.id(), sim::milliseconds(5),
                     sim::milliseconds(10));
    faults.addOutage(a.id(), sim::milliseconds(20),
                     sim::milliseconds(30));
    sim::Lifecycle lifecycle(sim, faults);
    lifecycle.attach(a.id(), &a);
    lifecycle.start();

    sim.runFor(sim::milliseconds(40));
    EXPECT_EQ(lifecycle.crashes(), 2u);
    EXPECT_EQ(lifecycle.restarts(), 2u);

    sim::telemetry::Session session(sim, sim::microseconds(100));
    session.add("fault", faults);
    session.add("lifecycle", lifecycle);

    sim::telemetry::RunReport report;
    report.setBench("test_chaos");
    session.captureInto(report);
    std::ostringstream os;
    report.writeJson(os);
    const std::string json = os.str();

    const std::string node = std::to_string(a.id());
    EXPECT_NE(json.find("\"fault.outageWindows\": 2"),
              std::string::npos);
    EXPECT_NE(json.find("\"fault.outage0.node\": " + node),
              std::string::npos);
    EXPECT_NE(json.find("\"fault.outage0.startUs\": 5000"),
              std::string::npos);
    EXPECT_NE(json.find("\"fault.outage1.endUs\": 30000"),
              std::string::npos);
    EXPECT_NE(json.find("\"lifecycle.crashes\": 2"),
              std::string::npos);
    EXPECT_NE(json.find("\"lifecycle.restarts\": 2"),
              std::string::npos);
    EXPECT_NE(json.find("\"lifecycle.node" + node + ".crashes\": 2"),
              std::string::npos);
}

} // namespace
