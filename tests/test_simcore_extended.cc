/**
 * @file
 * Tests for the simcore extensions: timeouts and the per-node
 * statistics snapshots.
 */

#include <gtest/gtest.h>

#include "core/stats_report.hh"
#include "core/testbed.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using sim::Coro;
using sim::Simulation;
using sim::Tick;

// --------------------------------------------------------------------
// waitWithTimeout
// --------------------------------------------------------------------

TEST(Timeout, ReturnsTrueWhenEventBeatsDeadline)
{
    Simulation sim;
    sim::Event ev(sim);
    bool result = false, done = false;
    sim.spawn([](Simulation &s, sim::Event &e, bool &r,
                 bool &f) -> Coro<void> {
        r = co_await sim::waitWithTimeout(s, e, sim::microseconds(100));
        f = true;
    }(sim, ev, result, done));
    sim.queue().schedule(sim::microseconds(10), [&] { ev.trigger(); });
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_TRUE(result);
}

TEST(Timeout, ReturnsFalseOnDeadline)
{
    Simulation sim;
    sim::Event ev(sim);
    bool result = true, done = false;
    sim.spawn([](Simulation &s, sim::Event &e, bool &r,
                 bool &f) -> Coro<void> {
        r = co_await sim::waitWithTimeout(s, e, sim::microseconds(100));
        f = true;
    }(sim, ev, result, done));
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_FALSE(result);
    EXPECT_GE(sim.now(), sim::microseconds(100));
}

TEST(Timeout, AlreadyTriggeredReturnsImmediately)
{
    Simulation sim;
    sim::Event ev(sim);
    ev.trigger();
    bool result = false;
    sim.spawn([](Simulation &s, sim::Event &e, bool &r) -> Coro<void> {
        r = co_await sim::waitWithTimeout(s, e, sim::Tick{1});
    }(sim, ev, result));
    sim.run();
    EXPECT_TRUE(result);
    EXPECT_EQ(sim.now(), ioat::sim::Tick{0});
}

// --------------------------------------------------------------------
// NodeSnapshot
// --------------------------------------------------------------------

TEST(StatsReport, SnapshotDeltasMatchActivity)
{
    Simulation sim;
    net::Switch fabric(sim);
    core::Node a(sim, fabric,
                 core::NodeConfig::server(core::IoatConfig::enabled()));
    core::Node b(sim, fabric,
                 core::NodeConfig::server(core::IoatConfig::enabled()));

    sim.spawn([](core::Node &srv) -> Coro<void> {
        auto &l = srv.stack().listen(80);
        tcp::Connection *c = co_await l.accept();
        for (;;) {
            if (co_await c->recv(sim::mib(1)) == 0)
                co_return;
        }
    }(b));
    sim.spawn([](core::Node &cl, net::NodeId dst) -> Coro<void> {
        tcp::Connection *c = co_await cl.stack().connect(dst, 80);
        for (;;)
            co_await c->send(sim::kib(64));
    }(a, b.id()));

    sim.runFor(sim::milliseconds(50));
    const auto s0 = core::NodeSnapshot::capture(b);
    sim.runFor(sim::milliseconds(100));
    const auto s1 = core::NodeSnapshot::capture(b);
    const auto d = s1 - s0;

    EXPECT_EQ(d.when, sim::milliseconds(100));
    EXPECT_GT(d.rxPayload, 0u);
    EXPECT_GT(d.rxSegments, 0u);
    EXPECT_GT(d.interrupts, 0u);
    EXPECT_GT(d.dmaCopies, 0u);
    EXPECT_GT(d.cpuBusyTicks, sim::Tick{0});
    // Rates derived from the delta are sane.
    EXPECT_GT(d.rxMbps(), 500.0);
    EXPECT_LT(d.rxMbps(), 1000.0);
    const double util = d.cpuUtilization(b.cpu().coreCount());
    EXPECT_GT(util, 0.0);
    EXPECT_LT(util, 1.0);
}

TEST(StatsReport, PrintProducesTable)
{
    Simulation sim;
    net::Switch fabric(sim);
    core::Node n(sim, fabric,
                 core::NodeConfig::server(core::IoatConfig::disabled()));
    const auto s = core::NodeSnapshot::capture(n);
    std::ostringstream os;
    s.print(os, "node0", n.cpu().coreCount());
    EXPECT_NE(os.str().find("node0"), std::string::npos);
    EXPECT_NE(os.str().find("rx payload"), std::string::npos);
}

} // namespace
