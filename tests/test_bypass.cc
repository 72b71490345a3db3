/**
 * @file
 * Kernel-bypass transport suite (`ctest -L bypass`).
 *
 * Covers the xpt::BypassStack behind the sock:: facade: zero-copy
 * streaming at near-zero receiver CPU, credit-based flow control
 * (stall + recovery), user-space loss handling under the shared
 * FaultInjector sites, trace-breakdown exactness on the bypass path,
 * Listener misuse, and three-way (tcp / ioat / bypass) golden
 * digests of the fig03 and fig08 scenarios.
 *
 * Regenerate the goldens after an *intentional* behavior change with
 * `GOLDEN_REGEN=1 ./test_bypass`.
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/testbed.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "net/switch.hh"
#include "simcore/digest.hh"
#include "simcore/fault.hh"
#include "simcore/simcore.hh"
#include "simcore/table.hh"
#include "sock/socket.hh"
#include "xpt/bypass.hh"

namespace {

using namespace ioat;
using core::IoatConfig;
using core::Node;
using core::NodeConfig;
using core::TransportKind;
using sim::Coro;
using sim::Simulation;
using sim::Tick;

/** The three transports every bench can be pointed at. */
enum class Xport { tcp, ioat, bypass };

const char *
xportName(Xport x)
{
    switch (x) {
    case Xport::tcp:
        return "tcp";
    case Xport::ioat:
        return "ioat";
    case Xport::bypass:
        return "bypass";
    }
    return "?";
}

NodeConfig
nodeFor(Xport x, unsigned ports)
{
    switch (x) {
    case Xport::tcp:
        return NodeConfig::server(IoatConfig::disabled(), ports);
    case Xport::ioat:
        return NodeConfig::server(IoatConfig::enabled(), ports);
    case Xport::bypass: {
        NodeConfig cfg = NodeConfig::server(IoatConfig::disabled(), ports);
        cfg.transport = TransportKind::bypass;
        return cfg;
    }
    }
    return NodeConfig{};
}

/** Accept-and-drain loop through the transport-agnostic facade. */
Coro<void>
sinkLoop(Node &node, std::uint16_t port, std::size_t chunk)
{
    sock::Listener listener(node.transport(), port);
    for (;;) {
        sock::Socket c = co_await listener.accept();
        node.spawn([](sock::Socket conn, std::size_t ck) -> Coro<void> {
            for (;;) {
                if (co_await conn.recv(ck) == 0)
                    co_return;
            }
        }(c, chunk));
    }
}

Coro<void>
senderLoop(Node &node, net::NodeId dst, std::uint16_t port,
           std::size_t chunk)
{
    sock::Socket c = co_await node.transport().connect(dst, port);
    for (;;)
        co_await c.sendAll(chunk);
}

// --------------------------------------------------------------------
// Zero-copy polled data path
// --------------------------------------------------------------------

TEST(Bypass, StreamsAtWireRateWithPolledReceiver)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    const NodeConfig cfg = nodeFor(Xport::bypass, 1);
    Node a(sim, fabric, cfg);
    Node b(sim, fabric, cfg);

    sim.spawn(sinkLoop(b, 5001, 64 * 1024));
    sim.spawn(senderLoop(a, b.id(), 5001, 64 * 1024));

    sim.runFor(sim::milliseconds(100));
    b.cpu().resetUtilizationWindow();
    const std::uint64_t rx0 = b.transport().rxPayloadBytes();
    sim.runFor(sim::milliseconds(200));
    const std::uint64_t rx1 = b.transport().rxPayloadBytes();

    // Data flowed, serviced by the busy-poll loop...
    EXPECT_GT(rx1, rx0);
    ASSERT_NE(b.bypassStack(), nullptr);
    EXPECT_GT(b.bypassStack()->pollPasses(), 0u);
    // ...and never through the kernel stack.
    EXPECT_EQ(b.stack().rxPayloadBytes(), 0u);
    EXPECT_EQ(a.stack().txPayloadBytes(), 0u);
    // No per-byte kernel costs: the receiver core stays nearly idle
    // (the tcp path burns ~35% here).
    EXPECT_LT(b.cpu().utilization(), 0.15);
}

// --------------------------------------------------------------------
// Credit-based flow control
// --------------------------------------------------------------------

TEST(Bypass, CreditExhaustionStallsThenRecovers)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    NodeConfig cfg = nodeFor(Xport::bypass, 1);
    // A 16 KB registered pool against 64 KB sends: every send must
    // stall on credit at least once and resume as the receiver
    // drains.
    cfg.bypass.bufPoolBytes = 16 * 1024;
    Node a(sim, fabric, cfg);
    Node b(sim, fabric, cfg);

    sim.spawn(sinkLoop(b, 5001, 64 * 1024));
    sim.spawn(senderLoop(a, b.id(), 5001, 64 * 1024));
    sim.runFor(sim::milliseconds(50));

    ASSERT_NE(a.bypassStack(), nullptr);
    EXPECT_GT(a.bypassStack()->creditStalls(), 0u);
    // Stalled is not stuck: multiple pools' worth still got through.
    EXPECT_GT(b.transport().rxPayloadBytes(),
              8 * cfg.bypass.bufPoolBytes);
}

// --------------------------------------------------------------------
// User-space loss handling (FaultInjector sites intact)
// --------------------------------------------------------------------

TEST(Bypass, LinkLossRecoveredByLibraryRetransmission)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    sim::FaultInjector faults(42);
    sim::FaultSiteConfig fc;
    fc.dropProb = 1e-2;
    fc.dupProb = 1e-3;
    faults.setDefaultConfig(fc);
    fabric.setFaultInjector(&faults);

    const NodeConfig cfg = nodeFor(Xport::bypass, 1);
    Node a(sim, fabric, cfg);
    Node b(sim, fabric, cfg);

    sim.spawn(sinkLoop(b, 5001, 32 * 1024));
    sim.spawn(senderLoop(a, b.id(), 5001, 32 * 1024));
    sim.runFor(sim::milliseconds(200));

    // The injector really dropped traffic, the library really
    // resent it, and goodput survived.
    EXPECT_GT(faults.totalDrops(), 0u);
    EXPECT_GT(a.bypassStack()->retransmits(), 0u);
    EXPECT_GT(b.transport().rxPayloadBytes(), 512u * 1024);
    EXPECT_EQ(b.transport().abortedConnections(), 0u);
}

TEST(Bypass, ConnectToUnreachablePeerAbortsInsteadOfHanging)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    // A black-hole link: every burst (SYN included) is dropped, so
    // the active open must exhaust its retry budget and fail typed.
    sim::FaultInjector faults(1);
    sim::FaultSiteConfig fc;
    fc.dropProb = 1.0;
    faults.setDefaultConfig(fc);
    fabric.setFaultInjector(&faults);

    const NodeConfig cfg = nodeFor(Xport::bypass, 1);
    Node a(sim, fabric, cfg);
    Node b(sim, fabric, cfg);

    bool checked = false;
    sim.spawn([](Node &n, net::NodeId dst, bool &done) -> Coro<void> {
        sock::Socket s = co_await n.transport().connect(
            dst, 7777, sim::milliseconds(5));
        EXPECT_TRUE(s.valid());
        EXPECT_FALSE(s.usable());
        EXPECT_TRUE(s.aborted());
        done = true;
    }(a, b.id(), checked));
    sim.runFor(sim::milliseconds(100));
    EXPECT_TRUE(checked);
    EXPECT_GT(a.bypassStack()->abortedConnections(), 0u);
}

// --------------------------------------------------------------------
// Listener misuse: typed failure, not UB
// --------------------------------------------------------------------

TEST(Bypass, DefaultListenerIsInvalid)
{
    sock::Listener l;
    EXPECT_FALSE(l.valid());
}

TEST(BypassDeathTest, AcceptOnInvalidListenerPanics)
{
    EXPECT_DEATH(
        {
            Simulation sim;
            sim.spawn([]() -> Coro<void> {
                sock::Listener l;
                (void)co_await l.accept();
            }());
            sim.run();
        },
        "invalid Listener");
}

// --------------------------------------------------------------------
// Request tracing on the bypass path
// --------------------------------------------------------------------

TEST(Bypass, TraceBreakdownPartitionsEndToEndLatency)
{
    Simulation sim;
    auto &rt = sim.enableRequestTracing();

    NodeConfig server_cfg = nodeFor(Xport::bypass, 6);
    NodeConfig client_cfg = NodeConfig::client();
    client_cfg.transport = TransportKind::bypass;
    core::Testbed tb(sim, core::TestbedConfig{
                              .serverCount = 2,
                              .serverConfig = server_cfg,
                              .clientCount = 1,
                              .clientConfig = client_cfg,
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
    ASSERT_GT(fleet.completed(), 10u);

    std::size_t finished = 0;
    for (const auto &r : rt.requests()) {
        if (!r.done)
            continue;
        ++finished;
        EXPECT_EQ(r.breakdown.total(), r.end - r.start)
            << "request " << r.id << " (" << r.name
            << ") breakdown does not partition its latency";
    }
    EXPECT_GE(finished, fleet.completed());
}

// --------------------------------------------------------------------
// Three-way golden digests (fig03 / fig08 scenarios)
// --------------------------------------------------------------------

std::string
goldenPath(const std::string &name)
{
    return std::string(IOAT_GOLDEN_DIR) + "/" + name + ".digest";
}

void
checkGolden(const std::string &name, std::string (*render)())
{
    const std::string first = render();
    const std::string second = render();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "two in-process runs of " << name << " diverged";

    const std::string digest = sim::digestOf(first);
    if (std::getenv("GOLDEN_REGEN") != nullptr) {
        std::ofstream out(goldenPath(name));
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(name);
        out << digest << "\n";
        GTEST_SKIP() << "regenerated " << goldenPath(name) << " = "
                     << digest;
    }

    std::ifstream in(goldenPath(name));
    ASSERT_TRUE(in.good())
        << "missing golden digest " << goldenPath(name)
        << " (run with GOLDEN_REGEN=1 to create it)";
    std::string expected;
    in >> expected;
    EXPECT_EQ(expected, digest)
        << name << " output drifted from its golden digest.\n"
        << "If the change is intentional, regenerate with "
           "GOLDEN_REGEN=1.\nFull output:\n"
        << first;
}

/** fig03-style bandwidth rows for all three transports. */
std::string
renderFig03Transports()
{
    std::ostringstream out;
    sim::Table t({"transport", "ports", "Mbps", "rx CPU"});
    for (Xport x : {Xport::tcp, Xport::ioat, Xport::bypass}) {
        for (unsigned ports = 1; ports <= 2; ++ports) {
            Simulation sim;
            net::Switch fabric(sim, sim::nanoseconds(2000));
            const NodeConfig cfg = nodeFor(x, ports);
            Node a(sim, fabric, cfg);
            Node b(sim, fabric, cfg);

            const std::size_t chunk = 64 * 1024;
            sim.spawn(sinkLoop(b, 5001, chunk));
            for (unsigned i = 0; i < ports; ++i)
                sim.spawn(senderLoop(a, b.id(), 5001, chunk));

            sim.runFor(sim::milliseconds(50));
            b.cpu().resetUtilizationWindow();
            const std::uint64_t rx0 = b.transport().rxPayloadBytes();
            const Tick t0 = sim.now();
            sim.runFor(sim::milliseconds(150));
            const std::uint64_t rx1 = b.transport().rxPayloadBytes();

            t.addRow({xportName(x), std::to_string(ports),
                      sim::strprintf(
                          "%.0f", sim::throughputMbps(rx1 - rx0,
                                                      sim.now() - t0)),
                      sim::strprintf("%.1f%%",
                                     b.cpu().utilization() * 100.0)});
        }
    }
    t.print(out);
    return out.str();
}

/** fig08-style two-tier TPS for all three transports. */
std::string
renderFig08Transports()
{
    std::ostringstream out;
    sim::Table t({"transport", "TPS"});
    for (Xport x : {Xport::tcp, Xport::ioat, Xport::bypass}) {
        Simulation sim;
        NodeConfig server_cfg = nodeFor(x, 6);
        NodeConfig client_cfg = NodeConfig::client();
        if (x == Xport::bypass)
            client_cfg.transport = TransportKind::bypass;
        core::Testbed tb(sim, core::TestbedConfig{
                                  .serverCount = 2,
                                  .serverConfig = server_cfg,
                                  .clientCount = 1,
                                  .clientConfig = client_cfg,
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
        opts.threads = 4;
        dc::ClientFleet fleet({&tb.client(0)}, wl, opts);
        fleet.start();

        sim.runFor(sim::milliseconds(50));
        const std::uint64_t done0 = fleet.completed();
        const Tick t0 = sim.now();
        sim.runFor(sim::milliseconds(150));
        const std::uint64_t done1 = fleet.completed();

        t.addRow({xportName(x),
                  sim::strprintf("%.0f",
                                 static_cast<double>(done1 - done0) /
                                     sim::toSeconds(sim.now() - t0))});
    }
    t.print(out);
    return out.str();
}

TEST(BypassGolden, Fig03ThreeTransports)
{
    checkGolden("fig03_transports", renderFig03Transports);
}

TEST(BypassGolden, Fig08ThreeTransports)
{
    checkGolden("fig08_transports", renderFig08Transports);
}

} // namespace
