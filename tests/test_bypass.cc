/**
 * @file
 * Kernel-bypass transport suite (`ctest -L bypass`).
 *
 * Covers the xpt::BypassStack cost model behind the sock:: facade:
 * zero-copy streaming at near-zero receiver CPU, credit-based flow
 * control (stall + recovery), trace-breakdown exactness on the bypass
 * path and Listener misuse.  Loss recovery and the connect-deadline
 * rule run under both transports in test_fault.cc's `Transports/`
 * suites.  The benches' `--transport tcp|ioat|bypass` tables are
 * pinned by their goldens (`ctest -L golden`).
 */

#include <cstdint>

#include <gtest/gtest.h>

#include "core/testbed.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "net/switch.hh"
#include "simcore/simcore.hh"
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

/** A server node on the bypass transport. */
NodeConfig
bypassNode(unsigned ports)
{
    NodeConfig cfg = NodeConfig::server(IoatConfig::disabled(), ports);
    cfg.transport = TransportKind::bypass;
    return cfg;
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
    const NodeConfig cfg = bypassNode(1);
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
    NodeConfig cfg = bypassNode(1);
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

    NodeConfig server_cfg = bypassNode(6);
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

} // namespace
