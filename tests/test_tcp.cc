/**
 * @file
 * Integration tests for the transport stack over the full substrate
 * (CPU + cache + bus + DMA + NIC + switch).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/node.hh"
#include "core/async_memcpy.hh"
#include "core/testbed.hh"
#include "simcore/simcore.hh"
#include "sock/socket.hh"
#include "xpt/bypass.hh"

namespace {

using namespace ioat;
using core::IoatConfig;
using core::Node;
using core::NodeConfig;
using sim::Coro;
using sim::Simulation;
using sim::Tick;
using tcp::Connection;

struct Pair
{
    Simulation sim;
    net::Switch fabric{sim, sim::nanoseconds(2000)};
    Node a;
    Node b;

    explicit Pair(IoatConfig features = IoatConfig::disabled(),
                  unsigned ports = 1)
        : a(sim, fabric, NodeConfig::server(features, ports)),
          b(sim, fabric, NodeConfig::server(features, ports))
    {}
};

Coro<void>
echoServerOnce(Node &node, std::uint16_t port, std::size_t expect)
{
    auto &listener = node.stack().listen(port);
    Connection *c = co_await listener.accept();
    const std::size_t got = co_await c->recvAll(expect);
    EXPECT_EQ(got, expect);
    co_await c->send(got);
}

TEST(Tcp, ConnectSendRecvRoundTrip)
{
    Pair p;
    bool done = false;
    p.sim.spawn(echoServerOnce(p.b, 80, 4096));
    p.sim.spawn([](Pair &pp, bool &f) -> Coro<void> {
        Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
        EXPECT_TRUE(c->established());
        co_await c->send(4096);
        const std::size_t got = co_await c->recvAll(4096);
        EXPECT_EQ(got, 4096u);
        f = true;
    }(p, done));
    p.sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(p.a.stack().txPayloadBytes(), 4096u);
    EXPECT_EQ(p.a.stack().rxPayloadBytes(), 4096u);
}

TEST(Tcp, LargeTransferSegmentsCorrectly)
{
    Pair p;
    const std::size_t total = sim::mib(4);
    p.sim.spawn([](Pair &pp, std::size_t n) -> Coro<void> {
        auto &l = pp.b.stack().listen(80);
        Connection *c = co_await l.accept();
        const std::size_t got = co_await c->recvAll(n);
        EXPECT_EQ(got, n);
    }(p, total));
    p.sim.spawn([](Pair &pp, std::size_t n) -> Coro<void> {
        Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
        co_await c->send(n);
    }(p, total));
    p.sim.run();
    EXPECT_EQ(p.b.stack().rxPayloadBytes(), total);
    // 4 MB in 64 KB segments = 64 data segments.
    EXPECT_EQ(p.b.stack().rxSegments(), 64u);
}

TEST(Tcp, SingleStreamApproachesLineRate)
{
    Pair p;
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        auto &l = pp.b.stack().listen(80);
        Connection *c = co_await l.accept();
        for (;;) {
            const std::size_t got = co_await c->recv(sim::mib(1));
            if (got == 0)
                break;
        }
    }(p));
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
        for (;;)
            co_await c->send(sim::kib(64));
    }(p));
    p.sim.runFor(sim::milliseconds(200));
    const double mbps = sim::throughputMbps(
        p.b.stack().rxPayloadBytes(), p.sim.now());
    EXPECT_GT(mbps, 800.0);
    EXPECT_LT(mbps, 1000.0);
}

TEST(Tcp, CreditLimitsInflightData)
{
    // A receiver that never calls recv() stalls the sender at sockBuf.
    Pair p;
    std::size_t sent_segments = 0;
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        auto &l = pp.b.stack().listen(80);
        (void)co_await l.accept(); // accept but never recv
    }(p));
    p.sim.spawn([](Pair &pp, std::size_t &segs) -> Coro<void> {
        Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
        for (int i = 0; i < 100; ++i) {
            co_await c->send(sim::kib(64));
            ++segs;
        }
    }(p, sent_segments));
    p.sim.runFor(sim::seconds(1));
    // sockBuf (256 KB) / 64 KB = 4 segments fit.
    EXPECT_EQ(sent_segments, 256u / 64u);
}

TEST(Tcp, RecvReturnsZeroAfterPeerClose)
{
    Pair p;
    bool eof = false;
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        auto &l = pp.b.stack().listen(80);
        Connection *c = co_await l.accept();
        co_await c->recvAll(1024);
        c->close();
    }(p));
    p.sim.spawn([](Pair &pp, bool &f) -> Coro<void> {
        Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
        co_await c->send(1024);
        const std::size_t got = co_await c->recv(1024);
        f = (got == 0);
    }(p, eof));
    p.sim.run();
    EXPECT_TRUE(eof);
}

TEST(Tcp, MultipleConnectionsUseDistinctPorts)
{
    Pair p(IoatConfig::disabled(), 4);
    int accepted = 0;
    p.sim.spawn([](Pair &pp, int &n) -> Coro<void> {
        auto &l = pp.b.stack().listen(80);
        for (int i = 0; i < 4; ++i) {
            Connection *c = co_await l.accept();
            (void)c;
            ++n;
        }
    }(p, accepted));
    std::vector<std::uint64_t> flows;
    for (int i = 0; i < 4; ++i) {
        p.sim.spawn([](Pair &pp, std::vector<std::uint64_t> &fl)
                        -> Coro<void> {
            Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
            fl.push_back(c->flow());
        }(p, flows));
    }
    p.sim.run();
    EXPECT_EQ(accepted, 4);
    ASSERT_EQ(flows.size(), 4u);
    // Sequential flows map to distinct ports on a 4-port NIC.
    std::set<unsigned> ports;
    for (auto f : flows)
        ports.insert(p.a.nic().portFor(f));
    EXPECT_EQ(ports.size(), 4u);
}

TEST(Tcp, IoatUsesDmaEngineForLargeCopies)
{
    Pair p(IoatConfig::enabled());
    p.sim.spawn(echoServerOnce(p.b, 80, sim::kib(256)));
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
        co_await c->send(sim::kib(256));
        co_await c->recvAll(sim::kib(256));
    }(p));
    p.sim.run();
    EXPECT_GT(p.b.stack().dmaOffloadedCopies(), 0u);
    EXPECT_GT(p.b.dma()->bytesCopied(), 0u);
}

TEST(Tcp, SmallCopiesStayOnCpuDespiteIoat)
{
    Pair p(IoatConfig::enabled());
    p.sim.spawn(echoServerOnce(p.b, 80, 512));
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
        co_await c->send(512);
        co_await c->recvAll(512);
    }(p));
    p.sim.run();
    // Below dmaCopyBreak (4096): CPU copy path.
    EXPECT_EQ(p.b.stack().dmaOffloadedCopies(), 0u);
    EXPECT_GT(p.b.stack().cpuCopies(), 0u);
}

TEST(Tcp, NonIoatNeverTouchesDmaEngine)
{
    Pair p(IoatConfig::disabled());
    p.sim.spawn(echoServerOnce(p.b, 80, sim::mib(1)));
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
        co_await c->send(sim::mib(1));
        co_await c->recvAll(sim::mib(1));
    }(p));
    p.sim.run();
    EXPECT_EQ(p.b.stack().dmaOffloadedCopies(), 0u);
    EXPECT_EQ(p.b.dma()->completedTransfers(), 0u);
}

// The paper's headline effect: same transfer, lower receiver CPU with
// I/OAT.
TEST(Tcp, IoatReducesReceiverCpuUtilization)
{
    auto run = [](IoatConfig features) {
        Pair p(features);
        p.sim.spawn([](Pair &pp) -> Coro<void> {
            auto &l = pp.b.stack().listen(80);
            Connection *c = co_await l.accept();
            for (;;) {
                if (co_await c->recv(sim::mib(1)) == 0)
                    break;
            }
        }(p));
        p.sim.spawn([](Pair &pp) -> Coro<void> {
            Connection *c = co_await pp.a.stack().connect(pp.b.id(), 80);
            for (;;)
                co_await c->send(sim::kib(64));
        }(p));
        p.sim.runFor(sim::milliseconds(100));
        return p.b.cpu().utilization();
    };
    const double non_ioat = run(IoatConfig::disabled());
    const double ioat = run(IoatConfig::enabled());
    EXPECT_LT(ioat, non_ioat);
}

TEST(Sock, MessageRoundTripCarriesHeaderFields)
{
    Pair p;
    bool ok = false;
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        sock::Listener l(pp.b.transport(), 9000);
        sock::Socket c = co_await l.accept();
        auto msg = co_await c.recvMessageAndPayload();
        EXPECT_TRUE(msg.has_value());
        if (!msg)
            co_return;
        EXPECT_EQ(msg->tag, 7u);
        EXPECT_EQ(msg->a, 42u);
        EXPECT_EQ(msg->payloadBytes, sim::kib(16));
        // reply
        sock::Message reply;
        reply.tag = 8;
        reply.payloadBytes = 1000;
        co_await c.sendMessage(reply);
    }(p));
    p.sim.spawn([](Pair &pp, bool &f) -> Coro<void> {
        sock::Socket c =
            co_await pp.a.transport().connect(pp.b.id(), 9000);
        sock::Message m;
        m.tag = 7;
        m.a = 42;
        m.payloadBytes = sim::kib(16);
        co_await c.sendMessage(m);
        auto reply = co_await c.recvMessageAndPayload();
        EXPECT_TRUE(reply.has_value());
        if (!reply)
            co_return;
        EXPECT_EQ(reply->tag, 8u);
        EXPECT_EQ(reply->payloadBytes, 1000u);
        f = true;
    }(p, ok));
    p.sim.run();
    EXPECT_TRUE(ok);
}

TEST(Sock, PipelinedMessagesKeepOrder)
{
    Pair p;
    std::vector<std::uint64_t> tags;
    p.sim.spawn([](Pair &pp, std::vector<std::uint64_t> &out)
                    -> Coro<void> {
        sock::Listener l(pp.b.transport(), 9000);
        sock::Socket c = co_await l.accept();
        for (int i = 0; i < 10; ++i) {
            auto msg = co_await c.recvMessageAndPayload();
            EXPECT_TRUE(msg.has_value());
            if (!msg)
                co_return;
            out.push_back(msg->tag);
        }
    }(p, tags));
    p.sim.spawn([](Pair &pp) -> Coro<void> {
        sock::Socket c =
            co_await pp.a.transport().connect(pp.b.id(), 9000);
        for (std::uint64_t i = 0; i < 10; ++i) {
            sock::Message m;
            m.tag = 100 + i;
            m.payloadBytes = 2048 * (i % 3);
            co_await c.sendMessage(m);
        }
    }(p));
    p.sim.run();
    ASSERT_EQ(tags.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(tags[i], 100 + i);
}

TEST(Core, FeatureFlagsPropagateToStackAndNic)
{
    Simulation sim;
    net::Switch fabric(sim);
    Node n(sim, fabric, NodeConfig::server(IoatConfig::enabled()));
    EXPECT_TRUE(n.stack().config().dmaCopyOffload);
    EXPECT_TRUE(n.stack().config().splitHeader);
    EXPECT_TRUE(n.nic().config().splitHeader);
    EXPECT_EQ(n.nic().config().rxQueuesPerPort, 1u); // MRQ off

    Node m(sim, fabric, NodeConfig::server(IoatConfig::disabled()));
    EXPECT_FALSE(m.stack().config().dmaCopyOffload);
    EXPECT_FALSE(m.stack().config().splitHeader);
}

TEST(Core, ClientNodesHaveNoIoatHardware)
{
    Simulation sim;
    net::Switch fabric(sim);
    Node c(sim, fabric, NodeConfig::client());
    EXPECT_EQ(c.dma(), nullptr);
    EXPECT_EQ(c.nic().config().ports, 1u);
    EXPECT_EQ(c.cpu().coreCount(), 2u);
}

TEST(Core, TestbedBuildsPaperShape)
{
    Simulation sim;
    core::TestbedConfig cfg;
    cfg.serverCount = 2;
    cfg.clientCount = 8;
    core::Testbed tb(sim, cfg);
    EXPECT_EQ(tb.serverCount(), 2u);
    EXPECT_EQ(tb.clientCount(), 8u);
    EXPECT_EQ(tb.fabric().attachedCount(), 10u);
    EXPECT_NE(tb.server(0).id(), tb.server(1).id());
}

TEST(AsyncMemcpy, CopyCompletesAndChargesCpu)
{
    Simulation sim;
    net::Switch fabric(sim);
    Node n(sim, fabric, NodeConfig::server(IoatConfig::enabled()));
    core::AsyncMemcpy amc(n.host());
    bool done = false;
    sim.spawn([](core::AsyncMemcpy &a, bool &f) -> Coro<void> {
        co_await a.copy(sim::mib(1));
        f = true;
    }(amc, done));
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_GT(n.cpu().totalBusyTicks(), ioat::sim::Tick{0});
    EXPECT_EQ(n.dma()->bytesCopied(), sim::mib(1));
}

TEST(AsyncMemcpy, SubmitOverlapsWithComputation)
{
    Simulation sim;
    net::Switch fabric(sim);
    Node n(sim, fabric, NodeConfig::server(IoatConfig::enabled()));
    core::AsyncMemcpy amc(n.host());
    Tick serial{}, overlapped{};
    sim.spawn([](Simulation &s, core::AsyncMemcpy &a, Node &node,
                 Tick &ser, Tick &ovl) -> Coro<void> {
        const std::size_t sz = sim::mib(4);
        const Tick work = sim::milliseconds(2);

        Tick t0 = s.now();
        co_await a.copy(sz);
        co_await node.cpu().compute(work);
        ser = s.now() - t0;

        t0 = s.now();
        auto op = co_await a.submit(sz);
        co_await node.cpu().compute(work); // overlaps with the engine
        co_await a.wait(op);
        ovl = s.now() - t0;
    }(sim, amc, n, serial, overlapped));
    sim.run();
    EXPECT_LT(overlapped, serial);
    // 4 MB at 2 GB/s is ~2 ms: near-full overlap with the 2 ms work.
    EXPECT_LT(overlapped, serial * 3 / 4);
}

// --------------------------------------------------------------------
// RX hand-off: one pass per interrupt, in interrupt order
// --------------------------------------------------------------------

class RxBacklog : public ::testing::TestWithParam<core::TransportKind>
{};

TEST_P(RxBacklog, EachInterruptIsItsOwnPassInOrder)
{
    // A one-core receiver whose every softirq or poll pass costs
    // 200 us, fed one 8 KB burst (one interrupt) about every 70 us:
    // interrupts queue up behind the running pass.  The receiving
    // application only accepts, so the passes are the core's only
    // work.  Reliable mode makes a reordered pass visible as a
    // go-back-N out-of-order drop.
    constexpr std::size_t kChunks = 8;
    NodeConfig cfg = NodeConfig::server(IoatConfig::disabled(), 1);
    cfg.transport = GetParam();
    cfg.tcp.reliable = true;
    NodeConfig rcfg = cfg;
    rcfg.cpu.cores = 1;
    rcfg.tcp.rxIrqEntry = sim::microseconds(200);
    rcfg.bypass.rxPollEntry = sim::microseconds(200);

    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    Node sender(sim, fabric, cfg);
    Node receiver(sim, fabric, rcfg);
    sim::TraceWriter tw;
    receiver.cpu().setTracer(&tw);

    receiver.spawn([](Node &n) -> Coro<void> {
        sock::Listener l(n.transport(), 80);
        (void)co_await l.accept(); // accept but never recv
    }(receiver));
    sender.spawn([](Node &n, net::NodeId dst,
                    std::size_t chunks) -> Coro<void> {
        sock::Socket c = co_await n.transport().connect(dst, 80);
        for (std::size_t i = 0; i < chunks; ++i)
            co_await c.sendAll(sim::kib(8));
    }(sender, receiver.id(), kChunks));
    // Batches waiting behind the running pass, sampled every 10 us.
    std::uint64_t most_waiting = 0;
    sim.spawn([](Simulation &s, Node &n,
                 std::uint64_t &most) -> Coro<void> {
        for (int i = 0; i < 500; ++i) {
            co_await s.delay(sim::microseconds(10));
            const std::uint64_t started =
                n.cpu().completedItems() + n.cpu().busyCores();
            most = std::max(most, n.nic().interrupts() - started);
        }
    }(sim, receiver, most_waiting));
    sim.runFor(sim::milliseconds(20));

    EXPECT_GE(most_waiting, 3u);
    // SYN plus one interrupt per data burst.
    const std::uint64_t irqs = receiver.nic().interrupts();
    EXPECT_EQ(irqs, kChunks + 1);
    std::ostringstream os;
    tw.write(os);
    const std::string trace = os.str();
    std::uint64_t softirq_spans = 0;
    for (auto at = trace.find("\"name\":\"softirq\"");
         at != std::string::npos;
         at = trace.find("\"name\":\"softirq\"", at + 1))
        ++softirq_spans;
    EXPECT_EQ(softirq_spans, irqs);
    if (xpt::BypassStack *byp = receiver.bypassStack()) {
        EXPECT_EQ(byp->pollPasses(), irqs);
        EXPECT_EQ(byp->rxBursts(), kChunks);
        EXPECT_EQ(byp->rxOutOfOrderDrops(), 0u);
    } else {
        EXPECT_EQ(receiver.stack().rxSegments(), kChunks);
        EXPECT_EQ(receiver.stack().rxOutOfOrderDrops(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Transports, RxBacklog,
                         ::testing::Values(core::TransportKind::tcp,
                                           core::TransportKind::bypass),
                         [](const auto &p) {
                             return p.param == core::TransportKind::tcp
                                        ? std::string("tcp")
                                        : std::string("bypass");
                         });

TEST(AsyncMemcpy, BreakevenReflectsPinningCaveat)
{
    Simulation sim;
    net::Switch fabric(sim);
    Node n(sim, fabric, NodeConfig::server(IoatConfig::enabled()));
    core::AsyncMemcpy amc(n.host());
    // Cold buffers: offload pays off at a few KB.
    const std::size_t be_cold = amc.breakevenBytes(0.0);
    EXPECT_GT(be_cold, 0u);
    EXPECT_LE(be_cold, sim::kib(64));
    // Hot buffers: breakeven is much later (or never).
    const std::size_t be_hot = amc.breakevenBytes(1.0);
    EXPECT_TRUE(be_hot == 0 || be_hot > be_cold);
    // Tiny copies never profit (the §7 caveat).
    EXPECT_FALSE(amc.offloadProfitable(512, 0.0));
}

} // namespace
