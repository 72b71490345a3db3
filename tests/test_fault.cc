/**
 * @file
 * Fault-injection framework and loss-tolerant transport tests:
 * deterministic replay, per-site drop/dup/delay semantics, RTO
 * backoff and retry-exhaustion aborts, NIC ring overflow recovery,
 * PVFS crash-window recovery, data-center failover and degradation,
 * and exact zero-loss equivalence with the fault-free seed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/app_memory.hh"
#include "core/node.hh"
#include "core/testbed.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "dma/dma_engine.hh"
#include "pvfs/deployment.hh"
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
using sim::FaultInjector;
using sim::FaultSiteConfig;
using sim::Simulation;
using sim::Tick;

// --------------------------------------------------------------------
// FaultInjector / FaultSite
// --------------------------------------------------------------------

std::vector<int>
decisionTrace(std::uint64_t seed, const std::string &site,
              const FaultSiteConfig &cfg, int n,
              const char *other_site = nullptr)
{
    FaultInjector inj(seed);
    if (other_site)
        inj.site(other_site); // must not perturb `site`'s stream
    auto &s = inj.site(site, cfg);
    std::vector<int> out;
    for (int i = 0; i < n; ++i) {
        const sim::FaultDecision d = s.decide();
        out.push_back(d.drop ? 1 : d.duplicate ? 2 : d.extraDelay > sim::Tick{0} ? 3 : 0);
    }
    return out;
}

TEST(FaultSite, DeterministicReplay)
{
    const FaultSiteConfig mix{0.2, 0.2, 0.2, sim::microseconds(1)};
    const auto a = decisionTrace(7, "link.0", mix, 200);
    EXPECT_EQ(a, decisionTrace(7, "link.0", mix, 200));
    // The stream is keyed by (seed, site name) only.
    EXPECT_NE(a, decisionTrace(8, "link.0", mix, 200));
    EXPECT_NE(a, decisionTrace(7, "link.1", mix, 200));
    // Creating an unrelated site first must not shift the stream.
    EXPECT_EQ(a, decisionTrace(7, "link.0", mix, 200, "nic.9.rx"));
}

TEST(FaultSite, CertainOutcomesAndCounters)
{
    FaultInjector inj(3);
    auto &drops = inj.site("d", {1.0, 0.0, 0.0, sim::Tick{0}});
    auto &dups = inj.site("u", {0.0, 1.0, 0.0, sim::Tick{0}});
    auto &delays =
        inj.site("l", {0.0, 0.0, 1.0, sim::microseconds(5)});
    auto &clean = inj.site("c");
    for (int i = 0; i < 10; ++i) {
        EXPECT_TRUE(drops.decide().drop);
        EXPECT_TRUE(dups.decide().duplicate);
        EXPECT_EQ(delays.decide().extraDelay, sim::microseconds(5));
        const sim::FaultDecision d = clean.decide();
        EXPECT_FALSE(d.drop || d.duplicate || d.extraDelay > sim::Tick{0});
    }
    EXPECT_EQ(drops.drops(), 10u);
    EXPECT_EQ(dups.dups(), 10u);
    EXPECT_EQ(delays.delays(), 10u);
    EXPECT_EQ(clean.decisions(), 10u);
    EXPECT_EQ(inj.totalDrops(), 10u);
    EXPECT_EQ(inj.totalDups(), 10u);
    EXPECT_EQ(inj.totalDelays(), 10u);
}

TEST(FaultInjector, OutageWindows)
{
    FaultInjector inj;
    inj.addOutage(4, sim::milliseconds(10), sim::milliseconds(20));
    inj.addOutage(4, sim::milliseconds(50)); // permanent crash
    EXPECT_FALSE(inj.nodeDown(4, sim::milliseconds(9)));
    EXPECT_TRUE(inj.nodeDown(4, sim::milliseconds(10)));
    EXPECT_TRUE(inj.nodeDown(4, sim::milliseconds(19)));
    EXPECT_FALSE(inj.nodeDown(4, sim::milliseconds(20)));
    EXPECT_TRUE(inj.nodeDown(4, sim::milliseconds(500)));
    EXPECT_FALSE(inj.nodeDown(5, sim::milliseconds(15)));
}

// --------------------------------------------------------------------
// Switch-level fault semantics
// --------------------------------------------------------------------

TEST(SwitchFaults, DropDupAndDelaySemantics)
{
    Simulation sim;
    net::Switch sw(sim, sim::nanoseconds(100));
    const net::NodeId src = sw.attach([](const net::Burst &) {});
    std::vector<Tick> arrivals;
    const net::NodeId dst = sw.attach(
        [&](const net::Burst &) { arrivals.push_back(sim.now()); });

    FaultInjector inj(1);
    sw.setFaultInjector(&inj);
    auto &site = inj.site("link." + std::to_string(src) + "." +
                          std::to_string(dst));

    net::Burst b;
    b.src = src;
    b.dst = dst;
    b.wireBytes = 100;

    site.configure({1.0, 0.0, 0.0, sim::Tick{0}});
    sw.forward(b);
    sim.runFor(sim::microseconds(1));
    EXPECT_TRUE(arrivals.empty());
    EXPECT_EQ(site.drops(), 1u);

    site.configure({0.0, 1.0, 0.0, sim::Tick{0}});
    const Tick t_dup = sim.now();
    sw.forward(b);
    sim.runFor(sim::microseconds(1));
    ASSERT_EQ(arrivals.size(), 2u); // original + duplicate
    EXPECT_EQ(arrivals[0], t_dup + sim::nanoseconds(100));
    EXPECT_EQ(arrivals[1], t_dup + sim::nanoseconds(100));

    arrivals.clear();
    site.configure({0.0, 0.0, 1.0, sim::nanoseconds(500)});
    const Tick t_delay = sim.now();
    sw.forward(b);
    sim.runFor(sim::microseconds(1));
    ASSERT_EQ(arrivals.size(), 1u);
    EXPECT_EQ(arrivals[0], t_delay + sim::nanoseconds(100) +
                               sim::nanoseconds(500));
}

TEST(SwitchFaults, DetachedDestinationBecomesDeadLetterNotCrash)
{
    Simulation sim;
    net::Switch sw(sim, sim::nanoseconds(100));
    const net::NodeId src = sw.attach([](const net::Burst &) {});
    bool invoked = false;
    const net::NodeId dst =
        sw.attach([&](const net::Burst &) { invoked = true; });

    net::Burst b;
    b.src = src;
    b.dst = dst;
    b.wireBytes = 100;
    // The burst is in flight when the destination detaches: the old
    // code invoked the stale handler; now it must become a dead
    // letter.
    sw.forward(b);
    sw.detach(dst);
    sim.runFor(sim::microseconds(1));
    EXPECT_FALSE(invoked);
    EXPECT_EQ(sw.deadLetters(), 1u);
}

TEST(SwitchFaults, CrashedDestinationDropsDelivery)
{
    Simulation sim;
    net::Switch sw(sim, sim::nanoseconds(100));
    const net::NodeId src = sw.attach([](const net::Burst &) {});
    bool invoked = false;
    const net::NodeId dst =
        sw.attach([&](const net::Burst &) { invoked = true; });

    FaultInjector inj(1);
    sw.setFaultInjector(&inj);
    inj.addOutage(dst, sim::Tick{0});

    net::Burst b;
    b.src = src;
    b.dst = dst;
    b.wireBytes = 100;
    sw.forward(b);
    sim.runFor(sim::microseconds(1));
    EXPECT_FALSE(invoked);
    EXPECT_EQ(inj.outageDrops(), 1u);
}

// --------------------------------------------------------------------
// DMA completion faults
// --------------------------------------------------------------------

TEST(DmaFaults, CompletionErrorsAreBoundedAndCounted)
{
    Simulation sim;
    dma::DmaEngine eng(sim, dma::DmaConfig{});
    FaultInjector inj(1);
    eng.setFaultInjector(&inj, "dma.0");
    inj.site("dma.0", {1.0, 0.0, 0.0, sim::Tick{0}}); // every completion errors
    sim.spawn(eng.transfer(4096));
    sim.runFor(sim::milliseconds(1));
    // p=1 exhausts the retry bound but the transfer still lands.
    EXPECT_EQ(eng.completedTransfers(), 1u);
    EXPECT_EQ(eng.dmaErrors(), 8u);
}

TEST(DmaFaults, StallDelaysCompletion)
{
    Simulation sim;
    dma::DmaEngine eng(sim, dma::DmaConfig{});
    FaultInjector inj(1);
    eng.setFaultInjector(&inj, "dma.0");
    inj.site("dma.0", {0.0, 0.0, 1.0, sim::microseconds(50)});
    Tick done{};
    eng.transferAsync(4096, [&] { done = sim.now(); });
    sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(eng.dmaStalls(), 1u);
    EXPECT_GE(done, eng.engineTime(4096) + sim::microseconds(50));
}

// --------------------------------------------------------------------
// Loss tolerance: each recovery path under both transports, then the
// kernel-TCP fault sites
// --------------------------------------------------------------------

/** A reliable kernel-TCP node with tight retry budgets. */
NodeConfig
reliableNode(unsigned ports = 1)
{
    NodeConfig cfg = NodeConfig::server(IoatConfig::disabled(), ports);
    cfg.tcp.reliable = true;
    cfg.tcp.rtoInitial = sim::milliseconds(1);
    cfg.tcp.maxRetransmits = 3;
    cfg.tcp.synRetryTimeout = sim::milliseconds(1);
    cfg.tcp.maxSynRetries = 2;
    return cfg;
}

/** reliableNode()'s retry budgets on the @p kind transport. */
NodeConfig
reliableNode(TransportKind kind)
{
    NodeConfig cfg = reliableNode();
    cfg.transport = kind;
    cfg.bypass.rtoInitial = cfg.tcp.rtoInitial;
    cfg.bypass.maxRetransmits = cfg.tcp.maxRetransmits;
    cfg.bypass.synRetryTimeout = cfg.tcp.synRetryTimeout;
    cfg.bypass.maxSynRetries = cfg.tcp.maxSynRetries;
    return cfg;
}

/** The protocol stack behind @p node's transport. */
tcp::Protocol &
protocolOf(Node &node)
{
    if (xpt::BypassStack *b = node.bypassStack())
        return *b;
    return node.stack();
}

Coro<void>
sinkLoop(Node &node, std::uint16_t port, std::size_t chunk)
{
    sock::Listener listener(node.transport(), port);
    for (;;) {
        sock::Socket c = co_await listener.accept();
        node.simulation().spawn(
            [](sock::Socket conn, std::size_t ck) -> Coro<void> {
                for (;;) {
                    const std::size_t got = co_await conn.recvAll(ck);
                    if (got == 0)
                        co_return;
                }
            }(c, chunk));
    }
}

Coro<void>
sendChunks(Node &node, net::NodeId dst, std::uint16_t port,
           std::size_t chunk, unsigned count)
{
    sock::Socket c = co_await node.transport().connect(dst, port);
    for (unsigned i = 0; i < count; ++i)
        co_await c.sendAll(chunk);
}

/**
 * Loss recovery under each transport.  Both run one protocol
 * (tcp/protocol.hh), so every recovery path here must hold for
 * reliable kernel TCP and for bypass alike.
 */
class Recovery : public ::testing::TestWithParam<TransportKind>
{};

TEST_P(Recovery, RtoBackoffDoublesAndExhaustionAborts)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(11);
    fabric.setFaultInjector(&faults);
    Node a(sim, fabric, reliableNode(GetParam()));
    Node b(sim, fabric, reliableNode(GetParam()));

    sim.spawn(sinkLoop(b, 5001, 1024));
    sock::Socket conn;
    sim.spawn([](Node &n, net::NodeId dst,
                 sock::Socket &out) -> Coro<void> {
        out = co_await n.transport().connect(dst, 5001);
    }(a, b.id(), conn));
    sim.runFor(sim::milliseconds(5));
    ASSERT_TRUE(conn.valid());
    ASSERT_FALSE(conn.aborted());

    // Cut both directions, then send once: every (re)transmission is
    // lost, so the RTO path must fire at 1, 1+2, 1+2+4 ms and abort
    // after the configured three retries.
    faults.site("link." + std::to_string(b.id()) + "." +
                    std::to_string(a.id()),
                {1.0, 0.0, 0.0, sim::Tick{0}});
    faults.site("link." + std::to_string(a.id()) + "." +
                    std::to_string(b.id()),
                {1.0, 0.0, 0.0, sim::Tick{0}});
    sim.spawn([](sock::Socket c) -> Coro<void> {
        co_await c.sendAll(1024);
    }(conn));

    sock::Transport &xa = a.transport();
    sim.runFor(sim::microseconds(1500)); // ~1.0 ms: first RTO
    EXPECT_EQ(xa.retransmits(), 1u);
    sim.runFor(sim::milliseconds(2)); // ~3.0 ms: doubled RTO
    EXPECT_EQ(xa.retransmits(), 2u);
    sim.runFor(sim::milliseconds(4)); // ~7.0 ms: doubled again
    EXPECT_EQ(xa.retransmits(), 3u);
    EXPECT_EQ(xa.abortedConnections(), 0u);
    sim.runFor(sim::milliseconds(9)); // ~15 ms: retries exhausted
    EXPECT_EQ(xa.retransmits(), 3u);
    EXPECT_EQ(xa.abortedConnections(), 1u);
    EXPECT_TRUE(conn.aborted());
}

TEST_P(Recovery, UnreachablePeerAbortsConnectInsteadOfHanging)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    // A black-hole link: every burst (SYN included) is dropped, so
    // the active open must exhaust its retry budget and fail typed.
    FaultInjector faults(11);
    faults.setDefaultConfig({1.0, 0.0, 0.0, sim::Tick{0}}); // all links dead
    fabric.setFaultInjector(&faults);
    Node a(sim, fabric, reliableNode(GetParam()));
    Node b(sim, fabric, reliableNode(GetParam()));

    bool done = false;
    sock::Socket s;
    sim.spawn([](Node &n, net::NodeId dst, bool &d,
                 sock::Socket &out) -> Coro<void> {
        out = co_await n.transport().connect(dst, 5001);
        d = true;
    }(a, b.id(), done, s));
    sim.runFor(sim::milliseconds(50));
    EXPECT_TRUE(done);
    EXPECT_TRUE(s.valid());
    EXPECT_FALSE(s.usable());
    EXPECT_TRUE(s.aborted());
    EXPECT_GE(protocolOf(a).synRetries(), 1u);
    EXPECT_EQ(a.transport().abortedConnections(), 1u);
}

TEST_P(Recovery, LossyLinkRecoveredByRetransmission)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(19);
    fabric.setFaultInjector(&faults);
    Node a(sim, fabric, reliableNode(GetParam()));
    Node b(sim, fabric, reliableNode(GetParam()));
    // 5% loss + occasional dup/delay on the data direction.
    faults.site("link." + std::to_string(a.id()) + "." +
                    std::to_string(b.id()),
                {0.05, 0.01, 0.01, sim::microseconds(30)});

    const std::size_t chunk = 64 * 1024;
    const unsigned count = 64;
    sim.spawn(sinkLoop(b, 5001, chunk));
    sim.spawn(sendChunks(a, b.id(), 5001, chunk, count));
    sim.runFor(sim::seconds(2));

    // Every payload byte arrives exactly once despite drops and dups:
    // the injector really dropped traffic, the stack really resent
    // it, and no connection gave up.
    EXPECT_EQ(b.transport().rxPayloadBytes(), chunk * count);
    EXPECT_GT(a.transport().retransmits(), 0u);
    EXPECT_GT(faults.totalDrops(), 0u);
    EXPECT_EQ(b.transport().abortedConnections(), 0u);
}

TEST(TcpFaults, NicRxFaultDropsRecovered)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(23);
    Node a(sim, fabric, reliableNode());
    Node b(sim, fabric, reliableNode());
    b.nic().setFaultInjector(&faults);
    faults.site("nic." + std::to_string(b.id()) + ".rx",
                {0.2, 0.0, 0.0, sim::Tick{0}});

    const std::size_t chunk = 64 * 1024;
    const unsigned count = 64;
    sim.spawn(sinkLoop(b, 5001, chunk));
    sim.spawn(sendChunks(a, b.id(), 5001, chunk, count));
    sim.runFor(sim::seconds(2));

    EXPECT_EQ(b.stack().rxPayloadBytes(), chunk * count);
    EXPECT_GT(b.nic().rxFaultDrops(), 0u);
    EXPECT_GT(a.stack().retransmits(), 0u);
}

TEST(TcpFaults, RxRingOverflowDropsRecovered)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    // Generous retry budgets: with a 2 ms coalesce window every flow
    // loses bursts repeatedly, and the tight budgets used elsewhere
    // would abort instead of riding the loss out.
    NodeConfig aCfg = reliableNode();
    aCfg.tcp.rtoInitial = sim::milliseconds(2);
    aCfg.tcp.maxRetransmits = 12;
    aCfg.tcp.synRetryTimeout = sim::milliseconds(5);
    aCfg.tcp.maxSynRetries = 10;
    NodeConfig bCfg = aCfg;
    bCfg.nic.rxRingSlots = 1;
    // A long coalesce window with a one-slot ring: bursts landing
    // while an interrupt is pending overflow the ring.
    bCfg.nic.coalesceDelay = sim::milliseconds(2);
    Node a(sim, fabric, aCfg);
    Node b(sim, fabric, bCfg);

    const std::size_t chunk = 64 * 1024;
    const unsigned count = 8;
    sim.spawn(sinkLoop(b, 5001, chunk));
    sim.spawn(sendChunks(a, b.id(), 5001, chunk, count));
    sim.spawn([](Simulation &s, Node &n, net::NodeId dst,
                 std::size_t ck, unsigned cnt) -> Coro<void> {
        co_await s.delay(sim::milliseconds(7));
        co_await sendChunks(n, dst, 5001, ck, cnt);
    }(sim, a, b.id(), chunk, count));
    sim.runFor(sim::seconds(3));

    EXPECT_EQ(b.stack().rxPayloadBytes(), 2u * chunk * count);
    EXPECT_GT(b.nic().rxOverflowDrops(), 0u);
    EXPECT_GT(a.stack().retransmits(), 0u);
}

// --------------------------------------------------------------------
// Zero-loss equivalence with the fault-free seed
// --------------------------------------------------------------------

std::uint64_t
equivStreamBytes(bool ioat, bool attach_zero_prob_injector)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(99); // zero probabilities everywhere
    if (attach_zero_prob_injector)
        fabric.setFaultInjector(&faults);
    const IoatConfig features =
        ioat ? IoatConfig::enabled() : IoatConfig::disabled();
    Node a(sim, fabric, NodeConfig::server(features, 1));
    Node b(sim, fabric, NodeConfig::server(features, 1));
    core::AppMemory mem(b.host(), "sink");

    constexpr std::size_t kChunk = 64 * 1024;
    sim.spawn([](Node &node, core::AppMemory &m) -> Coro<void> {
        auto &listener = node.stack().listen(5001);
        tcp::Connection *c = co_await listener.accept();
        m.reserve(kChunk);
        for (;;) {
            const std::size_t got = co_await c->recvAll(kChunk);
            if (got == 0)
                co_return;
            m.noteBuffer(got);
        }
    }(b, mem));
    sim.spawn([](Node &node, net::NodeId dst) -> Coro<void> {
        tcp::Connection *c = co_await node.stack().connect(dst, 5001);
        for (;;)
            co_await c->send(kChunk);
    }(a, b.id()));

    sim.runFor(sim::milliseconds(500));
    return b.stack().rxPayloadBytes();
}

std::uint64_t
equivPvfsBytes(bool ioat)
{
    Simulation sim;
    core::TestbedConfig tbCfg;
    tbCfg.serverCount = 2;
    tbCfg.serverConfig = NodeConfig::server(
        ioat ? IoatConfig::enabled() : IoatConfig::disabled(), 6);
    tbCfg.serverConfig.tcp.sockBuf = 64 * 1024;
    core::Testbed tb(sim, tbCfg);

    pvfs::Deployment fsd(pvfs::PvfsConfig{.iodCount = 3}, tb.server(0));
    const std::size_t region = 2ull * 1024 * 1024 * fsd.iodCount();
    const pvfs::FileHandle h = fsd.presizeFile("f0", region);

    const auto client = fsd.makeClient(tb.server(1));
    sim.spawn([](pvfs::PvfsClient &cl, pvfs::FileHandle fh,
                 std::size_t bytes) -> Coro<void> {
        co_await cl.connect();
        for (;;)
            co_await cl.read(fh, 0, bytes);
    }(*client, h, region));

    sim.runFor(sim::milliseconds(400));
    return client->bytesRead();
}

// Golden byte counts captured from the seed tree (fault framework not
// yet present).  With every fault gate at its default-off setting the
// simulation must reproduce them exactly.
constexpr std::uint64_t kGoldenStreamNonIoat = 60030976ull;
constexpr std::uint64_t kGoldenStreamIoat = 60030976ull;
constexpr std::uint64_t kGoldenPvfsNonIoat = 60948480ull;
constexpr std::uint64_t kGoldenPvfsIoat = 60882944ull;

TEST(ZeroLossEquivalence, StreamMatchesSeedByteForByte)
{
    EXPECT_EQ(equivStreamBytes(false, false), kGoldenStreamNonIoat);
    EXPECT_EQ(equivStreamBytes(true, false), kGoldenStreamIoat);
}

TEST(ZeroLossEquivalence, ZeroProbabilityInjectorIsInvisible)
{
    EXPECT_EQ(equivStreamBytes(false, true), kGoldenStreamNonIoat);
    EXPECT_EQ(equivStreamBytes(true, true), kGoldenStreamIoat);
}

TEST(ZeroLossEquivalence, PvfsMatchesSeedByteForByte)
{
    EXPECT_EQ(equivPvfsBytes(false), kGoldenPvfsNonIoat);
    EXPECT_EQ(equivPvfsBytes(true), kGoldenPvfsIoat);
}

// --------------------------------------------------------------------
// PVFS crash-window recovery
// --------------------------------------------------------------------

TEST(PvfsFaults, ServerCrashYieldsTypedErrorsThenRecovers)
{
    Simulation sim;
    core::TestbedConfig tbCfg;
    tbCfg.serverCount = 2;
    tbCfg.serverConfig = NodeConfig::server(IoatConfig::disabled(), 6);
    tbCfg.serverConfig.tcp.reliable = true;
    tbCfg.serverConfig.tcp.rtoInitial = sim::milliseconds(1);
    tbCfg.serverConfig.tcp.maxRetransmits = 3;
    tbCfg.serverConfig.tcp.synRetryTimeout = sim::milliseconds(1);
    tbCfg.serverConfig.tcp.maxSynRetries = 2;
    core::Testbed tb(sim, tbCfg);

    FaultInjector faults(31);
    tb.fabric().setFaultInjector(&faults);

    pvfs::PvfsConfig cfg;
    cfg.iodCount = 2;
    cfg.rpcTimeout = sim::milliseconds(2);
    cfg.rpcMaxRetries = 2;
    cfg.rpcRetryBackoff = sim::milliseconds(1);
    cfg.connectTimeout = sim::milliseconds(5);

    pvfs::Deployment fsd(cfg, tb.server(0));
    const std::size_t region = 4ull * 64 * 1024; // two chunks per iod
    const pvfs::FileHandle h = fsd.presizeFile("f0", region);

    // The whole PVFS deployment (manager + iods) lives on server 0,
    // which drops off the network over [20 ms, 120 ms).
    faults.addOutage(tb.server(0).id(), sim::milliseconds(20),
                     sim::milliseconds(120));

    struct Probe
    {
        pvfs::PvfsErrc connectErr{};
        pvfs::PvfsErrc beforeErr{};
        pvfs::PvfsErrc duringErr{};
        pvfs::PvfsErrc afterErr{};
        std::size_t afterBytes = 0;
        bool done = false;
    } probe;

    const auto client = fsd.makeClient(tb.server(1));
    sim.spawn([](Simulation &s, pvfs::PvfsClient &cl,
                 pvfs::FileHandle fh, std::size_t bytes,
                 Probe &p) -> Coro<void> {
        p.connectErr = co_await cl.connect();
        const auto r1 = co_await cl.read(fh, 0, bytes);
        p.beforeErr = r1.err;
        co_await s.delay(sim::milliseconds(30)); // into the outage
        const auto r2 = co_await cl.read(fh, 0, bytes);
        p.duringErr = r2.err;
        co_await s.delay(sim::milliseconds(100)); // past the outage
        const auto r3 = co_await cl.read(fh, 0, bytes);
        p.afterErr = r3.err;
        p.afterBytes = r3.value;
        p.done = true;
    }(sim, *client, h, region, probe));

    sim.runFor(sim::milliseconds(300));

    EXPECT_TRUE(probe.done);
    EXPECT_EQ(probe.connectErr, pvfs::PvfsErrc::Ok);
    EXPECT_EQ(probe.beforeErr, pvfs::PvfsErrc::Ok);
    // Mid-outage the op surfaces a typed error instead of asserting.
    EXPECT_NE(probe.duringErr, pvfs::PvfsErrc::Ok);
    // After the restart the client reconnects and reads succeed.
    EXPECT_EQ(probe.afterErr, pvfs::PvfsErrc::Ok);
    EXPECT_EQ(probe.afterBytes, region);
    EXPECT_GT(client->rpcRetries(), 0u);
    EXPECT_GT(client->reconnects(), 0u);
    EXPECT_GT(faults.outageDrops(), 0u);
}

// --------------------------------------------------------------------
// Data-center failover and graceful degradation
// --------------------------------------------------------------------

dc::DcConfig
faultTolerantDc()
{
    dc::DcConfig cfg;
    cfg.proxyCachingEnabled = false;
    cfg.requestDeadline = sim::milliseconds(2);
    cfg.backendRetries = 2;
    cfg.serveStaleOnError = true;
    return cfg;
}

TEST(DatacenterFaults, ProxyFailsOverToAlternateBackend)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(41);
    fabric.setFaultInjector(&faults);
    const NodeConfig nodeCfg = reliableNode(6);
    Node clientNode(sim, fabric, nodeCfg);
    Node proxyNode(sim, fabric, nodeCfg);
    Node backend0(sim, fabric, nodeCfg);
    Node backend1(sim, fabric, nodeCfg);

    const dc::DcConfig cfg = faultTolerantDc();
    dc::SingleFileWorkload wl(16 * 1024, 10);
    dc::WebServer server0(backend0, cfg, wl);
    dc::WebServer server1(backend1, cfg, wl);
    server0.start();
    server1.start();

    dc::Proxy proxy(proxyNode, cfg,
                    std::vector<net::NodeId>{backend0.id(),
                                             backend1.id()},
                    4);
    proxy.start();

    dc::ClientFleet::Options opts;
    opts.target = proxyNode.id();
    opts.port = cfg.proxyPort;
    opts.threads = 4;
    opts.requestTimeout = sim::milliseconds(20);
    dc::ClientFleet fleet({&clientNode}, wl, opts);
    fleet.start();

    // Backend 0 is dead the whole run; every request must succeed via
    // backend 1.
    faults.addOutage(backend0.id(), sim::Tick{0});
    sim.runFor(sim::milliseconds(200));

    EXPECT_GT(fleet.completed(), 0u);
    EXPECT_GT(proxy.backendRetries(), 0u);
    EXPECT_GT(proxy.deadBackendConns(), 0u);
    EXPECT_EQ(proxy.requestsShed(), 0u);
}

TEST(DatacenterFaults, StaleServeWhenEveryBackendIsDown)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(43);
    fabric.setFaultInjector(&faults);
    const NodeConfig nodeCfg = reliableNode(6);
    Node clientNode(sim, fabric, nodeCfg);
    Node proxyNode(sim, fabric, nodeCfg);
    Node backendNode(sim, fabric, nodeCfg);

    const dc::DcConfig cfg = faultTolerantDc();
    dc::SingleFileWorkload wl(16 * 1024, 10);
    dc::WebServer server(backendNode, cfg, wl);
    server.start();
    dc::Proxy proxy(proxyNode, cfg, backendNode.id(), 4);
    proxy.start();

    dc::ClientFleet::Options opts;
    opts.target = proxyNode.id();
    opts.port = cfg.proxyPort;
    opts.threads = 2;
    opts.requestTimeout = sim::milliseconds(50);
    dc::ClientFleet fleet({&clientNode}, wl, opts);
    fleet.start();

    // Healthy warmup records object sizes, then the only backend dies
    // for good: the proxy keeps answering from its stale records.
    faults.addOutage(backendNode.id(), sim::milliseconds(50));
    sim.runFor(sim::milliseconds(50));
    const std::uint64_t healthy = fleet.completed();
    EXPECT_GT(healthy, 0u);
    sim.runFor(sim::milliseconds(200));

    EXPECT_GT(proxy.degradedHits(), 0u);
    EXPECT_GT(fleet.completed(), healthy);
}

TEST(DatacenterFaults, ShedsWith503WhenNothingIsCached)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(47);
    fabric.setFaultInjector(&faults);
    const NodeConfig nodeCfg = reliableNode(6);
    Node clientNode(sim, fabric, nodeCfg);
    Node proxyNode(sim, fabric, nodeCfg);
    Node backendNode(sim, fabric, nodeCfg);

    dc::DcConfig cfg = faultTolerantDc();
    cfg.serveStaleOnError = false;
    dc::SingleFileWorkload wl(16 * 1024, 10);
    dc::WebServer server(backendNode, cfg, wl);
    server.start();
    dc::Proxy proxy(proxyNode, cfg, backendNode.id(), 4);
    proxy.start();

    dc::ClientFleet::Options opts;
    opts.target = proxyNode.id();
    opts.port = cfg.proxyPort;
    opts.threads = 2;
    opts.requestTimeout = sim::milliseconds(50);
    dc::ClientFleet fleet({&clientNode}, wl, opts);
    fleet.start();

    faults.addOutage(backendNode.id(), sim::Tick{0}); // dead from the start
    sim.runFor(sim::milliseconds(150));

    EXPECT_GT(proxy.requestsShed(), 0u);
    EXPECT_GT(fleet.rejected(), 0u);
    EXPECT_EQ(fleet.completed(), 0u);
}

TEST(DatacenterFaults, WebServerShedsPastInflightCap)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    Node clientNode(sim, fabric,
                    NodeConfig::server(IoatConfig::disabled(), 6));
    Node serverNode(sim, fabric,
                    NodeConfig::server(IoatConfig::disabled(), 6));

    dc::DcConfig cfg;
    cfg.maxInflight = 1;
    dc::SingleFileWorkload wl(64 * 1024, 10);
    dc::WebServer server(serverNode, cfg, wl);
    server.start();

    dc::ClientFleet::Options opts;
    opts.target = serverNode.id();
    opts.port = cfg.serverPort;
    opts.threads = 8;
    dc::ClientFleet fleet({&clientNode}, wl, opts);
    fleet.start();

    sim.runFor(sim::milliseconds(100));

    EXPECT_GT(server.requestsShed(), 0u);
    EXPECT_GT(fleet.rejected(), 0u);
    EXPECT_GT(fleet.completed(), 0u);
}

// --------------------------------------------------------------------
// Exact timer-firing ticks
//
// The RTO and watchdog machinery moved onto the event queue's timer
// wheel; these tests pin the exact ticks retry timers fire at, so a
// queue or timeout refactor that shifts retry timelines by even one
// tick fails loudly rather than silently changing every fault run.
// --------------------------------------------------------------------

/**
 * Measured firing schedule for the RTO test below, per transport (the
 * first transmission leaves after each stack's own send-path costs).
 * These are golden values: re-pin them (and investigate!) if a change
 * moves them.
 */
constexpr Tick kRtoFirstFireTick{6002736};
constexpr Tick kBypassRtoFirstFireTick{6000350};

/**
 * Run single events until @p value changes; returns the exact tick of
 * the event that changed it (0 if nothing changed by @p limit).
 */
template <typename Fn>
Tick
flipTick(Simulation &sim, Fn value, Tick limit)
{
    const auto before = value();
    while (value() == before) {
        if (sim.queue().nextEventTick() > limit)
            return Tick{0};
        sim.queue().runOne();
    }
    return sim.now();
}

TEST_P(Recovery, RtoBackoffFiresAtExactTicks)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(11);
    fabric.setFaultInjector(&faults);
    // rtoInitial=1ms, 3 retries
    Node a(sim, fabric, reliableNode(GetParam()));
    Node b(sim, fabric, reliableNode(GetParam()));

    sim.spawn(sinkLoop(b, 5001, 1024));
    sock::Socket conn;
    sim.spawn([](Node &n, net::NodeId dst,
                 sock::Socket &out) -> Coro<void> {
        out = co_await n.transport().connect(dst, 5001);
    }(a, b.id(), conn));
    sim.runUntil(sim::milliseconds(5));
    ASSERT_TRUE(conn.valid());

    // Cut both directions at exactly 5 ms, then send one chunk.  The
    // first transmission leaves at 5 ms + send-path CPU costs; every
    // copy is lost, so the retry timeline is driven purely by the RTO
    // timer: rtoInitial after the first tx, then doubling.
    faults.site("link." + std::to_string(b.id()) + "." +
                    std::to_string(a.id()),
                {1.0, 0.0, 0.0, sim::Tick{0}});
    faults.site("link." + std::to_string(a.id()) + "." +
                    std::to_string(b.id()),
                {1.0, 0.0, 0.0, sim::Tick{0}});
    sim.spawn([](sock::Socket c) -> Coro<void> {
        co_await c.sendAll(1024);
    }(conn));

    sock::Transport &xa = a.transport();
    auto retrans = [&xa] { return xa.retransmits(); };
    auto aborts = [&xa] { return xa.abortedConnections(); };
    const Tick limit = sim::milliseconds(40);

    const Tick f1 = flipTick(sim, retrans, limit);
    const Tick f2 = flipTick(sim, retrans, limit);
    const Tick f3 = flipTick(sim, retrans, limit);
    const Tick fa = flipTick(sim, aborts, limit);

    // Exponential backoff, to the tick: 2x then 2x again, and the
    // exhaustion abort exactly one further doubled RTO after the last
    // retry.  These deltas are independent of send-path CPU costs.
    ASSERT_NE(f1, Tick{0});
    EXPECT_EQ(f2 - f1, sim::milliseconds(2));
    EXPECT_EQ(f3 - f2, sim::milliseconds(4));
    EXPECT_EQ(fa - f3, sim::milliseconds(8));

    // Absolute anchor: first RTO fires exactly rtoInitial after the
    // armed retransmission round begins.  The measured schedule is a
    // golden value; a refactor that shifts when timers are armed (or
    // how `now` advances) moves it.
    EXPECT_EQ(f1, GetParam() == TransportKind::tcp
                      ? kRtoFirstFireTick
                      : kBypassRtoFirstFireTick);
}

TEST(TimerTicks, PvfsWatchdogFiresAtExactTick)
{
    Simulation sim;
    core::TestbedConfig tbCfg;
    tbCfg.serverCount = 2;
    tbCfg.serverConfig = NodeConfig::server(IoatConfig::disabled(), 6);
    tbCfg.serverConfig.tcp.reliable = true;
    tbCfg.serverConfig.tcp.rtoInitial = sim::milliseconds(1);
    tbCfg.serverConfig.tcp.maxRetransmits = 8;
    core::Testbed tb(sim, tbCfg);

    FaultInjector faults(31);
    tb.fabric().setFaultInjector(&faults);

    pvfs::PvfsConfig cfg;
    cfg.iodCount = 1;
    cfg.rpcTimeout = sim::milliseconds(2);
    cfg.rpcMaxRetries = 1;
    cfg.rpcRetryBackoff = sim::milliseconds(1);
    cfg.connectTimeout = sim::milliseconds(5);

    pvfs::Deployment fsd(cfg, tb.server(0));
    const pvfs::FileHandle h = fsd.presizeFile("f0", 64 * 1024);

    // Server 0 drops off the network at 10 ms; the client connects
    // and warms up before that, then issues a read at exactly 15 ms.
    // The read's first RPC can make no progress, so its watchdog must
    // fire exactly rpcTimeout after the deadline was armed.
    faults.addOutage(tb.server(0).id(), sim::milliseconds(10),
                     sim::milliseconds(200));

    const auto client = fsd.makeClient(tb.server(1));
    bool done = false;
    sim.spawn([](Simulation &s, pvfs::PvfsClient &cl,
                 pvfs::FileHandle fh, bool &d) -> Coro<void> {
        co_await cl.connect();
        co_await s.waitUntil(sim::milliseconds(15));
        const auto r = co_await cl.read(fh, 0, 64 * 1024);
        (void)r;
        d = true;
    }(sim, *client, h, done));

    sim.runUntil(sim::milliseconds(15));
    auto aborts = [&tb] {
        return tb.server(1).stack().abortedConnections();
    };
    const Tick fw = flipTick(sim, aborts, sim::milliseconds(40));

    // The op is issued at 15 ms sharp (waitUntil), its deadline armed
    // in the same tick (Watchdog::arm runs before the first await of
    // the attempt), so the abort lands at exactly 15 ms + rpcTimeout.
    EXPECT_EQ(fw, sim::milliseconds(15) + cfg.rpcTimeout);

    sim.runFor(sim::milliseconds(100));
    EXPECT_TRUE(done);
}

// --------------------------------------------------------------------
// The one protocol rule the transports do not share
// --------------------------------------------------------------------

/**
 * connect() with a deadline to a black-holed peer (DESIGN.md §9).
 * Reliable kernel TCP ignores the deadline: it sends maxSynRetries
 * SYNs, backing off from synRetryTimeout (5+10+20+40+80 ms with the
 * defaults), then aborts.  Bypass sends one SYN and aborts at the
 * deadline.  The proxy, the clients and PVFS all pass deadlines, so
 * the fault goldens of both transports rest on this rule.
 */
class ConnectDeadline : public ::testing::TestWithParam<TransportKind>
{};

/** Measured abort instants, per transport (golden values). */
constexpr Tick kTcpConnectAbortTick{155005000};
constexpr Tick kBypassConnectAbortTick{20001000};

TEST_P(ConnectDeadline, BlackHoledPeerTimeline)
{
    constexpr Tick kDeadline = sim::milliseconds(20);
    NodeConfig cfg = NodeConfig::server(IoatConfig::disabled(), 1);
    cfg.transport = GetParam();
    cfg.tcp.reliable = true;

    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    FaultInjector faults(1);
    faults.setDefaultConfig({1.0, 0.0, 0.0, sim::Tick{0}});
    fabric.setFaultInjector(&faults);
    Node a(sim, fabric, cfg);
    Node b(sim, fabric, cfg);

    sock::Socket s;
    Tick returned{};
    sim.spawn([](Node &n, net::NodeId dst, sock::Socket &out,
                 Tick &at) -> Coro<void> {
        out = co_await n.transport().connect(dst, 5001, kDeadline);
        at = n.simulation().now();
    }(a, b.id(), s, returned));

    // Every SYN dies on the link, so the drop instants are the SYN
    // timeline.
    auto drops = [&faults] { return faults.totalDrops(); };
    std::vector<Tick> syns;
    for (Tick t; (t = flipTick(sim, drops, sim::seconds(1))) != Tick{0};)
        syns.push_back(t);

    EXPECT_TRUE(s.valid());
    EXPECT_FALSE(s.usable());
    EXPECT_TRUE(s.aborted());
    EXPECT_EQ(a.transport().abortedConnections(), 1u);
    if (GetParam() == TransportKind::tcp) {
        ASSERT_EQ(syns.size(), cfg.tcp.maxSynRetries);
        for (std::size_t i = 1; i < syns.size(); ++i)
            EXPECT_EQ(syns[i] - syns[i - 1],
                      cfg.tcp.synRetryTimeout * (1 << (i - 1)));
        EXPECT_EQ(returned, kTcpConnectAbortTick);
        EXPECT_EQ(returned, cfg.tcp.connSetupCost +
                                sim::milliseconds(5 + 10 + 20 + 40 + 80));
    } else {
        ASSERT_EQ(syns.size(), 1u);
        EXPECT_EQ(returned, kBypassConnectAbortTick);
        EXPECT_EQ(returned, cfg.bypass.connSetupCost + kDeadline);
    }
}

std::string
transportName(const ::testing::TestParamInfo<TransportKind> &p)
{
    return p.param == TransportKind::tcp ? "tcp" : "bypass";
}

INSTANTIATE_TEST_SUITE_P(Transports, Recovery,
                         ::testing::Values(TransportKind::tcp,
                                           TransportKind::bypass),
                         transportName);
INSTANTIATE_TEST_SUITE_P(Transports, ConnectDeadline,
                         ::testing::Values(TransportKind::tcp,
                                           TransportKind::bypass),
                         transportName);

} // namespace
