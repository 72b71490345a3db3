/**
 * @file
 * Golden determinism tests.
 *
 * Each test renders a scaled-down version of a bench table (fig03
 * bandwidth, fig08 data-center TPS, fault_sweep) twice in-process and
 * asserts the two renderings are byte-identical — catching any global
 * state leaking between simulations — then checks the output's digest
 * against a checked-in golden file, so a hot-path refactor that
 * perturbs event order (and therefore results) fails loudly.
 *
 * Regenerate the digests after an *intentional* behavior change with:
 *
 *     GOLDEN_REGEN=1 ./test_golden
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "simcore/digest.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

using sim::digestOf;

std::string
goldenPath(const std::string &name)
{
    return std::string(IOAT_GOLDEN_DIR) + "/" + name + ".digest";
}

/**
 * Byte-identical double-run plus golden-digest check for one
 * scenario renderer.
 */
void
checkGolden(const std::string &name, std::string (*render)())
{
    const std::string first = render();
    const std::string second = render();
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "two in-process runs of " << name << " diverged";

    const std::string digest = digestOf(first);
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

// ---- fig03: ttcp bandwidth table -----------------------------------

std::string
renderFig03Impl(bool with_idle_session)
{
    std::ostringstream out;
    sim::Table t({"ports", "non-ioat Mbps", "ioat Mbps", "non-ioat CPU",
                  "ioat CPU"});
    for (unsigned ports = 1; ports <= 2; ++ports) {
        double mbps[2], cpu[2];
        int col = 0;
        for (IoatConfig features :
             {IoatConfig::disabled(), IoatConfig::enabled()}) {
            Simulation sim;
            net::Switch fabric(sim, sim::nanoseconds(2000));
            Node a(sim, fabric, NodeConfig::server(features, ports));
            Node b(sim, fabric, NodeConfig::server(features, ports));
            core::AppMemory memB(b.host(), "sinkB");

            // Telemetry with sampling off must be invisible to the
            // model: same golden digest as the bare run.
            std::optional<sim::telemetry::Session> session;
            if (with_idle_session)
                session.emplace(sim);

            const std::size_t chunk = 64 * 1024;
            sim.spawn(streamSinkLoop(b, 5001, {.recvChunk = chunk},
                                     memB));
            for (unsigned i = 0; i < ports; ++i)
                sim.spawn(streamSenderLoop(a, b.id(), 5001, chunk));

            Meter meter(sim);
            meter.warmup(sim::milliseconds(50), {&a, &b});
            const std::uint64_t rx0 = b.stack().rxPayloadBytes();
            meter.run(sim::milliseconds(150));
            const std::uint64_t rx1 = b.stack().rxPayloadBytes();

            mbps[col] = sim::throughputMbps(rx1 - rx0, meter.elapsed());
            cpu[col] = b.cpu().utilization();
            ++col;
        }
        t.addRow({std::to_string(ports), num(mbps[0], 0), num(mbps[1], 0),
                  pct(cpu[0]), pct(cpu[1])});
    }
    t.print(out);
    return out.str();
}

std::string
renderFig03()
{
    return renderFig03Impl(false);
}

std::string
renderFig03Observed()
{
    return renderFig03Impl(true);
}

// ---- fig08: two-tier data-center TPS -------------------------------

std::string
renderFig08Impl(bool with_request_tracing)
{
    std::ostringstream out;
    sim::Table t({"file size", "non-ioat TPS", "ioat TPS"});
    for (std::size_t bytes : {std::size_t{2048}, std::size_t{8192}}) {
        double tps[2];
        int col = 0;
        for (IoatConfig features :
             {IoatConfig::disabled(), IoatConfig::enabled()}) {
            Simulation sim;

            // Request tracing observes the same run: same golden
            // digest as the untraced render, or it perturbed timing.
            if (with_request_tracing)
                sim.enableRequestTracing();
            core::Testbed tb(
                sim, core::TestbedConfig{
                         .serverCount = 2,
                         .serverConfig = NodeConfig::server(features),
                         .clientCount = 2,
                     });

            dc::DcConfig cfg;
            cfg.proxyCachingEnabled = false;
            dc::SingleFileWorkload wl(bytes, 1000);
            dc::WebServer server(tb.server(1), cfg, wl);
            dc::Proxy proxy(tb.server(0), cfg, tb.server(1).id());
            server.start();
            proxy.start();

            dc::ClientFleet::Options opts;
            opts.target = tb.server(0).id();
            opts.port = cfg.proxyPort;
            opts.threads = 8;
            dc::ClientFleet fleet({&tb.client(0), &tb.client(1)}, wl,
                                  opts);
            fleet.start();

            Meter meter(sim);
            meter.warmup(sim::milliseconds(100),
                         {&tb.server(0), &tb.server(1)});
            const std::uint64_t done0 = fleet.completed();
            meter.run(sim::milliseconds(200));
            const std::uint64_t done1 = fleet.completed();

            tps[col] = static_cast<double>(done1 - done0) /
                       sim::toSeconds(meter.elapsed());
            ++col;
        }
        t.addRow({std::to_string(bytes / 1024) + "K", num(tps[0], 0),
                  num(tps[1], 0)});
    }
    t.print(out);
    return out.str();
}

std::string
renderFig08()
{
    return renderFig08Impl(false);
}

std::string
renderFig08Traced()
{
    return renderFig08Impl(true);
}

// ---- fault_sweep: lossy-link stream + crashy two-tier --------------

constexpr std::uint64_t kFaultSeed = 42;

sim::FaultSiteConfig
lossMix(double loss)
{
    sim::FaultSiteConfig cfg;
    cfg.dropProb = loss;
    cfg.dupProb = loss / 10.0;
    cfg.delayProb = loss / 10.0;
    cfg.delayTicks = sim::microseconds(20);
    return cfg;
}

std::string
renderFaultSweep()
{
    std::ostringstream out;

    sim::Table t1({"loss", "Mbps", "retransmits", "drops", "dups"});
    for (double loss : {0.0, 1e-3, 1e-2}) {
        Simulation sim;
        net::Switch fabric(sim, sim::nanoseconds(2000));
        sim::FaultInjector faults(kFaultSeed);
        faults.setDefaultConfig(lossMix(loss));
        fabric.setFaultInjector(&faults);

        NodeConfig nodeCfg =
            NodeConfig::server(IoatConfig::disabled(), 1);
        nodeCfg.tcp.reliable = true;
        Node a(sim, fabric, nodeCfg);
        Node b(sim, fabric, nodeCfg);
        core::AppMemory memB(b.host(), "sinkB");

        const std::size_t chunk = 64 * 1024;
        sim.spawn(streamSinkLoop(b, 5001, {.recvChunk = chunk}, memB));
        sim.spawn(streamSenderLoop(a, b.id(), 5001, chunk));

        Meter meter(sim);
        meter.warmup(sim::milliseconds(50), {&a, &b});
        const std::uint64_t rx0 = b.stack().rxPayloadBytes();
        meter.run(sim::milliseconds(200));
        const std::uint64_t rx1 = b.stack().rxPayloadBytes();

        t1.addRow({sim::strprintf("%g", loss),
                   num(sim::throughputMbps(rx1 - rx0, meter.elapsed()),
                       0),
                   std::to_string(a.stack().retransmits() +
                                  b.stack().retransmits()),
                   std::to_string(faults.totalDrops()),
                   std::to_string(faults.totalDups())});
    }
    t1.print(out);

    sim::Table t2({"loss", "TPS", "bk retries", "client fails",
                   "outage drops"});
    for (double loss : {0.0, 1e-3}) {
        Simulation sim;
        net::Switch fabric(sim, sim::nanoseconds(2000));
        sim::FaultInjector faults(kFaultSeed);
        faults.setDefaultConfig(lossMix(loss));
        fabric.setFaultInjector(&faults);

        NodeConfig nodeCfg =
            NodeConfig::server(IoatConfig::disabled(), 6);
        nodeCfg.tcp.reliable = true;
        Node clientNode(sim, fabric, nodeCfg);
        Node proxyNode(sim, fabric, nodeCfg);
        Node backend0(sim, fabric, nodeCfg);
        Node backend1(sim, fabric, nodeCfg);

        dc::DcConfig cfg;
        cfg.proxyCachingEnabled = false;
        cfg.requestDeadline = sim::milliseconds(5);
        cfg.backendRetries = 3;
        cfg.serveStaleOnError = true;

        dc::SingleFileWorkload wl(16 * 1024, 100);
        dc::WebServer server0(backend0, cfg, wl);
        dc::WebServer server1(backend1, cfg, wl);
        server0.start();
        server1.start();

        dc::Proxy proxy(
            proxyNode, cfg,
            std::vector<net::NodeId>{backend0.id(), backend1.id()}, 8);
        proxy.start();

        dc::ClientFleet::Options opts;
        opts.target = proxyNode.id();
        opts.port = cfg.proxyPort;
        opts.threads = 8;
        opts.requestTimeout = sim::milliseconds(20);
        dc::ClientFleet fleet({&clientNode}, wl, opts);
        fleet.start();

        faults.addOutage(backend0.id(), sim::milliseconds(150),
                         sim::milliseconds(250));

        Meter meter(sim);
        meter.warmup(sim::milliseconds(100), {&clientNode, &proxyNode});
        const std::uint64_t done0 = fleet.completed();
        meter.run(sim::milliseconds(300));
        const std::uint64_t done1 = fleet.completed();

        t2.addRow({sim::strprintf("%g", loss),
                   num(static_cast<double>(done1 - done0) /
                           sim::toSeconds(meter.elapsed()),
                       0),
                   std::to_string(proxy.backendRetries()),
                   std::to_string(fleet.failures()),
                   std::to_string(faults.outageDrops())});
    }
    t2.print(out);
    return out.str();
}

TEST(Golden, Fig03Bandwidth) { checkGolden("fig03", renderFig03); }

// Same scenario with a sampling-off telemetry Session attached checks
// against the SAME golden digest: telemetry disabled is byte-free.
TEST(Golden, Fig03TelemetryOff)
{
    checkGolden("fig03", renderFig03Observed);
}

TEST(Golden, Fig08Datacenter) { checkGolden("fig08", renderFig08); }

// The SAME digest with request tracing enabled: tracing on must be
// timing-invisible (contexts ride metadata, no model is re-consulted).
TEST(Golden, Fig08RequestTracingOn)
{
    checkGolden("fig08", renderFig08Traced);
}

TEST(Golden, FaultSweep) { checkGolden("fault_sweep", renderFaultSweep); }

} // namespace
