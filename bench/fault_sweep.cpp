/**
 * @file
 * Fault sweep: the Fig. 3 bandwidth experiment and a Fig. 8-style
 * two-tier data-center run, repeated across link-loss rates with the
 * loss-tolerant transport enabled.
 *
 * The lossless rows establish the reliable-mode baseline; the lossy
 * rows show goodput degrading gracefully while the retransmission /
 * failover / degradation counters account for every recovered fault.
 * The whole schedule is deterministic (seeded FaultInjector), so two
 * invocations print identical tables.
 */

#include <cstdint>
#include <iostream>
#include <vector>

#include "common.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

constexpr std::uint64_t kFaultSeed = 42;
const std::vector<double> kLossRates = {0.0, 1e-4, 1e-3, 1e-2};

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

struct LossyStream
{
    double mbps;
    std::uint64_t retransmits;
    std::uint64_t drops;
    std::uint64_t dups;
};

/** Fig. 3-style single-port ttcp stream over a lossy link. */
LossyStream
runStream(IoatConfig features, double loss,
          const Options *report = nullptr,
          TransportChoice choice = TransportChoice::none)
{
    sim::FaultInjector faults(kFaultSeed);
    faults.setDefaultConfig(lossMix(loss));

    NodeConfig nodeCfg = NodeConfig::server(features, 1);
    nodeCfg.tcp.reliable = true;
    applyTransport(nodeCfg, choice);
    StreamPair rig(nodeCfg, report);
    rig.fabric.setFaultInjector(&faults);
    TelemetryRun *tr = rig.telemetry();
    if (tr)
        tr->session().add("fault", faults);
    const StreamResult r = rig.run({});

    if (tr)
        tr->finish({{"lossRate", sim::strprintf("%g", loss)},
                    {"faultSeed", std::to_string(kFaultSeed)},
                    {"ioat", nodeCfg.ioat.any() ? "true" : "false"}});

    return {r.mbps,
            rig.a.transport().retransmits() +
                rig.b.transport().retransmits(),
            faults.totalDrops(), faults.totalDups()};
}

struct DcResult
{
    double tps;
    std::uint64_t retries;
    std::uint64_t degraded;
    std::uint64_t shed;
    std::uint64_t failures;
    std::uint64_t rejected;
    std::uint64_t outageDrops;
};

/**
 * Fig. 8-style two-tier run: clients -> proxy -> two web-server
 * backends, lossy links, and backend 0 crashing for 100 ms mid-run.
 */
DcResult
runDatacenter(IoatConfig features, double loss,
              TransportChoice choice = TransportChoice::none)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    sim::FaultInjector faults(kFaultSeed);
    faults.setDefaultConfig(lossMix(loss));
    fabric.setFaultInjector(&faults);

    NodeConfig nodeCfg = NodeConfig::server(features, 6);
    nodeCfg.tcp.reliable = true;
    applyTransport(nodeCfg, choice);
    Node clientNode(sim, fabric, nodeCfg);
    Node proxyNode(sim, fabric, nodeCfg);
    Node backend0(sim, fabric, nodeCfg);
    Node backend1(sim, fabric, nodeCfg);

    dc::DcConfig cfg;
    cfg.proxyCachingEnabled = false; // plain forwarding proxy tier
    cfg.requestDeadline = sim::milliseconds(5);
    cfg.backendRetries = 3;
    cfg.serveStaleOnError = true;

    dc::SingleFileWorkload wl(16 * 1024, 100);
    dc::WebServer server0(backend0, cfg, wl);
    dc::WebServer server1(backend1, cfg, wl);
    server0.start();
    server1.start();

    dc::Proxy proxy(proxyNode, cfg,
                    std::vector<net::NodeId>{backend0.id(), backend1.id()},
                    8);
    proxy.start();

    dc::ClientFleet::Options opts;
    opts.target = proxyNode.id();
    opts.port = cfg.proxyPort;
    opts.threads = 8;
    opts.requestTimeout = sim::milliseconds(20);

    dc::ClientFleet fleet({&clientNode}, wl, opts);
    fleet.start();

    // Backend 0 crashes at 250 ms and restarts at 350 ms.
    faults.addOutage(backend0.id(), sim::milliseconds(250),
                     sim::milliseconds(350));

    Meter meter(sim);
    meter.warmup(sim::milliseconds(100), {&clientNode, &proxyNode});
    const std::uint64_t done0 = fleet.completed();
    meter.run(sim::milliseconds(400));
    const std::uint64_t done1 = fleet.completed();

    return {static_cast<double>(done1 - done0) /
                sim::toSeconds(meter.elapsed()),
            proxy.backendRetries(),
            proxy.degradedHits(),
            proxy.requestsShed(),
            fleet.failures(),
            fleet.rejected(),
            faults.outageDrops()};
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fault_sweep", {.transport = true});
    return benchMain(argc, argv, opts, [&](const Options &) {

    if (opts.singleTransport()) {
        std::cout << "=== Fault sweep (" << opts.transportName()
                  << " transport) ===\n\n";
        std::cout << "Fig. 3-style bandwidth (1 port, drop=p dup=p/10 "
                     "delay=p/10):\n";
        sim::Table t1({"loss", "Mbps", "retransmits", "link drops",
                       "link dups"});
        for (double loss : kLossRates) {
            const LossyStream r =
                runStream(IoatConfig::disabled(), loss, nullptr,
                          opts.transportChoice());
            t1.addRow({sim::strprintf("%g", loss), num(r.mbps, 0),
                       std::to_string(r.retransmits),
                       std::to_string(r.drops),
                       std::to_string(r.dups)});
        }
        t1.print(std::cout);
        std::cout << "\nFig. 8-style two-tier data center (2 backends, "
                     "backend 0 down 250-350 ms):\n";
        sim::Table t2({"loss", "TPS", "bk retries", "stale serves",
                       "503s", "client fails", "client 503s",
                       "outage drops"});
        for (double loss : kLossRates) {
            const DcResult r = runDatacenter(IoatConfig::disabled(),
                                             loss,
                                             opts.transportChoice());
            t2.addRow({sim::strprintf("%g", loss), num(r.tps, 0),
                       std::to_string(r.retries),
                       std::to_string(r.degraded),
                       std::to_string(r.shed),
                       std::to_string(r.failures),
                       std::to_string(r.rejected),
                       std::to_string(r.outageDrops)});
        }
        t2.print(std::cout);
        if (opts.instrumented())
            runStream(IoatConfig::disabled(), 1e-3, &opts,
                      opts.transportChoice());
        std::cout << "\nEvery row is a pure function of the fault "
                     "seed (" << kFaultSeed << "): rerunning prints "
                     "this table byte-for-byte.\n";
        return 0;
    }

    std::cout << "=== Fault sweep: loss-tolerant transport under link "
                 "faults ===\n\n";

    std::cout << "Fig. 3-style bandwidth (1 port, reliable transport, "
                 "drop=p dup=p/10 delay=p/10):\n";
    sim::Table t1({"loss", "non-ioat Mbps", "ioat Mbps", "retransmits",
                   "link drops", "link dups"});
    for (double loss : kLossRates) {
        const LossyStream non = runStream(IoatConfig::disabled(), loss);
        const LossyStream yes = runStream(IoatConfig::enabled(), loss);
        t1.addRow({sim::strprintf("%g", loss), num(non.mbps, 0),
                   num(yes.mbps, 0), std::to_string(non.retransmits),
                   std::to_string(non.drops), std::to_string(non.dups)});
    }
    t1.print(std::cout);

    std::cout << "\nFig. 8-style two-tier data center (2 backends, "
                 "backend 0 down 250-350 ms):\n";
    sim::Table t2({"loss", "TPS", "bk retries", "stale serves", "503s",
                   "client fails", "client 503s", "outage drops"});
    for (double loss : kLossRates) {
        const DcResult r = runDatacenter(IoatConfig::disabled(), loss);
        t2.addRow({sim::strprintf("%g", loss), num(r.tps, 0),
                   std::to_string(r.retries), std::to_string(r.degraded),
                   std::to_string(r.shed), std::to_string(r.failures),
                   std::to_string(r.rejected),
                   std::to_string(r.outageDrops)});
    }
    t2.print(std::cout);

    if (opts.instrumented())
        runStream(IoatConfig::enabled(), 1e-3, &opts);

    std::cout << "\nEvery row is a pure function of the fault seed ("
              << kFaultSeed << "): rerunning prints this table "
                               "byte-for-byte.\n";
    return 0;
    });
}
