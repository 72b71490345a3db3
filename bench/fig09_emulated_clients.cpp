/**
 * @file
 * Reproduces Figure 9: emulated clients with I/OAT capability
 * (§5.2.3).  Both tiers live on Testbed 1: one node emulates the
 * clients (as the proxy tier would, firing requests inside the data
 * center), the other runs the web server.  File size is fixed at 16K;
 * the number of client threads sweeps 1..256.  Reported CPU is the
 * *client* node's, since the point of the experiment is client-side
 * receive processing.
 */

#include <iostream>
#include <optional>

#include "common.hh"
#include "datacenter/client.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct Result
{
    double tps;
    double clientCpu;
};

Result
run(IoatConfig features, unsigned threads,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    NodeConfig cfg_node = NodeConfig::server(features, 6);
    applyTransport(cfg_node, choice);
    Node client_node(sim, fabric, cfg_node);
    Node server_node(sim, fabric, cfg_node);

    dc::DcConfig cfg;
    dc::SingleFileWorkload wl(16 * 1024, 1000);
    dc::WebServer server(server_node, cfg, wl);
    server.start();

    dc::ClientFleet::Options opts;
    opts.target = server_node.id();
    opts.port = cfg.serverPort;
    opts.threads = threads;
    // Proxy-style emulated client: per-request application work
    // (request generation, bookkeeping, response handling).
    opts.perRequestCost = sim::microseconds(150);
    opts.touchPayload = true;
    // Apache-prefork-style footprint: a base plus ~1 MB per worker.
    opts.residentBytes = 2 * 1024 * 1024;
    opts.residentBytesPerThread = 512 * 1024;

    dc::ClientFleet fleet({&client_node}, wl, opts);
    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);
    fleet.start();

    Meter meter(sim);
    meter.warmup(sim::milliseconds(300), {&client_node, &server_node});
    const std::uint64_t done0 = fleet.completed();
    meter.run(sim::milliseconds(700));
    const std::uint64_t done1 = fleet.completed();

    if (tr)
        tr->finish({{"threads", std::to_string(threads)},
                    {"ioat", cfg_node.ioat.any() ? "true" : "false"}});

    return {static_cast<double>(done1 - done0) /
                sim::toSeconds(meter.elapsed()),
            client_node.cpu().utilization()};
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fig09_emulated_clients", {.transport = true});
    return benchMain(argc, argv, opts, [&](const Options &) {

    if (opts.singleTransport()) {
        std::cout << "=== Figure 9 (" << opts.transportName()
                  << " transport, 16K files) ===\n\n";
        sim::Table t({"threads", "TPS", "client CPU"});
        for (unsigned threads : {1u, 4u, 16u, 64u, 256u}) {
            const Result r = run(IoatConfig::disabled(), threads,
                                 nullptr, opts.transportChoice());
            t.addRow({std::to_string(threads), num(r.tps, 0),
                      pct(r.clientCpu)});
        }
        t.print(std::cout);
        if (opts.instrumented())
            run(IoatConfig::disabled(), 64, &opts,
                opts.transportChoice());
        return 0;
    }

    std::cout << "=== Figure 9: Clients with I/OAT capability (16K "
                 "files) ===\n\n";
    sim::Table t({"threads", "non-ioat TPS", "ioat TPS", "non-ioat "
                  "client CPU", "ioat client CPU", "TPS improvement"});
    for (unsigned threads : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u, 256u}) {
        const Result non = run(IoatConfig::disabled(), threads);
        const Result yes = run(IoatConfig::enabled(), threads);
        t.addRow({std::to_string(threads), num(non.tps, 0),
                  num(yes.tps, 0), pct(non.clientCpu), pct(yes.clientCpu),
                  pct((yes.tps - non.tps) / non.tps)});
    }
    t.print(std::cout);

    if (opts.instrumented())
        run(IoatConfig::enabled(), 64, &opts);

    std::cout << "\nPaper anchors: identical up to 16 threads; "
                 "non-I/OAT CPU saturates around 64 threads and TPS "
                 "flattens (~12928);\nI/OAT keeps scaling to 256 "
                 "threads (~15059 TPS, ~16% better, 4x the "
                 "threads).\n";
    return 0;
    });
}
