/**
 * @file
 * Ablation: the full I/OAT feature matrix on one standard workload.
 *
 * DESIGN.md calls out three separable design choices (copy offload,
 * split headers, multiple receive queues); this bench measures every
 * combination on a 6-port, 12-stream, 64K-message receive workload so
 * the contribution — and the interactions — of each feature are
 * visible in one table.
 */

#include <iostream>
#include <optional>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct Result
{
    double mbps;
    double cpu;
};

Result
run(core::IoatConfig features, const Options *report = nullptr)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    Node client(sim, fabric, NodeConfig::server(features, 6));
    Node server(sim, fabric, NodeConfig::server(features, 6));

    core::AppMemory mem(server.host(), "sink");
    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);
    sim.spawn(streamSinkLoop(
        server, 5001, {.recvChunk = 64 * 1024, .touchPayload = true},
        mem));
    for (unsigned i = 0; i < 12; ++i)
        sim.spawn(streamSenderLoop(client, server.id(), 5001, 64 * 1024));

    Meter meter(sim);
    meter.warmup(sim::milliseconds(100), {&client, &server});
    const std::uint64_t rx0 = server.stack().rxPayloadBytes();
    meter.run(sim::milliseconds(400));
    const std::uint64_t rx1 = server.stack().rxPayloadBytes();

    if (tr)
        tr->finish(
            {{"dma", features.dmaEngine ? "true" : "false"},
             {"split", features.splitHeader ? "true" : "false"},
             {"mrq", features.multiQueue ? "true" : "false"}});

    return {sim::throughputMbps(rx1 - rx0, meter.elapsed()),
            server.cpu().utilization()};
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("ablation_features");
    return benchMain(argc, argv, opts, [&](const Options &) {

    std::cout << "=== Ablation: I/OAT feature matrix (6 ports, 12 "
                 "streams, 64K messages) ===\n\n";
    const Result base = run(core::IoatConfig::disabled());

    sim::Table t({"dma", "split", "mrq", "Mbps", "receiver CPU",
                  "CPU vs baseline"});
    for (int mask = 0; mask < 8; ++mask) {
        core::IoatConfig f;
        f.dmaEngine = mask & 1;
        f.splitHeader = mask & 2;
        f.multiQueue = mask & 4;
        const Result r = run(f);
        t.addRow({f.dmaEngine ? "on" : "-", f.splitHeader ? "on" : "-",
                  f.multiQueue ? "on" : "-", num(r.mbps, 0), pct(r.cpu),
                  pct(relativeBenefit(r.cpu, base.cpu))});
    }
    t.print(std::cout);

    if (opts.instrumented())
        run(core::IoatConfig::enabled(), &opts);

    std::cout << "\nThe paper evaluates rows {-,-,-}, {on,-,-} and "
                 "{on,on,-}; the mrq rows are the configuration its "
                 "kernel could not enable.\n";
    return 0;
    });
}
