/**
 * @file
 * Reproduces Figure 4: multi-stream bandwidth.  One node is the
 * server (receiver), the other the client; N threads each run the
 * basic bandwidth test over their own connection (§4.2).  Reports
 * aggregate bandwidth and receiver CPU for 2..12 threads.
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
run(IoatConfig features, unsigned threads,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    NodeConfig cfg = NodeConfig::server(features, 6);
    applyTransport(cfg, choice);
    Node client(sim, fabric, cfg);
    Node server(sim, fabric, cfg);

    core::AppMemory mem(server.host(), "sink");
    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);
    const std::size_t chunk = 64 * 1024;
    sim.spawn(streamSinkLoop(server, 5001,
                             {.recvChunk = chunk, .touchPayload = true},
                             mem));
    for (unsigned i = 0; i < threads; ++i)
        sim.spawn(streamSenderLoop(client, server.id(), 5001, chunk));

    Meter meter(sim);
    meter.warmup(sim::milliseconds(100), {&client, &server});
    const std::uint64_t rx0 = server.transport().rxPayloadBytes();
    meter.run(sim::milliseconds(400));
    const std::uint64_t rx1 = server.transport().rxPayloadBytes();

    if (tr)
        tr->finish({{"threads", std::to_string(threads)},
                    {"ioat", features.any() ? "true" : "false"}});

    return {sim::throughputMbps(rx1 - rx0, meter.elapsed()),
            server.cpu().utilization()};
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fig04_multistream", {.transport = true});
    return benchMain(argc, argv, opts, [](const Options &o) {
        if (o.singleTransport()) {
            std::cout << "=== Figure 4 (" << o.transportName()
                      << " transport) ===\n\n";
            sim::Table t({"threads", "Mbps", "rx CPU"});
            for (unsigned threads : {2u, 4u, 6u, 8u, 10u, 12u}) {
                const Result r = run(IoatConfig::disabled(), threads,
                                     nullptr, o.transportChoice());
                t.addRow({std::to_string(threads), num(r.mbps, 0),
                          pct(r.cpu)});
            }
            t.print(std::cout);
            if (o.instrumented())
                run(IoatConfig::disabled(), 12, &o,
                    o.transportChoice());
            return 0;
        }
        std::cout << "=== Figure 4: Multi-Stream Bandwidth (one server, "
                     "N client threads, 6 ports) ===\n\n";
        sim::Table t({"threads", "non-ioat Mbps", "ioat Mbps",
                      "non-ioat CPU", "ioat CPU", "rel CPU benefit"});
        for (unsigned threads : {2u, 4u, 6u, 8u, 10u, 12u}) {
            const Result non = run(IoatConfig::disabled(), threads);
            const Result yes = run(IoatConfig::enabled(), threads);
            t.addRow({std::to_string(threads), num(non.mbps, 0),
                      num(yes.mbps, 0), pct(non.cpu), pct(yes.cpu),
                      pct(relativeBenefit(yes.cpu, non.cpu))});
        }
        t.print(std::cout);
        std::cout << "\nPaper anchors: similar bandwidth for both until "
                     "12 threads, where non-I/OAT degrades;\nat 12 "
                     "threads CPU 76% (non-I/OAT) vs 52% (I/OAT), ~32% "
                     "relative benefit.\n";
        if (o.instrumented())
            run(IoatConfig::enabled(), 12, &o);
        return 0;
    });
}
