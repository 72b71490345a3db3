/**
 * @file
 * Reproduces Figure 4: multi-stream bandwidth.  One node is the
 * server (receiver), the other the client; N threads each run the
 * basic bandwidth test over their own connection (§4.2).  Reports
 * aggregate bandwidth and receiver CPU for 2..12 threads.
 */

#include <iostream>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

StreamResult
run(IoatConfig features, unsigned threads,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    NodeConfig cfg = NodeConfig::server(features, 6);
    applyTransport(cfg, choice);
    StreamPair rig(cfg, report);
    const StreamResult r =
        rig.run({.streams = threads, .touchPayload = true});
    if (TelemetryRun *tr = rig.telemetry())
        tr->finish({{"threads", std::to_string(threads)},
                    {"ioat", cfg.ioat.any() ? "true" : "false"}});
    return r;
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
                const StreamResult r = run(IoatConfig::disabled(), threads,
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
            const StreamResult non = run(IoatConfig::disabled(), threads);
            const StreamResult yes = run(IoatConfig::enabled(), threads);
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
