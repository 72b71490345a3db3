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

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

StreamResult
run(core::IoatConfig features, const Options *report = nullptr)
{
    StreamPair rig(NodeConfig::server(features, 6), report);
    const StreamResult r =
        rig.run({.streams = 12, .touchPayload = true});
    if (TelemetryRun *tr = rig.telemetry())
        tr->finish(
            {{"dma", features.dmaEngine ? "true" : "false"},
             {"split", features.splitHeader ? "true" : "false"},
             {"mrq", features.multiQueue ? "true" : "false"}});
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("ablation_features");
    return benchMain(argc, argv, opts, [&](const Options &) {

    std::cout << "=== Ablation: I/OAT feature matrix (6 ports, 12 "
                 "streams, 64K messages) ===\n\n";
    const StreamResult base = run(core::IoatConfig::disabled());

    sim::Table t({"dma", "split", "mrq", "Mbps", "receiver CPU",
                  "CPU vs baseline"});
    for (int mask = 0; mask < 8; ++mask) {
        core::IoatConfig f;
        f.dmaEngine = mask & 1;
        f.splitHeader = mask & 2;
        f.multiQueue = mask & 4;
        const StreamResult r = run(f);
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
