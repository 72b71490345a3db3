/**
 * @file
 * Ablation: the I/OAT feature the paper could NOT evaluate.
 *
 * Multiple receive queues were present in the adapter but disabled in
 * the paper's Linux kernel (§2.2.3), so the paper has no data for
 * them.  This bench supplies the missing experiment: many flows
 * arriving over few ports, where classic single-queue processing
 * serializes all softirq work on the port's interrupt core.  MRQ
 * spreads the flows across cores; the win appears exactly when one
 * core's protocol processing is the bottleneck — the paper's
 * prediction ("processing small packets can fully occupy the CPU").
 */

#include <iostream>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

StreamResult
run(bool multi_queue, unsigned flows, std::size_t msg,
    const Options *report = nullptr)
{
    // Stress a single adapter: 2 ports, many flows.
    core::IoatConfig features = core::IoatConfig::enabled();
    features.multiQueue = multi_queue;
    StreamPair rig(NodeConfig::server(features, 2), report);
    const StreamResult r = rig.run({.streams = flows, .chunk = msg});
    if (TelemetryRun *tr = rig.telemetry())
        tr->finish({{"multiQueue", multi_queue ? "true" : "false"},
                    {"flows", std::to_string(flows)},
                    {"msgBytes", std::to_string(msg)}});
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("ablation_multiqueue");
    return benchMain(argc, argv, opts, [&](const Options &) {

    std::cout << "=== Ablation: multiple receive queues (feature "
                 "disabled in the paper's kernel) ===\n\n";
    std::cout << "2 ports (one adapter IRQ), small messages (1K), "
                 "flows sweep:\n";
    sim::Table t({"flows", "1-queue Mbps", "MRQ Mbps", "gain",
                  "1-queue CPU", "MRQ CPU"});
    for (unsigned flows : {2u, 4u, 8u, 16u, 32u}) {
        const StreamResult base = run(false, flows, 1024);
        const StreamResult mrq = run(true, flows, 1024);
        t.addRow({std::to_string(flows), num(base.mbps, 0),
                  num(mrq.mbps, 0),
                  pct((mrq.mbps - base.mbps) / base.mbps),
                  pct(base.cpu), pct(mrq.cpu)});
    }
    t.print(std::cout);

    if (opts.instrumented())
        run(true, 32, 1024, &opts);

    std::cout << "\nWith one queue per port, all per-packet work rides "
                 "the adapter's IRQ core; MRQ lets extra cores share "
                 "it, so the gain appears once that core saturates.\n";
    return 0;
    });
}
