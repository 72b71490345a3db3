/**
 * @file
 * Ablation: the DMA copybreak threshold (§7's pinning caveat).
 *
 * "Due to the page-pinning requirement, the usefulness of the copy
 * engine becomes questionable if the pinning cost exceeds the copy
 * cost."  This bench sweeps the minimum copy size routed to the
 * engine and reports receiver CPU for a small-message workload —
 * showing that offloading tiny copies is a pessimization, exactly as
 * the paper warns.
 */

#include <iostream>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

double
run(std::size_t copybreak, std::size_t msg,
    const Options *report = nullptr)
{
    NodeConfig cfg = NodeConfig::server(core::IoatConfig::enabled(), 4);
    cfg.tcp.dmaCopyBreak = copybreak;
    StreamPair rig(cfg, report);
    const StreamResult r = rig.run({.streams = 4, .chunk = msg});
    if (TelemetryRun *tr = rig.telemetry())
        tr->finish({{"copybreak", std::to_string(copybreak)},
                    {"msgBytes", std::to_string(msg)}});
    return r.cpu;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("ablation_copybreak");
    return benchMain(argc, argv, opts, [&](const Options &) {

    std::cout << "=== Ablation: DMA copybreak threshold (SS7 pinning "
                 "caveat) ===\n\n";
    for (std::size_t msg : {std::size_t{2048}, std::size_t{16384},
                            std::size_t{65536}}) {
        std::cout << "Receiver CPU for " << msg / 1024
                  << "K messages, 4 streams:\n";
        sim::Table t({"copybreak", "receiver CPU", "policy"});
        for (std::size_t cb :
             {std::size_t{0}, std::size_t{1024}, std::size_t{4096},
              std::size_t{16384}, std::size_t{65536},
              std::size_t{1} << 30}) {
            const double cpu = run(cb, msg);
            std::string policy =
                cb == 0 ? "offload everything"
                : cb > msg ? "never offload (CPU copies)"
                           : "offload >= " + std::to_string(cb / 1024) +
                                 "K";
            t.addRow({cb >= (std::size_t{1} << 30)
                          ? "inf"
                          : std::to_string(cb),
                      pct(cpu), policy});
        }
        t.print(std::cout);
        std::cout << "\n";
    }
    if (opts.instrumented())
        run(4096, 65536, &opts);

    std::cout << "Offloading below the pin+submit breakeven wastes "
                 "CPU; the kernel's 4K copybreak is near-optimal.\n";
    return 0;
    });
}
