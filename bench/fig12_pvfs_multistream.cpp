/**
 * @file
 * Reproduces Figure 12: multi-stream PVFS read performance (§6.2.2).
 *
 * 6 I/O servers; 1..64 emulated client processes on the compute node,
 * each repeatedly reading its own 2 MB-per-iod region.  The paper's
 * twist: with I/OAT the *client-side* CPU is ~10-12% HIGHER, because
 * clients receive data faster and therefore fire requests faster —
 * throughput, not CPU, is what improves.
 */

#include <iostream>

#include "pvfs_common.hh"

using namespace ioat;
using namespace ioat::bench;

int
main(int argc, char **argv)
{
    Options opts("fig12_pvfs_multistream", {.transport = true});
    return benchMain(argc, argv, opts, [&](const Options &) {

    if (opts.singleTransport()) {
        std::cout << "=== Figure 12 (" << opts.transportName()
                  << " transport, 6 I/O servers) ===\n\n";
        sim::Table t({"clients", "MB/s", "client CPU"});
        for (unsigned clients : {1u, 4u, 16u, 64u}) {
            const PvfsResult r =
                runPvfs(PvfsOp::read, IoatConfig::disabled(), 6, clients,
                        opts.transportChoice());
            t.addRow({std::to_string(clients), num(r.mbps, 0),
                      pct(r.cpu)});
        }
        t.print(std::cout);
        if (opts.instrumented())
            runPvfs(PvfsOp::read, IoatConfig::disabled(), 6, 16,
                    opts.transportChoice(), &opts,
                    {{"emulatedClients", "16"}});
        return 0;
    }

    std::cout << "=== Figure 12: Multi-Stream PVFS Read Performance (6 "
                 "I/O servers) ===\n\n";
    sim::Table t({"clients", "non-ioat MB/s", "ioat MB/s",
                  "throughput gain", "non-ioat client CPU",
                  "ioat client CPU"});
    for (unsigned clients : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        const PvfsResult non =
            runPvfs(PvfsOp::read, IoatConfig::disabled(), 6, clients);
        const PvfsResult yes =
            runPvfs(PvfsOp::read, IoatConfig::enabled(), 6, clients);
        t.addRow({std::to_string(clients), num(non.mbps, 0),
                  num(yes.mbps, 0),
                  pct((yes.mbps - non.mbps) / non.mbps),
                  pct(non.cpu), pct(yes.cpu)});
    }
    t.print(std::cout);

    if (opts.instrumented())
        runPvfs(PvfsOp::read, IoatConfig::enabled(), 6, 16,
                TransportChoice::none, &opts, {{"emulatedClients", "16"}});

    std::cout << "\nPaper anchors: I/OAT throughput >= non-I/OAT "
                 "everywhere; I/OAT *client* CPU runs ~10-12% higher "
                 "because faster receives let clients issue reads "
                 "faster.\n";
    return 0;
    });
}
