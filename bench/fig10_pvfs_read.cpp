/**
 * @file
 * Reproduces Figure 10: PVFS concurrent read performance on ramfs
 * (§6.2.1) with 6 and 5 I/O servers and 1-6 compute processes.
 *
 * Each compute process repeatedly reads a contiguous region of
 * 2N MB (N = iod count), i.e. 2 MB from every I/O server per
 * iteration, matching pvfs-test.  Since I/OAT is a receiver-side
 * optimization and reads land on the compute node, the reported CPU
 * is the client side's.
 */

#include <iostream>

#include "pvfs_common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

void
table(unsigned iods)
{
    std::cout << "Figure 10" << (iods == 6 ? "a" : "b") << ": " << iods
              << " I/O servers\n";
    sim::Table t({"clients", "non-ioat MB/s", "ioat MB/s",
                  "throughput gain", "non-ioat CPU", "ioat CPU",
                  "rel CPU benefit"});
    for (unsigned clients = 1; clients <= 6; ++clients) {
        const PvfsResult non =
            runPvfs(PvfsOp::read, IoatConfig::disabled(), iods, clients);
        const PvfsResult yes =
            runPvfs(PvfsOp::read, IoatConfig::enabled(), iods, clients);
        t.addRow({std::to_string(clients), num(non.mbps, 0),
                  num(yes.mbps, 0), pct((yes.mbps - non.mbps) / non.mbps),
                  pct(non.cpu), pct(yes.cpu),
                  pct(relativeBenefit(yes.cpu, non.cpu))});
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fig10_pvfs_read", {.transport = true});
    return benchMain(argc, argv, opts, [&](const Options &) {

    if (opts.singleTransport()) {
        std::cout << "=== Figure 10 (" << opts.transportName()
                  << " transport, 6 I/O servers) ===\n\n";
        sim::Table t({"clients", "MB/s", "client CPU"});
        for (unsigned clients = 1; clients <= 6; ++clients) {
            const PvfsResult r =
                runPvfs(PvfsOp::read, IoatConfig::disabled(), 6, clients,
                        opts.transportChoice());
            t.addRow({std::to_string(clients), num(r.mbps, 0),
                      pct(r.cpu)});
        }
        t.print(std::cout);
        if (opts.instrumented())
            runPvfs(PvfsOp::read, IoatConfig::disabled(), 6, 6,
                    opts.transportChoice(), &opts,
                    {{"iodCount", "6"}, {"computeNodes", "6"}});
        return 0;
    }

    std::cout << "=== Figure 10: PVFS Concurrent Read Performance "
                 "(ramfs) ===\n\n";
    table(6);
    table(5);

    if (opts.instrumented())
        runPvfs(PvfsOp::read, IoatConfig::enabled(), 6, 6,
                TransportChoice::none, &opts,
                {{"iodCount", "6"}, {"computeNodes", "6"}});

    std::cout << "Paper anchors: 6 servers: non-I/OAT 361->649 MB/s, "
                 "I/OAT 360->731 MB/s (~12% at 6 clients), ~15% CPU "
                 "benefit;\n5 servers: same trends, smaller gains.\n";
    return 0;
    });
}
