/**
 * @file
 * Reproduces Figure 11: PVFS concurrent write performance on ramfs
 * (§6.2.1).  Same shape as the read test, but data flows from the
 * compute processes to the I/O servers, so the receiver-side benefit
 * (and the reported CPU) is on the *server* node.
 */

#include <iostream>

#include "pvfs_common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

void
table(unsigned iods)
{
    std::cout << "Figure 11" << (iods == 6 ? "a" : "b") << ": " << iods
              << " I/O servers\n";
    sim::Table t({"clients", "non-ioat MB/s", "ioat MB/s",
                  "throughput gain", "non-ioat CPU", "ioat CPU",
                  "rel CPU benefit"});
    for (unsigned clients = 1; clients <= 6; ++clients) {
        const PvfsResult non =
            runPvfs(PvfsOp::write, IoatConfig::disabled(), iods, clients);
        const PvfsResult yes =
            runPvfs(PvfsOp::write, IoatConfig::enabled(), iods, clients);
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
    Options opts("fig11_pvfs_write", {.transport = true});
    return benchMain(argc, argv, opts, [&](const Options &) {

    if (opts.singleTransport()) {
        std::cout << "=== Figure 11 (" << opts.transportName()
                  << " transport, 6 I/O servers) ===\n\n";
        sim::Table t({"clients", "MB/s", "server CPU"});
        for (unsigned clients = 1; clients <= 6; ++clients) {
            const PvfsResult r =
                runPvfs(PvfsOp::write, IoatConfig::disabled(), 6, clients,
                        opts.transportChoice());
            t.addRow({std::to_string(clients), num(r.mbps, 0),
                      pct(r.cpu)});
        }
        t.print(std::cout);
        if (opts.instrumented())
            runPvfs(PvfsOp::write, IoatConfig::disabled(), 6, 6,
                    opts.transportChoice(), &opts,
                    {{"iodCount", "6"}, {"computeNodes", "6"}});
        return 0;
    }

    std::cout << "=== Figure 11: PVFS Concurrent Write Performance "
                 "(ramfs) ===\n\n";
    table(6);
    table(5);

    if (opts.instrumented())
        runPvfs(PvfsOp::write, IoatConfig::enabled(), 6, 6,
                TransportChoice::none, &opts,
                {{"iodCount", "6"}, {"computeNodes", "6"}});

    std::cout << "Paper anchors: 6 servers: non-I/OAT 464->697 MB/s, "
                 "I/OAT 460->750 MB/s (~8% at 6 clients), ~7% CPU "
                 "benefit;\n5 servers: same trends.\n";
    return 0;
    });
}
