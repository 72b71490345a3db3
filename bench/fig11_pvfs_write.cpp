/**
 * @file
 * Reproduces Figure 11: PVFS concurrent write performance on ramfs
 * (§6.2.1).  Same shape as the read test, but data flows from the
 * compute processes to the I/O servers, so the receiver-side benefit
 * (and the reported CPU) is on the *server* node.
 */

#include <iostream>
#include <optional>

#include "pvfs_common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct Result
{
    double mbps;
    double serverCpu;
};

Result
run(IoatConfig features, unsigned iod_count, unsigned compute_nodes,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    PvfsRig rig(features, iod_count, choice);
    const std::size_t region = 2ull * 1024 * 1024 * iod_count;

    std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
    for (unsigned c = 0; c < compute_nodes; ++c)
        clients.push_back(rig.makeClient());

    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(rig.sim, *report);

    for (unsigned c = 0; c < compute_nodes; ++c) {
        const auto h =
            rig.presizeFile("f" + std::to_string(c), region);
        rig.sim.spawn([](pvfs::PvfsClient &cl, pvfs::FileHandle fh,
                         std::size_t bytes) -> Coro<void> {
            co_await cl.connect();
            for (;;)
                co_await cl.write(fh, 0, bytes);
        }(*clients[c], h, region));
    }

    Meter meter(rig.sim);
    meter.warmup(sim::milliseconds(200),
                 {&rig.serverNode(), &rig.clientNode()});
    std::uint64_t tx0 = 0;
    for (const auto &c : clients)
        tx0 += c->bytesWritten();
    meter.run(sim::milliseconds(600));
    std::uint64_t tx1 = 0;
    for (const auto &c : clients)
        tx1 += c->bytesWritten();

    if (tr)
        tr->finish({{"iodCount", std::to_string(iod_count)},
                    {"computeNodes", std::to_string(compute_nodes)},
                    {"ioat", features.any() ? "true" : "false"}});

    return {sim::throughputMBps(tx1 - tx0, meter.elapsed()),
            rig.serverNode().cpu().utilization()};
}

void
table(unsigned iods)
{
    std::cout << "Figure 11" << (iods == 6 ? "a" : "b") << ": " << iods
              << " I/O servers\n";
    sim::Table t({"clients", "non-ioat MB/s", "ioat MB/s",
                  "throughput gain", "non-ioat CPU", "ioat CPU",
                  "rel CPU benefit"});
    for (unsigned clients = 1; clients <= 6; ++clients) {
        const Result non = run(IoatConfig::disabled(), iods, clients);
        const Result yes = run(IoatConfig::enabled(), iods, clients);
        t.addRow({std::to_string(clients), num(non.mbps, 0),
                  num(yes.mbps, 0), pct((yes.mbps - non.mbps) / non.mbps),
                  pct(non.serverCpu), pct(yes.serverCpu),
                  pct(relativeBenefit(yes.serverCpu, non.serverCpu))});
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
            const Result r = run(IoatConfig::disabled(), 6, clients,
                                 nullptr, opts.transportChoice());
            t.addRow({std::to_string(clients), num(r.mbps, 0),
                      pct(r.serverCpu)});
        }
        t.print(std::cout);
        if (opts.instrumented())
            run(IoatConfig::disabled(), 6, 6, &opts,
                opts.transportChoice());
        return 0;
    }

    std::cout << "=== Figure 11: PVFS Concurrent Write Performance "
                 "(ramfs) ===\n\n";
    table(6);
    table(5);

    if (opts.instrumented())
        run(IoatConfig::enabled(), 6, 6, &opts);

    std::cout << "Paper anchors: 6 servers: non-I/OAT 464->697 MB/s, "
                 "I/OAT 460->750 MB/s (~8% at 6 clients), ~7% CPU "
                 "benefit;\n5 servers: same trends.\n";
    return 0;
    });
}
