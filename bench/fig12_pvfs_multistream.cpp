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
#include <optional>

#include "pvfs_common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct Result
{
    double mbps;
    double clientCpu;
};

Result
run(IoatConfig features, unsigned emulated_clients,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    constexpr unsigned kIods = 6;
    PvfsRig rig(features, kIods, choice);
    const std::size_t region = 2ull * 1024 * 1024 * kIods;

    std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
    for (unsigned c = 0; c < emulated_clients; ++c)
        clients.push_back(rig.makeClient());

    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(rig.sim, *report);

    for (unsigned c = 0; c < emulated_clients; ++c) {
        const auto h =
            rig.presizeFile("f" + std::to_string(c), region);
        rig.sim.spawn([](pvfs::PvfsClient &cl, pvfs::FileHandle fh,
                         std::size_t bytes) -> Coro<void> {
            co_await cl.connect();
            for (;;)
                co_await cl.read(fh, 0, bytes);
        }(*clients[c], h, region));
    }

    Meter meter(rig.sim);
    meter.warmup(sim::milliseconds(200),
                 {&rig.serverNode(), &rig.clientNode()});
    std::uint64_t rx0 = 0;
    for (const auto &c : clients)
        rx0 += c->bytesRead();
    meter.run(sim::milliseconds(600));
    std::uint64_t rx1 = 0;
    for (const auto &c : clients)
        rx1 += c->bytesRead();

    if (tr)
        tr->finish(
            {{"emulatedClients", std::to_string(emulated_clients)},
             {"ioat", features.any() ? "true" : "false"}});

    return {sim::throughputMBps(rx1 - rx0, meter.elapsed()),
            rig.clientNode().cpu().utilization()};
}

} // namespace

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
            const Result r = run(IoatConfig::disabled(), clients,
                                 nullptr, opts.transportChoice());
            t.addRow({std::to_string(clients), num(r.mbps, 0),
                      pct(r.clientCpu)});
        }
        t.print(std::cout);
        if (opts.instrumented())
            run(IoatConfig::disabled(), 16, &opts,
                opts.transportChoice());
        return 0;
    }

    std::cout << "=== Figure 12: Multi-Stream PVFS Read Performance (6 "
                 "I/O servers) ===\n\n";
    sim::Table t({"clients", "non-ioat MB/s", "ioat MB/s",
                  "throughput gain", "non-ioat client CPU",
                  "ioat client CPU"});
    for (unsigned clients : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
        const Result non = run(IoatConfig::disabled(), clients);
        const Result yes = run(IoatConfig::enabled(), clients);
        t.addRow({std::to_string(clients), num(non.mbps, 0),
                  num(yes.mbps, 0),
                  pct((yes.mbps - non.mbps) / non.mbps),
                  pct(non.clientCpu), pct(yes.clientCpu)});
    }
    t.print(std::cout);

    if (opts.instrumented())
        run(IoatConfig::enabled(), 16, &opts);

    std::cout << "\nPaper anchors: I/OAT throughput >= non-I/OAT "
                 "everywhere; I/OAT *client* CPU runs ~10-12% higher "
                 "because faster receives let clients issue reads "
                 "faster.\n";
    return 0;
    });
}
