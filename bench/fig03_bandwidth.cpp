/**
 * @file
 * Reproduces Figure 3: (a) unidirectional bandwidth and (b)
 * bi-directional bandwidth vs number of network ports, with receiver
 * CPU utilization, for I/OAT and non-I/OAT.
 *
 * Setup mirrors §4.1: two Testbed-1 nodes, ttcp-style streams, one
 * connection per port (bandwidth) or 2N threads / N per direction
 * (bi-directional).
 */

#include <chrono>
#include <iostream>
#include <optional>
#include <vector>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct Result
{
    double mbps;
    double cpu; ///< receiver-side utilization 0..1
};

Result
runBandwidth(const Options &o, IoatConfig features, unsigned ports,
             bool bidirectional, bool artifacts = false,
             TransportChoice choice = TransportChoice::none)
{
    const auto wall0 = std::chrono::steady_clock::now();
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    NodeConfig cfg = NodeConfig::server(features, ports);
    applyTransport(cfg, choice);
    Node a(sim, fabric, cfg);
    Node b(sim, fabric, cfg);

    core::AppMemory memA(a.host(), "sinkA");
    core::AppMemory memB(b.host(), "sinkB");

    std::optional<TelemetryRun> tr;
    if (artifacts)
        tr.emplace(sim, o);

    const std::size_t chunk = 64 * 1024;
    sim.spawn(streamSinkLoop(b, 5001, {.recvChunk = chunk}, memB));
    for (unsigned i = 0; i < ports; ++i)
        sim.spawn(streamSenderLoop(a, b.id(), 5001, chunk));
    if (bidirectional) {
        sim.spawn(streamSinkLoop(a, 5001, {.recvChunk = chunk}, memA));
        for (unsigned i = 0; i < ports; ++i)
            sim.spawn(streamSenderLoop(b, a.id(), 5001, chunk));
    }

    Meter meter(sim);
    meter.warmup(sim::milliseconds(100), {&a, &b});
    const std::uint64_t rx0 = b.transport().rxPayloadBytes() +
                              a.transport().rxPayloadBytes();
    meter.run(sim::milliseconds(400));
    const std::uint64_t rx1 = b.transport().rxPayloadBytes() +
                              a.transport().rxPayloadBytes();

    if (tr) {
        // Simulator throughput for the CI perf gate: the bypass
        // transport must push at least as many events/sec as tcp.
        const auto wall1 = std::chrono::steady_clock::now();
        const double wallSec =
            std::chrono::duration<double>(wall1 - wall0).count();
        const double eps =
            wallSec > 0.0
                ? static_cast<double>(sim.executedEvents()) / wallSec
                : 0.0;
        tr->finish({{"ports", std::to_string(ports)},
                    {"bidirectional", bidirectional ? "true" : "false"},
                    {"ioat", features.any() ? "true" : "false"},
                    {"eventsPerSec", sim::strprintf("%.0f", eps)}});
    }

    return {sim::throughputMbps(rx1 - rx0, meter.elapsed()),
            b.cpu().utilization()};
}

/** Single-transport rendering for `--transport <t>`. */
void
singleTable(const Options &o, bool bidirectional, const char *title)
{
    std::cout << title << "\n";
    sim::Table t({"ports", "Mbps", "rx CPU"});
    for (unsigned ports = 1; ports <= 6; ++ports) {
        const Result r =
            runBandwidth(o, IoatConfig::disabled(), ports,
                         bidirectional, false, o.transportChoice());
        t.addRow({std::to_string(ports), num(r.mbps, 0), pct(r.cpu)});
    }
    t.print(std::cout);
    std::cout << "\n";
}

void
table(const Options &o, bool bidirectional, const char *title)
{
    std::cout << title << "\n";
    sim::Table t({"ports", "non-ioat Mbps", "ioat Mbps", "non-ioat CPU",
                  "ioat CPU", "rel CPU benefit"});
    for (unsigned ports = 1; ports <= 6; ++ports) {
        const Result non = runBandwidth(o, IoatConfig::disabled(),
                                        ports, bidirectional);
        const Result yes = runBandwidth(o, IoatConfig::enabled(),
                                        ports, bidirectional);
        t.addRow({std::to_string(ports), num(non.mbps, 0),
                  num(yes.mbps, 0), pct(non.cpu), pct(yes.cpu),
                  pct(relativeBenefit(yes.cpu, non.cpu))});
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fig03_bandwidth", {.transport = true});
    return benchMain(argc, argv, opts, [](const Options &o) {
        if (o.singleTransport()) {
            std::cout << "=== Figure 3 (" << o.transportName()
                      << " transport) ===\n\n";
            singleTable(o, false, "Figure 3a: Bandwidth vs ports");
            singleTable(o, true,
                        "Figure 3b: Bi-directional bandwidth vs ports "
                        "(2N threads)");
            if (o.instrumented())
                runBandwidth(o, IoatConfig::disabled(), 6, false, true,
                             o.transportChoice());
            return 0;
        }
        std::cout << "=== Figure 3: Bandwidth and Bi-directional "
                     "Bandwidth (ttcp, Testbed 1) ===\n\n";
        table(o, false, "Figure 3a: Bandwidth vs ports");
        table(o, true, "Figure 3b: Bi-directional bandwidth vs ports "
                       "(2N threads)");
        std::cout << "Paper anchors: ~5635 Mbps at 6 ports; 3a CPU 37% "
                     "vs 29% (~21% relative);\n"
                     "~9600 Mbps bidir; 3b CPU ~90% vs ~70% (~22% "
                     "relative).\n";
        if (o.instrumented())
            runBandwidth(o, IoatConfig::enabled(), 6, false, true);
        return 0;
    });
}
