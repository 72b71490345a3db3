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

#include <iostream>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

StreamResult
runBandwidth(const Options &o, IoatConfig features, unsigned ports,
             bool bidirectional, bool artifacts = false,
             TransportChoice choice = TransportChoice::none)
{
    NodeConfig cfg = NodeConfig::server(features, ports);
    applyTransport(cfg, choice);
    StreamPair rig(cfg, artifacts ? &o : nullptr);
    const StreamResult r =
        rig.run({.streams = ports, .bidirectional = bidirectional});
    if (TelemetryRun *tr = rig.telemetry())
        tr->finish({{"ports", std::to_string(ports)},
                    {"bidirectional", bidirectional ? "true" : "false"},
                    {"ioat", cfg.ioat.any() ? "true" : "false"}});
    return r;
}

/** Single-transport rendering for `--transport <t>`. */
void
singleTable(const Options &o, bool bidirectional, const char *title)
{
    std::cout << title << "\n";
    sim::Table t({"ports", "Mbps", "rx CPU"});
    for (unsigned ports = 1; ports <= 6; ++ports) {
        const StreamResult r =
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
        const StreamResult non = runBandwidth(
            o, IoatConfig::disabled(), ports, bidirectional);
        const StreamResult yes = runBandwidth(
            o, IoatConfig::enabled(), ports, bidirectional);
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
