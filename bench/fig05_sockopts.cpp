/**
 * @file
 * Reproduces Figure 5: bandwidth and bi-directional bandwidth under
 * cumulative sender-side socket optimizations (§4.3):
 *
 *   Case 1: default socket options
 *   Case 2: + 1 MB socket buffers
 *   Case 3: + TCP segmentation offload (TSO)
 *   Case 4: + jumbo frames (MTU 2048)
 *   Case 5: + interrupt coalescing
 *
 * Reports throughput for non-I/OAT and I/OAT plus the relative
 * receiver-CPU benefit of I/OAT per case.
 */

#include <iostream>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

NodeConfig
caseConfig(IoatConfig features, int case_id)
{
    NodeConfig cfg = NodeConfig::server(features, 6);
    cfg.tcp.sockBuf = 64 * 1024; // era default
    if (case_id >= 2)
        cfg.tcp.sockBuf = 1024 * 1024;
    if (case_id >= 3)
        cfg.nic.tso = true;
    if (case_id >= 4)
        cfg.nic.mtu = 2048;
    if (case_id >= 5)
        cfg.nic.coalesceDelay = sim::microseconds(60);
    return cfg;
}

StreamResult
run(IoatConfig features, int case_id, bool bidirectional,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    NodeConfig cfg = caseConfig(features, case_id);
    applyTransport(cfg, choice);
    StreamPair rig(cfg, report);
    const StreamResult r =
        rig.run({.streams = 6, .bidirectional = bidirectional});
    if (TelemetryRun *tr = rig.telemetry())
        tr->finish({{"case", std::to_string(case_id)},
                    {"bidirectional", bidirectional ? "true" : "false"},
                    {"ioat", cfg.ioat.any() ? "true" : "false"}});
    return r;
}

void
table(bool bidirectional, const char *title)
{
    std::cout << title << "\n";
    sim::Table t({"case", "optimizations", "non-ioat Mbps", "ioat Mbps",
                  "non-ioat CPU", "ioat CPU", "rel CPU benefit"});
    const char *labels[] = {
        "defaults", "+1MB sockbuf", "+TSO", "+jumbo (2048)",
        "+intr coalescing",
    };
    for (int c = 1; c <= 5; ++c) {
        const StreamResult non =
            run(IoatConfig::disabled(), c, bidirectional);
        const StreamResult yes =
            run(IoatConfig::enabled(), c, bidirectional);
        t.addRow({"Case " + std::to_string(c), labels[c - 1],
                  num(non.mbps, 0), num(yes.mbps, 0), pct(non.cpu),
                  pct(yes.cpu), pct(relativeBenefit(yes.cpu, non.cpu))});
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fig05_sockopts", {.transport = true});
    return benchMain(argc, argv, opts, [](const Options &o) {
        if (o.singleTransport()) {
            std::cout << "=== Figure 5 (" << o.transportName()
                      << " transport) ===\n\n";
            const char *labels[] = {
                "defaults", "+1MB sockbuf", "+TSO", "+jumbo (2048)",
                "+intr coalescing",
            };
            sim::Table t({"case", "optimizations", "Mbps", "rx CPU"});
            for (int c = 1; c <= 5; ++c) {
                const StreamResult r =
                    run(IoatConfig::disabled(), c, false, nullptr,
                        o.transportChoice());
                t.addRow({"Case " + std::to_string(c), labels[c - 1],
                          num(r.mbps, 0), pct(r.cpu)});
            }
            t.print(std::cout);
            if (o.instrumented())
                run(IoatConfig::disabled(), 5, false, &o,
                    o.transportChoice());
            return 0;
        }
        std::cout << "=== Figure 5: Socket Optimizations (6 ports) "
                     "===\n\n";
        table(false, "Figure 5a: Bandwidth");
        table(true, "Figure 5b: Bi-directional bandwidth");
        std::cout << "Paper anchors: throughput rises Case 1->5 (I/OAT "
                     "5586 vs non-I/OAT 5514 Mbps at Case 5);\nrelative "
                     "CPU benefit grows with optimizations, ~30% (5a) "
                     "and ~38% (5b) at Case 4.\n";
        if (o.instrumented())
            run(IoatConfig::enabled(), 5, false, &o);
        return 0;
    });
}
