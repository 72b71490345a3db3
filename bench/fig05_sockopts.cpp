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
#include <optional>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct Result
{
    double mbps;
    double cpu;
};

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

Result
run(IoatConfig features, int case_id, bool bidirectional,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    NodeConfig cfg = caseConfig(features, case_id);
    applyTransport(cfg, choice);
    Node a(sim, fabric, cfg);
    Node b(sim, fabric, cfg);

    core::AppMemory memA(a.host(), "sinkA");
    core::AppMemory memB(b.host(), "sinkB");
    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);
    const std::size_t chunk = 64 * 1024;
    sim.spawn(streamSinkLoop(b, 5001, {.recvChunk = chunk}, memB));
    for (unsigned i = 0; i < 6; ++i)
        sim.spawn(streamSenderLoop(a, b.id(), 5001, chunk));
    if (bidirectional) {
        sim.spawn(streamSinkLoop(a, 5001, {.recvChunk = chunk}, memA));
        for (unsigned i = 0; i < 6; ++i)
            sim.spawn(streamSenderLoop(b, a.id(), 5001, chunk));
    }

    Meter meter(sim);
    meter.warmup(sim::milliseconds(100), {&a, &b});
    const std::uint64_t rx0 =
        b.transport().rxPayloadBytes() + a.transport().rxPayloadBytes();
    meter.run(sim::milliseconds(400));
    const std::uint64_t rx1 =
        b.transport().rxPayloadBytes() + a.transport().rxPayloadBytes();

    if (tr)
        tr->finish({{"case", std::to_string(case_id)},
                    {"bidirectional", bidirectional ? "true" : "false"},
                    {"ioat", features.any() ? "true" : "false"}});

    return {sim::throughputMbps(rx1 - rx0, meter.elapsed()),
            b.cpu().utilization()};
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
        const Result non = run(IoatConfig::disabled(), c, bidirectional);
        const Result yes = run(IoatConfig::enabled(), c, bidirectional);
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
                const Result r = run(IoatConfig::disabled(), c, false,
                                     nullptr, o.transportChoice());
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
