/**
 * @file
 * Reproduces Figure 7: the I/OAT feature split-up (§4.5).
 *
 * Two Testbed-1 nodes with two dual-port adapters (4 ports), four
 * client streams to four server threads.  Three configurations:
 * non-I/OAT, I/OAT-DMA (copy engine only) and I/OAT-SPLIT (copy
 * engine + split headers).
 *
 * (a) small/medium messages (16K-128K): relative receiver-CPU benefit
 *     attributed to the DMA engine and to split headers;
 * (b) large messages (1M-8M, working set exceeds the 2 MB L2):
 *     throughput benefit of split headers.
 */

#include <iostream>

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

StreamResult
run(IoatConfig features, std::size_t msg_bytes,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    NodeConfig cfg = NodeConfig::server(features, 4);
    applyTransport(cfg, choice);
    StreamPair rig(cfg, report);
    // The four server threads consume whole messages and stream over
    // them once (this working set is what overflows the L2 at 1M+).
    const StreamResult r = rig.run({.streams = 4,
                                    .chunk = msg_bytes,
                                    .touchPayload = true,
                                    .warmup = sim::milliseconds(150),
                                    .window = sim::milliseconds(500)});
    if (TelemetryRun *tr = rig.telemetry())
        tr->finish({{"msgBytes", std::to_string(msg_bytes)},
                    {"ioat", cfg.ioat.any() ? "true" : "false"}});
    return r;
}

std::string
sizeLabel(std::size_t bytes)
{
    if (bytes >= 1024 * 1024)
        return std::to_string(bytes / (1024 * 1024)) + "M";
    return std::to_string(bytes / 1024) + "K";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fig07_splitup", {.transport = true});
    return benchMain(argc, argv, opts, [&](const Options &) {

    if (opts.singleTransport()) {
        std::cout << "=== Figure 7 (" << opts.transportName()
                  << " transport) ===\n\n";
        sim::Table t({"msg size", "Mbps", "rx CPU"});
        for (std::size_t sz :
             {std::size_t{16} << 10, std::size_t{64} << 10,
              std::size_t{1} << 20, std::size_t{4} << 20}) {
            const StreamResult r = run(IoatConfig::disabled(), sz, nullptr,
                                       opts.transportChoice());
            t.addRow({sizeLabel(sz), num(r.mbps, 0), pct(r.cpu)});
        }
        t.print(std::cout);
        if (opts.instrumented())
            run(IoatConfig::disabled(), std::size_t{1} << 20, &opts,
                opts.transportChoice());
        return 0;
    }

    std::cout << "=== Figure 7: I/OAT split-up benefits (4 ports, 4 "
                 "streams) ===\n\n";

    std::cout << "Figure 7a: CPU benefit by feature, small messages\n";
    sim::Table ta({"msg size", "non-ioat Mbps", "ioat-split Mbps",
                   "non-ioat CPU", "ioat-dma CPU", "ioat-split CPU",
                   "DMA benefit", "split benefit"});
    for (std::size_t sz :
         {std::size_t{16} << 10, std::size_t{32} << 10,
          std::size_t{64} << 10, std::size_t{128} << 10}) {
        const StreamResult non = run(IoatConfig::disabled(), sz);
        const StreamResult dma = run(IoatConfig::dmaOnly(), sz);
        const StreamResult split = run(IoatConfig::enabled(), sz);
        ta.addRow({sizeLabel(sz), num(non.mbps, 0), num(split.mbps, 0),
                   pct(non.cpu), pct(dma.cpu), pct(split.cpu),
                   pct(relativeBenefit(dma.cpu, non.cpu)),
                   pct(relativeBenefit(split.cpu, dma.cpu))});
    }
    ta.print(std::cout);

    std::cout << "\nFigure 7b: throughput benefit, large messages "
                 "(cache overflow)\n";
    sim::Table tb({"msg size", "non-ioat Mbps", "ioat-dma Mbps",
                   "ioat-split Mbps", "split throughput benefit"});
    for (std::size_t sz :
         {std::size_t{1} << 20, std::size_t{2} << 20,
          std::size_t{4} << 20, std::size_t{8} << 20}) {
        const StreamResult non = run(IoatConfig::disabled(), sz);
        const StreamResult dma = run(IoatConfig::dmaOnly(), sz);
        const StreamResult split = run(IoatConfig::enabled(), sz);
        const double benefit =
            dma.mbps > 0 ? (split.mbps - dma.mbps) / dma.mbps : 0.0;
        tb.addRow({sizeLabel(sz), num(non.mbps, 0), num(dma.mbps, 0),
                   num(split.mbps, 0), pct(benefit)});
    }
    tb.print(std::cout);

    if (opts.instrumented())
        run(IoatConfig::enabled(), std::size_t{1} << 20, &opts);

    std::cout << "\nPaper anchors: (a) DMA engine ~16% relative CPU "
                 "benefit for 16K-128K, no throughput change; split "
                 "headers add ~nothing at these sizes.\n(b) split "
                 "headers up to ~26% more throughput at 1M (4 MB "
                 "working set > 2 MB L2), benefit shrinking toward "
                 "8M.\n";
    return 0;
    });
}
