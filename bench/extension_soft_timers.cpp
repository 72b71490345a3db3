/**
 * @file
 * Extension: soft-timers + I/OAT (paper §7: "Mohit, et. al., have
 * proposed soft-timer techniques to reduce the receiver-side
 * processing.  I/OAT can co-exist with this technology to further
 * reduce the receiver-side overheads").
 *
 * Four receiver configurations on a small-message multi-stream
 * workload: interrupt-driven vs soft-timer polling, each with and
 * without I/OAT.  The combination should stack, as §7 predicts.
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
    std::uint64_t interrupts;
    std::uint64_t polls;
};

Result
run(IoatConfig features, bool soft_timers,
    const Options *report = nullptr)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    NodeConfig cfg = NodeConfig::server(features, 4);
    if (soft_timers)
        cfg.nic.pollingPeriod = sim::microseconds(50);
    Node client(sim, fabric, cfg);
    Node server(sim, fabric, cfg);

    core::AppMemory mem(server.host(), "sink");
    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);
    sim.spawn(streamSinkLoop(server, 5001,
                             {.recvChunk = 16384, .touchPayload = true},
                             mem));
    for (unsigned i = 0; i < 8; ++i)
        sim.spawn(streamSenderLoop(client, server.id(), 5001, 16384));

    Meter meter(sim);
    meter.warmup(sim::milliseconds(100), {&client, &server});
    const std::uint64_t rx0 = server.stack().rxPayloadBytes();
    const std::uint64_t irq0 = server.nic().interrupts();
    const std::uint64_t poll0 = server.nic().softPolls();
    meter.run(sim::milliseconds(400));

    if (tr)
        tr->finish({{"softTimers", soft_timers ? "true" : "false"},
                    {"ioat", features.any() ? "true" : "false"}});

    return {sim::throughputMbps(server.stack().rxPayloadBytes() - rx0,
                                meter.elapsed()),
            server.cpu().utilization(),
            server.nic().interrupts() - irq0,
            server.nic().softPolls() - poll0};
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("extension_soft_timers");
    return benchMain(argc, argv, opts, [&](const Options &) {

    std::cout << "=== Extension: soft timers + I/OAT (SS7 co-existence "
                 "claim) ===\n\n";
    std::cout << "8 x 16K-message streams over 4 ports; receiver "
                 "notification mode x I/OAT:\n";
    sim::Table t({"configuration", "Mbps", "receiver CPU",
                  "interrupts/s", "polls/s"});
    struct Cfg
    {
        const char *name;
        IoatConfig features;
        bool soft;
    };
    const Cfg cfgs[] = {
        {"interrupts, non-I/OAT", IoatConfig::disabled(), false},
        {"interrupts, I/OAT", IoatConfig::enabled(), false},
        {"soft timers, non-I/OAT", IoatConfig::disabled(), true},
        {"soft timers, I/OAT", IoatConfig::enabled(), true},
    };
    for (const auto &c : cfgs) {
        const Result r = run(c.features, c.soft);
        t.addRow({c.name, num(r.mbps, 0), pct(r.cpu),
                  num(static_cast<double>(r.interrupts) / 0.4, 0),
                  num(static_cast<double>(r.polls) / 0.4, 0)});
    }
    t.print(std::cout);

    if (opts.instrumented())
        run(IoatConfig::enabled(), true, &opts);

    std::cout << "\nSoft timers remove per-packet interrupt entries; "
                 "I/OAT removes copies and header misses.  The two "
                 "attack different terms, so their savings stack — "
                 "the paper's SS7 co-existence argument.\n";
    return 0;
    });
}
