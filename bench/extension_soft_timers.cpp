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

#include "common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

StreamResult
run(IoatConfig features, bool soft_timers,
    const Options *report = nullptr)
{
    NodeConfig cfg = NodeConfig::server(features, 4);
    if (soft_timers)
        cfg.nic.pollingPeriod = sim::microseconds(50);
    StreamPair rig(cfg, report);
    const StreamResult r =
        rig.run({.streams = 8, .chunk = 16384, .touchPayload = true});
    if (TelemetryRun *tr = rig.telemetry())
        tr->finish({{"softTimers", soft_timers ? "true" : "false"},
                    {"ioat", cfg.ioat.any() ? "true" : "false"}});
    return r;
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
        const StreamResult r = run(c.features, c.soft);
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
