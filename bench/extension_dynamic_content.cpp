/**
 * @file
 * Extension: the dynamic-content / 3-tier experiment the paper
 * describes (§3.1, §5.1 workload class iii) but never runs.
 *
 * Clients fire dynamic requests at the application-server tier,
 * which runs a script, makes two database round trips and returns a
 * generated 16 K page (no sendfile possible).  The paper's §5.1
 * prediction: the CPU-intensive application tier benefits from I/OAT
 * because receive-path relief turns directly into script capacity.
 */

#include <iostream>
#include <optional>

#include "common.hh"
#include "datacenter/app_server.hh"
#include "datacenter/client.hh"
#include "datacenter/workload.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct Result
{
    double tps;
    double appCpu;
    double dbCpu;
};

Result
run(IoatConfig features, unsigned threads,
    const Options *report = nullptr)
{
    Simulation sim;
    const NodeConfig cfg = NodeConfig::server(features);
    core::Testbed tb(sim,
                     core::TestbedConfig{
                         .serverCount = 2,
                         .serverConfig = cfg,
                         .clientCount = 4,
                     });

    dc::DcConfig http;
    dc::DynConfig dyn;
    dc::Database db(tb.server(1), dyn);
    dc::AppServer app(tb.server(0), http, dyn, tb.server(1).id());
    db.start();
    app.start();

    dc::SingleFileWorkload wl(dyn.responseBytes, 5000);
    dc::ClientFleet::Options opts;
    opts.target = tb.server(0).id();
    opts.port = dyn.appPort;
    opts.threads = threads;
    opts.requestTag = static_cast<std::uint64_t>(dc::DynTag::DynamicGet);
    dc::ClientFleet fleet({&tb.client(0), &tb.client(1), &tb.client(2),
                           &tb.client(3)},
                          wl, opts);
    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);
    fleet.start();

    Meter meter(sim);
    meter.warmup(sim::milliseconds(300), {&tb.server(0), &tb.server(1)});
    const std::uint64_t done0 = fleet.completed();
    meter.run(sim::milliseconds(700));
    const std::uint64_t done1 = fleet.completed();

    if (tr)
        tr->finish({{"threads", std::to_string(threads)},
                    {"ioat", cfg.ioat.any() ? "true" : "false"}});

    return {static_cast<double>(done1 - done0) /
                sim::toSeconds(meter.elapsed()),
            tb.server(0).cpu().utilization(),
            tb.server(1).cpu().utilization()};
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("extension_dynamic_content");
    return benchMain(argc, argv, opts, [&](const Options &) {

    std::cout << "=== Extension: dynamic content, 3 tiers (client -> "
                 "app server -> database) ===\n\n";
    sim::Table t({"threads", "non-ioat TPS", "ioat TPS", "improvement",
                  "non-ioat app CPU", "ioat app CPU"});
    for (unsigned threads : {8u, 16u, 32u, 64u, 128u}) {
        const Result non = run(IoatConfig::disabled(), threads);
        const Result yes = run(IoatConfig::enabled(), threads);
        t.addRow({std::to_string(threads), num(non.tps, 0),
                  num(yes.tps, 0), pct((yes.tps - non.tps) / non.tps),
                  pct(non.appCpu), pct(yes.appCpu)});
    }
    t.print(std::cout);

    if (opts.instrumented())
        run(IoatConfig::enabled(), 64, &opts);

    std::cout << "\nDynamic pages cannot use sendfile and each request "
                 "costs script + DB round trips, so receive-path "
                 "relief converts into additional script capacity "
                 "(the paper's SS5.1 argument, quantified).\n";
    return 0;
    });
}
