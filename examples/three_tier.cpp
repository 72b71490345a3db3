/**
 * @file
 * Example: the full three-tier data center of the paper's Fig. 2a —
 * proxy → application servers → database — under a mixed-size Zipf
 * workload, with per-node statistics snapshots and a chrome-trace
 * dump of the application tier.
 *
 * Demonstrates the extension surfaces: dynamic tiers, mixed-size
 * workloads, NodeSnapshot reporting and TraceWriter export.
 */

#include <cstdio>
#include <iostream>

#include "core/stats_report.hh"
#include "core/testbed.hh"
#include "datacenter/app_server.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/trace_workload.hh"
#include "datacenter/web_server.hh"
#include "simcore/simcore.hh"

using namespace ioat;
using core::IoatConfig;
using sim::Simulation;

int
main()
{
    std::printf("Three-tier data center: 32 clients -> proxy -> app "
                "servers -> database\n\n");

    Simulation sim;
    core::Testbed tb(sim,
                     core::TestbedConfig{
                         .serverCount = 3,
                         .serverConfig = core::NodeConfig::server(
                             IoatConfig::enabled()),
                         .clientCount = 4,
                     });

    // Tier 3: database.  Tier 2: app server.  Tier 1 would be the
    // proxy; here clients hit the app tier directly with dynamic
    // requests (the proxy path is exercised in datacenter_sim).
    dc::DcConfig http;
    dc::DynConfig dyn;
    dc::Database db(tb.server(2), dyn);
    dc::AppServer app(tb.server(1), http, dyn, tb.server(2).id());
    db.start();
    app.start();

    // Mixed-size Zipf workload (sizes only shape client touch costs
    // here since dynamic responses are fixed-size pages).
    dc::MixedSizeZipfWorkload workload(0.9, 5000);

    dc::ClientFleet::Options opts;
    opts.target = tb.server(1).id();
    opts.port = dyn.appPort;
    opts.threads = 32;
    opts.requestTag = static_cast<std::uint64_t>(dc::DynTag::DynamicGet);
    dc::ClientFleet fleet({&tb.client(0), &tb.client(1), &tb.client(2),
                           &tb.client(3)},
                          workload, opts);
    fleet.start();

    // Trace the app tier's CPU + DMA activity for a short window.
    sim::TraceWriter trace;
    sim.runFor(sim::milliseconds(200)); // warmup
    tb.server(1).cpu().setTracer(&trace);
    if (tb.server(1).dma())
        tb.server(1).dma()->setTracer(&trace);

    const auto app0 = core::NodeSnapshot::capture(tb.server(1));
    const auto db0 = core::NodeSnapshot::capture(tb.server(2));
    const auto done0 = fleet.completed();
    sim.runFor(sim::milliseconds(300));

    tb.server(1).cpu().setTracer(nullptr);
    if (tb.server(1).dma())
        tb.server(1).dma()->setTracer(nullptr);

    const auto appD = core::NodeSnapshot::capture(tb.server(1)) - app0;
    const auto dbD = core::NodeSnapshot::capture(tb.server(2)) - db0;

    const double tps =
        static_cast<double>(fleet.completed() - done0) /
        sim::toSeconds(sim::milliseconds(300));
    std::printf("throughput: %.0f dynamic requests/s, mean latency "
                "%.0f us, p-numbers in latencyUs()\n\n",
                tps, fleet.latencyUs().mean());

    appD.print(std::cout, "app-server tier",
               tb.server(1).cpu().coreCount());
    std::cout << '\n';
    dbD.print(std::cout, "database tier",
              tb.server(2).cpu().coreCount());

    trace.save("three_tier_trace.json");
    std::printf("\nwrote chrome trace (%zu events) to "
                "three_tier_trace.json — open in chrome://tracing\n",
                trace.eventCount());
    return 0;
}
