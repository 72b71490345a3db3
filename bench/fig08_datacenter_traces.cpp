/**
 * @file
 * Reproduces Figure 8: 2-tier data-center TPS (§5.2).
 *
 * (a) single-file micro traces with average file sizes 2K-10K;
 * (b) Zipf traces with alpha 0.95 down to 0.5.
 *
 * Clients are Testbed-2 nodes firing one request at a time at the
 * proxy tier; the proxy forwards misses to the web-server tier.  Both
 * tiers run on Testbed-1 nodes with or without I/OAT.
 */

#include <iostream>
#include <memory>
#include <optional>

#include "common.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

constexpr unsigned kClientNodes = 8;
constexpr unsigned kClientThreads = 64;

double
runTps(IoatConfig features, dc::Workload &workload,
       std::size_t proxy_cache_bytes, bool proxy_caching,
       const Options *report = nullptr,
       TransportChoice choice = TransportChoice::none)
{
    Simulation sim;
    NodeConfig server_cfg = NodeConfig::server(features);
    applyTransport(server_cfg, choice);
    NodeConfig client_cfg = NodeConfig::client();
    if (choice == TransportChoice::bypass)
        client_cfg.transport = core::TransportKind::bypass;
    core::Testbed tb(sim,
                     core::TestbedConfig{
                         .serverCount = 2,
                         .serverConfig = server_cfg,
                         .clientCount = kClientNodes,
                         .clientConfig = client_cfg,
                     });

    dc::DcConfig cfg;
    cfg.proxyCacheBytes = proxy_cache_bytes;
    cfg.proxyCachingEnabled = proxy_caching;
    dc::WebServer server(tb.server(1), cfg, workload);
    dc::Proxy proxy(tb.server(0), cfg, tb.server(1).id());
    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);
    server.start();
    proxy.start();

    std::vector<Node *> client_nodes;
    for (unsigned i = 0; i < kClientNodes; ++i)
        client_nodes.push_back(&tb.client(i));

    dc::ClientFleet::Options opts;
    opts.target = tb.server(0).id();
    opts.port = cfg.proxyPort;
    opts.threads = kClientThreads;
    dc::ClientFleet fleet(client_nodes, workload, opts);
    fleet.start();

    Meter meter(sim);
    meter.warmup(sim::milliseconds(300), {&tb.server(0), &tb.server(1)});
    const std::uint64_t done0 = fleet.completed();
    meter.run(sim::milliseconds(700));
    const std::uint64_t done1 = fleet.completed();

    if (tr)
        tr->finish(
            {{"proxyCacheBytes", std::to_string(proxy_cache_bytes)},
             {"proxyCaching", proxy_caching ? "true" : "false"},
             {"ioat", server_cfg.ioat.any() ? "true" : "false"}});

    return static_cast<double>(done1 - done0) /
           sim::toSeconds(meter.elapsed());
}

} // namespace

int
main(int argc, char **argv)
{
    Options options("fig08_datacenter_traces", {.transport = true});
    double quick = 0;
    options.knob("quick", &quick,
                 "nonzero: skip the sweeps, run only the instrumented "
                 "4K single-file configuration");
    return benchMain(argc, argv, options, [&quick](const Options &opts) {

    if (quick != 0) {
        dc::SingleFileWorkload wl(4096, 1000);
        const IoatConfig features = opts.singleTransport()
                                        ? IoatConfig::disabled()
                                        : IoatConfig::enabled();
        const double tps = runTps(features, wl, 0, false, &opts,
                                  opts.transportChoice());
        std::cout << "fig08 quick run: " << num(tps, 0) << " TPS\n";
        return 0;
    }

    if (opts.singleTransport()) {
        std::cout << "=== Figure 8 (" << opts.transportName()
                  << " transport) ===\n\n";
        sim::Table t({"trace", "file size", "TPS"});
        int trace = 1;
        for (std::size_t bytes : {std::size_t{2048}, std::size_t{4096},
                                  std::size_t{8192}}) {
            dc::SingleFileWorkload wl(bytes, 1000);
            const double tps = runTps(IoatConfig::disabled(), wl, 0,
                                      false, nullptr,
                                      opts.transportChoice());
            t.addRow({"Trace " + std::to_string(trace++),
                      std::to_string(bytes / 1024) + "K", num(tps, 0)});
        }
        t.print(std::cout);
        if (opts.instrumented()) {
            dc::SingleFileWorkload wl(4096, 1000);
            runTps(IoatConfig::disabled(), wl, 0, false, &opts,
                   opts.transportChoice());
        }
        return 0;
    }

    std::cout << "=== Figure 8: Data-Center Performance (2-tier, "
              << kClientThreads << " clients on " << kClientNodes
              << " nodes) ===\n\n";

    std::cout << "Figure 8a: Single-file traces\n";
    sim::Table ta({"trace", "file size", "non-ioat TPS", "ioat TPS",
                   "improvement"});
    int trace = 1;
    for (std::size_t bytes : {std::size_t{2048}, std::size_t{4096},
                              std::size_t{6144}, std::size_t{8192},
                              std::size_t{10240}}) {
        dc::SingleFileWorkload wl(bytes, 1000);
        // Pure mod_proxy forwarding tier (no response cache), so the
        // proxy's receive path sees every response.
        const double non =
            runTps(IoatConfig::disabled(), wl, 0, false);
        const double yes = runTps(IoatConfig::enabled(), wl, 0, false);
        ta.addRow({"Trace " + std::to_string(trace++),
                   std::to_string(bytes / 1024) + "K", num(non, 0),
                   num(yes, 0), pct((yes - non) / non)});
    }
    ta.print(std::cout);

    std::cout << "\nFigure 8b: Zipf traces (20000 files x 8K)\n";
    sim::Table tb2({"alpha", "non-ioat TPS", "ioat TPS", "improvement",
                    "note"});
    for (double alpha : {0.95, 0.9, 0.75, 0.5}) {
        dc::ZipfWorkload wl_non(alpha, 20000, 8192);
        dc::ZipfWorkload wl_yes(alpha, 20000, 8192);
        // Modest proxy cache so alpha controls the hit rate.
        const double non = runTps(IoatConfig::disabled(), wl_non,
                                  16 * 1024 * 1024, true);
        const double yes = runTps(IoatConfig::enabled(), wl_yes,
                                  16 * 1024 * 1024, true);
        tb2.addRow({num(alpha, 2), num(non, 0), num(yes, 0),
                    pct((yes - non) / non),
                    alpha >= 0.9 ? "high locality" : "low locality"});
    }
    tb2.print(std::cout);

    if (opts.instrumented()) {
        dc::SingleFileWorkload wl(4096, 1000);
        runTps(IoatConfig::enabled(), wl, 0, false, &opts);
    }

    std::cout << "\nPaper anchors: (a) I/OAT ~14% more TPS on the 4K "
                 "trace (9754 vs 8569), 5-8% elsewhere.\n(b) I/OAT >= "
                 "non-I/OAT for every alpha, up to ~11% at low "
                 "locality.\n";
    return 0;
    });
}
