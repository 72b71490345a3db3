/**
 * @file
 * Scale-out stress: the Figure 9 experiment grown from one emulated
 * client node to a cluster of them (8/16/32/64 nodes, 4 threads
 * each), all hammering one web-server node.
 *
 * Unlike the fig* benches this one reports *simulator* performance
 * alongside the modelled TPS: events executed, wall-clock seconds and
 * events/sec per sweep point.  Event population grows with cluster
 * size, which is exactly the regime the calendar-queue event loop is
 * built for — a comparison against an older tree shows how the
 * hot-path holds up as the cluster grows.
 *
 * The modelled results — TPS and event counts, digested into the
 * JSON "digest" field — are deterministic; only wall-clock and
 * events/sec change from run to run.
 *
 * Results are also written to BENCH_scale.json (see EXPERIMENTS.md
 * for the schema) so successive PRs can be compared mechanically.
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common.hh"
#include "datacenter/client.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "simcore/digest.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

constexpr unsigned kThreadsPerNode = 4;

struct Point
{
    unsigned clients;
    const char *config;
    double tps;
    std::uint64_t events;
    double wallSeconds;
    double eventsPerSec;
};

Point
run(IoatConfig features, const char *configName, unsigned clientNodes,
    const Options *report = nullptr)
{
    const auto wall0 = std::chrono::steady_clock::now();

    Simulation sim;
    core::Testbed tb(sim, core::TestbedConfig{
                              .serverCount = 1,
                              .serverConfig = NodeConfig::server(features, 6),
                              .clientCount = clientNodes,
                              .clientConfig = NodeConfig::server(features, 6),
                          });
    Node &server_node = tb.server(0);
    std::vector<core::Node *> clientPtrs;
    for (unsigned i = 0; i < clientNodes; ++i)
        clientPtrs.push_back(&tb.client(i));

    dc::DcConfig cfg;
    dc::SingleFileWorkload wl(16 * 1024, 1000);
    dc::WebServer server(server_node, cfg, wl);
    server.start();

    dc::ClientFleet::Options opts;
    opts.target = server_node.id();
    opts.port = cfg.serverPort;
    opts.threads = clientNodes * kThreadsPerNode;
    opts.perRequestCost = sim::microseconds(150);
    opts.touchPayload = true;
    opts.residentBytes = 2 * 1024 * 1024;
    opts.residentBytesPerThread = 512 * 1024;

    dc::ClientFleet fleet(clientPtrs, wl, opts);
    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);
    fleet.start();

    Meter meter(sim);
    meter.warmup(sim::milliseconds(100), {clientPtrs[0], &server_node});
    const std::uint64_t done0 = fleet.completed();
    meter.run(sim::milliseconds(400));
    const std::uint64_t done1 = fleet.completed();

    const auto wall1 = std::chrono::steady_clock::now();
    const double wallSec =
        std::chrono::duration<double>(wall1 - wall0).count();
    const std::uint64_t events = sim.executedEvents();

    if (tr)
        tr->finish({{"clientNodes", std::to_string(clientNodes)},
                    {"config", configName}});

    return {clientNodes, configName,
            static_cast<double>(done1 - done0) /
                sim::toSeconds(meter.elapsed()),
            events, wallSec, static_cast<double>(events) / wallSec};
}

/**
 * Digest over the *modelled* fields only (clients, config, tps,
 * events) — wall-clock and events/sec vary run to run, the model
 * must not.
 */
std::string
modelDigest(const std::vector<Point> &points)
{
    std::string text;
    for (const Point &p : points)
        text += std::to_string(p.clients) + "|" + p.config + "|" +
                sim::strprintf("%.3f", p.tps) + "|" +
                std::to_string(p.events) + "\n";
    return sim::digestOf(text);
}

void
writeJson(const std::vector<Point> &points, const std::string &path)
{
    std::ofstream out(path);
    out << "{\n  \"bench\": \"scale_cluster\",\n"
        << "  \"threadsPerNode\": " << kThreadsPerNode << ",\n"
        << "  \"digest\": \"" << modelDigest(points) << "\",\n"
        << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Point &p = points[i];
        out << "    {\"clients\": " << p.clients << ", \"config\": \""
            << p.config << "\", \"tps\": " << sim::strprintf("%.0f", p.tps)
            << ", \"events\": " << p.events << ", \"wallSeconds\": "
            << sim::strprintf("%.3f", p.wallSeconds)
            << ", \"eventsPerSec\": "
            << sim::strprintf("%.0f", p.eventsPerSec) << "}"
            << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options options("scale_cluster");
    double maxClients = 64;
    options.knob("max-clients", &maxClients,
                 "largest client-node count in the sweep (8/16/32/64)");
    return benchMain(argc, argv, options, [&maxClients](
                                              const Options &opts) {
    std::cout << "=== Cluster scale-out: Fig. 9 workload, N client "
                 "nodes x " << kThreadsPerNode << " threads ===\n\n";
    sim::Table t({"clients", "non-ioat TPS", "ioat TPS", "events",
                  "wall s", "events/sec"});
    std::vector<Point> points;
    for (unsigned clients : {8u, 16u, 32u, 64u}) {
        if (clients > maxClients)
            break;
        const Point non =
            run(IoatConfig::disabled(), "non-ioat", clients);
        const Point yes =
            run(IoatConfig::enabled(), "ioat", clients);
        points.push_back(non);
        points.push_back(yes);
        t.addRow({std::to_string(clients), num(non.tps, 0),
                  num(yes.tps, 0),
                  std::to_string(non.events + yes.events),
                  num(non.wallSeconds + yes.wallSeconds, 2),
                  num((static_cast<double>(non.events) +
                       static_cast<double>(yes.events)) /
                          (non.wallSeconds + yes.wallSeconds),
                      0)});
    }
    t.print(std::cout);

    if (opts.instrumented())
        run(IoatConfig::enabled(), "ioat", 8, &opts);

    const std::string path = "BENCH_scale.json";
    writeJson(points, path);
    std::cout << "\nWrote " << path << " (" << points.size()
              << " points, digest " << modelDigest(points)
              << ").\nevents/sec is simulator hot-path throughput: "
                 "compare across PRs at equal cluster size.\n";
    return 0;
    });
}
