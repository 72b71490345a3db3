/**
 * @file
 * The one run behind the PVFS figure benchmarks (Figures 10-12).
 *
 * Matches the paper's §6 deployment: Testbed 1 only — one node hosts
 * the metadata manager and all I/O daemons (on ramfs), the other node
 * hosts the compute processes.  Each process's file is pre-sized via
 * direct metadata setup (content is virtual), then the process
 * streams whole-file reads or writes through the full
 * network/CPU/cache path.
 */

#ifndef IOAT_BENCH_PVFS_COMMON_HH
#define IOAT_BENCH_PVFS_COMMON_HH

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"
#include "pvfs/deployment.hh"

namespace ioat::bench {

/** Which way the compute processes move data. */
enum class PvfsOp { read, write };

/** What one runPvfs measured over its window. */
struct PvfsResult
{
    double mbps; ///< aggregate payload, MB/s
    /** The receiving node's utilization, 0..1: the compute node for
     *  reads, the I/O node for writes. */
    double cpu;
};

/**
 * @p processes compute processes, each repeatedly reading or writing
 * its own 2 MB-per-iod region (pvfs-test's pattern) against @p iods
 * I/O daemons.  With @p report, the run is instrumented and its
 * RunReport config echo is @p echo plus the I/OAT flag.
 */
inline PvfsResult
runPvfs(PvfsOp op, IoatConfig features, unsigned iods, unsigned processes,
        TransportChoice choice = TransportChoice::none,
        const Options *report = nullptr,
        std::vector<std::pair<std::string, std::string>> echo = {})
{
    core::TestbedConfig tbCfg;
    tbCfg.serverCount = 2;
    tbCfg.serverConfig = NodeConfig::server(features, 6);
    // The paper ran PVFS with default socket options: 64 KB socket
    // buffers leave single streams window-bound, which is why
    // aggregate bandwidth scales with compute processes (Fig. 10's
    // 361 -> 649 MB/s curve).
    tbCfg.serverConfig.tcp.sockBuf = 64 * 1024;
    applyTransport(tbCfg.serverConfig, choice);

    Simulation sim;
    core::Testbed tb(sim, tbCfg);
    Node &ioNode = tb.server(0);
    Node &computeNode = tb.server(1);
    pvfs::Deployment fsd(pvfs::PvfsConfig{.iodCount = iods}, ioNode);
    const std::size_t region = 2ull * 1024 * 1024 * iods;

    std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
    for (unsigned c = 0; c < processes; ++c)
        clients.push_back(fsd.makeClient(computeNode));

    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(sim, *report);

    for (unsigned c = 0; c < processes; ++c) {
        const auto h = fsd.presizeFile("f" + std::to_string(c), region);
        sim.spawn([](pvfs::PvfsClient &cl, pvfs::FileHandle fh,
                     std::size_t bytes, PvfsOp o) -> Coro<void> {
            co_await cl.connect();
            for (;;) {
                if (o == PvfsOp::read)
                    co_await cl.read(fh, 0, bytes);
                else
                    co_await cl.write(fh, 0, bytes);
            }
        }(*clients[c], h, region, op));
    }

    auto moved = [&clients, op] {
        std::uint64_t sum = 0;
        for (const auto &c : clients)
            sum += op == PvfsOp::read ? c->bytesRead() : c->bytesWritten();
        return sum;
    };
    Meter meter(sim);
    meter.warmup(sim::milliseconds(200), {&ioNode, &computeNode});
    const std::uint64_t bytes0 = moved();
    meter.run(sim::milliseconds(600));
    const std::uint64_t bytes1 = moved();

    if (tr) {
        const bool ioat = tbCfg.serverConfig.ioat.any();
        echo.emplace_back("ioat", ioat ? "true" : "false");
        tr->finish(std::move(echo));
    }

    Node &receiver = op == PvfsOp::read ? computeNode : ioNode;
    return {sim::throughputMBps(bytes1 - bytes0, meter.elapsed()),
            receiver.cpu().utilization()};
}

} // namespace ioat::bench

#endif // IOAT_BENCH_PVFS_COMMON_HH
