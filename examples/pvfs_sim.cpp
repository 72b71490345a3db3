/**
 * @file
 * Example: a PVFS deployment — metadata manager + six I/O daemons on
 * one node, compute processes on another — exercising the full client
 * API (create/lookup/stat, striped write, striped read).
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "core/testbed.hh"
#include "pvfs/deployment.hh"
#include "simcore/simcore.hh"

using namespace ioat;
using core::IoatConfig;
using sim::Coro;
using sim::Simulation;

namespace {

Coro<void>
computeProcess(pvfs::PvfsClient &client, int id, double &read_mbps,
               Simulation &sim)
{
    co_await client.connect();

    // Create a 12 MB file (2 MB per I/O server) and write it.
    const pvfs::FileHandle h = co_await client.create(100 + id);
    const std::size_t bytes = 12 * 1024 * 1024;
    co_await client.write(h, 0, bytes);

    // Metadata round trip: the manager sees the new size.
    const std::uint64_t size = co_await client.fileSize(h);
    sim::simAssert(size == bytes, "size mismatch after write");

    // Time five full striped reads.
    const sim::Tick t0 = sim.now();
    for (int i = 0; i < 5; ++i)
        co_await client.read(h, 0, bytes);
    read_mbps = sim::throughputMBps(5 * bytes, sim.now() - t0);
}

void
runOnce(bool use_ioat)
{
    Simulation sim;
    core::TestbedConfig tb_cfg;
    tb_cfg.serverCount = 2;
    tb_cfg.serverConfig = core::NodeConfig::server(
        use_ioat ? IoatConfig::enabled() : IoatConfig::disabled());
    core::Testbed tb(sim, tb_cfg);

    // The manager and the default six I/O daemons share server 0.
    pvfs::Deployment fsd(pvfs::PvfsConfig{}, tb.server(0));

    std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
    std::vector<double> mbps(3, 0.0);
    for (int c = 0; c < 3; ++c) {
        clients.push_back(fsd.makeClient(tb.server(1)));
        sim.spawn(computeProcess(*clients.back(), c, mbps[c], sim));
    }
    sim.run();

    double total = 0.0;
    for (double m : mbps)
        total += m;
    std::printf("  %-8s  aggregate read %6.0f MB/s   manager ops %llu"
                "   iod0 read %llu MB\n",
                use_ioat ? "I/OAT" : "non-I/OAT", total,
                static_cast<unsigned long long>(fsd.manager().opsServed()),
                static_cast<unsigned long long>(fsd.iod(0).bytesRead() >>
                                                20));
}

} // namespace

int
main()
{
    std::printf("PVFS example: 3 compute processes, 6 I/O daemons on "
                "ramfs, 1 metadata manager\n\n");
    runOnce(false);
    runOnce(true);
    std::printf("\nData moves directly between iods and compute "
                "processes; the manager only does metadata.\n");
    return 0;
}
