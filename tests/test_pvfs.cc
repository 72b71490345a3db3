/**
 * @file
 * Tests for the PVFS substrate: striping math, metadata consistency,
 * and end-to-end striped reads/writes over the simulated cluster.
 */

#include <gtest/gtest.h>

#include "core/testbed.hh"
#include "pvfs/deployment.hh"
#include "pvfs/fs_state.hh"
#include "pvfs/layout.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using core::IoatConfig;
using sim::Coro;
using sim::Simulation;

// --------------------------------------------------------------------
// StripeLayout
// --------------------------------------------------------------------

TEST(StripeLayout, ServerOwnershipRoundRobin)
{
    pvfs::StripeLayout layout(4, 65536);
    EXPECT_EQ(layout.serverFor(0), 0u);
    EXPECT_EQ(layout.serverFor(65535), 0u);
    EXPECT_EQ(layout.serverFor(65536), 1u);
    EXPECT_EQ(layout.serverFor(4 * 65536), 0u); // wraps
}

TEST(StripeLayout, LocalOffsets)
{
    pvfs::StripeLayout layout(4, 65536);
    EXPECT_EQ(layout.localOffset(0), 0u);
    EXPECT_EQ(layout.localOffset(65536), 0u);      // server 1's first
    EXPECT_EQ(layout.localOffset(4 * 65536), 65536u); // server 0's 2nd
    EXPECT_EQ(layout.localOffset(4 * 65536 + 100), 65536u + 100);
}

TEST(StripeLayout, SplitCoversExactlyTheRange)
{
    pvfs::StripeLayout layout(6, 65536);
    const std::size_t bytes = 12 * 1024 * 1024; // 2N MB for N=6
    auto chunks = layout.split(0, bytes);
    ASSERT_EQ(chunks.size(), 6u);
    std::size_t total = 0;
    for (const auto &c : chunks) {
        // Contiguous 2 MB per server, paper §6.2.1.
        EXPECT_EQ(c.bytes, 2u * 1024 * 1024);
        total += c.bytes;
    }
    EXPECT_EQ(total, bytes);
}

TEST(StripeLayout, UnalignedSplitStillSumsCorrectly)
{
    pvfs::StripeLayout layout(3, 65536);
    auto chunks = layout.split(1000, 500000);
    std::size_t total = 0;
    for (const auto &c : chunks)
        total += c.bytes;
    EXPECT_EQ(total, 500000u);
}

class StripeSplitProperty
    : public ::testing::TestWithParam<std::tuple<unsigned, std::size_t>>
{};

TEST_P(StripeSplitProperty, SplitConservesBytes)
{
    const auto [servers, bytes] = GetParam();
    pvfs::StripeLayout layout(servers, 65536);
    for (std::uint64_t off : {0ull, 1234ull, 65536ull, 1000000ull}) {
        auto chunks = layout.split(off, bytes);
        std::size_t total = 0;
        for (const auto &c : chunks) {
            EXPECT_LT(c.server, servers);
            total += c.bytes;
        }
        EXPECT_EQ(total, bytes);
        EXPECT_LE(chunks.size(), static_cast<std::size_t>(servers));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, StripeSplitProperty,
    ::testing::Combine(::testing::Values(1u, 2u, 5u, 6u),
                       ::testing::Values(std::size_t{1}, std::size_t{65536},
                                         std::size_t{1000000},
                                         std::size_t{12582912})));

// --------------------------------------------------------------------
// FsState
// --------------------------------------------------------------------

TEST(FsState, CreateLookupRoundTrip)
{
    pvfs::FsState fs;
    auto h = fs.create("alpha");
    EXPECT_TRUE(fs.valid(h));
    EXPECT_EQ(fs.lookup("alpha"), h);
    EXPECT_EQ(fs.lookup("beta"), pvfs::kInvalidHandle);
    EXPECT_EQ(fs.size(h), 0u);
}

TEST(FsState, CreateIsIdempotent)
{
    pvfs::FsState fs;
    auto h1 = fs.create("alpha");
    auto h2 = fs.create("alpha");
    EXPECT_EQ(h1, h2);
    EXPECT_EQ(fs.fileCount(), 1u);
}

TEST(FsState, ExtendOnlyGrows)
{
    pvfs::FsState fs;
    auto h = fs.create("f");
    fs.extendTo(h, 1000);
    fs.extendTo(h, 500); // no shrink
    EXPECT_EQ(fs.size(h), 1000u);
    fs.truncate(h, 200);
    EXPECT_EQ(fs.size(h), 200u);
}

// --------------------------------------------------------------------
// End-to-end PVFS
// --------------------------------------------------------------------

/** Two Testbed-1 nodes: server 0 hosts the file system, server 1
 *  the compute processes. */
struct TwoNodes
{
    Simulation sim;
    core::Testbed tb;
    pvfs::Deployment fsd;

    explicit TwoNodes(IoatConfig features = IoatConfig::disabled(),
                      unsigned iod_count = 6)
        : tb(sim,
             core::TestbedConfig{
                 .serverCount = 2,
                 .serverConfig = core::NodeConfig::server(features),
             }),
          fsd(pvfs::PvfsConfig{.iodCount = iod_count}, tb.server(0))
    {}

    std::unique_ptr<pvfs::PvfsClient>
    client()
    {
        return fsd.makeClient(tb.server(1));
    }
};

TEST(Pvfs, MetadataOpsWork)
{
    TwoNodes net;
    const auto client = net.client();
    bool done = false;
    net.sim.spawn([](pvfs::PvfsClient &c, bool &f) -> Coro<void> {
        co_await c.connect();
        auto h = co_await c.create(7);
        EXPECT_NE(h, pvfs::kInvalidHandle);
        auto h2 = co_await c.lookup(7);
        EXPECT_EQ(h2, h);
        auto missing = co_await c.lookup(999);
        EXPECT_EQ(missing, pvfs::kInvalidHandle);
        auto sz = co_await c.fileSize(h);
        EXPECT_EQ(sz, 0u);
        f = true;
    }(*client, done));
    net.sim.run();
    EXPECT_TRUE(done);
}

TEST(Pvfs, WriteExtendsFileAndHitsAllIods)
{
    TwoNodes net;
    const auto client = net.client();
    bool done = false;
    const std::size_t total = 12 * 1024 * 1024; // 2N MB, N=6
    net.sim.spawn([](pvfs::PvfsClient &c, std::size_t n,
                     bool &f) -> Coro<void> {
        co_await c.connect();
        auto h = co_await c.create(1);
        co_await c.write(h, 0, n);
        auto sz = co_await c.fileSize(h);
        EXPECT_EQ(sz, n);
        f = true;
    }(*client, total, done));
    net.sim.run();
    EXPECT_TRUE(done);
    // Every iod stored exactly 2 MB.
    for (std::size_t i = 0; i < net.fsd.iodCount(); ++i)
        EXPECT_EQ(net.fsd.iod(i).bytesWritten(), 2u * 1024 * 1024);
}

TEST(Pvfs, ReadPullsStripesFromAllIods)
{
    TwoNodes net;
    const auto client = net.client();
    bool done = false;
    const std::size_t total = 12 * 1024 * 1024;
    net.sim.spawn([](pvfs::PvfsClient &c, std::size_t n,
                     bool &f) -> Coro<void> {
        co_await c.connect();
        auto h = co_await c.create(1);
        co_await c.write(h, 0, n);
        co_await c.read(h, 0, n);
        f = true;
    }(*client, total, done));
    net.sim.run();
    EXPECT_TRUE(done);
    for (std::size_t i = 0; i < net.fsd.iodCount(); ++i)
        EXPECT_EQ(net.fsd.iod(i).bytesRead(), 2u * 1024 * 1024);
    EXPECT_EQ(client->bytesRead(), total);
    EXPECT_EQ(client->bytesWritten(), total);
}

TEST(Pvfs, FewerIodsStillServeTheFullRange)
{
    TwoNodes net(IoatConfig::disabled(), 5);
    const auto client = net.client();
    bool done = false;
    const std::size_t total = 10 * 1024 * 1024; // 2N MB, N=5
    net.sim.spawn([](pvfs::PvfsClient &c, std::size_t n,
                     bool &f) -> Coro<void> {
        co_await c.connect();
        auto h = co_await c.create(1);
        co_await c.write(h, 0, n);
        co_await c.read(h, 0, n);
        f = true;
    }(*client, total, done));
    net.sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(net.fsd.totalBytesWritten(), total);
}

TEST(Pvfs, ConcurrentClientsShareTheServers)
{
    TwoNodes net;
    std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
    int finished = 0;
    const std::size_t per_client = 12 * 1024 * 1024;
    for (int i = 0; i < 3; ++i) {
        clients.push_back(net.client());
        net.sim.spawn([](pvfs::PvfsClient &c, std::size_t n, int id,
                         int &done) -> Coro<void> {
            co_await c.connect();
            auto h = co_await c.create(100 + id);
            co_await c.write(h, 0, n);
            co_await c.read(h, 0, n);
            ++done;
        }(*clients.back(), per_client, i, finished));
    }
    net.sim.run();
    EXPECT_EQ(finished, 3);
    EXPECT_EQ(net.fsd.totalBytesRead(), 3 * per_client);
}

TEST(Pvfs, IoatReducesReadCycleTime)
{
    auto run = [](IoatConfig features) {
        TwoNodes net(features);
        const auto client = net.client();
        sim::Tick elapsed{};
        net.sim.spawn([](Simulation &s, pvfs::PvfsClient &c,
                         sim::Tick &out) -> Coro<void> {
            co_await c.connect();
            auto h = co_await c.create(1);
            co_await c.write(h, 0, 12 * 1024 * 1024);
            const sim::Tick t0 = s.now();
            for (int i = 0; i < 5; ++i)
                co_await c.read(h, 0, 12 * 1024 * 1024);
            out = s.now() - t0;
        }(net.sim, *client, elapsed));
        net.sim.run();
        return elapsed;
    };
    // Client-side receive processing is lighter with I/OAT.
    EXPECT_LE(run(IoatConfig::enabled()), run(IoatConfig::disabled()));
}

} // namespace
