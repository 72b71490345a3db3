/**
 * @file
 * Tests for the mixed-size workload.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "datacenter/trace_workload.hh"

namespace {

using namespace ioat;

TEST(MixedSizeZipf, SizesAreDeterministicPerFile)
{
    dc::MixedSizeZipfWorkload a(0.9, 1000);
    dc::MixedSizeZipfWorkload b(0.9, 1000);
    for (std::uint64_t id = 0; id < 1000; id += 37)
        EXPECT_EQ(a.fileSize(id), b.fileSize(id));
}

TEST(MixedSizeZipf, SizesSpanTheClassRange)
{
    dc::MixedSizeZipfWorkload wl(0.9, 5000);
    std::size_t smallest = ~std::size_t{0}, largest = 0;
    for (std::uint64_t id = 0; id < 5000; ++id) {
        smallest = std::min(smallest, wl.fileSize(id));
        largest = std::max(largest, wl.fileSize(id));
    }
    EXPECT_GE(smallest, 1024u);
    EXPECT_LE(largest, 8u * 1024 * 1024);
    // The mix really is mixed: at least a 20x spread.
    EXPECT_GT(largest, smallest * 20);
}

TEST(MixedSizeZipf, RequestsMatchPerFileSizes)
{
    dc::MixedSizeZipfWorkload wl(0.75, 2000);
    sim::Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        const auto req = wl.next(rng);
        EXPECT_EQ(req.bytes, wl.fileSize(req.fileId));
    }
}

TEST(MixedSizeZipf, MostRequestedBytesComeFromTheHead)
{
    dc::MixedSizeZipfWorkload wl(0.95, 10000);
    sim::Rng rng(3);
    std::uint64_t head = 0, total = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto req = wl.next(rng);
        total += 1;
        if (req.fileId < 100)
            head += 1;
    }
    EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.4);
}

} // namespace
