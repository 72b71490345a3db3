/**
 * @file
 * Unit tests for the multi-core CPU model.
 */

#include <gtest/gtest.h>

#include "cpu/cpu.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using sim::Coro;
using sim::Simulation;
using sim::Tick;

/** Spawn one compute(); bump @p done (if non-null) once it returns. */
void
spawnCompute(Simulation &sim, cpu::CpuSet &cpu, Tick duration,
             int core = cpu::CpuSet::kAnyCore, bool high = false,
             int *done = nullptr)
{
    sim.spawn([](cpu::CpuSet &c, Tick d, int k, bool hi,
                 int *n) -> Coro<void> {
        co_await c.compute(d, k, hi);
        if (n != nullptr)
            ++*n;
    }(cpu, duration, core, high, done));
}

TEST(Cpu, SingleItemOccupiesOneCore)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 4});
    bool done = false;
    sim.spawn([](Simulation &s, cpu::CpuSet &c, bool &f) -> Coro<void> {
        (void)s;
        co_await c.compute(ioat::sim::Tick{1000});
        f = true;
    }(sim, cpu, done));
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(sim.now(), ioat::sim::Tick{1000});
    EXPECT_EQ(cpu.totalBusyTicks(), ioat::sim::Tick{1000});
}

TEST(Cpu, ParallelWorkUsesAllCores)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 4});
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        sim.spawn([](cpu::CpuSet &c, int &n) -> Coro<void> {
            co_await c.compute(ioat::sim::Tick{1000});
            ++n;
        }(cpu, done));
    }
    sim.run();
    EXPECT_EQ(done, 4);
    // 4 items on 4 cores run fully in parallel.
    EXPECT_EQ(sim.now(), ioat::sim::Tick{1000});
}

TEST(Cpu, ExcessWorkQueuesFifo)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 2});
    std::vector<int> order;
    for (int i = 0; i < 6; ++i) {
        sim.spawn([](cpu::CpuSet &c, std::vector<int> &ord,
                     int id) -> Coro<void> {
            co_await c.compute(ioat::sim::Tick{100});
            ord.push_back(id);
        }(cpu, order, i));
    }
    sim.run();
    // 6 items, 2 cores, 100 each -> 300 ticks; completion in pairs.
    EXPECT_EQ(sim.now(), ioat::sim::Tick{300});
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Cpu, UtilizationFullWhenSaturated)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 2});
    for (int i = 0; i < 8; ++i)
        spawnCompute(sim, cpu, ioat::sim::Tick{1000});
    sim.run();
    // 8 items of 1000 on 2 cores -> busy the whole 4000 ticks.
    EXPECT_EQ(sim.now(), ioat::sim::Tick{4000});
    EXPECT_NEAR(cpu.utilization(), 1.0, 1e-9);
}

TEST(Cpu, UtilizationHalfWhenOneOfTwoCoresBusy)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 2});
    spawnCompute(sim, cpu, ioat::sim::Tick{1000});
    sim.run();
    EXPECT_NEAR(cpu.utilization(), 0.5, 1e-9);
}

TEST(Cpu, UtilizationWindowReset)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 1});
    spawnCompute(sim, cpu, ioat::sim::Tick{1000});
    sim.run();
    EXPECT_NEAR(cpu.utilization(), 1.0, 1e-9);
    cpu.resetUtilizationWindow();
    sim.runFor(ioat::sim::Tick{1000}); // idle
    EXPECT_NEAR(cpu.utilization(), 0.0, 1e-9);
}

TEST(Cpu, PinnedWorkSerializesOnOneCore)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 4});
    int done = 0;
    for (int i = 0; i < 4; ++i) {
        spawnCompute(sim, cpu, ioat::sim::Tick{1000}, /*core=*/0, false,
                     &done);
    }
    sim.run();
    EXPECT_EQ(done, 4);
    // All pinned to core 0: strictly serial despite 4 cores.
    EXPECT_EQ(sim.now(), ioat::sim::Tick{4000});
}

TEST(Cpu, HighPriorityJumpsTheQueue)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 1});
    std::vector<int> order;
    // Occupy the core, then queue: low(1), low(2), high(3).
    for (int i = 0; i < 4; ++i) {
        sim.spawn([](cpu::CpuSet &c, std::vector<int> &ord,
                     int id) -> Coro<void> {
            co_await c.compute(ioat::sim::Tick{100}, 0, id == 3);
            ord.push_back(id);
        }(cpu, order, i));
    }
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 3, 1, 2}));
}

TEST(Cpu, ZeroDurationComputeIsFree)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 1});
    bool done = false;
    sim.spawn([](cpu::CpuSet &c, bool &f) -> Coro<void> {
        co_await c.compute(ioat::sim::Tick{0});
        f = true;
    }(cpu, done));
    sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(cpu.totalBusyTicks(), ioat::sim::Tick{0});
}

TEST(Cpu, QueuedWorkCountsPending)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 1});
    spawnCompute(sim, cpu, ioat::sim::Tick{100});
    spawnCompute(sim, cpu, ioat::sim::Tick{100});
    spawnCompute(sim, cpu, ioat::sim::Tick{100}, 0);
    sim.runFor(Tick{0}); // start the tasks; the first slice runs
    EXPECT_EQ(cpu.busyCores(), 1u);
    EXPECT_EQ(cpu.queuedWork(), 2u);
    sim.run();
    EXPECT_EQ(cpu.queuedWork(), 0u);
    EXPECT_EQ(cpu.completedItems(), 3u);
}

// Property: for any split of a fixed amount of work across tasks, the
// makespan on C cores is never less than total/C (work conservation).
class CpuWorkConservation
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CpuWorkConservation, MakespanAtLeastTotalOverCores)
{
    const auto [cores, tasks] = GetParam();
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = cores});
    const Tick per{997};
    for (unsigned i = 0; i < tasks; ++i)
        spawnCompute(sim, cpu, per);
    sim.run();
    const Tick total = per * tasks;
    EXPECT_GE(sim.now() * cores, total);
    // And never worse than fully serial.
    EXPECT_LE(sim.now(), total);
    EXPECT_EQ(cpu.totalBusyTicks(), total);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CpuWorkConservation,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(1u, 3u, 8u, 17u)));

} // namespace
