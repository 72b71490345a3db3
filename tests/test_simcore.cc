/**
 * @file
 * Unit tests for the simulation core: event queue ordering, SmallFn
 * lifetimes and in-place dispatch, coroutine semantics,
 * synchronization primitives, channels, RNG/Zipf, stats.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/simcore.hh"

namespace {

using namespace ioat::sim;

// --------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(ioat::sim::Tick{30}, [&] { order.push_back(3); });
    eq.schedule(ioat::sim::Tick{10}, [&] { order.push_back(1); });
    eq.schedule(ioat::sim::Tick{20}, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), ioat::sim::Tick{30});
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(ioat::sim::Tick{5}, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(ioat::sim::Tick{1}, [&] {
        ++fired;
        eq.scheduleIn(ioat::sim::Tick{1}, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), ioat::sim::Tick{2});
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenEmpty)
{
    EventQueue eq;
    eq.runUntil(ioat::sim::Tick{1000});
    EXPECT_EQ(eq.now(), ioat::sim::Tick{1000});
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(ioat::sim::Tick{10}, [&] { ++fired; });
    eq.schedule(ioat::sim::Tick{20}, [&] { ++fired; });
    eq.runUntil(ioat::sim::Tick{15});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), ioat::sim::Tick{15});
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(ioat::sim::Tick{10}, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(ioat::sim::Tick{5}, [] {}), "past");
}

// --------------------------------------------------------------------
// SmallFn and in-place dispatch
// --------------------------------------------------------------------

/**
 * Counts destructions of the instance that owns the count: a
 * moved-from copy hands its pointer over, so "destroyed once" means
 * the captured value, however often it moved, died exactly once.
 */
struct DestroyCounter
{
    int *destroyed;

    explicit DestroyCounter(int *d) : destroyed(d) {}
    DestroyCounter(DestroyCounter &&o) noexcept
        : destroyed(std::exchange(o.destroyed, nullptr))
    {}
    DestroyCounter &operator=(DestroyCounter &&) = delete;

    ~DestroyCounter()
    {
        if (destroyed != nullptr)
            ++*destroyed;
    }
};

/** Horizons landing in L0, L1, L2 and the overflow heap. */
const Tick kHorizons[] = {Tick{100}, Tick{5000},
                          Tick{std::uint64_t{1} << 21},
                          Tick{std::uint64_t{1} << 29}};

TEST(SmallFn, NonTrivialCaptureDiesOnceAcrossMoves)
{
    int destroyed = 0;
    int replaced = 0;
    {
        SmallFn a([c = DestroyCounter(&destroyed)] {});
        SmallFn b(std::move(a));
        EXPECT_FALSE(a);
        SmallFn d([c = DestroyCounter(&replaced)] {});
        d = std::move(b); // destroys d's previous callable
        EXPECT_FALSE(b);
        EXPECT_EQ(replaced, 1);
        EXPECT_EQ(destroyed, 0);
    }
    EXPECT_EQ(destroyed, 1);
    EXPECT_EQ(replaced, 1);
}

TEST(SmallFn, ResetDestroysOnce)
{
    int destroyed = 0;
    {
        SmallFn f([c = DestroyCounter(&destroyed)] {});
        f.reset();
        EXPECT_FALSE(f);
        EXPECT_EQ(destroyed, 1);
        f.reset();
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(SmallFn, TriviallyCopyableCaptureKeepsBytesAcrossMoves)
{
    // Fills the whole inline budget, so a short fixed-size copy would
    // lose the tail.
    std::array<std::uint64_t, 15> words{};
    for (std::size_t i = 0; i < words.size(); ++i)
        words[i] = 0x0123456789abcdefull * (i + 1);
    std::array<std::uint64_t, 15> seen{};
    auto *out = &seen;
    auto fn = [words, out] { *out = words; };
    static_assert(std::is_trivially_copyable_v<decltype(fn)>);
    static_assert(sizeof(fn) == SmallFn::kInlineBytes);

    SmallFn a(fn);
    SmallFn b(std::move(a));
    SmallFn c;
    c = std::move(b);
    EXPECT_FALSE(a);
    EXPECT_FALSE(b);
    c();
    EXPECT_EQ(seen, words);
}

TEST(SmallFn, InlineBudgetAddsOnlyTheOpsPointer)
{
    // The ops pointer pads to one max_align_t; event nodes embed a
    // SmallFn, so this is the whole per-node cost of the budget.
    EXPECT_EQ(sizeof(SmallFn),
              SmallFn::kInlineBytes + alignof(std::max_align_t));
}

TEST(EventQueue, CancelDestroysPendingCaptureOnce)
{
    for (const Tick horizon : kHorizons) {
        int destroyed = 0;
        {
            EventQueue eq;
            auto h = eq.schedule(horizon,
                                 [c = DestroyCounter(&destroyed)] {});
            EXPECT_TRUE(eq.cancel(h));
            EXPECT_EQ(destroyed, 1) << "horizon " << horizon.count();
            eq.run();
        }
        EXPECT_EQ(destroyed, 1) << "horizon " << horizon.count();
    }
}

TEST(EventQueue, ClearDestroysEveryCaptureOnce)
{
    int destroyed[4] = {};
    {
        EventQueue eq;
        for (int i = 0; i < 4; ++i)
            eq.schedule(kHorizons[i],
                        [c = DestroyCounter(&destroyed[i])] {});
        eq.clear();
        EXPECT_TRUE(eq.empty());
        for (int d : destroyed)
            EXPECT_EQ(d, 1);
    }
    for (int d : destroyed)
        EXPECT_EQ(d, 1);
}

TEST(EventQueue, RunDestroysCaptureOnceAfterTheCallReturns)
{
    for (const Tick horizon : kHorizons) {
        int destroyed = 0;
        int destroyedDuringCall = -1;
        {
            EventQueue eq;
            eq.schedule(horizon, [c = DestroyCounter(&destroyed),
                                  &destroyedDuringCall, &destroyed] {
                destroyedDuringCall = destroyed;
            });
            eq.run();
            EXPECT_EQ(destroyedDuringCall, 0);
            EXPECT_EQ(destroyed, 1) << "horizon " << horizon.count();
        }
        EXPECT_EQ(destroyed, 1) << "horizon " << horizon.count();
    }
}

TEST(EventQueue, CallbackCancellingItsOwnHandleGetsFalse)
{
    // Once through runOne and once through runUntil's fast path.
    for (const bool viaRunUntil : {false, true}) {
        EventQueue eq;
        EventQueue::TimerHandle self;
        bool cancelled = true;
        std::size_t sizeBefore = 0;
        std::size_t sizeAfter = 0;
        eq.schedule(Tick{50}, [] {});
        self = eq.schedule(Tick{10}, [&] {
            sizeBefore = eq.size();
            cancelled = eq.cancel(self);
            sizeAfter = eq.size();
        });
        if (viaRunUntil)
            eq.runUntil(Tick{20});
        else
            eq.runOne();
        EXPECT_FALSE(cancelled);
        EXPECT_EQ(sizeBefore, 1u);
        EXPECT_EQ(sizeAfter, 1u);
        EXPECT_EQ(eq.size(), 1u);
        EXPECT_EQ(eq.run(), 1u);
    }
}

TEST(EventQueue, CallbackCaptureSurvivesSchedulingFromInside)
{
    // The running callback's node is not recycled until it returns,
    // so the events it schedules cannot overwrite its capture.
    EventQueue eq;
    std::array<std::uint64_t, 13> words{};
    words.fill(0x5a5a5a5a5a5a5a5aull);
    std::array<std::uint64_t, 13> seen{};
    std::uint64_t sink = 0;
    eq.schedule(Tick{1}, [words, &eq, &seen, &sink] {
        for (std::uint64_t i = 0; i < 64; ++i)
            eq.post([&sink, i] { sink += i; });
        seen = words;
    });
    eq.run();
    EXPECT_EQ(seen, words);
    EXPECT_EQ(sink, 64u * 63u / 2u);
    EXPECT_EQ(eq.executedEvents(), 65u);
}

// --------------------------------------------------------------------
// Coroutines
// --------------------------------------------------------------------

TEST(Coro, SpawnedTaskRunsAndCompletes)
{
    Simulation sim;
    bool ran = false;
    sim.spawn([](Simulation &s, bool &flag) -> Coro<void> {
        co_await s.delay(ioat::sim::Tick{100});
        flag = true;
    }(sim, ran));
    EXPECT_FALSE(ran);
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.now(), ioat::sim::Tick{100});
    EXPECT_EQ(sim.liveRootTasks(), 0u);
}

TEST(Coro, NestedAwaitPropagatesValues)
{
    Simulation sim;
    int result = 0;

    struct Helper
    {
        static Coro<int>
        inner(Simulation &s)
        {
            co_await s.delay(ioat::sim::Tick{5});
            co_return 21;
        }

        static Coro<void>
        outer(Simulation &s, int &out)
        {
            int a = co_await inner(s);
            int b = co_await inner(s);
            out = a + b;
        }
    };

    sim.spawn(Helper::outer(sim, result));
    sim.run();
    EXPECT_EQ(result, 42);
    EXPECT_EQ(sim.now(), ioat::sim::Tick{10});
}

TEST(Coro, ExceptionsPropagateThroughAwait)
{
    Simulation sim;
    bool caught = false;

    struct Helper
    {
        static Coro<int>
        thrower(Simulation &s)
        {
            co_await s.delay(ioat::sim::Tick{1});
            throw std::runtime_error("boom");
        }

        static Coro<void>
        catcher(Simulation &s, bool &flag)
        {
            try {
                (void)co_await thrower(s);
            } catch (const std::runtime_error &) {
                flag = true;
            }
        }
    };

    sim.spawn(Helper::catcher(sim, caught));
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(Coro, ManyConcurrentTasksInterleaveDeterministically)
{
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.spawn([](Simulation &s, std::vector<int> &ord,
                     int id) -> Coro<void> {
            co_await s.delay(static_cast<Tick>(100 - id));
            ord.push_back(id);
        }(sim, order, i));
    }
    sim.run();
    ASSERT_EQ(order.size(), 10u);
    // Task 9 had the shortest delay, so it finishes first.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], 9 - i);
}

TEST(Coro, TeardownReleasesSuspendedTasks)
{
    // A task suspended forever must be destroyed with the Simulation
    // (this test is most valuable under ASan).
    auto sim = std::make_unique<Simulation>();
    sim->spawn([](Simulation &s) -> Coro<void> {
        co_await s.delay(seconds(999));
    }(*sim));
    sim->run(1); // start the task, leave it suspended
    EXPECT_EQ(sim->liveRootTasks(), 1u);
    sim.reset(); // must not leak or crash
}

// --------------------------------------------------------------------
// Synchronization
// --------------------------------------------------------------------

TEST(Sync, EventWakesAllWaiters)
{
    Simulation sim;
    Event ev(sim);
    int woke = 0;
    for (int i = 0; i < 3; ++i) {
        sim.spawn([](Event &e, int &n) -> Coro<void> {
            co_await e.wait();
            ++n;
        }(ev, woke));
    }
    sim.run();
    EXPECT_EQ(woke, 0);
    ev.trigger();
    sim.run();
    EXPECT_EQ(woke, 3);
}

TEST(Sync, TriggeredEventDoesNotBlockLateWaiters)
{
    Simulation sim;
    Event ev(sim);
    ev.trigger();
    bool done = false;
    sim.spawn([](Event &e, bool &f) -> Coro<void> {
        co_await e.wait();
        f = true;
    }(ev, done));
    sim.run();
    EXPECT_TRUE(done);
}

TEST(Sync, SemaphoreLimitsConcurrency)
{
    Simulation sim;
    Semaphore sem(sim, 2);
    int active = 0, max_active = 0, completed = 0;

    for (int i = 0; i < 6; ++i) {
        sim.spawn([](Simulation &s, Semaphore &sm, int &act, int &mx,
                     int &done) -> Coro<void> {
            co_await sm.acquire();
            ++act;
            mx = std::max(mx, act);
            co_await s.delay(ioat::sim::Tick{10});
            --act;
            ++done;
            sm.release();
        }(sim, sem, active, max_active, completed));
    }
    sim.run();
    EXPECT_EQ(completed, 6);
    EXPECT_EQ(max_active, 2);
    // 6 tasks, 2 at a time, 10 ticks each -> 30 ticks total.
    EXPECT_EQ(sim.now(), ioat::sim::Tick{30});
    EXPECT_EQ(sem.available(), 2u);
}

TEST(Sync, SemaphoreIsFifo)
{
    Simulation sim;
    Semaphore sem(sim, 0);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        sim.spawn([](Semaphore &sm, std::vector<int> &ord,
                     int id) -> Coro<void> {
            co_await sm.acquire();
            ord.push_back(id);
            sm.release();
        }(sem, order, i));
    }
    sim.run();
    EXPECT_TRUE(order.empty());
    sem.release();
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Sync, SemaphoreTryAcquire)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    EXPECT_TRUE(sem.tryAcquire());
    EXPECT_FALSE(sem.tryAcquire());
    sem.release();
    EXPECT_TRUE(sem.tryAcquire());
}

TEST(Sync, WaitGroupJoinsDynamicTasks)
{
    Simulation sim;
    WaitGroup wg(sim);
    int finished = 0;
    bool joined = false;

    for (int i = 1; i <= 5; ++i) {
        wg.add();
        sim.spawn([](Simulation &s, WaitGroup &w, int &n,
                     Tick d) -> Coro<void> {
            co_await s.delay(d);
            ++n;
            w.done();
        }(sim, wg, finished, static_cast<Tick>(i * 10)));
    }
    sim.spawn([](WaitGroup &w, bool &f, int &n) -> Coro<void> {
        co_await w.wait();
        EXPECT_EQ(n, 5);
        f = true;
    }(wg, joined, finished));

    sim.run();
    EXPECT_TRUE(joined);
    EXPECT_EQ(sim.now(), ioat::sim::Tick{50});
}

TEST(Sync, WaitGroupWithNoTasksReturnsImmediately)
{
    Simulation sim;
    WaitGroup wg(sim);
    bool joined = false;
    sim.spawn([](WaitGroup &w, bool &f) -> Coro<void> {
        co_await w.wait();
        f = true;
    }(wg, joined));
    sim.run();
    EXPECT_TRUE(joined);
}

// --------------------------------------------------------------------
// Channel
// --------------------------------------------------------------------

TEST(Channel, ValuesArriveInOrder)
{
    Simulation sim;
    Channel<int> ch(sim, 4);
    std::vector<int> got;

    sim.spawn([](Channel<int> &c) -> Coro<void> {
        for (int i = 0; i < 10; ++i)
            co_await c.send(i);
        c.close();
    }(ch));
    sim.spawn([](Channel<int> &c, std::vector<int> &out) -> Coro<void> {
        while (auto v = co_await c.recv())
            out.push_back(*v);
    }(ch, got));

    sim.run();
    ASSERT_EQ(got.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(Channel, BoundedSenderBlocksUntilDrained)
{
    Simulation sim;
    Channel<int> ch(sim, 1);
    int sent = 0;

    sim.spawn([](Channel<int> &c, int &n) -> Coro<void> {
        for (int i = 0; i < 3; ++i) {
            co_await c.send(i);
            ++n;
        }
    }(ch, sent));

    sim.run();
    // Capacity 1: first send succeeds, second waits.
    EXPECT_EQ(sent, 1);
    EXPECT_EQ(ch.tryRecv().value(), 0);
    sim.run();
    EXPECT_EQ(sent, 2);
}

TEST(Channel, CloseWakesBlockedReceiver)
{
    Simulation sim;
    Channel<int> ch(sim);
    bool got_nullopt = false;
    sim.spawn([](Channel<int> &c, bool &f) -> Coro<void> {
        auto v = co_await c.recv();
        f = !v.has_value();
    }(ch, got_nullopt));
    sim.run();
    EXPECT_FALSE(got_nullopt);
    ch.close();
    sim.run();
    EXPECT_TRUE(got_nullopt);
}

TEST(Channel, PushDeliversToWaitingReceiver)
{
    Simulation sim;
    Channel<std::string> ch(sim);
    std::string got;
    sim.spawn([](Channel<std::string> &c, std::string &out) -> Coro<void> {
        auto v = co_await c.recv();
        out = v.value_or("missing");
    }(ch, got));
    sim.run();
    ch.push("hello");
    sim.run();
    EXPECT_EQ(got, "hello");
}

TEST(Channel, OneWakeRoundRunsOneEventForAllParkedReceivers)
{
    Simulation sim;
    Channel<int> ch(sim);
    std::vector<int> got;
    int closed_seen = 0;
    constexpr int kParked = 5;
    for (int i = 0; i < kParked; ++i) {
        sim.spawn([](Channel<int> &c, std::vector<int> &out, int &nil,
                     int id) -> Coro<void> {
            if (auto v = co_await c.recv())
                out.push_back(id * 100 + *v);
            else
                ++nil;
        }(ch, got, closed_seen, i));
    }
    sim.run();

    // One push wakes all five in one round: the longest-parked
    // receiver takes the item, the other four park again unresumed.
    // A pulse-all wake-up ran one event per receiver.
    ch.push(7);
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(got, std::vector<int>{7});

    // close() is one round too: the four left all see nullopt.
    ch.close();
    EXPECT_EQ(sim.run(), 1u);
    EXPECT_EQ(closed_seen, kParked - 1);
}

// --------------------------------------------------------------------
// Rng / Zipf
// --------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntWithinRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, ExponentialMeanRoughlyCorrect)
{
    Rng rng(99);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfDistribution z(100, 0.9);
    double sum = 0;
    for (std::size_t i = 0; i < z.size(); ++i)
        sum += z.pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsMostPopular)
{
    ZipfDistribution z(1000, 0.95);
    EXPECT_GT(z.pmf(0), z.pmf(1));
    EXPECT_GT(z.pmf(1), z.pmf(10));
    EXPECT_GT(z.pmf(10), z.pmf(999));
}

TEST(Zipf, EmpiricalFrequenciesMatchPmf)
{
    ZipfDistribution z(50, 0.9);
    Rng rng(4242);
    std::vector<int> counts(50, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    // Check the head of the distribution within a few percent.
    for (std::size_t r = 0; r < 5; ++r) {
        double expected = z.pmf(r) * n;
        EXPECT_NEAR(counts[r], expected, expected * 0.05 + 30);
    }
}

TEST(Zipf, HigherAlphaIsMoreSkewed)
{
    ZipfDistribution lo(100, 0.5), hi(100, 0.95);
    EXPECT_GT(hi.pmf(0), lo.pmf(0));
}

// --------------------------------------------------------------------
// Stats
// --------------------------------------------------------------------

TEST(Stats, AccumulatorBasics)
{
    stats::Accumulator a;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    EXPECT_NEAR(a.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, TimeWeightedAverage)
{
    stats::TimeWeighted tw(0.0);
    tw.update(ioat::sim::Tick{10}, 1.0); // 0 for [0,10)
    tw.update(ioat::sim::Tick{30}, 0.0); // 1 for [10,30)
    // average over [0,40): (0*10 + 1*20 + 0*10)/40 = 0.5
    EXPECT_DOUBLE_EQ(tw.average(ioat::sim::Tick{40}), 0.5);
}

TEST(Stats, TimeWeightedWindowReset)
{
    stats::TimeWeighted tw(2.0);
    tw.update(ioat::sim::Tick{10}, 4.0);
    tw.resetWindow(ioat::sim::Tick{10});
    // After reset, only post-reset signal counts: 4.0 everywhere.
    EXPECT_DOUBLE_EQ(tw.average(ioat::sim::Tick{20}), 4.0);
}

// --------------------------------------------------------------------
// Types / units
// --------------------------------------------------------------------

TEST(Types, UnitConstructors)
{
    EXPECT_EQ(microseconds(1).count(), 1000u);
    EXPECT_EQ(milliseconds(1).count(), 1000000u);
    EXPECT_EQ(seconds(1).count(), 1000000000u);
    EXPECT_EQ(kib(4), 4096u);
    EXPECT_EQ(mib(2), 2u * 1024 * 1024);
}

TEST(Types, RateTransferTime)
{
    // 1 Gbps = 0.125 B/ns -> 1500 bytes = 12000 ns.
    auto r = Rate::gbps(1.0);
    EXPECT_EQ(r.transferTime(1500).count(), 12000u);
    // 1 GB/s -> 1 byte per ns.
    auto r2 = Rate::bytesPerSec(1e9);
    EXPECT_EQ(r2.transferTime(4096).count(), 4096u);
}

TEST(Types, ThroughputHelpers)
{
    // 125 MB in 1 s = 1000 Mbps = 125 MB/s.
    EXPECT_NEAR(throughputMbps(125000000, seconds(1)), 1000.0, 1e-9);
    EXPECT_NEAR(throughputMBps(125000000, seconds(1)), 125.0, 1e-9);
}

TEST(Table, PrintsAlignedColumns)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("a"), std::string::npos);
    EXPECT_NE(os.str().find("---"), std::string::npos);
}

} // namespace
