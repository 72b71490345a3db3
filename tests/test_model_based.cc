/**
 * @file
 * Model-based randomized tests: drive components with long
 * deterministic random operation sequences and compare against
 * simple reference implementations (or check invariants after every
 * step).  This is where subtle bookkeeping bugs go to die.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <list>
#include <map>
#include <optional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "cpu/cpu.hh"
#include "datacenter/lru_cache.hh"
#include "mem/cache_model.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using sim::Rng;
using sim::Simulation;

// --------------------------------------------------------------------
// LruCache vs a straightforward reference
// --------------------------------------------------------------------

/** Obviously-correct LRU with byte capacity. */
class RefLru
{
  public:
    explicit RefLru(std::size_t cap) : cap_(cap) {}

    std::size_t
    get(std::uint64_t id)
    {
        auto it = std::find(order_.begin(), order_.end(), id);
        if (it == order_.end())
            return 0;
        order_.erase(it);
        order_.push_front(id);
        return sizes_[id];
    }

    void
    put(std::uint64_t id, std::size_t bytes)
    {
        if (bytes > cap_)
            return;
        auto it = std::find(order_.begin(), order_.end(), id);
        if (it != order_.end()) {
            used_ -= sizes_[id];
            order_.erase(it);
            sizes_.erase(id);
        }
        while (used_ + bytes > cap_ && !order_.empty()) {
            const auto victim = order_.back();
            order_.pop_back();
            used_ -= sizes_[victim];
            sizes_.erase(victim);
        }
        order_.push_front(id);
        sizes_[id] = bytes;
        used_ += bytes;
    }

    std::size_t used() const { return used_; }
    std::size_t count() const { return order_.size(); }

  private:
    std::size_t cap_;
    std::size_t used_ = 0;
    std::list<std::uint64_t> order_;
    std::map<std::uint64_t, std::size_t> sizes_;
};

TEST(ModelBased, LruCacheMatchesReferenceOverRandomOps)
{
    dc::LruCache dut(100000);
    RefLru ref(100000);
    Rng rng(2024);

    for (int step = 0; step < 20000; ++step) {
        const std::uint64_t id = rng.uniformInt(0, 60);
        if (rng.uniform() < 0.5) {
            const std::size_t bytes = rng.uniformInt(100, 30000);
            dut.put(id, bytes);
            ref.put(id, bytes);
        } else {
            ASSERT_EQ(dut.get(id), ref.get(id)) << "step " << step;
        }
        ASSERT_EQ(dut.usedBytes(), ref.used()) << "step " << step;
        ASSERT_EQ(dut.objectCount(), ref.count()) << "step " << step;
        ASSERT_LE(dut.usedBytes(), dut.capacity());
    }
}

// --------------------------------------------------------------------
// CacheModel invariants under random footprint churn
// --------------------------------------------------------------------

TEST(ModelBased, CacheModelInvariantsUnderChurn)
{
    mem::CacheModel cache(sim::mib(2));
    Rng rng(7);
    std::vector<mem::FootprintId> live;

    for (int step = 0; step < 5000; ++step) {
        const double action = rng.uniform();
        if (action < 0.4 || live.empty()) {
            live.push_back(cache.addFootprint(
                "f", rng.uniformInt(0, sim::mib(4)),
                rng.uniform() < 0.2));
        } else if (action < 0.7) {
            const auto idx = rng.uniformInt(0, live.size() - 1);
            cache.resizeFootprint(live[idx],
                                  rng.uniformInt(0, sim::mib(4)));
        } else {
            const auto idx = rng.uniformInt(0, live.size() - 1);
            cache.removeFootprint(live[idx]);
            live.erase(live.begin() + static_cast<long>(idx));
        }

        // Invariants: residencies in [0,1]; resident bytes never
        // exceed capacity (within FP tolerance).
        double resident_bytes = 0;
        for (auto id : live) {
            const double r = cache.residency(id);
            ASSERT_GE(r, 0.0);
            ASSERT_LE(r, 1.0);
            resident_bytes +=
                r * static_cast<double>(cache.footprintSize(id));
        }
        ASSERT_LE(resident_bytes,
                  static_cast<double>(cache.capacity()) * 1.0001)
            << "step " << step;
    }
}

/**
 * The cache model as it stood when every query re-summed the
 * footprints by walking an ordered map.  residency() and
 * transientResidency() are kept verbatim: the running sums must
 * reproduce their doubles bit for bit.
 */
class WalkingCacheModel
{
  public:
    explicit WalkingCacheModel(std::size_t capacity) : capacity_(capacity) {}

    void
    add(mem::FootprintId id, std::size_t bytes, bool protectedHot)
    {
        footprints_.emplace(id, Footprint{bytes, protectedHot});
    }

    void
    resize(mem::FootprintId id, std::size_t bytes)
    {
        footprints_.at(id).bytes = bytes;
    }

    void remove(mem::FootprintId id) { footprints_.erase(id); }

    double
    residency(mem::FootprintId id) const
    {
        auto it = footprints_.find(id);
        sim::simAssert(it != footprints_.end(), "unknown footprint");
        const Footprint &f = it->second;
        if (f.bytes == 0)
            return 1.0;

        std::size_t protectedSum = 0, streamingSum = 0;
        for (const auto &[fid, fp] : footprints_) {
            if (fp.protectedHot)
                protectedSum += fp.bytes;
            else
                streamingSum += fp.bytes;
        }

        if (f.protectedHot) {
            if (protectedSum <= capacity_)
                return 1.0;
            return static_cast<double>(capacity_) /
                   static_cast<double>(protectedSum);
        }

        const std::size_t left =
            protectedSum >= capacity_ ? 0 : capacity_ - protectedSum;
        if (streamingSum <= left)
            return 1.0;
        if (left == 0)
            return 0.0;
        return static_cast<double>(left) /
               static_cast<double>(streamingSum);
    }

    double
    transientResidency(std::size_t bytes) const
    {
        if (bytes == 0)
            return 1.0;
        std::size_t protectedSum = 0, streamingSum = 0;
        for (const auto &[fid, fp] : footprints_) {
            if (fp.protectedHot)
                protectedSum += fp.bytes;
            else
                streamingSum += fp.bytes;
        }
        const std::size_t left =
            protectedSum >= capacity_ ? 0 : capacity_ - protectedSum;
        const std::size_t demand = streamingSum + bytes;
        if (demand <= left)
            return 1.0;
        if (left == 0)
            return 0.0;
        return static_cast<double>(left) / static_cast<double>(demand);
    }

  private:
    struct Footprint
    {
        std::size_t bytes;
        bool protectedHot;
    };

    std::size_t capacity_;
    std::map<mem::FootprintId, Footprint> footprints_;
};

TEST(ModelBased, CacheModelSumsMatchRecount)
{
    const std::size_t cap = sim::mib(2);
    mem::CacheModel cache(cap);
    WalkingCacheModel ref(cap);
    Rng rng(23);
    // (id, protected) of every live footprint
    std::vector<std::pair<mem::FootprintId, bool>> live;
    // Half the sizes are small, so both the under- and the
    // oversubscribed regimes come up; a few are empty.
    auto size = [&rng] {
        const double u = rng.uniform();
        if (u < 0.05)
            return std::size_t{0};
        return static_cast<std::size_t>(
            rng.uniformInt(0, u < 0.5 ? sim::kib(256) : sim::mib(3)));
    };
    // Residencies seen, [protected][resident, partly, evicted]: the
    // walk must have taken every branch for the match to mean much.
    int seen[2][3] = {};

    for (int step = 0; step < 4000; ++step) {
        const double action = rng.uniform();
        if (live.empty() || (action < 0.3 && live.size() < 12)) {
            const std::size_t bytes = size();
            const bool hot = rng.uniform() < 0.3;
            const auto id = cache.addFootprint("f", bytes, hot);
            ref.add(id, bytes, hot);
            live.emplace_back(id, hot);
        } else if (action < 0.7) {
            const auto id = live[rng.uniformInt(0, live.size() - 1)].first;
            const std::size_t bytes = size();
            cache.resizeFootprint(id, bytes);
            ref.resize(id, bytes);
        } else {
            const auto idx = rng.uniformInt(0, live.size() - 1);
            cache.removeFootprint(live[idx].first);
            ref.remove(live[idx].first);
            live.erase(live.begin() + static_cast<long>(idx));
        }

        for (const auto &[id, hot] : live) {
            const double r = ref.residency(id);
            ASSERT_EQ(cache.residency(id), r) << "step " << step;
            ++seen[hot][r == 1.0 ? 0 : r > 0.0 ? 1 : 2];
        }
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, sim::kib(64), sim::mib(1),
              sim::mib(4)}) {
            ASSERT_EQ(cache.transientResidency(n),
                      ref.transientResidency(n))
                << "step " << step << ", n " << n;
        }
    }
    EXPECT_GT(seen[1][0], 0);
    EXPECT_GT(seen[1][1], 0);
    EXPECT_GT(seen[0][0], 0);
    EXPECT_GT(seen[0][1], 0);
    EXPECT_GT(seen[0][2], 0);
}

// --------------------------------------------------------------------
// EventQueue ordering vs a sorted reference
// --------------------------------------------------------------------

TEST(ModelBased, EventQueueMatchesSortedReference)
{
    sim::EventQueue eq;
    Rng rng(99);
    std::vector<std::pair<sim::Tick, int>> expected;
    std::vector<int> fired;

    int seq = 0;
    for (int i = 0; i < 2000; ++i) {
        const sim::Tick when{rng.uniformInt(0, 10000)};
        const int id = seq++;
        expected.emplace_back(when, id);
        eq.schedule(when, [&fired, id] { fired.push_back(id); });
    }
    eq.run();

    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    ASSERT_EQ(fired.size(), expected.size());
    for (std::size_t i = 0; i < fired.size(); ++i)
        ASSERT_EQ(fired[i], expected[i].second) << "at " << i;
}

// --------------------------------------------------------------------
// Semaphore: random hold times never break FIFO or the permit count
// --------------------------------------------------------------------

TEST(ModelBased, SemaphoreFifoUnderRandomHoldTimes)
{
    Simulation sim;
    sim::Semaphore sem(sim, 3);
    Rng rng(5);
    std::vector<int> admitted;
    int active = 0, max_active = 0;

    for (int i = 0; i < 200; ++i) {
        sim.spawn([](Simulation &s, sim::Semaphore &sm, Rng &r,
                     std::vector<int> &adm, int &act, int &mx,
                     int id) -> sim::Coro<void> {
            co_await sm.acquire();
            adm.push_back(id);
            ++act;
            mx = std::max(mx, act);
            co_await s.delay(sim::Tick{r.uniformInt(1, 50)});
            --act;
            sm.release();
        }(sim, sem, rng, admitted, active, max_active, i));
    }
    sim.run();

    ASSERT_EQ(admitted.size(), 200u);
    EXPECT_LE(max_active, 3);
    EXPECT_EQ(sem.available(), 3u);
    // All tasks queued at t=0, so admission order is spawn order.
    for (int i = 0; i < 200; ++i)
        ASSERT_EQ(admitted[static_cast<std::size_t>(i)], i);
}

// --------------------------------------------------------------------
// Channel: random producers/consumers preserve per-producer order
// --------------------------------------------------------------------

TEST(ModelBased, ChannelPreservesPerProducerOrder)
{
    Simulation sim;
    sim::Channel<std::pair<int, int>> ch(sim, 4);
    Rng rng(11);
    std::vector<std::vector<int>> seen(4);
    int consumed = 0;

    for (int p = 0; p < 4; ++p) {
        sim.spawn([](Simulation &s,
                     sim::Channel<std::pair<int, int>> &c, Rng &r,
                     int producer) -> sim::Coro<void> {
            for (int k = 0; k < 50; ++k) {
                co_await s.delay(sim::Tick{r.uniformInt(0, 20)});
                co_await c.send({producer, k});
            }
        }(sim, ch, rng, p));
    }
    for (int cns = 0; cns < 2; ++cns) {
        sim.spawn([](sim::Channel<std::pair<int, int>> &c,
                     std::vector<std::vector<int>> &out,
                     int &n) -> sim::Coro<void> {
            for (;;) {
                auto v = co_await c.recv();
                if (!v)
                    co_return;
                out[static_cast<std::size_t>(v->first)].push_back(
                    v->second);
                if (++n == 200)
                    c.close();
            }
        }(ch, seen, consumed));
    }
    sim.run();

    EXPECT_EQ(consumed, 200);
    for (int p = 0; p < 4; ++p) {
        ASSERT_EQ(seen[static_cast<std::size_t>(p)].size(), 50u);
        for (int k = 0; k < 50; ++k)
            ASSERT_EQ(seen[static_cast<std::size_t>(p)]
                          [static_cast<std::size_t>(k)],
                      k);
    }
}

// --------------------------------------------------------------------
// Channel wake rounds vs the pulse-all Channel they replace
// --------------------------------------------------------------------

/**
 * The reference: a Channel whose push, pop and close() pulse a
 * sim::Event, which posts one resume per parked waiter; a resumed
 * waiter that cannot proceed parks again.  sim::Channel's wake rounds
 * must run exactly what this runs, with one event per round.
 */
template <typename T>
class PulseAllChannel
{
  public:
    PulseAllChannel(Simulation &sim, std::size_t capacity = 0)
        : sim_(sim), capacity_(capacity)
    {}

    PulseAllChannel(const PulseAllChannel &) = delete;
    PulseAllChannel &operator=(const PulseAllChannel &) = delete;

    std::size_t size() const { return items_.size(); }
    bool closed() const { return closed_; }

    sim::Coro<void>
    send(T value)
    {
        while (capacity_ != 0 && items_.size() >= capacity_ && !closed_) {
            notFull_.reset();
            co_await notFull_.wait();
        }
        sim::simAssert(!closed_, "send on closed Channel");
        items_.push_back(std::move(value));
        notEmpty_.pulse();
    }

    void
    push(T value)
    {
        sim::simAssert(!closed_, "push on closed Channel");
        items_.push_back(std::move(value));
        notEmpty_.pulse();
    }

    sim::Coro<std::optional<T>>
    recv()
    {
        while (items_.empty() && !closed_)
            co_await notEmpty_.wait();
        if (items_.empty())
            co_return std::optional<T>{};
        T v = std::move(items_.front());
        items_.pop_front();
        notFull_.pulse();
        co_return std::optional<T>(std::move(v));
    }

    std::optional<T>
    tryRecv()
    {
        if (items_.empty())
            return std::nullopt;
        T v = std::move(items_.front());
        items_.pop_front();
        notFull_.pulse();
        return v;
    }

    void
    close()
    {
        closed_ = true;
        notEmpty_.pulse();
        notFull_.pulse();
    }

  private:
    Simulation &sim_;
    std::size_t capacity_;
    bool closed_ = false;
    std::deque<T> items_;
    sim::Event notEmpty_{sim_};
    sim::Event notFull_{sim_};
};

/**
 * One scripted task of a wake-order schedule.  Each step waits
 * `delay` ticks first (0 = a same-tick yield, -1 = no wait at all).
 * A receiver step's `arg` is 0 (recv), 1 (recv, then push the value
 * back synchronously) or 2 (tryRecv); a sender's or pusher's is the
 * value it sends.
 */
struct WakeTask
{
    enum Kind { receiver, sender, pusher } kind;
    std::uint32_t lane;
    std::vector<std::pair<int, int>> steps;
};

/** (tick, task, value | nullopt); task -1 is the close(). */
using WakeTrace =
    std::vector<std::tuple<std::uint64_t, int, std::optional<int>>>;

sim::Coro<void>
wakeStepDelay(Simulation &sim, int delay)
{
    if (delay >= 0)
        co_await sim.delay(sim::Tick{static_cast<std::uint64_t>(delay)});
}

/** What one run of a wake-order schedule shares between its tasks. */
template <typename Chan>
struct WakeRun
{
    explicit WakeRun(Simulation &s) : sim(s) {}

    Simulation &sim;
    Chan ch{sim, 2};
    WakeTrace trace;
    int producers = 0;
    sim::Event producersDone{sim};
};

template <typename Chan>
sim::Coro<void>
wakeTask(WakeRun<Chan> &run, const WakeTask &t, int id)
{
    for (const auto &[delay, arg] : t.steps) {
        co_await wakeStepDelay(run.sim, delay);
        if (t.kind != WakeTask::receiver) {
            if (t.kind == WakeTask::sender)
                co_await run.ch.send(arg);
            else
                run.ch.push(arg);
            run.trace.emplace_back(run.sim.now().count(), id, arg);
            continue;
        }
        if (arg == 2) {
            run.trace.emplace_back(run.sim.now().count(), id,
                                   run.ch.tryRecv());
            continue;
        }
        const std::optional<int> v = co_await run.ch.recv();
        run.trace.emplace_back(run.sim.now().count(), id, v);
        if (!v)
            co_return; // closed and drained
        if (arg == 1 && !run.ch.closed())
            run.ch.push(*v + 1000);
    }
    if (t.kind != WakeTask::receiver && --run.producers == 0)
        run.producersDone.trigger();
}

/** Close once every producer has finished (nothing sends after). */
template <typename Chan>
sim::Coro<void>
wakeCloser(WakeRun<Chan> &run, sim::Tick at)
{
    co_await run.sim.delay(at);
    co_await run.producersDone.wait();
    run.ch.close();
    run.trace.emplace_back(run.sim.now().count(), -1, std::nullopt);
}

template <typename Chan>
WakeTrace
runWakeSchedule(const std::vector<WakeTask> &tasks, sim::Tick close_at,
                std::uint64_t &events)
{
    Simulation sim;
    WakeRun<Chan> run(sim);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (tasks[i].kind != WakeTask::receiver)
            ++run.producers;
        sim.spawnLane(tasks[i].lane,
                      wakeTask(run, tasks[i], static_cast<int>(i)));
    }
    sim.spawnLane(1, wakeCloser(run, close_at));
    sim.run();
    events = sim.executedEvents();
    return std::move(run.trace);
}

TEST(ModelBased, ChannelWakeMatchesPulseAll)
{
    std::uint64_t rounds_events = 0;
    std::uint64_t pulse_events = 0;
    std::size_t closed_waiters = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        Rng rng(seed);
        const auto delay = [&rng] {
            return static_cast<int>(rng.uniformInt(0, 5)) - 1;
        };
        std::vector<WakeTask> tasks;
        const auto receivers = rng.uniformInt(3, 8);
        for (std::uint64_t r = 0; r < receivers; ++r) {
            WakeTask t{WakeTask::receiver,
                       static_cast<std::uint32_t>(rng.uniformInt(1, 3)),
                       {}};
            for (int k = 0; k < 40; ++k) {
                const double u = rng.uniform();
                t.steps.emplace_back(delay(),
                                     u < 0.2 ? 1 : (u < 0.3 ? 2 : 0));
            }
            tasks.push_back(t);
        }
        for (int p = 0; p < 4; ++p) {
            WakeTask t{p < 2 ? WakeTask::sender : WakeTask::pusher,
                       static_cast<std::uint32_t>(rng.uniformInt(1, 3)),
                       {}};
            for (int k = 0; k < 12; ++k)
                t.steps.emplace_back(delay() + 2, p * 100 + k);
            tasks.push_back(t);
        }
        const sim::Tick close_at{rng.uniformInt(0, 60)};

        std::uint64_t ev_rounds = 0;
        std::uint64_t ev_pulse = 0;
        const WakeTrace got = runWakeSchedule<sim::Channel<int>>(
            tasks, close_at, ev_rounds);
        const WakeTrace want = runWakeSchedule<PulseAllChannel<int>>(
            tasks, close_at, ev_pulse);
        ASSERT_EQ(got, want) << "seed " << seed;
        rounds_events += ev_rounds;
        pulse_events += ev_pulse;
        for (const auto &[tick, task, v] : got)
            closed_waiters += task >= 0 && !v ? 1 : 0;
    }
    // The schedules exercised multi-waiter rounds and close().
    EXPECT_LT(rounds_events, pulse_events);
    EXPECT_GT(closed_waiters, 0u);
}

// --------------------------------------------------------------------
// CPU model: random mixed workloads conserve work exactly
// --------------------------------------------------------------------

TEST(ModelBased, CpuConservesWorkUnderRandomMix)
{
    Simulation sim;
    ioat::cpu::CpuSet cpus(sim, {.cores = 3});
    Rng rng(31);
    sim::Tick total{};
    int done = 0;

    for (int i = 0; i < 300; ++i) {
        const sim::Tick dur{rng.uniformInt(1, 5000)};
        const int core = rng.uniform() < 0.3
                             ? static_cast<int>(rng.uniformInt(0, 2))
                             : ioat::cpu::CpuSet::kAnyCore;
        const bool high = rng.uniform() < 0.2;
        total += dur;
        sim.spawn([](ioat::cpu::CpuSet &c, sim::Tick d, int k, bool hi,
                     int &n) -> sim::Coro<void> {
            co_await c.compute(d, k, hi);
            ++n;
        }(cpus, dur, core, high, done));
    }
    sim.run();

    EXPECT_EQ(done, 300);
    EXPECT_EQ(cpus.totalBusyTicks(), total);
    EXPECT_EQ(cpus.queuedWork(), 0u);
    EXPECT_EQ(cpus.busyCores(), 0u);
    // Makespan bounds: between total/3 and total.
    EXPECT_GE(sim.now() * 3, total);
    EXPECT_LE(sim.now(), total);
}

// --------------------------------------------------------------------
// CPU model: the exact schedule of a reference scheduler
// --------------------------------------------------------------------

/** One compute() call of the CPU reference-model test. */
struct CpuJob
{
    int id = 0;
    sim::Tick arrival{};
    sim::Tick duration{};
    int core = ioat::cpu::CpuSet::kAnyCore;
    bool high = false;
};

/** (job id, completion tick), in completion order. */
using Completion = std::pair<int, std::uint64_t>;

/**
 * The CPU scheduling policy, written out plainly: per-core and global
 * FIFOs, high before normal and pinned before global, normal work in
 * quantum slices, and a core that finishes a slice starts the next
 * waiting slice before the finished compute continues.  Events run in
 * (tick, schedule order), as on the simulator's one lane.
 */
std::vector<Completion>
referenceSchedule(const std::vector<CpuJob> &jobs, unsigned cores,
                  sim::Tick quantum)
{
    struct Ev
    {
        sim::Tick when;
        std::uint64_t seq;
        int job;  ///< arrival of this job, or -1
        int core; ///< slice finish on this core (job == -1)
    };
    auto later = [](const Ev &a, const Ev &b) {
        return std::tie(a.when, a.seq) > std::tie(b.when, b.seq);
    };
    std::priority_queue<Ev, std::vector<Ev>, decltype(later)> events(
        later);
    std::uint64_t seq = 0;
    for (const CpuJob &j : jobs)
        events.push({j.arrival, seq++, j.id, -1});

    const auto n = static_cast<std::size_t>(cores);
    std::vector<sim::Tick> left(jobs.size());
    std::vector<int> running(n, -1);
    std::vector<std::deque<int>> pinnedHigh(n), pinnedNormal(n);
    std::deque<int> anyHigh, anyNormal;
    std::vector<Completion> out;
    sim::Tick now{};

    auto start = [&](std::size_t core, int id) {
        const auto i = static_cast<std::size_t>(id);
        running[core] = id;
        const sim::Tick slice =
            jobs[i].high ? left[i] : std::min(left[i], quantum);
        left[i] -= slice;
        events.push({now + slice, seq++, -1, static_cast<int>(core)});
    };
    auto dispatch = [&](int id) {
        const CpuJob &j = jobs[static_cast<std::size_t>(id)];
        if (j.core != ioat::cpu::CpuSet::kAnyCore) {
            const auto core = static_cast<std::size_t>(j.core);
            if (running[core] < 0)
                start(core, id);
            else
                (j.high ? pinnedHigh : pinnedNormal)[core].push_back(id);
            return;
        }
        for (std::size_t core = 0; core < n; ++core) {
            if (running[core] < 0) {
                start(core, id);
                return;
            }
        }
        (j.high ? anyHigh : anyNormal).push_back(id);
    };

    while (!events.empty()) {
        const Ev ev = events.top();
        events.pop();
        now = ev.when;
        if (ev.job >= 0) {
            left[static_cast<std::size_t>(ev.job)] =
                jobs[static_cast<std::size_t>(ev.job)].duration;
            dispatch(ev.job);
            continue;
        }
        const auto core = static_cast<std::size_t>(ev.core);
        const int id = running[core];
        running[core] = -1;
        for (std::deque<int> *q : {&pinnedHigh[core], &anyHigh,
                                   &pinnedNormal[core], &anyNormal}) {
            if (!q->empty()) {
                start(core, q->front());
                q->pop_front();
                break;
            }
        }
        if (left[static_cast<std::size_t>(id)] > sim::Tick{0})
            dispatch(id);
        else
            out.emplace_back(id, now.count());
    }
    return out;
}

TEST(ModelBased, CpuMatchesReferenceScheduler)
{
    constexpr unsigned kCores = 3;
    Rng rng(17);
    // Ticks on a 10 us grid so many slices finish on the same tick,
    // which pins tie order as well as policy.  About 1.1x offered
    // load: queues build and drain throughout the run.
    std::vector<CpuJob> jobs(400);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        CpuJob &j = jobs[i];
        j.id = static_cast<int>(i);
        j.arrival = sim::microseconds(10) * rng.uniformInt(0, 1000);
        j.duration = sim::microseconds(10) * rng.uniformInt(1, 15);
        if (rng.uniform() < 0.4)
            j.core = static_cast<int>(rng.uniformInt(0, kCores - 1));
        j.high = rng.uniform() < 0.25;
    }

    Simulation sim;
    ioat::cpu::CpuSet cpus(sim, {.cores = kCores});
    std::vector<Completion> got;
    for (const CpuJob &j : jobs) {
        sim.spawn([](Simulation &s, ioat::cpu::CpuSet &c, CpuJob job,
                     std::vector<Completion> &out) -> sim::Coro<void> {
            co_await s.delay(job.arrival);
            co_await c.compute(job.duration, job.core, job.high);
            out.emplace_back(job.id, s.now().count());
        }(sim, cpus, j, got));
    }
    sim.run();

    ASSERT_EQ(got.size(), jobs.size());
    EXPECT_EQ(got,
              referenceSchedule(jobs, kCores, cpus.preemptionQuantum()));
    // Durations straddle the 50 us quantum, so some computes sliced.
    EXPECT_GT(cpus.completedItems(), jobs.size());
}

} // namespace
