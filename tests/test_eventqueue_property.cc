/**
 * @file
 * Property tests for the calendar/timer-wheel event queue.
 *
 * Randomized schedule / cancel / pop / runUntil sequences are
 * cross-checked against a reference model (a `std::multimap` keyed by
 * (tick, priority lane), whose equal-key insertion order is the FIFO
 * contract within a lane).  Delay distributions are chosen to hit
 * every residence class: same-tick posts, the L0 one-tick buckets,
 * the L1/L2 coarse wheels, and the far-horizon overflow heap.  The
 * lane tests at the end pin the (when, lane, seq) merge order and
 * how lanes are inherited and re-attributed.
 */

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "simcore/event_queue.hh"
#include "simcore/types.hh"

namespace sim = ioat::sim;
using ioat::sim::EventQueue;
using ioat::sim::Tick;

namespace {

/**
 * Reference model: multimap keyed by (tick, priority lane) keeps
 * schedule order within a key.
 */
class ModelQueue
{
  public:
    void
    schedule(Tick when, int id, std::uint32_t lane = 0)
    {
        auto it = events_.emplace(Key{when, lane}, id);
        byId_.emplace(id, it);
    }

    bool
    cancel(int id)
    {
        auto it = byId_.find(id);
        if (it == byId_.end())
            return false;
        events_.erase(it->second);
        byId_.erase(it);
        return true;
    }

    /** Pop the earliest event (FIFO among ties); -1 when empty. */
    int
    pop()
    {
        if (events_.empty())
            return -1;
        auto it = events_.begin();
        const int id = it->second;
        byId_.erase(id);
        events_.erase(it);
        return id;
    }

    Tick
    nextWhen() const
    {
        return events_.empty() ? ioat::sim::kTickMax
                               : events_.begin()->first.first;
    }

    std::size_t size() const { return events_.size(); }

  private:
    using Key = std::pair<Tick, std::uint32_t>;
    std::multimap<Key, int> events_;
    std::unordered_map<int, std::multimap<Key, int>::iterator> byId_;
};

/** Random delay spanning all residence classes of the queue. */
Tick
randomDelay(std::mt19937_64 &rng)
{
    switch (rng() % 5) {
      case 0:
        return Tick{0}; // same-tick post
      case 1:
        return Tick{rng() % 4096}; // L0 window
      case 2:
        return Tick{4096 + rng() % ((std::uint64_t{1} << 20) - 4096)}; // L1
      case 3:
        return Tick{(std::uint64_t{1} << 20) +
                    rng() % ((std::uint64_t{1} << 28) -
                             (std::uint64_t{1} << 20))}; // L2
      default:
        return Tick{(std::uint64_t{1} << 28) +
                    rng() % (std::uint64_t{1} << 34)}; // heap
    }
}

TEST(EventQueueProperty, RandomizedScheduleCancelPopMatchesModel)
{
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
        std::mt19937_64 rng(seed);
        EventQueue q;
        ModelQueue model;
        std::vector<int> fired;
        std::vector<std::uint32_t> firedLane;
        std::vector<std::uint32_t> execLaneOf; // index = id
        std::vector<std::pair<int, EventQueue::TimerHandle>> handles;
        int nextId = 0;

        for (int round = 0; round < 200; ++round) {
            // Schedule a burst of events with mixed horizons, through
            // every entry point, on a few colliding lanes.
            const int burst = 1 + static_cast<int>(rng() % 16);
            for (int i = 0; i < burst; ++i) {
                const Tick when = q.now() + randomDelay(rng);
                const int id = nextId++;
                auto fire = [&fired, &firedLane, &q, id] {
                    fired.push_back(id);
                    firedLane.push_back(q.currentLane());
                };
                auto prio = static_cast<std::uint32_t>(rng() % 4);
                std::uint32_t exec = prio;
                EventQueue::TimerHandle h;
                switch (rng() % 3) {
                  case 0: // driver code schedules on lane 0
                    prio = exec = 0;
                    h = q.schedule(when, fire);
                    break;
                  case 1:
                    h = q.scheduleLane(when, prio, fire);
                    break;
                  default:
                    exec = static_cast<std::uint32_t>(rng() % 4);
                    h = q.scheduleCross(when, prio, exec, fire);
                    break;
                }
                handles.emplace_back(id, h);
                execLaneOf.push_back(exec);
                model.schedule(when, id, prio);
            }

            // Cancel a few arbitrary handles (fired, pending, or
            // already-cancelled — the queue must agree with the model
            // on which was which).
            for (int i = 0; i < 3 && !handles.empty(); ++i) {
                const std::size_t pick = rng() % handles.size();
                const int id = handles[pick].first;
                const bool queueSaysLive = q.cancel(handles[pick].second);
                const bool modelSaysLive = model.cancel(id);
                ASSERT_EQ(modelSaysLive, queueSaysLive)
                    << "cancel disagreement on id " << id << " (seed "
                    << seed << ")";
            }

            // Some rounds advance with runUntil instead: exactly the
            // model events due by `until` fire, in model order, and
            // now() lands on `until` — also when the jump crosses
            // wheel windows with nothing to run.
            if (rng() % 3 == 0) {
                const Tick until = q.now() + randomDelay(rng);
                std::size_t k = fired.size();
                q.runUntil(until);
                while (model.size() > 0 && model.nextWhen() <= until) {
                    ASSERT_LT(k, fired.size())
                        << "runUntil skipped a due event (seed " << seed
                        << ")";
                    ASSERT_EQ(model.pop(), fired[k])
                        << "runUntil order diverged (seed " << seed
                        << ")";
                    ASSERT_EQ(execLaneOf[static_cast<std::size_t>(
                                  fired[k])],
                              firedLane[k]);
                    ++k;
                }
                ASSERT_EQ(k, fired.size())
                    << "runUntil ran an event past until (seed " << seed
                    << ")";
                ASSERT_EQ(until, q.now());
                continue;
            }

            // Pop a random number of events and check order.
            const int pops = static_cast<int>(rng() % 24);
            for (int i = 0; i < pops; ++i) {
                const Tick expectNext = model.nextWhen();
                if (model.size() == 0) {
                    ASSERT_FALSE(q.runOne());
                    break;
                }
                ASSERT_EQ(expectNext, q.nextEventTick());
                const std::size_t firedBefore = fired.size();
                ASSERT_TRUE(q.runOne());
                ASSERT_EQ(firedBefore + 1, fired.size());
                ASSERT_EQ(model.pop(), fired.back())
                    << "pop order diverged (seed " << seed << ")";
                ASSERT_EQ(execLaneOf[static_cast<std::size_t>(
                              fired.back())],
                          firedLane.back());
            }
        }

        // Drain: every remaining event must come out in model order.
        while (model.size() > 0) {
            ASSERT_TRUE(q.runOne());
            ASSERT_EQ(model.pop(), fired.back());
            ASSERT_EQ(execLaneOf[static_cast<std::size_t>(fired.back())],
                      firedLane.back());
        }
        ASSERT_TRUE(q.empty());
        ASSERT_FALSE(q.runOne());
    }
}

TEST(EventQueueProperty, SameTickFifoAcrossAllLevels)
{
    // Many events on few distinct ticks, each tick far enough out to
    // start life in a different level; FIFO must hold per tick even
    // after cascading.
    EventQueue q;
    const Tick base = q.now();
    const std::vector<Tick> ticks = {
        base,                      // immediate
        base + Tick{100},          // L0
        base + Tick{5000},         // L1
        base + Tick{std::uint64_t{1} << 21}, // L2
        base + Tick{std::uint64_t{1} << 29}, // overflow heap
    };
    std::vector<std::pair<Tick, int>> expected;
    std::vector<std::pair<Tick, int>> got;
    std::mt19937_64 rng(99);
    for (int i = 0; i < 500; ++i) {
        const Tick when = ticks[rng() % ticks.size()];
        expected.emplace_back(when, i);
        q.schedule(when, [&got, when, i] { got.emplace_back(when, i); });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    q.run();
    ASSERT_EQ(expected, got);
}

TEST(EventQueueProperty, ReentrantSchedulingKeepsOrder)
{
    // Callbacks scheduling follow-ups is the simulator's steady state;
    // the model is updated inside the same callback, so both sides
    // assign the same arrival order.
    EventQueue q;
    ModelQueue model;
    std::vector<int> fired;
    std::mt19937_64 rng(7);
    int nextId = 0;

    // Seed events; each fires a chain of up to 3 follow-ups.
    std::function<void(int, int)> fire = [&](int id, int depth) {
        fired.push_back(id);
        if (depth < 3) {
            const Tick when = q.now() + Tick{rng() % 3000};
            const int child = nextId++;
            q.schedule(when,
                       [&fire, child, depth] { fire(child, depth + 1); });
            model.schedule(when, child);
        }
    };
    for (int i = 0; i < 50; ++i) {
        const Tick when = q.now() + Tick{rng() % 2000};
        const int id = nextId++;
        q.schedule(when, [&fire, id] { fire(id, 0); });
        model.schedule(when, id);
    }

    while (model.size() > 0) {
        ASSERT_TRUE(q.runOne());
        ASSERT_EQ(model.pop(), fired.back());
    }
    ASSERT_TRUE(q.empty());
}

TEST(EventQueueProperty, CancelledHandleIsInertAfterFire)
{
    EventQueue q;
    int calls = 0;
    auto h = q.scheduleIn(ioat::sim::Tick{10}, [&calls] { ++calls; });
    q.run();
    ASSERT_EQ(1, calls);
    // The event fired; cancelling its stale handle must be a no-op
    // even though the node slot may have been recycled since.
    EXPECT_FALSE(q.cancel(h));
    auto h2 = q.scheduleIn(ioat::sim::Tick{5}, [&calls] { ++calls; });
    EXPECT_FALSE(q.cancel(h));  // doubly stale
    EXPECT_TRUE(q.cancel(h2));  // fresh handle still works
    EXPECT_FALSE(q.cancel(h2)); // but only once
    q.run();
    ASSERT_EQ(1, calls);
}

TEST(EventQueueProperty, OverflowSpillPreservesOrderAcrossRounds)
{
    // Events in several distinct 2^28-tick heap "rounds", scheduled
    // shuffled; the heap must spill them into the wheels round by
    // round without mixing or reordering ties.
    EventQueue q;
    ModelQueue model;
    std::vector<int> fired;
    std::mt19937_64 rng(1717);
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t round = 1 + rng() % 5;
        const Tick when = q.now() +
                          round * Tick{std::uint64_t{1} << 28} +
                          Tick{rng() % 1000};
        q.schedule(when, [&fired, i] { fired.push_back(i); });
        model.schedule(when, i);
    }
    while (model.size() > 0) {
        ASSERT_TRUE(q.runOne());
        ASSERT_EQ(model.pop(), fired.back());
    }
}

TEST(EventQueueProperty, RunUntilAcrossEmptyWindowsThenSchedule)
{
    // runUntil may advance `now` across wheel-window boundaries
    // without popping anything; events scheduled after the jump must
    // still interleave correctly with ones parked before it.
    EventQueue q;
    std::vector<int> fired;
    // Parked while far away: lives in L1/L2 at schedule time.
    q.schedule(q.now() + Tick{6000}, [&fired] { fired.push_back(1); });
    q.schedule(q.now() + Tick{std::uint64_t{1} << 22},
               [&fired] { fired.push_back(2); });
    // Jump to just before the first event, crossing the L0 window.
    q.runUntil(q.now() + Tick{5990});
    ASSERT_TRUE(fired.empty());
    // Now schedule something *earlier* than the parked event.
    q.schedule(q.now() + Tick{5}, [&fired] { fired.push_back(0); });
    q.run();
    ASSERT_EQ((std::vector<int>{0, 1, 2}), fired);
    ASSERT_TRUE(q.empty());
}

TEST(EventQueueProperty, RunUntilRunsEventsAtCoarseWindowStarts)
{
    // An event exactly at `until`, on the first tick of an L1 window,
    // an L2 window or a heap round, is due: runUntil must run it, and
    // only it.
    for (const std::uint64_t start :
         {std::uint64_t{3} << 12, std::uint64_t{3} << 20,
          std::uint64_t{3} << 28}) {
        EventQueue q;
        std::vector<int> fired;
        q.schedule(Tick{start + 1}, [&fired] { fired.push_back(1); });
        q.schedule(Tick{start}, [&fired] { fired.push_back(0); });
        q.runUntil(Tick{start});
        EXPECT_EQ((std::vector<int>{0}), fired) << "start " << start;
        EXPECT_EQ(Tick{start}, q.now());
        q.run();
        EXPECT_EQ((std::vector<int>{0, 1}), fired) << "start " << start;
    }
}

TEST(EventQueueProperty, MergeOrderIsTotalAndStable)
{
    // A grid of keys with deliberate tick and lane collisions, two
    // events per (when, lane), scheduled in shuffled orders through
    // both lane entry points.  Execution must follow the total
    // (when, lane, seq) order: (when, lane) first, schedule order
    // within a key — so the key sequence that runs is the same
    // whatever order the events were scheduled in.  The later ticks
    // start in L1, L2 and the overflow heap, whose buckets are
    // unsorted: their lane order is set when they reach L0.
    struct Keyed
    {
        Tick when;
        std::uint32_t lane;
        int id; // index into events
    };
    std::vector<Keyed> events;
    for (Tick when : {Tick{5}, Tick{1}, Tick{12}, Tick{9}, Tick{5000},
                      Tick{std::uint64_t{1} << 21},
                      Tick{std::uint64_t{1} << 29}})
        for (std::uint32_t lane : {2u, 0u, 7u})
            for (int copy = 0; copy < 2; ++copy)
                events.push_back(
                    {when, lane, static_cast<int>(events.size())});

    std::mt19937_64 rng(2026);
    std::vector<std::pair<Tick, std::uint32_t>> referenceKeys;
    for (int trial = 0; trial < 32; ++trial) {
        std::vector<Keyed> order = events;
        if (trial > 0)
            std::shuffle(order.begin(), order.end(), rng);

        EventQueue q;
        std::vector<int> fired;
        for (const Keyed &e : order) {
            auto fire = [&fired, id = e.id] { fired.push_back(id); };
            if (e.id % 2 == 0)
                q.scheduleLane(e.when, e.lane, fire);
            else // orders on the sender lane, runs on another
                q.scheduleCross(e.when, e.lane, e.lane + 1, fire);
        }
        q.run();

        // The order is an explicit sort of the keys, not an artifact
        // of wheel or heap internals.
        std::vector<Keyed> sorted = order;
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const Keyed &a, const Keyed &b) {
                             if (a.when != b.when)
                                 return a.when < b.when;
                             return a.lane < b.lane;
                         });
        ASSERT_EQ(sorted.size(), fired.size());
        std::vector<std::pair<Tick, std::uint32_t>> keys;
        for (std::size_t i = 0; i < fired.size(); ++i) {
            EXPECT_EQ(sorted[i].id, fired[i])
                << "position " << i << " (trial " << trial << ")";
            const Keyed &e = events[static_cast<std::size_t>(fired[i])];
            keys.emplace_back(e.when, e.lane);
        }
        if (trial == 0)
            referenceKeys = keys;
        else
            EXPECT_EQ(referenceKeys, keys)
                << "schedule order changed the key order (trial " << trial
                << ")";
    }
}

TEST(EventQueueProperty, EventsInheritExecutingLane)
{
    sim::EventQueue eq;
    std::vector<std::uint32_t> lanesSeen;
    // Root event on lane 3 schedules a child with no explicit lane:
    // the child must inherit lane 3, transitively.
    eq.scheduleLane(Tick{1}, 3, [&] {
        lanesSeen.push_back(eq.currentLane());
        eq.schedule(Tick{2}, [&] {
            lanesSeen.push_back(eq.currentLane());
            eq.schedule(Tick{3},
                        [&] { lanesSeen.push_back(eq.currentLane()); });
        });
    });
    eq.run();
    EXPECT_EQ(lanesSeen, (std::vector<std::uint32_t>{3, 3, 3}));
}

TEST(EventQueueProperty, ScheduleCrossReattributesLanes)
{
    sim::EventQueue eq;
    std::uint32_t execLaneSeen = 0;
    std::uint32_t childLane = 0;
    // A lane-5 sender hands off to exec-lane 9 (the receiving node):
    // the handler runs *as* lane 9 and its children stay on lane 9 —
    // exactly what the switch does at a node boundary.
    eq.scheduleLane(Tick{1}, 5, [&] {
        eq.scheduleCross(Tick{4}, 5, 9, [&] {
            execLaneSeen = eq.currentLane();
            eq.schedule(Tick{5}, [&] { childLane = eq.currentLane(); });
        });
    });
    eq.run();
    EXPECT_EQ(execLaneSeen, 9u);
    EXPECT_EQ(childLane, 9u);
}

TEST(EventQueueProperty, CrossPriorityLaneOrdersAgainstSenderLane)
{
    // Two same-tick events: one local to lane 7, one cross-scheduled
    // with priority lane 5 (exec lane 9).  Priority lane orders the
    // merge: 5 runs before 7 even though its *execution* lane is 9.
    sim::EventQueue eq;
    std::vector<int> order;
    eq.scheduleLane(Tick{1}, 7, [&] {
        eq.schedule(Tick{4}, [&] { order.push_back(7); });
    });
    eq.scheduleLane(Tick{1}, 5, [&] {
        eq.scheduleCross(Tick{4}, 5, 9, [&] { order.push_back(5); });
    });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{5, 7}));
}

} // namespace
