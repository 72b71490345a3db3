/**
 * @file
 * The Simulation object: event queue + coroutine runtime.
 *
 * All simulated activities are coroutines spawned onto a Simulation.
 * The Simulation owns every root frame it spawns, so destroying it
 * (even mid-run) releases all coroutine state deterministically.
 */

#ifndef IOAT_SIMCORE_SIM_HH
#define IOAT_SIMCORE_SIM_HH

#include <algorithm>
#include <coroutine>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/coro.hh"
#include "simcore/event_queue.hh"
#include "simcore/reqtrace.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/types.hh"

namespace ioat::sim {

/**
 * Owns the event queue and all detached ("root") coroutines.
 *
 * Usage:
 * @code
 *   Simulation sim;
 *   sim.spawn(myTask(sim));
 *   sim.runFor(seconds(1));
 * @endcode
 */
class Simulation
{
  public:
    Simulation() = default;
    Simulation(const Simulation &) = delete;
    Simulation &operator=(const Simulation &) = delete;

    ~Simulation()
    {
        // Drop pending events first: they may hold handles into frames
        // the root teardown below is about to destroy.
        eq_.clear();
        // Destroying a root frame cascades into every child Coro it
        // owns, so this releases the entire suspended task tree.
        // Spawn order, so teardown is independent of pointer values.
        auto roots = std::move(roots_);
        roots_.clear();
        for (void *addr : roots) {
            std::coroutine_handle<RootPromise>::from_address(addr)
                .destroy();
        }
    }

    EventQueue &queue() { return eq_; }
    Tick now() const { return eq_.now(); }

    /**
     * Component directory for the telemetry hierarchy walk: top-level
     * components (nodes, fabrics, services) self-register here and a
     * telemetry::Session turns the lot into one dotted-name registry.
     */
    telemetry::Hub &telemetry() { return hub_; }

    /**
     * Turn on causal request tracing (idempotent).  Until this is
     * called, requestTracer() is null and every emission point in the
     * stack short-circuits on that — the tracing-off fast path.
     */
    RequestTracer &
    enableRequestTracing(std::uint32_t max_detailed = 512)
    {
        if (!reqTracer_)
            reqTracer_ =
                std::make_unique<RequestTracer>(eq_, max_detailed);
        return *reqTracer_;
    }

    /** The request tracer, or null when tracing is off. */
    RequestTracer *requestTracer() const { return reqTracer_.get(); }

    /** Number of root tasks that have not yet completed. */
    std::size_t liveRootTasks() const { return roots_.size(); }

    /**
     * Start a detached coroutine.  It begins running at the current
     * simulated time, after already-queued events.
     */
    void
    spawn(Coro<void> body)
    {
        spawnLane(eq_.currentLane(), std::move(body));
    }

    /**
     * Start a detached coroutine on an explicit lane (see
     * event_queue.hh): node-affine work spawned by the lane-0 driver
     * gets the node's lane, and so does everything it schedules.
     * `Node::spawn` is the usual caller.
     */
    void
    spawnLane(std::uint32_t lane, Coro<void> body)
    {
        RootTask task = runRoot(std::move(body));
        auto h = task.handle;
        h.promise().sim = this;
        roots_.push_back(h.address());
        eq_.scheduleLane(eq_.now(), lane, [h] { h.resume(); });
    }

    /** Awaitable: suspend the calling coroutine for @p d ticks. */
    auto
    delay(Tick d)
    {
        struct Awaiter
        {
            EventQueue &eq;
            Tick d;

            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<> h) const
            {
                eq.scheduleIn(d, [h] { h.resume(); });
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{eq_, d};
    }

    /** Awaitable: suspend until absolute time @p when (>= now). */
    auto
    waitUntil(Tick when)
    {
        return delay(when > now() ? when - now() : Tick{0});
    }

    /** @name Event-loop drivers (see EventQueue)
     *  @{ */
    void runFor(Tick duration) { eq_.runFor(duration); }
    void runUntil(Tick when) { eq_.runUntil(when); }
    std::uint64_t run(std::uint64_t limit = ~std::uint64_t{0})
    {
        return eq_.run(limit);
    }
    std::uint64_t executedEvents() const { return eq_.executedEvents(); }
    /** @} */

  private:
    struct RootPromise;

    struct RootTask
    {
        using promise_type = RootPromise;
        std::coroutine_handle<RootPromise> handle;
    };

    struct RootPromise
    {
        Simulation *sim = nullptr;

        RootTask
        get_return_object()
        {
            return RootTask{
                std::coroutine_handle<RootPromise>::from_promise(*this)};
        }

        std::suspend_always initial_suspend() const noexcept { return {}; }

        /** On completion: unregister from the Simulation and free. */
        struct Final
        {
            bool await_ready() const noexcept { return false; }

            void
            await_suspend(std::coroutine_handle<RootPromise> h) const noexcept
            {
                auto &roots = h.promise().sim->roots_;
                roots.erase(std::find(roots.begin(), roots.end(),
                                      h.address()));
                h.destroy();
            }

            void await_resume() const noexcept {}
        };

        Final final_suspend() const noexcept { return {}; }
        void return_void() const noexcept {}

        void
        unhandled_exception() const
        {
            try {
                throw;
            } catch (const std::exception &e) {
                panic(std::string("unhandled exception in task: ") +
                      e.what());
            } catch (...) {
                panic("unhandled non-std exception in task");
            }
        }
    };

    static RootTask
    runRoot(Coro<void> body)
    {
        co_await std::move(body);
    }

    EventQueue eq_;
    std::vector<void *> roots_;
    telemetry::Hub hub_;
    /**
     * Declared after hub_/roots_, and root frames are destroyed in the
     * destructor *body*: RAII spans ending during frame teardown still
     * find a live tracer.
     */
    std::unique_ptr<RequestTracer> reqTracer_;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_SIM_HH
