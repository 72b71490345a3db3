/**
 * @file
 * Timeout combinators for simulated tasks.
 *
 * `waitWithTimeout` races an Event against a deadline without
 * cancelling the work behind it (the peer keeps running; the caller
 * just stops waiting) — the right semantics for timing out waits on
 * shared state.  `Watchdog` is the re-armable deadline for
 * non-coroutine code, and `CappedBackoff` spaces out the retries.
 *
 * NO-CANCELLATION CONTRACT.  Timing out a wait here never cancels the
 * work being waited on: the peer may still be executing the request
 * body, and its effect may land *after* the caller has given up and
 * retried — even after a crash–restart in between.  Any RPC whose
 * effect is not idempotent must therefore carry an identity the
 * server can deduplicate on.  The PVFS write path is the canonical
 * case: a timed-out write that the iod later journals must not be
 * applied a second time when the client retries it (see
 * `PvfsConfig::journaledWrites` and the writeId dedup in
 * `IodServer`); debug builds assert the dedup invariant.
 */

#ifndef IOAT_SIMCORE_TIMEOUT_HH
#define IOAT_SIMCORE_TIMEOUT_HH

#include <algorithm>
#include <memory>
#include <optional>

#include "simcore/coro.hh"
#include "simcore/sim.hh"
#include "simcore/sync.hh"

namespace ioat::sim {

/**
 * Awaitable that races an Event against a deadline.
 *
 * Entirely allocation-free: the awaiter parks on the event's waiter
 * list with a `TimedTag` and arms one cancellable timer.  If the
 * event releases first, the release synchronously cancels the timer;
 * if the timer fires first, it synchronously detaches the waiter —
 * either way the coroutine resumes exactly once.
 *
 * `co_await` yields true if the event triggered before the deadline,
 * false on timeout or pulse-wake (matching `Event::triggered()` at
 * resume time).
 */
class EventTimedWait : private Event::TimedTag
{
  public:
    EventTimedWait(Simulation &sim, Event &event, Tick timeout)
        : sim_(sim), event_(event), timeout_(timeout)
    {}

    EventTimedWait(const EventTimedWait &) = delete;
    EventTimedWait &operator=(const EventTimedWait &) = delete;

    bool await_ready() const noexcept { return event_.triggered(); }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        timer = sim_.queue().scheduleIn(timeout_, [this, h] {
            // Deadline fired first: detach from the event and resume.
            // (If a release beat us to this tick it cancelled the
            // timer, so reaching here means we are still parked.)
            const bool parked = event_.removeWaiter(this);
            simAssert(parked, "timed waiter fired but was not parked");
            h.resume();
        });
        event_.addWaiter(h, this);
    }

    /** @return whether the event (ever) triggered, i.e. not a timeout. */
    bool await_resume() const noexcept { return event_.triggered(); }

  private:
    Simulation &sim_;
    Event &event_;
    Tick timeout_;
};

/**
 * Await an event with a deadline.
 *
 * @return true if the event triggered before the deadline, false on
 *         timeout (the waiter is released either way).
 */
inline EventTimedWait
waitWithTimeout(Simulation &sim, Event &event, Tick timeout)
{
    return EventTimedWait(sim, event, timeout);
}

/**
 * One-shot re-armable deadline timer for non-coroutine contexts
 * (RPC watchdogs).  `arm()` replaces any pending deadline; `cancel()`
 * revokes it; the destructor cancels, so a Watchdog member can never
 * fire into a destroyed object.
 */
class Watchdog
{
  public:
    explicit Watchdog(Simulation &sim) : sim_(sim) {}

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    ~Watchdog() { cancel(); }

    /** Schedule @p fn to run in @p delay ticks, replacing any pending arm. */
    template <typename F>
    void
    arm(Tick delay, F &&fn)
    {
        cancel();
        timer_ = sim_.queue().scheduleIn(delay, std::forward<F>(fn));
    }

    /** Revoke the pending deadline (no-op when idle or already fired). */
    void cancel() { sim_.queue().cancel(timer_); }

  private:
    Simulation &sim_;
    EventQueue::TimerHandle timer_;
};

/**
 * Deterministic capped exponential backoff schedule.
 *
 * `next()` returns the current delay and doubles it up to @p cap;
 * `reset()` rewinds to the base after a success.  With `cap == base`
 * the schedule degenerates to a fixed delay — which is how components
 * keep their default event sequence byte-identical to the seed while
 * still routing every reconnect wait through one helper.
 */
class CappedBackoff
{
  public:
    CappedBackoff(Tick base, Tick cap)
        : base_(base), cap_(cap < base ? base : cap), cur_(base)
    {
        simAssert(base > Tick{0}, "backoff base must be positive");
    }

    /** The delay to wait now; advances the schedule. */
    Tick
    next()
    {
        const Tick d = cur_;
        cur_ = std::min(cur_ * 2, cap_);
        return d;
    }

    /** Peek at the delay next() would return, without advancing. */
    Tick current() const { return cur_; }

    /** A success: the next failure starts over from the base. */
    void reset() { cur_ = base_; }

  private:
    Tick base_;
    Tick cap_;
    Tick cur_;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_TIMEOUT_HH
