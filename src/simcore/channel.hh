/**
 * @file
 * Bounded FIFO channel for message passing between simulated tasks.
 *
 * Semantics follow Go channels: send suspends while the channel is
 * full, recv suspends while it is empty, close() wakes all receivers
 * which then observe std::nullopt once the buffer drains.
 *
 * The channel keeps its own FIFOs of parked receivers and parked
 * senders, like csimpy's Container keeps its get/put waiters.  Every
 * push, pop or close() that finds waiters parked on the side it
 * unblocks starts one *wake round*: it moves all of them, in park
 * order, into a batch and posts one event.  That event walks the
 * batch: a waiter that can proceed at its turn (a receiver when an
 * item is there, a sender when there is room, either once the channel
 * is closed) is resumed inline; every other waiter is parked again,
 * behind anyone who parked since, without being resumed.
 *
 * This runs exactly what a pulse-all condition variable (one posted
 * resume per waiter, each re-checking and re-parking) would run, with
 * one event instead of k.  Those k resumes would take consecutive
 * seqs on one lane at one tick, and model code never schedules at
 * the current tick on a lower lane, so no other event could run
 * between them: each waiter sees the state it would have seen at its
 * turn, including items taken by receivers that barged in first and
 * items a waiter earlier in the round pushed back.
 */

#ifndef IOAT_SIMCORE_CHANNEL_HH
#define IOAT_SIMCORE_CHANNEL_HH

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/coro.hh"
#include "simcore/sim.hh"

namespace ioat::sim {

/**
 * A bounded multi-producer multi-consumer channel.
 *
 * @tparam T element type (moved through the channel)
 */
template <typename T>
class Channel
{
  public:
    /**
     * @param sim owning simulation
     * @param capacity maximum buffered elements (0 means unbounded)
     */
    Channel(Simulation &sim, std::size_t capacity = 0)
        : sim_(sim), capacity_(capacity)
    {}

    /** A pending wake round would resume into a dead channel. */
    ~Channel()
    {
        for (Round &r : rounds_)
            sim_.queue().cancel(r.timer);
    }

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    std::size_t size() const { return items_.size(); }
    bool closed() const { return closed_; }

    /**
     * Send a value, suspending while the channel is full.
     * Sending on a closed channel is a simulator bug.
     */
    Coro<void>
    send(T value)
    {
        while (full() && !closed_)
            co_await Park{senders_, true};
        simAssert(!closed_, "send on closed Channel");
        items_.push_back(std::move(value));
        wake(receivers_);
    }

    /**
     * Push a value without waiting for space (for non-coroutine
     * producers such as device callbacks).  Capacity is not enforced.
     */
    void
    push(T value)
    {
        simAssert(!closed_, "push on closed Channel");
        items_.push_back(std::move(value));
        wake(receivers_);
    }

    /**
     * Receive the next value, suspending while the channel is empty.
     * @return the value, or std::nullopt once closed and drained.
     */
    Coro<std::optional<T>>
    recv()
    {
        while (items_.empty() && !closed_)
            co_await Park{receivers_, false};
        co_return tryRecv();
    }

    /** Non-blocking receive. */
    std::optional<T>
    tryRecv()
    {
        if (items_.empty())
            return std::nullopt;
        T v = std::move(items_.front());
        items_.pop_front();
        wake(senders_);
        return v;
    }

    /**
     * Close the channel: receivers drain the buffer then see nullopt.
     * One round wakes every parked receiver, then every parked sender.
     */
    void
    close()
    {
        closed_ = true;
        receivers_.splice(senders_);
        wake(receivers_);
    }

  private:
    /** A parked coroutine; lives in its awaiter on the frame. */
    struct Waiter
    {
        std::coroutine_handle<> h;
        Waiter *next = nullptr;
        bool sender = false;
    };

    struct WaitList
    {
        Waiter *head = nullptr;
        Waiter *tail = nullptr;

        void
        append(Waiter *w)
        {
            w->next = nullptr;
            if (tail != nullptr)
                tail->next = w;
            else
                head = w;
            tail = w;
        }

        /** Move all of @p other's waiters behind this list's. */
        void
        splice(WaitList &other)
        {
            if (other.head == nullptr)
                return;
            if (tail != nullptr)
                tail->next = other.head;
            else
                head = other.head;
            tail = other.tail;
            other = {};
        }
    };

    /** A posted wake round: its batch and its event. */
    struct Round
    {
        Waiter *head;
        EventQueue::TimerHandle timer;
    };

    /** Awaitable: park the calling coroutine at the tail of a list. */
    struct Park
    {
        WaitList &list;
        Waiter w;

        Park(WaitList &l, bool sender) : list(l) { w.sender = sender; }

        bool await_ready() const noexcept { return false; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            w.h = h;
            list.append(&w);
        }

        void await_resume() const noexcept {}
    };

    bool full() const { return capacity_ != 0 && items_.size() >= capacity_; }

    bool
    canProceed(const Waiter &w) const
    {
        if (closed_)
            return true;
        return w.sender ? !full() : !items_.empty();
    }

    /** Start a wake round for everyone parked on @p list, if anyone. */
    void
    wake(WaitList &list)
    {
        if (list.head == nullptr)
            return;
        Waiter *head = list.head;
        list = {};
        const EventQueue::TimerHandle timer =
            sim_.queue().post([this, head] { runRound(head); });
        rounds_.push_back(Round{head, timer});
    }

    /** The round's event: walk the batch in park order. */
    void
    runRound(Waiter *head)
    {
        rounds_.erase(std::find_if(
            rounds_.begin(), rounds_.end(),
            [head](const Round &r) { return r.head == head; }));
        for (Waiter *w = head; w != nullptr;) {
            Waiter *next = w->next;
            if (canProceed(*w))
                w->h.resume();
            else
                (w->sender ? senders_ : receivers_).append(w);
            w = next;
        }
    }

    Simulation &sim_;
    std::size_t capacity_;
    bool closed_ = false;
    std::deque<T> items_;
    WaitList receivers_;
    WaitList senders_;
    std::vector<Round> rounds_;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_CHANNEL_HH
