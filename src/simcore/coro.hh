/**
 * @file
 * Lazy coroutine task type used for all simulated activities.
 *
 * `Coro<T>` is a single-awaiter, lazily-started coroutine: creating it
 * does nothing; `co_await`-ing it starts the body via symmetric
 * transfer and resumes the awaiter when the body finishes.  Values and
 * exceptions propagate through `co_await`.
 *
 * Root ("detached") coroutines are started with `Simulation::spawn`,
 * which keeps ownership of the frame so everything can be torn down
 * deterministically at end of simulation.
 */

#ifndef IOAT_SIMCORE_CORO_HH
#define IOAT_SIMCORE_CORO_HH

#include <coroutine>
#include <cstddef>
#include <exception>
#include <new>
#include <optional>
#include <utility>

#include "simcore/assert.hh"

namespace ioat::sim {

template <typename T>
class Coro;

namespace detail {

/**
 * Size-bucketed free-list recycler for coroutine frames.
 *
 * Simulated activities allocate a frame per send/recv/compute call;
 * recycling them through 64-byte size classes turns that steady-state
 * malloc/free churn into two pointer moves.  Model code is
 * single-threaded and Simulations in one process share no state; the
 * free lists are thread_local so Simulations run on different threads
 * each recycle through their own lists with no locking.  Recycled
 * frames carry no model state, so sharing them between Simulations on
 * one thread changes no result.  Oversized frames fall through to the
 * global allocator.
 */
class FrameArena
{
  public:
    static void *
    allocate(std::size_t n)
    {
        const std::size_t b = bucket(n);
        if (b < kBuckets && free_[b] != nullptr) {
            void *p = free_[b];
            free_[b] = *static_cast<void **>(p);
            return p;
        }
        if (b < kBuckets)
            return ::operator new((b + 1) * kGranule);
        return ::operator new(n);
    }

    static void
    deallocate(void *p, std::size_t n)
    {
        const std::size_t b = bucket(n);
        if (b < kBuckets) {
            *static_cast<void **>(p) = free_[b];
            free_[b] = p;
            return;
        }
        ::operator delete(p);
    }

  private:
    static constexpr std::size_t kGranule = 64;
    static constexpr std::size_t kBuckets = 16; ///< recycle up to 1 KiB

    static std::size_t
    bucket(std::size_t n)
    {
        return n == 0 ? 0 : (n - 1) / kGranule;
    }

    inline static thread_local void *free_[kBuckets] = {};
};

/** Shared promise behaviour: remember who awaits us, resume them last. */
struct PromiseBase
{
    std::coroutine_handle<> continuation;
    std::exception_ptr exception;

    static void *
    operator new(std::size_t n)
    {
        return FrameArena::allocate(n);
    }

    static void
    operator delete(void *p, std::size_t n)
    {
        FrameArena::deallocate(p, n);
    }

    struct FinalAwaiter
    {
        bool await_ready() const noexcept { return false; }

        template <typename Promise>
        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<Promise> h) const noexcept
        {
            auto cont = h.promise().continuation;
            return cont ? cont : std::noop_coroutine();
        }

        void await_resume() const noexcept {}
    };

    std::suspend_always initial_suspend() const noexcept { return {}; }
    FinalAwaiter final_suspend() const noexcept { return {}; }
    void unhandled_exception() { exception = std::current_exception(); }
};

} // namespace detail

/**
 * A lazily-started coroutine returning T.
 *
 * Move-only; owns the coroutine frame.  Must be awaited exactly once
 * (or destroyed without being awaited, which destroys the un-started
 * or suspended body and, transitively, anything it owns).
 */
template <typename T>
class [[nodiscard]] Coro
{
  public:
    struct promise_type : detail::PromiseBase
    {
        std::optional<T> value;

        Coro
        get_return_object()
        {
            return Coro(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        template <typename U>
        void
        return_value(U &&v)
        {
            value.emplace(std::forward<U>(v));
        }
    };

    Coro() = default;

    Coro(Coro &&o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}

    Coro &
    operator=(Coro &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    Coro(const Coro &) = delete;
    Coro &operator=(const Coro &) = delete;

    ~Coro() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return handle_ && handle_.done(); }

    /** Awaiter: start the body, resume the awaiter at completion. */
    struct Awaiter
    {
        std::coroutine_handle<promise_type> handle;

        bool await_ready() const noexcept { return !handle || handle.done(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> cont) noexcept
        {
            handle.promise().continuation = cont;
            return handle;
        }

        T
        await_resume()
        {
            simAssert(handle != nullptr, "awaiting an empty Coro");
            auto &p = handle.promise();
            if (p.exception)
                std::rethrow_exception(p.exception);
            simAssert(p.value.has_value(), "Coro finished without a value");
            return std::move(*p.value);
        }
    };

    Awaiter operator co_await() && noexcept { return Awaiter{handle_}; }

    /** Release ownership of the frame (used by Simulation::spawn). */
    std::coroutine_handle<promise_type>
    release()
    {
        return std::exchange(handle_, nullptr);
    }

  private:
    explicit Coro(std::coroutine_handle<promise_type> h) : handle_(h) {}

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

/** Specialization for coroutines that produce no value. */
template <>
class [[nodiscard]] Coro<void>
{
  public:
    struct promise_type : detail::PromiseBase
    {
        Coro
        get_return_object()
        {
            return Coro(
                std::coroutine_handle<promise_type>::from_promise(*this));
        }

        void return_void() const noexcept {}
    };

    Coro() = default;

    Coro(Coro &&o) noexcept : handle_(std::exchange(o.handle_, nullptr)) {}

    Coro &
    operator=(Coro &&o) noexcept
    {
        if (this != &o) {
            destroy();
            handle_ = std::exchange(o.handle_, nullptr);
        }
        return *this;
    }

    Coro(const Coro &) = delete;
    Coro &operator=(const Coro &) = delete;

    ~Coro() { destroy(); }

    bool valid() const { return handle_ != nullptr; }
    bool done() const { return handle_ && handle_.done(); }

    struct Awaiter
    {
        std::coroutine_handle<promise_type> handle;

        bool await_ready() const noexcept { return !handle || handle.done(); }

        std::coroutine_handle<>
        await_suspend(std::coroutine_handle<> cont) noexcept
        {
            handle.promise().continuation = cont;
            return handle;
        }

        void
        await_resume()
        {
            simAssert(handle != nullptr, "awaiting an empty Coro");
            if (handle.promise().exception)
                std::rethrow_exception(handle.promise().exception);
        }
    };

    Awaiter operator co_await() && noexcept { return Awaiter{handle_}; }

    std::coroutine_handle<promise_type>
    release()
    {
        return std::exchange(handle_, nullptr);
    }

  private:
    friend class Simulation;

    explicit Coro(std::coroutine_handle<promise_type> h) : handle_(h) {}

    void
    destroy()
    {
        if (handle_) {
            handle_.destroy();
            handle_ = nullptr;
        }
    }

    std::coroutine_handle<promise_type> handle_ = nullptr;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_CORO_HH
