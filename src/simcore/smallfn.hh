/**
 * @file
 * Small-buffer move-only callable for event-queue hot paths.
 *
 * `std::function` heap-allocates any capture larger than two words,
 * which on the event-queue hot path would mean one malloc/free per
 * scheduled burst.  SmallFn keeps every capture inline, in the event
 * node itself: nodes come from the queue's arena, so scheduling
 * performs no heap traffic.  The budget is `kInlineBytes`, sized for
 * the largest hot capture, `[this, net::Burst]`; a larger capture
 * fails to compile rather than silently falling back to the heap.
 *
 * Trivially copyable callables (every hot closure: coroutine resumes,
 * `[this, idx]`, `[this, burst]`) move as a fixed-size byte copy and
 * need no destruction, so neither costs an indirect call.
 */

#ifndef IOAT_SIMCORE_SMALLFN_HH
#define IOAT_SIMCORE_SMALLFN_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ioat::sim {

/**
 * Move-only `void()` callable with inline storage.
 *
 * Unlike `std::function` it is not copyable and never allocates; the
 * dispatch table is one static pointer per lambda type.
 */
class SmallFn
{
  public:
    /** Inline capture capacity: fits `[this, net::Burst]` (128 B). */
    static constexpr std::size_t kInlineBytes = 128;

    SmallFn() = default;

    /** Matches std::function: a null callable is simply empty. */
    SmallFn(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, SmallFn>>>
    SmallFn(F &&fn)
    {
        emplace(std::forward<F>(fn));
    }

    SmallFn(SmallFn &&o) noexcept { moveFrom(o); }

    SmallFn &
    operator=(SmallFn &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    SmallFn(const SmallFn &) = delete;
    SmallFn &operator=(const SmallFn &) = delete;

    ~SmallFn() { reset(); }

    explicit operator bool() const { return ops_ != nullptr; }

    /** Destroy the held callable (if any). */
    void
    reset()
    {
        if (ops_) {
            if (ops_->destroy)
                ops_->destroy(&buf_);
            ops_ = nullptr;
        }
    }

    /** Construct a callable in place, destroying any previous one. */
    template <typename F>
    void
    emplace(F &&fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(sizeof(Fn) <= kInlineBytes,
                      "SmallFn: capture exceeds kInlineBytes; capture a "
                      "pointer instead");
        static_assert(alignof(Fn) <= alignof(std::max_align_t),
                      "SmallFn: over-aligned capture; capture a pointer "
                      "instead");
        reset();
        ::new (static_cast<void *>(&buf_)) Fn(std::forward<F>(fn));
        ops_ = &opsFor<Fn>;
    }

    /** Invoke.  Undefined when empty (callers check or know). */
    void operator()() { ops_->call(&buf_); }

  private:
    /** `destroy` and `move` are null for trivially copyable callables
     *  (which are trivially destructible too): they move by memcpy. */
    struct Ops
    {
        void (*call)(void *);
        void (*destroy)(void *);
        void (*move)(void *dst, void *src);
    };

    template <typename Fn>
    static void
    callAt(void *p)
    {
        (*std::launder(reinterpret_cast<Fn *>(p)))();
    }

    template <typename Fn>
    static constexpr Ops opsFor =
        std::is_trivially_copyable_v<Fn>
            ? Ops{&callAt<Fn>, nullptr, nullptr}
            : Ops{
                  &callAt<Fn>,
                  [](void *p) {
                      std::launder(reinterpret_cast<Fn *>(p))->~Fn();
                  },
                  [](void *dst, void *src) {
                      Fn *s = std::launder(reinterpret_cast<Fn *>(src));
                      ::new (dst) Fn(std::move(*s));
                      s->~Fn();
                  },
              };

    void
    moveFrom(SmallFn &o)
    {
        ops_ = o.ops_;
        if (ops_) {
            if (ops_->move)
                ops_->move(&buf_, &o.buf_);
            else
                std::memcpy(&buf_, &o.buf_, kInlineBytes);
            o.ops_ = nullptr;
        }
    }

    const Ops *ops_ = nullptr;
    alignas(std::max_align_t) std::byte buf_[kInlineBytes];
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_SMALLFN_HH
