/**
 * @file
 * Multi-core CPU model with utilization accounting.
 *
 * Simulated work is expressed as `co_await cpu.compute(duration)`:
 * the caller occupies one core for that long, queueing FIFO behind
 * other work when all cores are busy.  Kernel/interrupt work can be
 * pinned to a specific core (pre-RSS network stacks process every
 * packet on the core that takes the NIC interrupt — the effect the
 * paper's "multiple receive queues" feature addresses) and can jump
 * the queue with high priority.
 *
 * Measured CPU utilization — the paper's headline metric — is the
 * time-weighted average of busy cores over a measurement window.
 */

#ifndef IOAT_CPU_CPU_HH
#define IOAT_CPU_CPU_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include "simcore/sim.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/trace.hh"
#include "simcore/stats.hh"

namespace ioat::cpu {

using sim::Simulation;
using sim::Tick;

/** Static description of a node's processor complex. */
struct CpuConfig
{
    unsigned cores = 4; ///< Testbed 1: dual-socket dual-core
    /**
     * Normal-priority work longer than this is split into slices so
     * queued interrupt-class work can run in between — the model's
     * stand-in for softirqs preempting application code.  High
     * priority work is never sliced.
     */
    Tick preemptionQuantum = sim::microseconds(50);
};

/**
 * A set of identical cores executing queued work items.
 */
class CpuSet
{
  public:
    /** Pass as @p core to run on whichever core frees up first. */
    static constexpr int kAnyCore = -1;

    CpuSet(Simulation &sim, const CpuConfig &cfg);

    /** Attach a trace writer (nullptr = tracing off); spans land on
     *  Chrome process @p pid, one track per core. */
    void
    setTracer(sim::TraceWriter *t, int pid = 0)
    {
        tracer_ = t;
        tracePid_ = pid;
    }

    Tick preemptionQuantum() const { return quantum_; }

    unsigned coreCount() const { return static_cast<unsigned>(cores_.size()); }

    class Compute;

    /**
     * Awaitable: occupy one core for @p duration, in preemption-
     * quantum slices unless @p highPriority.
     *
     * Not a coroutine: the returned awaiter is itself the run-queue
     * entry for its slices, so one compute() costs no frame, callback
     * or queue-node allocation no matter how many slices it splits
     * into.
     *
     * @param duration CPU time to consume
     * @param core specific core id, or kAnyCore
     * @param highPriority queue ahead of normal work (interrupts);
     *        runs as one unsliced item
     */
    Compute compute(Tick duration, int core = kAnyCore,
                    bool highPriority = false);

    /** Busy-core average over the current window, as a fraction 0..1. */
    double utilization() const;

    /** Restart the utilization window (call at measurement start). */
    void resetUtilizationWindow();

    /** Instantaneous number of busy cores. */
    unsigned busyCores() const { return busyCount_; }

    /** Work items waiting for a core right now. */
    std::size_t queuedWork() const { return queued_; }

    /** Total CPU time consumed since construction. */
    Tick totalBusyTicks() const { return totalBusy_; }

    /** Work items executed since construction. */
    std::uint64_t completedItems() const { return completed_.value(); }

    /** Publish CPU telemetry (called under the node's "cpu" scope). */
    void
    instrument(sim::telemetry::Registry &reg)
    {
        reg.scalar(
            "utilization", [this] { return utilization(); },
            "busy-core fraction over the current window");
        reg.scalar(
            "totalBusyTicks",
            [this] { return static_cast<double>(totalBusy_.count()); },
            "CPU time consumed since construction");
        reg.counter("completedItems", completed_, "work items executed");
        reg.probe(
            "busyCores", sim::telemetry::ProbeKind::gauge,
            [this] { return static_cast<double>(busyCount_); },
            "cores busy at the sample instant");
        reg.probe(
            "queuedWork", sim::telemetry::ProbeKind::gauge,
            [this] { return static_cast<double>(queuedWork()); },
            "work items waiting for a core");
    }

  private:
    /** Intrusive FIFO of waiting slices, linked through Compute. */
    struct RunQueue
    {
        Compute *head = nullptr;
        Compute *tail = nullptr;

        bool empty() const { return head == nullptr; }
        void push(Compute &w);
        Compute &pop();
    };

    struct Core
    {
        Compute *running = nullptr; ///< slice on this core; null = idle
        Tick runStart{};            ///< for tracing
        RunQueue high;              ///< pinned interrupt-class work
        RunQueue queue;             ///< pinned normal work
    };

    void dispatch(Compute &w);
    void startOn(unsigned core_idx, Compute &w);
    void finishOn(unsigned core_idx);
    int findIdleCore() const;

    Simulation &sim_;
    sim::TraceWriter *tracer_ = nullptr;
    int tracePid_ = 0;
    Tick quantum_;
    std::vector<Core> cores_;
    RunQueue globalHigh_;  ///< interrupt-class, any core
    RunQueue globalQueue_; ///< normal work for any core
    std::size_t queued_ = 0;
    unsigned busyCount_ = 0;
    Tick totalBusy_{};
    sim::stats::TimeWeighted busySignal_{0.0};
    sim::stats::Counter completed_;
};

/**
 * The awaiter compute() returns, and the run-queue entry for its
 * slices.  It lives on the awaiting coroutine's frame for the whole
 * suspension, so CpuSet links, slices and resumes it in place.
 */
class CpuSet::Compute
{
  public:
    Compute(CpuSet &cpu, Tick duration, int core, bool highPriority)
        : cpu_(cpu), remaining_(duration), core_(core),
          highPriority_(highPriority)
    {}

    /** Linked into a run queue by address: never copied or moved. */
    Compute(const Compute &) = delete;
    Compute &operator=(const Compute &) = delete;

    bool await_ready() const noexcept { return remaining_ == Tick{0}; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        waiter_ = h;
        cpu_.dispatch(*this);
    }

    void await_resume() const noexcept {}

  private:
    friend class CpuSet;

    CpuSet &cpu_;
    Tick remaining_; ///< CPU time not yet started as a slice
    int core_;
    bool highPriority_;
    std::coroutine_handle<> waiter_ = nullptr;
    Compute *next_ = nullptr; ///< RunQueue link
};

inline CpuSet::Compute
CpuSet::compute(Tick duration, int core, bool highPriority)
{
    return Compute(*this, duration, core, highPriority);
}

} // namespace ioat::cpu

#endif // IOAT_CPU_CPU_HH
