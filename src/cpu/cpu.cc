/**
 * @file
 * CpuSet implementation: FIFO dispatch over N cores.
 */

#include "cpu/cpu.hh"

#include <algorithm>
#include <initializer_list>

#include "simcore/assert.hh"

namespace ioat::cpu {

CpuSet::CpuSet(Simulation &sim, const CpuConfig &cfg)
    : sim_(sim), quantum_(cfg.preemptionQuantum), cores_(cfg.cores)
{
    sim::simAssert(cfg.cores > 0, "CpuSet needs at least one core");
    sim::simAssert(cfg.preemptionQuantum > Tick{0},
                   "preemption quantum must be positive");
}

void
CpuSet::RunQueue::push(Compute &w)
{
    w.next_ = nullptr;
    (tail != nullptr ? tail->next_ : head) = &w;
    tail = &w;
}

CpuSet::Compute &
CpuSet::RunQueue::pop()
{
    Compute &w = *head;
    head = w.next_;
    if (head == nullptr)
        tail = nullptr;
    return w;
}

void
CpuSet::dispatch(Compute &w)
{
    sim::simAssert(w.core_ == kAnyCore ||
                       (w.core_ >= 0 &&
                        w.core_ < static_cast<int>(cores_.size())),
                   "CpuSet::compute: bad core id");
    int core = w.core_;
    RunQueue *wait = nullptr;
    if (core == kAnyCore) {
        core = findIdleCore();
        if (core < 0)
            wait = w.highPriority_ ? &globalHigh_ : &globalQueue_;
    } else {
        auto &c = cores_[static_cast<unsigned>(core)];
        if (c.running != nullptr)
            wait = w.highPriority_ ? &c.high : &c.queue;
    }
    if (wait != nullptr) {
        wait->push(w);
        ++queued_;
    } else {
        startOn(static_cast<unsigned>(core), w);
    }
}

void
CpuSet::startOn(unsigned core_idx, Compute &w)
{
    auto &c = cores_[core_idx];
    sim::simAssert(c.running == nullptr, "starting work on a busy core");
    const Tick slice = w.highPriority_ ? w.remaining_
                                       : std::min(w.remaining_, quantum_);
    w.remaining_ -= slice;
    c.running = &w;
    c.runStart = sim_.now();
    ++busyCount_;
    busySignal_.update(sim_.now(), static_cast<double>(busyCount_));
    totalBusy_ += slice;

    sim_.queue().scheduleIn(slice,
                            [this, core_idx] { finishOn(core_idx); });
}

void
CpuSet::finishOn(unsigned core_idx)
{
    auto &c = cores_[core_idx];
    Compute *done = c.running;
    sim::simAssert(done != nullptr, "finishing work on an idle core");
    if (tracer_) {
        tracer_->complete(done->highPriority_ ? "softirq" : "app", "cpu",
                          c.runStart, sim_.now() - c.runStart,
                          sim::TraceWriter::Lanes::core0 +
                              static_cast<int>(core_idx),
                          tracePid_);
    }
    c.running = nullptr;
    --busyCount_;
    busySignal_.update(sim_.now(), static_cast<double>(busyCount_));
    completed_.inc();

    // Start the next waiting slice before continuing the finished
    // compute, so its finish event is keyed first.  Interrupt-class
    // work first (FIFO within each class), pinned work ahead of the
    // global pool.
    for (RunQueue *q : {&c.high, &globalHigh_, &c.queue, &globalQueue_}) {
        if (!q->empty()) {
            --queued_;
            startOn(core_idx, q->pop());
            break;
        }
    }

    if (done->remaining_ > Tick{0})
        dispatch(*done);
    else
        done->waiter_.resume();
}

int
CpuSet::findIdleCore() const
{
    for (std::size_t i = 0; i < cores_.size(); ++i)
        if (cores_[i].running == nullptr)
            return static_cast<int>(i);
    return -1;
}

double
CpuSet::utilization() const
{
    return busySignal_.average(sim_.now()) /
           static_cast<double>(cores_.size());
}

void
CpuSet::resetUtilizationWindow()
{
    busySignal_.resetWindow(sim_.now());
}

} // namespace ioat::cpu
