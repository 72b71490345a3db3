/**
 * @file
 * Model of the I/OAT asynchronous DMA copy engine.
 *
 * The engine is a chipset device with a small number of channels,
 * each working through a descriptor ring.  A copy costs the *CPU*
 * only the submission (descriptor build + doorbell, growing with the
 * number of physical pages spanned); the byte movement itself runs on
 * the engine and overlaps with computation — the effect quantified in
 * the paper's Fig. 6 ("Overlap" reaches ~93% at 64 KB).
 *
 * Constraints modelled straight from §2.2.2:
 *  - transfers are split at page boundaries (physical addressing),
 *    charged via a per-page descriptor cost;
 *  - pages must be pinned first (cost lives in mem::PageModel; kernel
 *    buffers are permanently pinned, user buffers are not);
 *  - post-transfer cache coherence is a per-transfer flat cost.
 */

#ifndef IOAT_DMA_DMA_ENGINE_HH
#define IOAT_DMA_DMA_ENGINE_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <string>

#include "mem/page_model.hh"
#include "simcore/coro.hh"
#include "simcore/fault.hh"
#include "simcore/sim.hh"
#include "simcore/stats.hh"
#include "simcore/sync.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/trace.hh"
#include "simcore/types.hh"

namespace ioat::dma {

using sim::Coro;
using sim::Rate;
using sim::Simulation;
using sim::Tick;

/** Engine parameters (defaults calibrated in core/calibration.hh). */
struct DmaConfig
{
    /** Independent channels that can move data concurrently. */
    unsigned channels = 4;
    /** Sustained copy rate of one channel. */
    Rate rate = Rate::bytesPerSec(2.0e9);
    /** CPU-side submission cost: ring slot setup + MMIO doorbell. */
    Tick submitBase = sim::nanoseconds(1500);
    /** CPU-side cost per page descriptor (physical scatter/gather). */
    Tick perPageDescriptor = sim::nanoseconds(55);
    /** Cache-coherence transaction after the transfer lands. */
    Tick coherenceCost = sim::nanoseconds(150);
    /** Page geometry used to split transfers. */
    std::size_t pageSize = 4096;
};

/**
 * One node's DMA copy engine.
 *
 * Two usage styles:
 *  - `co_await engine.transfer(bytes)` from a coroutine that wants to
 *    wait for completion (the CPU is *not* held — callers overlap by
 *    doing CPU work between submit and await);
 *  - `transferAsync(bytes, done)` for callback-style device code.
 *
 * Submission cost is returned by `submissionCost()` so the caller can
 * charge it to the CPU model — the engine itself never touches the
 * CPU, mirroring the hardware split.
 */
class DmaEngine : public sim::telemetry::Instrumented
{
  public:
    DmaEngine(Simulation &sim, const DmaConfig &cfg)
        : sim_(sim), cfg_(cfg), channels_(sim, cfg.channels)
    {
        sim::simAssert(cfg.channels > 0, "DMA engine needs >= 1 channel");
        sim::simAssert(cfg.channels <= 32,
                       "DMA engine supports at most 32 channels");
        sim::simAssert(cfg.rate.valid(), "DMA rate must be positive");
    }

    const DmaConfig &config() const { return cfg_; }

    /** Attach a trace writer (nullptr = tracing off); transfers land
     *  on Chrome process @p pid. */
    void
    setTracer(sim::TraceWriter *t, int pid = 0)
    {
        tracer_ = t;
        tracePid_ = pid;
    }

    void attachTracer(sim::TraceWriter *t) override { setTracer(t); }

    /**
     * Inject descriptor-completion faults from @p site_name: a "drop"
     * decision is a completion error (the engine re-executes the
     * descriptor), a "delay" decision is a channel stall.
     */
    void
    setFaultInjector(sim::FaultInjector *injector,
                     const std::string &site_name)
    {
        faultSite_ = injector ? &injector->site(site_name) : nullptr;
    }

    /** Pages spanned by a transfer of @p bytes. */
    std::size_t
    pagesFor(std::size_t bytes) const
    {
        return (bytes + cfg_.pageSize - 1) / cfg_.pageSize;
    }

    /**
     * CPU time to submit a copy of @p bytes (Fig. 6 "DMA-overhead").
     * Charged by the caller to its CpuSet.
     */
    Tick
    submissionCost(std::size_t bytes) const
    {
        return cfg_.submitBase + cfg_.perPageDescriptor * pagesFor(bytes);
    }

    /** Engine-side time to move @p bytes once a channel is granted. */
    Tick
    engineTime(std::size_t bytes) const
    {
        return cfg_.rate.transferTime(bytes) + cfg_.coherenceCost;
    }

    /**
     * Total wall time of a synchronous copy (submission + engine),
     * i.e. Fig. 6's "DMA-copy" series, ignoring channel queueing.
     */
    Tick
    syncCopyTime(std::size_t bytes) const
    {
        return submissionCost(bytes) + engineTime(bytes);
    }

    /**
     * Fraction of a synchronous DMA copy that can be overlapped with
     * computation (Fig. 6 "Overlap"): everything but the submission.
     */
    double
    overlapFraction(std::size_t bytes) const
    {
        return sim::fractionOf(engineTime(bytes), syncCopyTime(bytes));
    }

    /**
     * Awaitable: acquire a channel, move @p bytes, release.
     * Resumes the caller when the data (and the coherence
     * transaction) has landed.
     */
    Coro<void>
    transfer(std::size_t bytes, sim::TraceContext ctx = {})
    {
        co_await channels_.acquire();
        busySignal_.update(sim_.now(),
                           static_cast<double>(cfg_.channels -
                                               channels_.available()));
        // The lowest idle channel; it names the transfer's trace lane.
        const int channel = std::countr_one(busyChannels_);
        busyChannels_ |= 1u << channel;
        const Tick start = sim_.now();
        co_await sim_.delay(engineTime(bytes));
        if (faultSite_) {
            // Completion errors re-execute the descriptor; stalls hold
            // the channel.  Bounded so p=1 can't loop forever.
            for (unsigned retry = 0; retry < kMaxFaultRetries; ++retry) {
                const sim::FaultDecision d = faultSite_->decide();
                if (d.drop) {
                    dmaErrors_.inc();
                    co_await sim_.delay(engineTime(bytes));
                    continue;
                }
                if (d.extraDelay > sim::Tick{0}) {
                    dmaStalls_.inc();
                    co_await sim_.delay(d.extraDelay);
                }
                break;
            }
        }
        if (tracer_) {
            tracer_->complete("dma " + std::to_string(bytes) + "B",
                              "dma", start, sim_.now() - start,
                              sim::TraceWriter::Lanes::dma + channel,
                              tracePid_);
        }
        if (ctx.valid()) {
            // Channel queueing before acquire stays unattributed (it
            // surfaces as the parent's residual), the engine time is a
            // dma-category span on the dma lane.
            if (sim::RequestTracer *rt = sim_.requestTracer())
                rt->record(ctx, "dma", sim::CostCat::dma, start,
                           sim_.now(), sim::TraceWriter::Lanes::dma);
        }
        transfers_.inc();
        bytesCopied_.inc(bytes);
        busyChannels_ &= ~(1u << channel);
        channels_.release();
        busySignal_.update(sim_.now(),
                           static_cast<double>(cfg_.channels -
                                               channels_.available()));
    }

    /** Callback-style transfer for non-coroutine contexts. */
    void
    transferAsync(std::size_t bytes, std::function<void()> done)
    {
        sim_.spawn(asyncBody(bytes, std::move(done)));
    }

    /** @name Statistics
     *  @{ */
    std::uint64_t completedTransfers() const { return transfers_.value(); }
    std::uint64_t bytesCopied() const { return bytesCopied_.value(); }
    /** Injected descriptor completion errors (each re-executed). */
    std::uint64_t dmaErrors() const { return dmaErrors_.value(); }
    /** Injected channel stalls. */
    std::uint64_t dmaStalls() const { return dmaStalls_.value(); }
    double
    averageBusyChannels() const
    {
        return busySignal_.average(sim_.now());
    }
    /** Channels moving data right now. */
    unsigned
    busyChannels() const
    {
        return cfg_.channels -
               static_cast<unsigned>(channels_.available());
    }
    /** Transfers waiting for a free channel (the submit queue). */
    std::size_t queueDepth() const { return channels_.waiterCount(); }
    /** @} */

    /** Publish DMA telemetry (called under the node's "dma" scope). */
    void
    instrument(sim::telemetry::Registry &reg) override
    {
        reg.counter("completedTransfers", transfers_,
                    "DMA transfers completed");
        reg.counter("bytesCopied", bytesCopied_,
                    "bytes moved by the engine");
        reg.counter("errors", dmaErrors_,
                    "injected descriptor completion errors");
        reg.counter("stalls", dmaStalls_, "injected channel stalls");
        reg.scalar(
            "averageBusyChannels",
            [this] { return averageBusyChannels(); },
            "time-weighted busy channels");
        reg.probe(
            "busyChannels", sim::telemetry::ProbeKind::gauge,
            [this] { return static_cast<double>(busyChannels()); },
            "channels moving data at the sample instant");
        reg.probe(
            "queueDepth", sim::telemetry::ProbeKind::gauge,
            [this] { return static_cast<double>(queueDepth()); },
            "transfers waiting for a free channel");
    }

  private:
    Coro<void>
    asyncBody(std::size_t bytes, std::function<void()> done)
    {
        co_await transfer(bytes);
        if (done)
            done();
    }

    static constexpr unsigned kMaxFaultRetries = 8;

    Simulation &sim_;
    DmaConfig cfg_;
    sim::TraceWriter *tracer_ = nullptr;
    int tracePid_ = 0;
    /** Bit i set while channel i moves data. */
    std::uint32_t busyChannels_ = 0;
    sim::FaultSite *faultSite_ = nullptr;
    sim::Semaphore channels_;
    sim::stats::Counter transfers_;
    sim::stats::Counter bytesCopied_;
    sim::stats::Counter dmaErrors_;
    sim::stats::Counter dmaStalls_;
    sim::stats::TimeWeighted busySignal_{0.0};
};

} // namespace ioat::dma

#endif // IOAT_DMA_DMA_ENGINE_HH
