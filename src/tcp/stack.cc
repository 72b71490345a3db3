/**
 * @file
 * TcpStack implementation: the kernel cost model.
 */

#include "tcp/stack.hh"

#include <algorithm>

namespace ioat::tcp {

Protocol::Spec
TcpStack::specOf(const TcpConfig &cfg)
{
    Protocol::Spec s;
    s.reliable = cfg.reliable;
    s.bufBytes = cfg.sockBuf;
    s.maxSegment = cfg.maxSegment;
    s.connSetupCost = cfg.connSetupCost;
    s.rtoInitial = cfg.rtoInitial;
    s.rtoMax = cfg.rtoMax;
    s.maxRetransmits = cfg.maxRetransmits;
    s.persistTimeout = cfg.persistTimeout;
    s.synRetryTimeout = cfg.synRetryTimeout;
    s.maxSynRetries = cfg.maxSynRetries;
    s.sendCall = {{"tx.syscall", sim::CostCat::cpu, cfg.txSyscall}};
    s.recvCall = {{"rx.syscall", sim::CostCat::cpu, cfg.rxSyscall}};
    s.ackGen = {{"rx.ackgen", sim::CostCat::cpu, cfg.ackGenCost}};
    s.retransmitCost = cfg.retransmitCost + cfg.txPerSegment;
    s.retransmitSpan = "tcp.retransmit";
    s.connectionsKey = "connections";
    return s;
}

TcpStack::TcpStack(const Host &host, nic::Nic &nic, const TcpConfig &cfg)
    : Protocol(host, nic, specOf(cfg)), cfg_(cfg),
      streamWindow_(host.sim, sim::microseconds(500))
{
    hdrPool_ = host_.cache.addFootprint(
        "tcp.hdrPool", cfg_.headerPoolBytes,
        /*protectedHot=*/cfg_.splitHeader);
    netStream_ = host_.cache.addFootprint("tcp.netStream", 0);
}

TcpStack::~TcpStack()
{
    host_.cache.removeFootprint(hdrPool_);
    host_.cache.removeFootprint(netStream_);
}

void
TcpStack::noteStreamBytes(sim::Bytes bytes)
{
    streamWindow_.add(bytes.count());
    const std::uint64_t size = std::min<std::uint64_t>(
        streamWindow_.estimate(), 4 * host_.cache.capacity());
    host_.cache.resizeFootprint(netStream_, static_cast<std::size_t>(size));
}

Charge
TcpStack::segmentCharge(std::size_t bytes, std::uint32_t frames,
                        bool zero_copy)
{
    Tick proto = cfg_.txPerSegment;
    Tick copy_cost{};
    if (zero_copy) {
        // sendfile(): the NIC reads page-cache pages directly.
        proto += cfg_.txSendfileFixed;
    } else {
        // Copy user buffer into kernel socket buffer.
        const double res = host_.cache.transientResidency(2 * bytes);
        copy_cost = host_.copy.copyTime(sim::Bytes{bytes}, res,
                                        host_.bus.slowdown());
        host_.bus.consume(sim::Bytes{2 * bytes});
        noteStreamBytes(sim::Bytes{2 * bytes});
    }
    const Tick frame_cost =
        nic_.config().tso ? Tick{} : cfg_.txPerFrame * frames;
    // The copy's cache-hot share vs. its miss penalty.
    const Tick hot =
        std::min(host_.copy.hotCopyTime(sim::Bytes{bytes}), copy_cost);
    return {{"tx.proto", sim::CostCat::cpu, proto},
            {"tx.copy", sim::CostCat::memcpy, hot},
            {"tx.copy-miss", sim::CostCat::cache, copy_cost - hot},
            {"tx.frames", sim::CostCat::cpu, frame_cost}};
}

int
TcpStack::rxCoreFor(unsigned queue) const
{
    // Interrupts are affinitized per *adapter*: the testbed's three
    // cards are dual-port and share one IRQ line each, so two
    // consecutive ports' queues land on the same core.  Within one
    // adapter, only the multiple-receive-queue feature spreads its
    // queues over further cores (paper SS2.2.3: without it,
    // "processing occurs on a single CPU, the CPU which handles the
    // controller's interrupt").
    if (nic_.config().rxQueuesPerPort > 1)
        return static_cast<int>(queue % host_.cpu.coreCount());
    return static_cast<int>((queue / 2) % host_.cpu.coreCount());
}

Tick
TcpStack::rxPassCost(const std::vector<Burst> &bursts,
                     std::vector<RxShare> *shares)
{
    const double bus_factor = host_.bus.slowdown();
    Tick cost =
        nic_.pollingMode() ? cfg_.rxPollEntry : cfg_.rxIrqEntry;
    for (const auto &b : bursts) {
        const Tick burst_off = cost;
        const Tick driver = cfg_.rxPerFrame * b.frames;
        cost += driver;
        switch (kindOf(b)) {
          case BurstKind::Data: {
            const double hdr_res =
                cfg_.splitHeader ? 1.0 : host_.cache.residency(hdrPool_);
            // Convex response: losing the last of the header pool's
            // residency hurts much more than mild pressure (misses
            // compound with DRAM queueing once the pool is evicted).
            const double miss = 1.0 - hdr_res;
            const double factor =
                1.0 + cfg_.rxHdrMissFactor * miss * miss;
            const Tick proto = sim::ticksFromDouble(
                static_cast<double>(cfg_.rxProtoPerFrame.count()) *
                b.frames * factor);
            cost += proto;
            Tick touch_cost{};
            std::size_t touch = 0;
            if (!cfg_.splitHeader && cfg_.rxPayloadTouchFraction > 0.0) {
                // Headers and payload share buffers: protocol work
                // drags payload lines through the cache.
                touch = static_cast<std::size_t>(
                    b.payloadBytes * cfg_.rxPayloadTouchFraction);
                touch_cost = host_.copy.touchTime(sim::Bytes{touch},
                                                  hdr_res, bus_factor);
                cost += touch_cost;
                host_.bus.consume(sim::Bytes{touch});
                noteStreamBytes(sim::Bytes{touch});
            }
            Tick wakeup{};
            if (connFor(b.connToken)->recvBlocked()) {
                wakeup = cfg_.rxWakeup;
                cost += wakeup;
            }
            Tick ack{};
            if (cfg_.reliable) {
                ack = cfg_.ackGenCost; // cumulative DataAck per burst
                cost += ack;
            }
            rxSegments_.inc();
            if (shares && b.trace != 0) {
                Tick hot{};
                if (touch_cost > Tick{})
                    hot = std::min(
                        host_.copy.touchTime(sim::Bytes{touch}, 1.0, 1.0),
                        touch_cost);
                shares->push_back(
                    {sim::TraceContext::unpack(b.trace), burst_off,
                     {{"rx.driver", sim::CostCat::cpu, driver},
                      {"rx.proto", sim::CostCat::cpu, proto},
                      {"rx.touch", sim::CostCat::memcpy, hot},
                      {"rx.touch-miss", sim::CostCat::cache,
                       touch_cost - hot},
                      {"rx.wakeup", sim::CostCat::cpu, wakeup},
                      {"rx.ack", sim::CostCat::cpu, ack}}});
            }
            break;
          }
          case BurstKind::Syn:
            cost += cfg_.connSetupCost;
            break;
          case BurstKind::Ack:
          case BurstKind::SynAck:
          case BurstKind::Fin:
          case BurstKind::DataAck:
          case BurstKind::WinProbe:
            cost += cfg_.txAckProcess;
            break;
        }
    }
    return cost;
}

Coro<void>
TcpStack::receiveCopy(sim::Bytes bytes, sim::TraceContext ctx)
{
    const std::size_t n = bytes.count();
    sim::RequestTracer *rt = host_.sim.requestTracer();
    const bool traced = rt && ctx.valid();
    if (cfg_.dmaCopyOffload && host_.dma && n >= cfg_.dmaCopyBreak) {
        // I/OAT path: pin user pages, build descriptors, let the
        // engine move the bytes while the CPU is free.
        const Tick cpu_cost = host_.pages.pinCost(n) +
                              host_.dma->submissionCost(n);
        const Tick sub_t0 = host_.sim.now();
        co_await host_.cpu.compute(cpu_cost);
        if (traced)
            rt->recordComputeSplit(
                ctx, sub_t0, host_.sim.now(),
                {{"rx.dma-submit", sim::CostCat::cpu, cpu_cost}});
        host_.bus.consume(2 * bytes);
        co_await host_.dma->transfer(
            n, traced ? ctx : sim::TraceContext{});
        const Tick unpin_t0 = host_.sim.now();
        const Tick unpin_cost = host_.pages.unpinCost(n);
        co_await host_.cpu.compute(unpin_cost);
        if (traced)
            rt->recordComputeSplit(
                ctx, unpin_t0, host_.sim.now(),
                {{"rx.unpin", sim::CostCat::cpu, unpin_cost}});
        dmaCopies_.inc();
    } else {
        // Classic CPU copy.  The source (freshly DMA-written kernel
        // buffer) is cold; destination residency depends on load.
        const double res =
            0.4 * host_.cache.transientResidency(n);
        const Tick t =
            host_.copy.copyTime(bytes, res, host_.bus.slowdown());
        const Tick copy_t0 = host_.sim.now();
        co_await host_.cpu.compute(t);
        if (traced) {
            const Tick hot = std::min(host_.copy.hotCopyTime(bytes), t);
            rt->recordComputeSplit(
                ctx, copy_t0, host_.sim.now(),
                {{"rx.copy", sim::CostCat::memcpy, hot},
                 {"rx.copy-miss", sim::CostCat::cache, t - hot}});
        }
        host_.bus.consume(2 * bytes);
        noteStreamBytes(2 * bytes);
        cpuCopies_.inc();
    }
}

void
TcpStack::instrumentCosts(sim::telemetry::Registry &reg)
{
    reg.counter("rxSegments", rxSegments_, "data segments received");
    reg.counter("dmaCopies", dmaCopies_,
                "recv copies offloaded to the DMA engine");
    reg.counter("cpuCopies", cpuCopies_, "recv copies done by the CPU");
}

} // namespace ioat::tcp
