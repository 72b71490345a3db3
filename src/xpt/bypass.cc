/**
 * @file
 * BypassStack implementation: the kernel-bypass cost model.
 *
 * The protocol is tcp/protocol.cc's, so the two transports fail and
 * recover the same way under the same injected faults, except where
 * this stack's constants differ: it is always reliable, and a
 * connect() deadline replaces its SYN retry budget.
 */

#include "xpt/bypass.hh"

namespace ioat::xpt {

tcp::Protocol::Spec
BypassStack::specOf(const BypassConfig &cfg)
{
    Spec s;
    s.kindBase = 100;
    // Offset the flow hash so a node running both stacks during a
    // migration can't collide flows with its own TCP side.
    s.flowOffset = 3571;
    s.reliable = true;
    s.deadlineOverridesRetries = true;
    s.bufBytes = cfg.bufPoolBytes;
    s.maxSegment = cfg.maxSegment;
    s.connSetupCost = cfg.connSetupCost;
    s.rtoInitial = cfg.rtoInitial;
    s.rtoMax = cfg.rtoMax;
    s.maxRetransmits = cfg.maxRetransmits;
    s.persistTimeout = cfg.persistTimeout;
    s.synRetryTimeout = cfg.synRetryTimeout;
    s.maxSynRetries = cfg.maxSynRetries;
    // A library call, not a syscall: send() enters for free, and
    // recv() checks the reassembly state before maybe parking on the
    // pool's ready event.
    s.recvCall = {{"rx.lib-recv", sim::CostCat::poll, cfg.libRecvCost}};
    s.ackGen = {{"rx.ackgen", sim::CostCat::poll, cfg.ackGenCost}};
    s.retransmitCost = cfg.retransmitCost + cfg.txDescCost;
    s.retransmitSpan = "xpt.retransmit";
    s.connectionsKey = "endpoints";
    return s;
}

BypassStack::BypassStack(const tcp::Host &host, nic::Nic &nic,
                         const BypassConfig &cfg)
    : Protocol(host, nic, specOf(cfg)), cfg_(cfg)
{
    // The registered pool is pinned and continuously reused; it
    // occupies cache like any other hot working set.
    bufPool_ = host_.cache.addFootprint("xpt.bufPool", cfg_.bufPoolBytes);
}

BypassStack::~BypassStack()
{
    host_.cache.removeFootprint(bufPool_);
}

tcp::Charge
BypassStack::segmentCharge(std::size_t, std::uint32_t frames, bool)
{
    // Zero-copy: the NIC DMA-reads the application buffer via the
    // descriptor chain — only descriptor-build CPU work here.
    Tick cost = cfg_.txDescCost;
    if (!nic_.config().tso)
        cost += cfg_.txPerFrame * frames;
    return {{"tx.desc", sim::CostCat::cpu, cost}};
}

sim::Coro<void>
BypassStack::receiveCopy(sim::Bytes, sim::TraceContext)
{
    return {};
}

int
BypassStack::rxCoreFor(unsigned queue) const
{
    // Each queue's poll loop is pinned to one core; queues spread
    // round-robin.  Unlike the IRQ world there is no adapter-level
    // sharing — the mapping is a pure software choice.
    return static_cast<int>(queue % host_.cpu.coreCount());
}

Tick
BypassStack::rxPassCost(const std::vector<net::Burst> &bursts,
                        std::vector<RxShare> *shares)
{
    // Empty spins cost nothing in simulated time (they would
    // reschedule forever); the poll core's CPU charge is taken per
    // serviced pass, which is what the utilization window observes.
    pollPasses_.inc();
    Tick cost = cfg_.rxPollEntry;
    for (const auto &b : bursts) {
        const Tick burst_off = cost;
        const Tick desc = cfg_.rxPerFrame * b.frames;
        cost += desc;
        switch (kindOf(b)) {
          case tcp::BurstKind::Data:
            cost += cfg_.rxPerBurst;
            cost += cfg_.ackGenCost; // cumulative DataAck
            rxBursts_.inc();
            if (shares && b.trace != 0)
                shares->push_back(
                    {sim::TraceContext::unpack(b.trace), burst_off,
                     {{"rx.desc", sim::CostCat::poll, desc},
                      {"rx.lib", sim::CostCat::poll, cfg_.rxPerBurst},
                      {"rx.ack", sim::CostCat::poll, cfg_.ackGenCost}}});
            break;
          case tcp::BurstKind::Syn:
            cost += cfg_.connSetupCost;
            break;
          case tcp::BurstKind::SynAck:
          case tcp::BurstKind::Ack:
          case tcp::BurstKind::Fin:
          case tcp::BurstKind::DataAck:
          case tcp::BurstKind::WinProbe:
            cost += cfg_.rxPerBurst;
            break;
        }
    }
    return cost;
}

void
BypassStack::instrumentCosts(sim::telemetry::Registry &reg)
{
    reg.counter("rxBursts", rxBursts_, "data bursts received");
    reg.counter("pollPasses", pollPasses_,
                "poll passes that serviced descriptors");
    reg.counter("creditStalls", creditStalls_,
                "sends stalled on exhausted pool credit");
}

} // namespace ioat::xpt
