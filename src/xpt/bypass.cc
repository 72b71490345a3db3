/**
 * @file
 * BypassStack / Endpoint implementation.
 *
 * Structurally a sibling of tcp/stack.cc's reliable mode with the
 * kernel removed: no syscall or IRQ costs, no copies, and the RX
 * path is a per-queue busy-poll pass instead of a softirq.  Protocol
 * state machines (handshake dedup, go-back-N, cumulative credit) are
 * kept identical so the two transports fail and recover the same way
 * under the same injected faults.
 */

#include "xpt/bypass.hh"

#include <algorithm>

#include "simcore/assert.hh"
#include "simcore/timeout.hh"

namespace ioat::xpt {

// --------------------------------------------------------------------
// Endpoint
// --------------------------------------------------------------------

Endpoint::Endpoint(Key, BypassStack &stack, std::uint64_t local_token)
    : stack_(stack), localToken_(local_token),
      establishedEvt_(stack.host_.sim),
      creditAvail_(stack.host_.sim),
      rxReady_(stack.host_.sim),
      retransQ_(stack.txSegPool_),
      txActivity_(stack.host_.sim),
      ackProgress_(stack.host_.sim)
{}

sim::Simulation &
Endpoint::simulation()
{
    return stack_.host_.sim;
}

Coro<void>
Endpoint::send(std::size_t bytes, sock::SendOptions opts,
               const sock::MsgMeta *meta)
{
    if (aborted_)
        co_return; // typed failure visible through aborted()
    sim::simAssert(established_, "send on unestablished endpoint");
    sim::simAssert(!localClosed_, "send after close");
    auto &host = stack_.host_;
    const BypassConfig &cfg = stack_.cfg_;
    sim::RequestTracer *rt = host.sim.requestTracer();
    const bool traced = rt && opts.trace.valid();

    std::size_t remaining = bytes;
    while (remaining > 0) {
        const std::size_t seg =
            std::min({remaining, cfg.maxSegment, peerBufPool_});

        const Tick wait_t0 = host.sim.now();

        // Credit against the peer's registered buffer pool.  A lost
        // credit return must not wedge the window: probe for a fresh
        // cumulative ack while starved.
        if (credit_ < seg && !aborted_)
            stack_.creditStalls_.inc();
        while (credit_ < seg && !aborted_) {
            const bool woke = co_await sim::waitWithTimeout(
                host.sim, creditAvail_, cfg.persistTimeout);
            if (!woke && credit_ < seg && !aborted_) {
                stack_.winProbes_.inc();
                stack_.sendControl(remoteNode_, flow_,
                                   BypassKind::WinProbe, remoteToken_,
                                   0);
            }
        }
        if (aborted_)
            co_return;
        credit_ -= seg;
        if (traced && host.sim.now() > wait_t0)
            rt->record(opts.trace, "tx.credit-wait",
                       sim::CostCat::queueWait, wait_t0, host.sim.now());

        // Zero-copy: the NIC DMA-reads the application buffer via the
        // descriptor chain — only descriptor-build CPU work here.
        const std::uint32_t frames =
            stack_.nic_.framesFor(sim::Bytes{seg});
        Tick cost = cfg.txDescCost;
        if (!stack_.nic_.config().tso)
            cost += cfg.txPerFrame * frames;
        const Tick seg_t0 = host.sim.now();
        co_await host.cpu.compute(cost);
        if (traced)
            rt->recordComputeSplit(
                opts.trace, seg_t0, host.sim.now(),
                {{"tx.desc", sim::CostCat::cpu, cost}});

        // NIC TX DMA reads the segment from application memory.
        host.bus.consume(sim::Bytes{seg});

        Burst b;
        b.dst = remoteNode_;
        b.flow = flow_;
        b.wireBytes = static_cast<std::uint32_t>(
            stack_.nic_.wireBytesFor(sim::Bytes{seg}).count());
        b.frames = frames;
        b.payloadBytes = static_cast<std::uint32_t>(seg);
        b.kind = static_cast<std::uint32_t>(BypassKind::Data);
        b.connToken = remoteToken_;
        b.arg = sndNxt_; // stream offset of the segment's first byte
        if (traced)
            b.trace = opts.trace.pack();
        if (meta && remaining == bytes) { // first segment carries meta
            b.hasMeta = true;
            for (int i = 0; i < net::kBurstMetaWords; ++i)
                b.meta[i] = meta->w[i];
        }
        XptTxSegment txSeg;
        txSeg.seq = sndNxt_;
        txSeg.payload = static_cast<std::uint32_t>(seg);
        txSeg.hasMeta = b.hasMeta;
        txSeg.trace = b.trace;
        for (int i = 0; i < net::kBurstMetaWords; ++i)
            txSeg.meta[i] = b.meta[i];
        retransQ_.push_back(txSeg);
        sndNxt_ += seg;
        txActivity_.trigger(); // arm the RTO loop
        stack_.nic_.transmit(b);

        bytesSent_ += seg;
        stack_.txPayload_.inc(seg);
        remaining -= seg;
    }
}

Coro<std::size_t>
Endpoint::recv(std::size_t max_bytes, sim::TraceContext ctx)
{
    if (aborted_ && rxBuffered_ == 0)
        co_return 0; // failed endpoint reads as EOF
    sim::simAssert(established_, "recv on unestablished endpoint");
    sim::simAssert(max_bytes > 0, "recv of zero bytes");
    auto &host = stack_.host_;
    const BypassConfig &cfg = stack_.cfg_;
    sim::RequestTracer *rt = host.sim.requestTracer();

    // Library call, not a syscall: check the reassembly state, maybe
    // park on the pool's ready event.
    const Tick lib_t0 = host.sim.now();
    co_await host.cpu.compute(cfg.libRecvCost);
    const Tick lib_t1 = host.sim.now();

    while (rxBuffered_ == 0 && !peerClosed_) {
        rxWaiting_ = true;
        co_await rxReady_.wait();
    }
    rxWaiting_ = false;

    const sim::TraceContext ectx = ctx.valid() ? ctx : rxCtx_;
    const bool traced = rt && ectx.valid();
    if (traced)
        rt->recordComputeSplit(
            ectx, lib_t0, lib_t1,
            {{"rx.lib-recv", sim::CostCat::poll, cfg.libRecvCost}});

    if (rxBuffered_ == 0)
        co_return 0; // orderly EOF

    // Zero-copy: the application consumes the pool buffers in place;
    // no kernel→user copy is charged here.
    const std::size_t n = std::min(max_bytes, rxBuffered_);
    rxBuffered_ -= n;

    bytesReceived_ += n;
    stack_.rxPayload_.inc(n);
    drainedTotal_ += n;

    if (aborted_)
        co_return n; // no point acking a dead peer

    // Return pool credit: cumulative drained total, so a lost return
    // only delays (never loses) credit.
    const Tick ack_t0 = host.sim.now();
    co_await host.cpu.compute(cfg.ackGenCost);
    if (traced)
        rt->recordComputeSplit(
            ectx, ack_t0, host.sim.now(),
            {{"rx.ackgen", sim::CostCat::poll, cfg.ackGenCost}});
    stack_.sendControl(remoteNode_, flow_, BypassKind::Ack, remoteToken_,
                       drainedTotal_);
    co_return n;
}

Coro<std::size_t>
Endpoint::recvAll(std::size_t bytes, sim::TraceContext ctx)
{
    std::size_t got = 0;
    while (got < bytes) {
        const std::size_t n = co_await recv(bytes - got, ctx);
        if (n == 0)
            break;
        got += n;
    }
    co_return got;
}

sock::MsgMeta
Endpoint::popMeta()
{
    sim::simAssert(!metaQueue_.empty(), "popMeta on empty meta queue");
    sock::MsgMeta m = metaQueue_.front();
    metaQueue_.pop_front();
    return m;
}

void
Endpoint::close()
{
    if (localClosed_ || !established_ || aborted_)
        return;
    localClosed_ = true;
    stack_.noteFlowFinished(*this);
    stack_.sendControl(remoteNode_, flow_, BypassKind::Fin, remoteToken_,
                       0);
    txActivity_.trigger(); // let the RTO loop notice and wind down
}

void
Endpoint::abortLocal()
{
    stack_.abortEndpoint(*this);
}

// --------------------------------------------------------------------
// Listener
// --------------------------------------------------------------------

Coro<Endpoint *>
Listener::accept()
{
    auto ep = co_await pending_.recv();
    sim::simAssert(ep.has_value(), "listener closed");
    co_return *ep;
}

// --------------------------------------------------------------------
// BypassStack
// --------------------------------------------------------------------

BypassStack::BypassStack(const tcp::Host &host, nic::Nic &nic,
                         const BypassConfig &cfg)
    : host_(host), nic_(nic), cfg_(cfg)
{
    // The registered pool is pinned and continuously reused; it
    // occupies cache like any other hot working set.
    bufPool_ = host_.cache.addFootprint("xpt.bufPool", cfg_.bufPoolBytes);
    // Take over RX delivery from whatever stack registered earlier:
    // a bypass node maps the queues into the application.
    nic_.setRxHandler([this](unsigned queue, std::vector<Burst> &&b) {
        onRxBatch(queue, std::move(b));
    });
    for (unsigned q = 0; q < nic_.rxQueueCount(); ++q) {
        rxMailboxes_.push_back(
            std::make_unique<nic::RxMailbox>(host_.sim));
        host_.sim.spawn(pollLoop(q));
    }
}

BypassStack::~BypassStack()
{
    host_.cache.removeFootprint(bufPool_);
}

Endpoint *
BypassStack::newEndpoint()
{
    const auto token = static_cast<std::uint64_t>(endpoints_.size());
    endpoints_.push_back(
        std::make_unique<Endpoint>(Endpoint::Key{}, *this, token));
    endpoints_.back()->openedAt_ = host_.sim.now();
    host_.sim.spawn(rtoLoop(token));
    return endpoints_.back().get();
}

Endpoint *
BypassStack::endpointFor(std::uint64_t token)
{
    sim::simAssert(token < endpoints_.size(), "bad endpoint token");
    return endpoints_[token].get();
}

void
BypassStack::crashReset()
{
    for (auto &e : endpoints_)
        if (!e->aborted_)
            abortEndpoint(*e);
    synSeen_.clear();
}

void
BypassStack::abortEndpoint(Endpoint &e)
{
    if (e.aborted_)
        return;
    e.aborted_ = true;
    aborts_.inc();
    noteFlowFinished(e);
    e.peerClosed_ = true; // recv() drains what's left, then EOF
    e.establishedEvt_.trigger();
    e.creditAvail_.pulse();
    e.rxReady_.pulse();
    e.ackProgress_.trigger();
    e.txActivity_.trigger();
}

Coro<void>
BypassStack::rtoLoop(std::uint64_t token)
{
    Endpoint *e = endpointFor(token);
    Tick rto = cfg_.rtoInitial;
    unsigned attempts = 0;
    for (;;) {
        if (e->aborted_)
            co_return;
        if (e->retransQ_.empty()) {
            if (e->localClosed_)
                co_return; // closed and fully acked: wind down
            e->txActivity_.reset();
            if (e->retransQ_.empty() && !e->localClosed_ && !e->aborted_)
                co_await e->txActivity_.wait();
            rto = cfg_.rtoInitial;
            attempts = 0;
            continue;
        }
        const std::uint64_t una = e->sndUna_;
        e->ackProgress_.reset();
        co_await sim::waitWithTimeout(host_.sim, e->ackProgress_, rto);
        if (e->aborted_)
            co_return;
        if (e->sndUna_ > una || e->retransQ_.empty()) {
            rto = cfg_.rtoInitial;
            attempts = 0;
            continue;
        }
        if (++attempts > cfg_.maxRetransmits) {
            abortEndpoint(*e);
            co_return;
        }
        retransmits_.inc();
        ++e->rtoFires_;
        ++e->retrans_;
        host_.sim.spawn(retransmitTask(token, e->retransQ_.front()));
        rto = std::min(rto * 2, cfg_.rtoMax);
    }
}

Coro<void>
BypassStack::retransmitTask(std::uint64_t token, XptTxSegment seg)
{
    Endpoint *e = endpointFor(token);
    const Tick rtx_t0 = host_.sim.now();
    co_await host_.cpu.compute(cfg_.retransmitCost + cfg_.txDescCost);
    if (e->aborted_)
        co_return;
    if (sim::RequestTracer *rt = host_.sim.requestTracer();
        rt && seg.trace != 0)
        rt->record(sim::TraceContext::unpack(seg.trace),
                   "xpt.retransmit", sim::CostCat::retx, rtx_t0,
                   host_.sim.now());
    host_.bus.consume(sim::Bytes{seg.payload});
    Burst b;
    b.dst = e->remoteNode_;
    b.flow = e->flow_;
    b.wireBytes = static_cast<std::uint32_t>(
        nic_.wireBytesFor(sim::Bytes{seg.payload}).count());
    b.frames = nic_.framesFor(sim::Bytes{seg.payload});
    b.payloadBytes = seg.payload;
    b.kind = static_cast<std::uint32_t>(BypassKind::Data);
    b.connToken = e->remoteToken_;
    b.arg = seg.seq;
    b.trace = seg.trace;
    if (seg.hasMeta) {
        b.hasMeta = true;
        for (int i = 0; i < net::kBurstMetaWords; ++i)
            b.meta[i] = seg.meta[i];
    }
    nic_.transmit(b);
}

Coro<Endpoint *>
BypassStack::connect(NodeId remote, std::uint16_t port, Tick timeout)
{
    Endpoint *e = newEndpoint();
    e->remoteNode_ = remote;
    // Offset the flow hash so a node running both stacks during a
    // migration can't collide flows with its own TCP side.
    e->flow_ = nodeId() * 7919 + 3571 + flowCounter_++;

    co_await host_.cpu.compute(cfg_.connSetupCost);

    // The SYN advertises our buffer pool; the peer's send credit is
    // bounded by it (and vice versa via the SYN-ACK).  Always retried
    // with backoff: loss handling is the library's job.
    Tick rto = timeout > Tick{0} ? timeout : cfg_.synRetryTimeout;
    const unsigned tries = timeout > Tick{0} ? 1 : cfg_.maxSynRetries;
    for (unsigned attempt = 0; attempt < tries; ++attempt) {
        if (attempt > 0)
            synRetries_.inc();
        sendControl(remote, e->flow_, BypassKind::Syn, e->localToken_,
                    port, cfg_.bufPoolBytes);
        co_await sim::waitWithTimeout(host_.sim, e->establishedEvt_, rto);
        if (e->established_ || e->aborted_)
            break;
        rto = std::min(rto * 2, cfg_.rtoMax);
    }
    if (!e->established_ && !e->aborted_)
        abortEndpoint(*e);
    co_return e;
}

Listener &
BypassStack::listen(std::uint16_t port)
{
    auto it = listeners_.find(port);
    if (it == listeners_.end()) {
        it = listeners_
                 .emplace(port, std::make_unique<Listener>(
                                    Listener::Key{}, host_.sim))
                 .first;
    }
    return *it->second;
}

void
BypassStack::sendControl(NodeId dst, std::uint64_t flow, BypassKind kind,
                         std::uint64_t conn_token, std::uint64_t arg,
                         std::uint64_t handshake_pool)
{
    Burst b;
    b.dst = dst;
    b.flow = flow;
    b.wireBytes = static_cast<std::uint32_t>(
        nic_.wireBytesFor(sim::Bytes{0}).count());
    b.frames = 1;
    b.payloadBytes = 0;
    b.kind = static_cast<std::uint32_t>(kind);
    b.connToken = conn_token;
    b.arg = arg;
    if (handshake_pool != 0) {
        b.hasMeta = true;
        b.meta[0] = handshake_pool;
    }
    nic_.transmit(b);
}

int
BypassStack::pollCoreFor(unsigned queue) const
{
    // Each queue's poll loop is pinned to one core; queues spread
    // round-robin.  Unlike the IRQ world there is no adapter-level
    // sharing — the mapping is a pure software choice.
    return static_cast<int>(queue % host_.cpu.coreCount());
}

void
BypassStack::onRxBatch(unsigned queue, std::vector<Burst> &&bursts)
{
    sim::simAssert(queue < rxMailboxes_.size(), "bad RX queue");
    rxMailboxes_[queue]->post(std::move(bursts));
}

Coro<void>
BypassStack::pollLoop(unsigned queue)
{
    // Busy-poll service loop.  Empty spins cost nothing in simulated
    // time (they would reschedule forever); the poll core's CPU
    // charge is taken per serviced pass in processBatch, which is
    // what the utilization window observes.
    nic::RxMailbox &rx = *rxMailboxes_[queue];
    for (;;) {
        std::vector<Burst> batch = co_await rx.next();
        co_await processBatch(queue, batch);
        nic_.recycleBatch(std::move(batch));
    }
}

Coro<void>
BypassStack::processBatch(unsigned queue,
                          const std::vector<Burst> &bursts)
{
    const int core = pollCoreFor(queue);
    pollPasses_.inc();

    // NIC receive DMA deposited all of this into the buffer pool.
    std::size_t wire_total = 0;
    for (const auto &b : bursts) {
        sim::simAssert(b.kind > kBypassKindBase,
                       "foreign burst kind on bypass stack");
        wire_total += b.wireBytes;
    }
    host_.bus.consume(sim::Bytes{wire_total});
    sim::RequestTracer *rt = host_.sim.requestTracer();

    /** Per-traced-burst attribution shares, anchored after compute. */
    struct RxAttr
    {
        sim::TraceContext ctx;
        Tick off;  ///< cost accumulated before this burst
        Tick desc; ///< descriptor check/recycle share
        Tick lib;  ///< demux/reassembly share
        Tick ack;  ///< cumulative-ack share
    };
    std::vector<RxAttr> attrs;

    // ---- pass 1: accumulate the CPU cost of this poll pass ----
    Tick cost = cfg_.rxPollEntry;
    for (const auto &b : bursts) {
        const Tick burst_off = cost;
        const Tick desc = cfg_.rxPerFrame * b.frames;
        cost += desc;
        switch (static_cast<BypassKind>(b.kind)) {
          case BypassKind::Data: {
            cost += cfg_.rxPerBurst;
            const Tick ack = cfg_.ackGenCost; // cumulative DataAck
            cost += ack;
            rxBursts_.inc();
            if (rt && b.trace != 0) {
                RxAttr a;
                a.ctx = sim::TraceContext::unpack(b.trace);
                a.off = burst_off;
                a.desc = desc;
                a.lib = cfg_.rxPerBurst;
                a.ack = ack;
                attrs.push_back(a);
            }
            break;
          }
          case BypassKind::Syn:
            cost += cfg_.connSetupCost;
            break;
          case BypassKind::SynAck:
          case BypassKind::Ack:
          case BypassKind::Fin:
          case BypassKind::DataAck:
          case BypassKind::WinProbe:
            cost += cfg_.rxPerBurst;
            break;
        }
    }

    // The pass runs uninterrupted at the head of its pinned core —
    // the poll core does nothing else — which keeps the busy interval
    // contiguous for exact trace attribution (as the softirq does).
    co_await host_.cpu.compute(cost, core, /*highPriority=*/true);

    if (rt && !attrs.empty()) {
        // Shares lie sequentially inside [now - cost, now]; the poll
        // entry and control bursts stay unattributed (residue).
        const Tick base = host_.sim.now() - cost;
        for (const auto &a : attrs)
            rt->recordComponents(
                a.ctx, base + a.off, core,
                {{"rx.desc", sim::CostCat::poll, a.desc},
                 {"rx.lib", sim::CostCat::poll, a.lib},
                 {"rx.ack", sim::CostCat::poll, a.ack}});
    }

    // ---- pass 2: apply protocol effects ----
    for (const auto &b : bursts) {
        switch (static_cast<BypassKind>(b.kind)) {
          case BypassKind::Data: {
            Endpoint *e = endpointFor(b.connToken);
            if (e->aborted_)
                break; // late segment for a dead endpoint
            // Go-back-N receiver: accept only the in-order segment;
            // every arrival re-acks the cumulative high-water mark.
            const std::uint64_t seq = b.arg;
            if (seq == e->rcvNxt_) {
                e->rcvNxt_ += b.payloadBytes;
                e->rxBuffered_ += b.payloadBytes;
                if (b.trace != 0)
                    e->rxCtx_ = sim::TraceContext::unpack(b.trace);
                if (b.hasMeta) {
                    sock::MsgMeta m;
                    for (int i = 0; i < net::kBurstMetaWords; ++i)
                        m.w[i] = b.meta[i];
                    e->metaQueue_.push_back(m);
                }
                e->rxReady_.pulse();
            } else if (seq < e->rcvNxt_) {
                rxDups_.inc(); // retransmit of delivered data
            } else {
                rxOoo_.inc(); // gap: discard, sender will resend
            }
            sendControl(b.src, b.flow, BypassKind::DataAck,
                        e->remoteToken_, e->rcvNxt_);
            break;
          }
          case BypassKind::Ack: {
            Endpoint *e = endpointFor(b.connToken);
            if (e->aborted_)
                break;
            // Cumulative credit: arg is the peer's drained total, so
            // a lost return is healed by any later one.
            if (b.arg > e->peerDrained_) {
                e->peerDrained_ = b.arg;
                const std::uint64_t inflight =
                    e->sndNxt_ - e->peerDrained_;
                e->credit_ = e->peerBufPool_ > inflight
                                 ? e->peerBufPool_ - inflight
                                 : 0;
                e->creditAvail_.pulse();
            }
            break;
          }
          case BypassKind::DataAck: {
            Endpoint *e = endpointFor(b.connToken);
            if (e->aborted_)
                break;
            if (b.arg > e->sndUna_) {
                e->sndUna_ = b.arg;
                while (!e->retransQ_.empty() &&
                       e->retransQ_.front().seq +
                               e->retransQ_.front().payload <=
                           b.arg)
                    e->retransQ_.pop_front();
                e->ackProgress_.trigger();
            }
            break;
          }
          case BypassKind::WinProbe: {
            Endpoint *e = endpointFor(b.connToken);
            if (e->aborted_)
                break;
            sendControl(b.src, b.flow, BypassKind::Ack, e->remoteToken_,
                        e->drainedTotal_);
            break;
          }
          case BypassKind::Syn: {
            const auto port = static_cast<std::uint16_t>(b.arg);
            auto it = listeners_.find(port);
            if (it == listeners_.end()) {
                sim::fatal("bypass connection attempt to port with no "
                           "listener");
            }
            // A retransmitted SYN must not spawn a second server-side
            // endpoint: resend the (possibly lost) SYN-ACK instead.
            const auto key = std::make_pair(
                static_cast<std::uint64_t>(b.src), b.flow);
            auto seen = synSeen_.find(key);
            if (seen != synSeen_.end()) {
                Endpoint *e = endpointFor(seen->second);
                if (!e->aborted_)
                    sendControl(b.src, b.flow, BypassKind::SynAck,
                                b.connToken, e->localToken_,
                                cfg_.bufPoolBytes);
                break;
            }
            Endpoint *e = newEndpoint();
            synSeen_[key] = e->localToken_;
            e->remoteNode_ = b.src;
            e->remoteToken_ = b.connToken;
            e->flow_ = b.flow;
            e->peerBufPool_ = b.hasMeta ? b.meta[0] : cfg_.bufPoolBytes;
            e->credit_ = e->peerBufPool_;
            e->established_ = true;
            e->establishedAt_ = host_.sim.now();
            sendControl(b.src, b.flow, BypassKind::SynAck, b.connToken,
                        e->localToken_, cfg_.bufPoolBytes);
            it->second->pending_.push(e);
            break;
          }
          case BypassKind::SynAck: {
            Endpoint *e = endpointFor(b.connToken);
            if (e->established_ || e->aborted_)
                break; // duplicate SYN-ACK, or we already gave up
            e->remoteToken_ = b.arg;
            e->peerBufPool_ = b.hasMeta ? b.meta[0] : cfg_.bufPoolBytes;
            e->credit_ = e->peerBufPool_;
            e->established_ = true;
            e->establishedAt_ = host_.sim.now();
            handshakeHist_.sample(
                (e->establishedAt_ - e->openedAt_).count());
            e->establishedEvt_.trigger();
            break;
          }
          case BypassKind::Fin: {
            Endpoint *e = endpointFor(b.connToken);
            e->peerClosed_ = true;
            e->rxReady_.pulse();
            break;
          }
        }
    }
}

void
BypassStack::noteFlowFinished(Endpoint &e)
{
    if (!e.established_ || e.finishedAt_ > Tick{0})
        return;
    e.finishedAt_ = host_.sim.now();
    lifetimeHist_.sample((e.finishedAt_ - e.establishedAt_).count());
}

void
BypassStack::instrument(sim::telemetry::Registry &reg)
{
    reg.counter("txPayloadBytes", txPayload_, "payload bytes sent");
    reg.counter("rxPayloadBytes", rxPayload_,
                "payload bytes delivered to apps");
    reg.counter("rxBursts", rxBursts_, "data bursts received");
    reg.counter("pollPasses", pollPasses_,
                "poll passes that serviced descriptors");
    reg.counter("creditStalls", creditStalls_,
                "sends stalled on exhausted pool credit");
    reg.counter("retransmits", retransmits_,
                "segments resent by the RTO path");
    reg.counter("rxDuplicateSegments", rxDups_,
                "already-delivered segments received");
    reg.counter("rxOutOfOrderDrops", rxOoo_, "go-back-N discards");
    reg.counter("windowProbes", winProbes_,
                "persist probes while credit-starved");
    reg.counter("synRetries", synRetries_, "SYN retransmissions");
    reg.counter("abortedConnections", aborts_,
                "endpoints that gave up after retry exhaustion");
    reg.scalar(
        "endpoints",
        [this] { return static_cast<double>(endpoints_.size()); },
        "endpoints created");
    reg.probe(
        "creditBytes", sim::telemetry::ProbeKind::gauge,
        [this] {
            std::uint64_t n = 0;
            for (const auto &e : endpoints_)
                n += e->credit_;
            return static_cast<double>(n);
        },
        "unused registered-pool send credit, all endpoints");
    reg.histogram("handshakeTicks", handshakeHist_,
                  "active-open handshake latency (ticks)");
    reg.histogram("flowLifetimeTicks", lifetimeHist_,
                  "established -> FIN/abort (ticks)");
    reg.flows("flows", [this] {
        std::vector<sim::telemetry::FlowSample> out;
        out.reserve(endpoints_.size());
        for (const auto &e : endpoints_) {
            sim::telemetry::FlowSample f;
            f.flow = e->flow();
            f.bytesSent = e->bytesSent();
            f.bytesReceived = e->bytesReceived();
            f.retransmits = e->flowRetransmits();
            f.rtoFires = e->rtoFires();
            f.handshakeLatency = e->handshakeLatency();
            f.finLatency = e->finLatency();
            f.open = e->usable();
            out.push_back(f);
        }
        return out;
    });
}

} // namespace ioat::xpt
