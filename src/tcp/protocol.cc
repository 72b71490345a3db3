/**
 * @file
 * Connection / Listener / Protocol implementation: the one copy of
 * the protocol both transports run.
 */

#include "tcp/protocol.hh"

#include <algorithm>

#include "simcore/timeout.hh"

namespace ioat::tcp {

// --------------------------------------------------------------------
// Connection
// --------------------------------------------------------------------

Connection::Connection(Key, Protocol &stack, std::uint64_t local_token)
    : stack_(stack), localToken_(local_token),
      establishedEvt_(stack.host_.sim),
      creditAvail_(stack.host_.sim),
      rxReady_(stack.host_.sim),
      retransQ_(stack.txSegPool_),
      txActivity_(stack.host_.sim),
      ackProgress_(stack.host_.sim)
{}

sim::Simulation &
Connection::simulation()
{
    return stack_.host_.sim;
}

Coro<void>
Connection::send(std::size_t bytes, sock::SendOptions opts,
                 const sock::MsgMeta *meta)
{
    if (aborted_)
        co_return; // typed failure visible through aborted()
    sim::simAssert(established_, "send on unestablished connection");
    sim::simAssert(!localClosed_, "send after close");
    auto &host = stack_.host_;
    const Protocol::Spec &spec = stack_.spec_;
    sim::RequestTracer *rt = host.sim.requestTracer();
    const bool traced = rt && opts.trace.valid();

    if (!spec.sendCall.empty()) {
        const Tick sys_t0 = host.sim.now();
        co_await host.cpu.compute(spec.sendCall.total());
        if (traced)
            rt->recordComputeSplit(opts.trace, sys_t0, host.sim.now(),
                                   spec.sendCall.parts());
    }

    std::size_t remaining = bytes;
    while (remaining > 0) {
        const std::size_t seg =
            std::min({remaining, spec.maxSegment, peerSockBuf_});

        const Tick wait_t0 = host.sim.now();

        // Credit-based flow control against the peer's buffer.
        if (credit_ < seg && !aborted_)
            stack_.creditStalls_.inc();
        if (spec.reliable) {
            // A lost credit return must not wedge the window: probe
            // the receiver for a fresh cumulative ack while starved.
            while (credit_ < seg && !aborted_) {
                const bool woke = co_await sim::waitWithTimeout(
                    host.sim, creditAvail_, spec.persistTimeout);
                if (!woke && credit_ < seg && !aborted_) {
                    stack_.winProbes_.inc();
                    stack_.sendControl(remoteNode_, flow_,
                                       BurstKind::WinProbe, remoteToken_,
                                       0);
                }
            }
        } else {
            while (credit_ < seg && !aborted_)
                co_await creditAvail_.wait();
        }
        if (aborted_)
            co_return;
        credit_ -= seg;
        if (traced && host.sim.now() > wait_t0)
            rt->record(opts.trace, "tx.credit-wait",
                       sim::CostCat::queueWait, wait_t0, host.sim.now());

        const std::uint32_t frames =
            stack_.nic_.framesFor(sim::Bytes{seg});
        const Charge charge =
            stack_.segmentCharge(seg, frames, opts.zeroCopy);
        const Tick seg_t0 = host.sim.now();
        co_await host.cpu.compute(charge.total());
        if (traced)
            rt->recordComputeSplit(opts.trace, seg_t0, host.sim.now(),
                                   charge.parts());

        // NIC TX DMA reads the segment from memory.
        host.bus.consume(sim::Bytes{seg});

        Burst b;
        b.dst = remoteNode_;
        b.flow = flow_;
        b.wireBytes = static_cast<std::uint32_t>(
            stack_.nic_.wireBytesFor(sim::Bytes{seg}).count());
        b.frames = frames;
        b.payloadBytes = static_cast<std::uint32_t>(seg);
        b.kind = spec.kindBase + static_cast<std::uint32_t>(BurstKind::Data);
        b.connToken = remoteToken_;
        if (traced)
            b.trace = opts.trace.pack();
        if (meta && remaining == bytes) { // first segment carries meta
            b.hasMeta = true;
            for (int i = 0; i < net::kBurstMetaWords; ++i)
                b.meta[i] = meta->w[i];
        }
        if (spec.reliable) {
            b.arg = sndNxt_; // stream offset of the segment's first byte
            TxSegment txSeg;
            txSeg.seq = sndNxt_;
            txSeg.payload = static_cast<std::uint32_t>(seg);
            txSeg.hasMeta = b.hasMeta;
            txSeg.trace = b.trace;
            for (int i = 0; i < net::kBurstMetaWords; ++i)
                txSeg.meta[i] = b.meta[i];
            retransQ_.push_back(txSeg);
            sndNxt_ += seg;
            txActivity_.trigger(); // arm the RTO loop
        }
        stack_.nic_.transmit(b);

        bytesSent_ += seg;
        stack_.txPayload_.inc(seg);
        remaining -= seg;
    }
}

Coro<std::size_t>
Connection::recv(std::size_t max_bytes, sim::TraceContext ctx)
{
    if (aborted_ && rxBuffered_ == 0)
        co_return 0; // failed connection reads as EOF
    sim::simAssert(established_, "recv on unestablished connection");
    sim::simAssert(max_bytes > 0, "recv of zero bytes");
    auto &host = stack_.host_;
    const Protocol::Spec &spec = stack_.spec_;
    sim::RequestTracer *rt = host.sim.requestTracer();

    const Tick call_t0 = host.sim.now();
    co_await host.cpu.compute(spec.recvCall.total());
    const Tick call_t1 = host.sim.now();

    while (rxBuffered_ == 0 && !peerClosed_) {
        rxWaiting_ = true;
        co_await rxReady_.wait();
    }
    rxWaiting_ = false;

    // A sink-style receiver doesn't thread a context; fall back to the
    // one the most recent traced data arrival carried.  The wait for
    // data itself is deliberately *not* recorded: it overlaps the
    // sender/wire spans, whose categories own that time.
    const sim::TraceContext ectx = ctx.valid() ? ctx : rxCtx_;
    const bool traced = rt && ectx.valid();
    if (traced)
        rt->recordComputeSplit(ectx, call_t0, call_t1,
                               spec.recvCall.parts());

    if (rxBuffered_ == 0)
        co_return 0; // orderly EOF

    const std::size_t n = std::min(max_bytes, rxBuffered_);
    rxBuffered_ -= n;

    if (Coro<void> copy = stack_.receiveCopy(
            sim::Bytes{n}, traced ? ectx : sim::TraceContext{});
        copy.valid())
        co_await std::move(copy);

    bytesReceived_ += n;
    stack_.rxPayload_.inc(n);
    drainedTotal_ += n;

    if (aborted_)
        co_return n; // no point acking a dead peer

    // Return credit to the sender now that the buffer drained.
    // Reliable mode acks the cumulative drained total so a lost
    // return only delays (never loses) credit.
    const Tick ack_t0 = host.sim.now();
    co_await host.cpu.compute(spec.ackGen.total());
    if (traced)
        rt->recordComputeSplit(ectx, ack_t0, host.sim.now(),
                               spec.ackGen.parts());
    stack_.sendControl(remoteNode_, flow_, BurstKind::Ack, remoteToken_,
                       spec.reliable ? drainedTotal_ : n);
    co_return n;
}

Coro<std::size_t>
Connection::recvAll(std::size_t bytes, sim::TraceContext ctx)
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
Connection::popMeta()
{
    sim::simAssert(!metaQueue_.empty(), "popMeta on empty meta queue");
    sock::MsgMeta m = metaQueue_.front();
    metaQueue_.pop_front();
    return m;
}

void
Connection::close()
{
    if (localClosed_ || !established_ || aborted_)
        return;
    localClosed_ = true;
    stack_.noteFlowFinished(*this);
    stack_.sendControl(remoteNode_, flow_, BurstKind::Fin, remoteToken_, 0);
    if (stack_.spec_.reliable)
        txActivity_.trigger(); // let the RTO loop notice and wind down
}

void
Connection::abortLocal()
{
    stack_.abortConnection(*this);
}

void
Connection::deliver(const Burst &b)
{
    rxBuffered_ += b.payloadBytes;
    if (b.trace != 0)
        rxCtx_ = sim::TraceContext::unpack(b.trace);
    if (b.hasMeta) {
        sock::MsgMeta m;
        for (int i = 0; i < net::kBurstMetaWords; ++i)
            m.w[i] = b.meta[i];
        metaQueue_.push_back(m);
    }
    rxReady_.pulse();
}

// --------------------------------------------------------------------
// Listener
// --------------------------------------------------------------------

Coro<Connection *>
Listener::accept()
{
    auto conn = co_await pending_.recv();
    sim::simAssert(conn.has_value(), "listener closed");
    co_return *conn;
}

// --------------------------------------------------------------------
// Protocol
// --------------------------------------------------------------------

Protocol::Protocol(const Host &host, nic::Nic &nic, Spec spec)
    : host_(host), nic_(nic), spec_(std::move(spec))
{
    nic_.setRxHandler([this](unsigned queue, std::vector<Burst> &&b) {
        onRxBatch(queue, std::move(b));
    });
    for (unsigned q = 0; q < nic_.rxQueueCount(); ++q) {
        rxMailboxes_.push_back(
            std::make_unique<nic::RxMailbox>(host_.sim));
        host_.sim.spawn(rxLoop(q));
    }
}

Connection *
Protocol::newConnection()
{
    const auto token = static_cast<std::uint64_t>(conns_.size());
    conns_.push_back(
        std::make_unique<Connection>(Connection::Key{}, *this, token));
    conns_.back()->openedAt_ = host_.sim.now();
    if (spec_.reliable)
        host_.sim.spawn(rtoLoop(token));
    return conns_.back().get();
}

Connection *
Protocol::connFor(std::uint64_t token)
{
    sim::simAssert(token < conns_.size(), "bad connection token");
    return conns_[token].get();
}

void
Protocol::crashReset()
{
    // The process died: every connection's state is gone.  Aborting
    // (rather than erasing) keeps the tokens of in-flight bursts
    // valid; late deliveries hit the "dead connection" paths.
    for (auto &c : conns_)
        if (!c->aborted_)
            abortConnection(*c);
    // A restarted process has no memory of pre-crash handshakes: a
    // client retrying an old SYN must get a *new* server-side
    // connection, not a resent SYN-ACK for a dead one.
    synSeen_.clear();
}

void
Protocol::abortConnection(Connection &c)
{
    if (c.aborted_)
        return;
    c.aborted_ = true;
    aborts_.inc();
    noteFlowFinished(c);
    // Release every blocked waiter: connectors, senders, receivers,
    // and the RTO loop all re-check aborted_ once woken.
    c.peerClosed_ = true; // recv() drains what's left, then EOF
    c.establishedEvt_.trigger();
    c.creditAvail_.pulse();
    c.rxReady_.pulse();
    c.ackProgress_.trigger();
    c.txActivity_.trigger();
}

Coro<void>
Protocol::rtoLoop(std::uint64_t token)
{
    Connection *c = connFor(token);
    Tick rto = spec_.rtoInitial;
    unsigned attempts = 0;
    for (;;) {
        if (c->aborted_)
            co_return;
        if (c->retransQ_.empty()) {
            if (c->localClosed_)
                co_return; // closed and fully acked: wind down
            c->txActivity_.reset();
            if (c->retransQ_.empty() && !c->localClosed_ && !c->aborted_)
                co_await c->txActivity_.wait();
            rto = spec_.rtoInitial;
            attempts = 0;
            continue;
        }
        const std::uint64_t una = c->sndUna_;
        c->ackProgress_.reset();
        co_await sim::waitWithTimeout(host_.sim, c->ackProgress_, rto);
        if (c->aborted_)
            co_return;
        if (c->sndUna_ > una || c->retransQ_.empty()) {
            // Ack progress: back off resets.
            rto = spec_.rtoInitial;
            attempts = 0;
            continue;
        }
        // RTO expired with no progress: go-back-N resend of the
        // oldest segment, exponential backoff, bounded attempts.
        if (++attempts > spec_.maxRetransmits) {
            abortConnection(*c);
            co_return;
        }
        retransmits_.inc();
        ++c->rtoFires_;
        ++c->retrans_;
        host_.sim.spawn(retransmitTask(token, c->retransQ_.front()));
        rto = std::min(rto * 2, spec_.rtoMax);
    }
}

Coro<void>
Protocol::retransmitTask(std::uint64_t token, TxSegment seg)
{
    Connection *c = connFor(token);
    const Tick rtx_t0 = host_.sim.now();
    co_await host_.cpu.compute(spec_.retransmitCost);
    if (c->aborted_)
        co_return;
    if (sim::RequestTracer *rt = host_.sim.requestTracer();
        rt && seg.trace != 0)
        rt->record(sim::TraceContext::unpack(seg.trace),
                   spec_.retransmitSpan, sim::CostCat::retx, rtx_t0,
                   host_.sim.now());
    host_.bus.consume(sim::Bytes{seg.payload});
    Burst b;
    b.dst = c->remoteNode_;
    b.flow = c->flow_;
    b.wireBytes = static_cast<std::uint32_t>(
        nic_.wireBytesFor(sim::Bytes{seg.payload}).count());
    b.frames = nic_.framesFor(sim::Bytes{seg.payload});
    b.payloadBytes = seg.payload;
    b.kind = spec_.kindBase + static_cast<std::uint32_t>(BurstKind::Data);
    b.connToken = c->remoteToken_;
    b.arg = seg.seq;
    b.trace = seg.trace;
    if (seg.hasMeta) {
        b.hasMeta = true;
        for (int i = 0; i < net::kBurstMetaWords; ++i)
            b.meta[i] = seg.meta[i];
    }
    nic_.transmit(b);
}

Coro<Connection *>
Protocol::connect(NodeId remote, std::uint16_t port, Tick timeout)
{
    Connection *c = newConnection();
    c->remoteNode_ = remote;
    c->flow_ = nodeId() * 7919 + spec_.flowOffset + flowCounter_++;

    co_await host_.cpu.compute(spec_.connSetupCost);
    // The SYN advertises our receive buffer; the peer's send credit
    // is bounded by it (and vice versa via the SYN-ACK).
    const bool deadline =
        timeout > Tick{0} &&
        (!spec_.reliable || spec_.deadlineOverridesRetries);
    if (!spec_.reliable && !deadline) {
        sendControl(remote, c->flow_, BurstKind::Syn, c->localToken_,
                    port, spec_.bufBytes);
        co_await c->establishedEvt_.wait();
        co_return c;
    }

    // Bounded open: give one SYN the caller's deadline, or retry it
    // with backoff (reliable mode).  Either way an unreachable peer
    // yields an aborted() connection, not a hang.
    Tick rto = deadline ? timeout : spec_.synRetryTimeout;
    const unsigned tries = deadline ? 1 : spec_.maxSynRetries;
    for (unsigned attempt = 0; attempt < tries; ++attempt) {
        if (attempt > 0)
            synRetries_.inc();
        sendControl(remote, c->flow_, BurstKind::Syn, c->localToken_,
                    port, spec_.bufBytes);
        co_await sim::waitWithTimeout(host_.sim, c->establishedEvt_, rto);
        if (c->established_ || c->aborted_)
            break;
        rto = std::min(rto * 2, spec_.rtoMax);
    }
    if (!c->established_ && !c->aborted_)
        abortConnection(*c);
    co_return c;
}

Listener &
Protocol::listen(std::uint16_t port)
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
Protocol::sendControl(NodeId dst, std::uint64_t flow, BurstKind kind,
                      std::uint64_t conn_token, std::uint64_t arg,
                      std::uint64_t handshake_buf)
{
    Burst b;
    b.dst = dst;
    b.flow = flow;
    b.wireBytes = static_cast<std::uint32_t>(
        nic_.wireBytesFor(sim::Bytes{0}).count());
    b.frames = 1;
    b.payloadBytes = 0;
    b.kind = spec_.kindBase + static_cast<std::uint32_t>(kind);
    b.connToken = conn_token;
    b.arg = arg;
    if (handshake_buf != 0) {
        b.hasMeta = true;
        b.meta[0] = handshake_buf;
    }
    nic_.transmit(b);
}

void
Protocol::onRxBatch(unsigned queue, std::vector<Burst> &&bursts)
{
    sim::simAssert(queue < rxMailboxes_.size(), "bad RX queue");
    rxMailboxes_[queue]->post(std::move(bursts));
}

Coro<void>
Protocol::rxLoop(unsigned queue)
{
    nic::RxMailbox &rx = *rxMailboxes_[queue];
    const int core = rxCoreFor(queue);
    std::vector<RxShare> shares;
    for (;;) {
        std::vector<Burst> batch = co_await rx.next();
        sim::RequestTracer *rt = host_.sim.requestTracer();
        shares.clear();
        const Tick cost = chargeRxPass(batch, rt ? &shares : nullptr);

        // The pass runs uninterrupted at the head of its core, which
        // keeps its busy interval contiguous for exact attribution.
        co_await host_.cpu.compute(cost, core, /*highPriority=*/true);

        if (rt && !shares.empty()) {
            // The pass's busy interval is the contiguous tail
            // [t1 - cost, t1]; each burst's shares lie sequentially at
            // its accumulated offset.  The pass entry cost and
            // control-burst costs stay unattributed (request residue),
            // by design.
            const Tick base = host_.sim.now() - cost;
            for (const auto &s : shares)
                rt->recordComponents(s.ctx, base + s.off, core,
                                     s.charge.parts());
        }

        applyRxPass(batch);
        // Hand the drained vector back so a later interrupt reuses
        // its capacity.
        nic_.recycleBatch(std::move(batch));
    }
}

Tick
Protocol::chargeRxPass(const std::vector<Burst> &bursts,
                       std::vector<RxShare> *shares)
{
    // NIC receive DMA deposited all of this into host memory.
    std::size_t wire_total = 0;
    for (const auto &b : bursts) {
        sim::simAssert(b.kind > spec_.kindBase &&
                           b.kind <= spec_.kindBase + kBurstKinds,
                       "burst kind of another transport");
        wire_total += b.wireBytes;
    }
    host_.bus.consume(sim::Bytes{wire_total});
    return rxPassCost(bursts, shares);
}

void
Protocol::applyRxPass(const std::vector<Burst> &bursts)
{
    for (const auto &b : bursts) {
        switch (kindOf(b)) {
          case BurstKind::Data: {
            Connection *c = connFor(b.connToken);
            if (c->aborted_)
                break; // late segment for a dead connection
            if (!spec_.reliable) {
                c->deliver(b);
                break;
            }
            // Go-back-N receiver: accept only the in-order segment;
            // every arrival re-acks the cumulative high-water mark.
            const std::uint64_t seq = b.arg;
            if (seq == c->rcvNxt_) {
                c->rcvNxt_ += b.payloadBytes;
                c->deliver(b);
            } else if (seq < c->rcvNxt_) {
                rxDups_.inc(); // retransmit of delivered data
            } else {
                rxOoo_.inc(); // gap: discard, sender will resend
            }
            sendControl(b.src, b.flow, BurstKind::DataAck,
                        c->remoteToken_, c->rcvNxt_);
            break;
          }
          case BurstKind::Ack: {
            Connection *c = connFor(b.connToken);
            if (c->aborted_)
                break;
            if (!spec_.reliable) {
                c->credit_ += b.arg;
                sim::simAssert(c->credit_ <= c->peerSockBuf_,
                               "credit overflow (peer buffer accounting)");
                c->creditAvail_.pulse();
                break;
            }
            // Cumulative credit: arg is the peer's drained total, so
            // a lost return is healed by any later one.
            if (b.arg > c->peerDrained_) {
                c->peerDrained_ = b.arg;
                const std::uint64_t inflight =
                    c->sndNxt_ - c->peerDrained_;
                c->credit_ = c->peerSockBuf_ > inflight
                                 ? c->peerSockBuf_ - inflight
                                 : 0;
                c->creditAvail_.pulse();
            }
            break;
          }
          case BurstKind::DataAck: {
            Connection *c = connFor(b.connToken);
            if (c->aborted_)
                break;
            if (b.arg > c->sndUna_) {
                c->sndUna_ = b.arg;
                while (!c->retransQ_.empty() &&
                       c->retransQ_.front().seq +
                               c->retransQ_.front().payload <=
                           b.arg)
                    c->retransQ_.pop_front();
                c->ackProgress_.trigger();
            }
            break;
          }
          case BurstKind::WinProbe: {
            Connection *c = connFor(b.connToken);
            if (c->aborted_)
                break;
            // Re-solicited credit return (reliable mode only).
            sendControl(b.src, b.flow, BurstKind::Ack, c->remoteToken_,
                        c->drainedTotal_);
            break;
          }
          case BurstKind::Syn: {
            const auto port = static_cast<std::uint16_t>(b.arg);
            auto it = listeners_.find(port);
            if (it == listeners_.end()) {
                sim::fatal("connection attempt to port with no "
                           "listener");
            }
            // A retransmitted SYN must not spawn a second server-side
            // connection: resend the (possibly lost) SYN-ACK instead.
            const auto key = std::make_pair(
                static_cast<std::uint64_t>(b.src), b.flow);
            auto seen = synSeen_.find(key);
            if (seen != synSeen_.end()) {
                Connection *c = connFor(seen->second);
                if (!c->aborted_)
                    sendControl(b.src, b.flow, BurstKind::SynAck,
                                b.connToken, c->localToken_,
                                spec_.bufBytes);
                break;
            }
            Connection *c = newConnection();
            synSeen_[key] = c->localToken_;
            c->remoteNode_ = b.src;
            c->remoteToken_ = b.connToken;
            c->flow_ = b.flow;
            c->peerSockBuf_ = b.hasMeta ? b.meta[0] : spec_.bufBytes;
            c->credit_ = c->peerSockBuf_;
            c->established_ = true;
            c->establishedAt_ = host_.sim.now();
            sendControl(b.src, b.flow, BurstKind::SynAck, b.connToken,
                        c->localToken_, spec_.bufBytes);
            it->second->pending_.push(c);
            break;
          }
          case BurstKind::SynAck: {
            Connection *c = connFor(b.connToken);
            if (c->established_ || c->aborted_)
                break; // duplicate SYN-ACK, or we already gave up
            c->remoteToken_ = b.arg;
            c->peerSockBuf_ = b.hasMeta ? b.meta[0] : spec_.bufBytes;
            c->credit_ = c->peerSockBuf_;
            c->established_ = true;
            c->establishedAt_ = host_.sim.now();
            handshakeHist_.sample(
                (c->establishedAt_ - c->openedAt_).count());
            c->establishedEvt_.trigger();
            break;
          }
          case BurstKind::Fin: {
            Connection *c = connFor(b.connToken);
            c->peerClosed_ = true;
            c->rxReady_.pulse();
            break;
          }
        }
    }
}

void
Protocol::noteFlowFinished(Connection &c)
{
    if (!c.established_ || c.finishedAt_ > Tick{0})
        return;
    c.finishedAt_ = host_.sim.now();
    lifetimeHist_.sample((c.finishedAt_ - c.establishedAt_).count());
}

void
Protocol::instrument(sim::telemetry::Registry &reg)
{
    reg.counter("txPayloadBytes", txPayload_, "payload bytes sent");
    reg.counter("rxPayloadBytes", rxPayload_,
                "payload bytes delivered to apps");
    instrumentCosts(reg);
    reg.counter("retransmits", retransmits_,
                "data segments resent by the RTO path");
    reg.counter("rxDuplicateSegments", rxDups_,
                "already-delivered segments received");
    reg.counter("rxOutOfOrderDrops", rxOoo_, "go-back-N discards");
    reg.counter("windowProbes", winProbes_,
                "persist probes while credit-starved");
    reg.counter("synRetries", synRetries_, "SYN retransmissions");
    reg.counter("abortedConnections", aborts_,
                "connections that gave up after retry exhaustion");
    reg.scalar(
        spec_.connectionsKey,
        [this] { return static_cast<double>(conns_.size()); },
        "connections created");
    reg.probe(
        "usableConns", sim::telemetry::ProbeKind::gauge,
        [this] {
            std::size_t n = 0;
            for (const auto &c : conns_)
                if (c->usable())
                    ++n;
            return static_cast<double>(n);
        },
        "established, unaborted, peer-open connections");
    reg.probe(
        "creditBytes", sim::telemetry::ProbeKind::gauge,
        [this] {
            std::uint64_t n = 0;
            for (const auto &c : conns_)
                n += c->credit_;
            return static_cast<double>(n);
        },
        "unused peer-buffer send credit, all connections");
    reg.probe(
        "unackedBytes", sim::telemetry::ProbeKind::gauge,
        [this] {
            std::uint64_t n = 0;
            for (const auto &c : conns_)
                n += c->sndNxt_ - c->sndUna_;
            return static_cast<double>(n);
        },
        "sent-but-unacked stream bytes (the RTO window)");
    reg.histogram("handshakeTicks", handshakeHist_,
                  "active-open handshake latency (ticks)");
    reg.histogram("flowLifetimeTicks", lifetimeHist_,
                  "established -> FIN/abort (ticks)");
    reg.flows("flows", [this] {
        std::vector<sim::telemetry::FlowSample> out;
        out.reserve(conns_.size());
        for (const auto &c : conns_) {
            sim::telemetry::FlowSample f;
            f.flow = c->flow();
            f.bytesSent = c->bytesSent();
            f.bytesReceived = c->bytesReceived();
            f.retransmits = c->flowRetransmits();
            f.rtoFires = c->rtoFires();
            f.handshakeLatency = c->handshakeLatency();
            f.finLatency = c->finLatency();
            f.open = c->usable();
            out.push_back(f);
        }
        return out;
    });
}

} // namespace ioat::tcp
