/**
 * @file
 * Client fleet implementation.
 */

#include "datacenter/client.hh"

#include <algorithm>

#include "datacenter/web_server.hh"
#include "simcore/timeout.hh"
#include "sock/socket.hh"

namespace ioat::dc {

using sim::Coro;

ClientFleet::ClientFleet(std::vector<core::Node *> nodes,
                         Workload &workload, const Options &opts)
    : nodes_(std::move(nodes)), workload_(workload), opts_(opts)
{
    sim::simAssert(!nodes_.empty(), "client fleet needs nodes");
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
        // Threads are dealt round-robin, so node i hosts the threads
        // with t % nodes == i.
        const unsigned threads_here =
            opts_.threads / static_cast<unsigned>(nodes_.size()) +
            (i < opts_.threads % nodes_.size() ? 1 : 0);
        mems_.push_back(std::make_unique<core::AppMemory>(
            nodes_[i]->host(), "dc.client"));
        mems_.back()->reserve(opts_.residentBytes +
                              threads_here *
                                  opts_.residentBytesPerThread);
        locals_.push_back(std::make_unique<NodeLocal>());
    }
}

ClientFleet::~ClientFleet() = default;

void
ClientFleet::start()
{
    for (unsigned t = 0; t < opts_.threads; ++t) {
        const std::size_t n = t % nodes_.size();
        ++active_;
        // Node-affine spawn: the thread's whole activity stream runs
        // on its node's lane.
        nodes_[n]->spawn(clientThread(*nodes_[n], *mems_[n],
                                      *locals_[n], opts_.rngSeed + t));
    }
}

const std::vector<sim::Tick> &
ClientFleet::reconnectTicks() const
{
    mergedReconnects_.clear();
    // Node-order concatenation, then a stable sort by tick: the
    // result is time-ordered with ties broken by node index.
    for (const auto &loc : locals_)
        mergedReconnects_.insert(mergedReconnects_.end(),
                                 loc->reconnectTicks.begin(),
                                 loc->reconnectTicks.end());
    std::stable_sort(mergedReconnects_.begin(), mergedReconnects_.end());
    if (mergedReconnects_.size() > kMaxRecordedReconnects)
        mergedReconnects_.resize(kMaxRecordedReconnects);
    return mergedReconnects_;
}

Coro<void>
ClientFleet::clientThread(core::Node &node, core::AppMemory &mem,
                          NodeLocal &local, std::uint64_t seed)
{
    sim::Rng rng(seed);
    sim::RequestTracer *rt = node.simulation().requestTracer();
    sim::CappedBackoff backoff(opts_.reconnectDelay,
                               opts_.reconnectBackoffCap);
    sock::Socket conn = co_await node.transport().connect(
        opts_.target, opts_.port, opts_.requestTimeout);

    for (;;) {
        if (stopping_)
            break;
        if (!conn.valid() || !conn.usable()) {
            // Dead connection (abort / server restart): back off and
            // reopen, then resume the closed loop.  With a backoff
            // cap, consecutive failures wait exponentially longer.
            reconnects_.inc();
            if (local.reconnectTicks.size() < kMaxRecordedReconnects)
                local.reconnectTicks.push_back(
                    node.simulation().now());
            const sim::Tick pause =
                opts_.reconnectBackoffCap > sim::Tick{0}
                    ? backoff.next()
                    : opts_.reconnectDelay;
            co_await node.simulation().delay(pause);
            if (stopping_)
                break;
            conn = co_await node.transport().connect(
                opts_.target, opts_.port, opts_.requestTimeout);
            if (conn.valid() && conn.usable())
                backoff.reset();
            continue;
        }

        const Request req = workload_.next(rng);
        const sim::Tick t0 = node.simulation().now();

        // Mint one causal trace per request; every path below — even
        // the failure continues — must reach endRequest.
        sim::TraceContext tc{};
        if (rt)
            tc = rt->beginRequest("dc.get",
                                  static_cast<int>(node.id()));

        co_await node.cpu().compute(opts_.perRequestCost);
        if (rt && tc.valid())
            rt->record(tc, "client.request", sim::CostCat::cpu, t0,
                       node.simulation().now());

        sock::Message get;
        get.tag = opts_.requestTag;
        get.a = req.fileId;
        get.b = req.bytes;
        get.trace = tc;
        issued_.inc(); // every issued request must terminate below
        co_await conn.sendMessage(get);

        auto resp = co_await conn.recvMessageTimed(
            opts_.requestTimeout, nullptr, tc);
        if (!resp.has_value()) {
            failures_.inc(); // timeout or server closed mid-request
            if (rt)
                rt->endRequest(tc);
            continue;
        }
        if (resp->tag ==
            static_cast<std::uint64_t>(HttpTag::ServiceUnavailable)) {
            rejected_.inc(); // shed under overload / degradation
            if (rt)
                rt->endRequest(tc);
            continue;
        }
        // Timed like the header read: a server that crashes mid-body
        // must not park this thread forever (crash sends no RST).
        const std::size_t got = co_await conn.recvAllTimed(
            resp->payloadBytes, opts_.requestTimeout, tc);
        if (got != resp->payloadBytes) {
            failures_.inc(); // truncated body
            if (rt)
                rt->endRequest(tc);
            continue;
        }

        if (opts_.touchPayload)
            co_await mem.touch(got, tc);

        if (rt)
            rt->endRequest(tc);
        completed_.inc();
        local.latency.sample(
            sim::toMicroseconds(node.simulation().now() - t0));
    }
    --active_;
}

} // namespace ioat::dc
