/**
 * @file
 * Causal request tracing: per-request span trees with exact latency
 * attribution and critical-path analysis.
 *
 * A `TraceContext` (trace id + span id) is minted when a request is
 * born (datacenter client GET, PVFS file op) and carried through the
 * coroutine call chain and across simulated connections — packed into
 * message metadata on the wire, unpacked on the receiving host — down
 * through the socket, TCP stack, NIC, copy subsystem and DMA engine.
 * Each layer contributes spans tagged with a *cost category* (cpu,
 * memcpy, dma, wire, queue-wait, retx, cache); when the request ends,
 * the tracer partitions its [start, end) interval over the span tree
 * so the per-category breakdown sums *exactly* to the end-to-end
 * latency, and extracts the critical path through any fan-out (PVFS
 * stripes, proxy backend calls).
 *
 * Attribution rule: a span's interval is charged to its category
 * except where covered by child spans; where children overlap, the
 * one whose (clipped) end is latest wins — it is the one the parent
 * actually waited for.  Time inside the request not covered by any
 * span falls to the root's category (queue-wait): transit and
 * scheduling residue, never silently dropped.  The critical path
 * follows, from the root, the child that finished last.
 *
 * Zero-cost when off: contexts are trivially copyable POD passed by
 * value, every emission point is guarded on the tracer pointer and
 * `ctx.valid()`, and no model is consulted that would perturb timing
 * — golden digests are bit-identical with tracing compiled in.
 */

#ifndef IOAT_SIMCORE_REQTRACE_HH
#define IOAT_SIMCORE_REQTRACE_HH

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <ostream>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/event_queue.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/trace.hh"
#include "simcore/types.hh"

namespace ioat::sim {

/** Where one slice of a request's latency went. */
enum class CostCat : std::uint8_t {
    cpu = 0,   ///< protocol/application processing on a core
    memcpy,    ///< data movement by the CPU (hot-cache cost share)
    dma,       ///< data movement by the DMA engine
    wire,      ///< serialization + switch transit on the fabric
    queueWait, ///< waiting: credit, scheduling, transit residue
    retx,      ///< retransmissions and RTO backoff
    cache,     ///< cache-miss penalty share of copies/touches
    poll,      ///< user-space polled RX processing (kernel bypass)
};

inline constexpr std::size_t kCostCatCount = 8;

constexpr const char *
costCatName(CostCat c)
{
    switch (c) {
    case CostCat::cpu:
        return "cpu";
    case CostCat::memcpy:
        return "memcpy";
    case CostCat::dma:
        return "dma";
    case CostCat::wire:
        return "wire";
    case CostCat::queueWait:
        return "queue-wait";
    case CostCat::retx:
        return "retx";
    case CostCat::cache:
        return "cache";
    case CostCat::poll:
        return "poll";
    }
    return "?";
}

/**
 * Receiver of exact per-stack cost charges, fed by the tracer's
 * attribution walk at request finalize.  `simcore/profile.hh`'s
 * Profiler is the implementation; the interface lives here so the
 * tracer needs no profile include.  Attaching a sink changes no
 * model outcome — it only observes charges the tracer computes
 * anyway.
 */
class ProfileSink
{
  public:
    virtual ~ProfileSink() = default;
    /** @p stack: semicolon-joined span names, request root first. */
    virtual void add(const std::string &stack, CostCat cat,
                     Tick ticks) = 0;
};

/**
 * The causal identity carried along a request's path: which request
 * (trace) and which span within it is the parent of whatever work the
 * holder performs.  Trivially copyable by design — propagation is
 * passing two words, and pack() fits it into one message-metadata
 * slot for the trip across a simulated connection.
 */
struct TraceContext
{
    std::uint32_t trace = 0; ///< request id (1-based; 0 = untraced)
    std::uint32_t span = 0;  ///< parent span id within the request

    bool valid() const { return trace != 0; }

    std::uint64_t
    pack() const
    {
        return (static_cast<std::uint64_t>(trace) << 32) | span;
    }

    static TraceContext
    unpack(std::uint64_t v)
    {
        return TraceContext{static_cast<std::uint32_t>(v >> 32),
                            static_cast<std::uint32_t>(v & 0xffffffffu)};
    }
};

static_assert(std::is_trivially_copyable_v<TraceContext>,
              "contexts ride in coroutine frames and message words");

/**
 * Owns every request's span tree; computes breakdowns and critical
 * paths at endRequest(); exports Chrome traces, span JSON and
 * aggregate histograms.  Created on demand by
 * `Simulation::enableRequestTracing()` — a null tracer pointer is the
 * tracing-off fast path everywhere.
 */
class RequestTracer : public telemetry::Instrumented
{
  public:
    /** Span lane meaning "the request's own track" (not hardware). */
    static constexpr int kRequestLane = -1;

    struct Span
    {
        std::uint32_t id;     ///< 1-based within the request
        std::uint32_t parent; ///< parent span id (0: the root itself)
        std::string name;
        CostCat cat;
        int lane; ///< hardware lane, or kRequestLane
        Tick start;
        Tick end;
        bool open;
        bool critical;
    };

    struct Breakdown
    {
        Tick cat[kCostCatCount] = {};

        Tick
        total() const
        {
            Tick t{};
            for (const auto &c : cat)
                t += c;
            return t;
        }
    };

    struct Request
    {
        std::uint32_t id = 0;
        std::string name;
        int node = -1;
        Tick start{};
        Tick end{};
        bool done = false;
        /** Spans retained after finalize (first N requests only). */
        bool detailed = false;
        std::vector<Span> spans; ///< spans[0] is the root
        Breakdown breakdown;
        std::vector<std::uint32_t> critical; ///< root-to-leaf span ids
    };

    /** A named share of one compute() call, for recordComputeSplit. */
    struct Component
    {
        const char *name;
        CostCat cat;
        Tick ticks;
    };

    /**
     * @param clock the simulation clock spans are stamped from
     * @param max_detailed keep full span lists for this many requests
     *        (breakdowns and critical paths are kept for all)
     */
    explicit RequestTracer(EventQueue &clock,
                           std::uint32_t max_detailed = 512)
        : clock_(clock), maxDetailed_(max_detailed)
    {}

    /** @name Span tree construction
     *  @{ */

    /** Mint a new request; the returned context parents on its root. */
    TraceContext
    beginRequest(std::string name, int node)
    {
        const auto id = static_cast<std::uint32_t>(requests_.size() + 1);
        requests_.emplace_back();
        Request &r = requests_.back();
        r.id = id;
        r.name = std::move(name);
        r.node = node;
        r.start = clock_.now();
        r.detailed = id <= maxDetailed_;
        r.spans.push_back(Span{1, 0, r.name, CostCat::queueWait,
                               kRequestLane, r.start, Tick{}, true, false});
        ++started_;
        return TraceContext{id, 1};
    }

    /** Finish a request: close spans, attribute, sample histograms. */
    void
    endRequest(TraceContext ctx)
    {
        Request *r = liveRequest(ctx);
        if (!r)
            return;
        r->end = clock_.now();
        r->done = true;
        finalize(*r);
        ++finished_;
    }

    /** Open a child span under @p parent; invalid parent → no-op. */
    TraceContext
    beginSpan(TraceContext parent, std::string name, CostCat cat,
              int lane = kRequestLane)
    {
        Request *r = liveRequest(parent);
        if (!r)
            return {};
        const auto id = static_cast<std::uint32_t>(r->spans.size() + 1);
        r->spans.push_back(Span{id, parent.span, std::move(name), cat,
                                lane, clock_.now(), Tick{}, true, false});
        return TraceContext{parent.trace, id};
    }

    void
    endSpan(TraceContext ctx)
    {
        Request *r = liveRequest(ctx);
        if (!r || ctx.span == 0 || ctx.span > r->spans.size())
            return;
        Span &s = r->spans[ctx.span - 1];
        if (s.open) {
            s.end = clock_.now();
            s.open = false;
        }
    }

    /** Record an already-elapsed closed span (e.g. a wire transit). */
    void
    record(TraceContext parent, std::string name, CostCat cat,
           Tick start, Tick end, int lane = kRequestLane)
    {
        Request *r = liveRequest(parent);
        if (!r || end <= start)
            return;
        const auto id = static_cast<std::uint32_t>(r->spans.size() + 1);
        r->spans.push_back(Span{id, parent.span, std::move(name), cat,
                                lane, start, end, false, false});
    }

    /**
     * Record @p parts laid end-to-end starting at @p at — the
     * decomposition of one already-charged cost into its categories.
     * Zero-tick parts are skipped.
     */
    void
    recordComponents(TraceContext parent, Tick at, int lane,
                     std::span<const Component> parts)
    {
        Tick cursor = at;
        for (const auto &p : parts) {
            if (p.ticks == Tick{})
                continue;
            record(parent, p.name, p.cat, cursor, cursor + p.ticks,
                   lane);
            cursor += p.ticks;
        }
    }

    void
    recordComponents(TraceContext parent, Tick at, int lane,
                     std::initializer_list<Component> parts)
    {
        recordComponents(parent, at, lane,
                         std::span(parts.begin(), parts.size()));
    }

    /**
     * Attribute one `cpu.compute()` call that ran over [t0, t1]: the
     * busy time (sum of @p parts) occupies the tail of the interval;
     * any earlier residue was run-queue wait.  The compute call itself
     * is never split — this decomposes its cost after the fact, so
     * timing is untouched.
     */
    void
    recordComputeSplit(TraceContext parent, Tick t0, Tick t1,
                       std::span<const Component> parts,
                       int lane = kRequestLane)
    {
        if (!liveRequest(parent))
            return;
        Tick total{};
        for (const auto &p : parts)
            total += p.ticks;
        const Tick elapsed = t1 - t0;
        const Tick busy = std::min(total, elapsed);
        const Tick busy_start = t1 - busy;
        if (busy_start > t0)
            record(parent, "queue", CostCat::queueWait, t0, busy_start,
                   lane);
        recordComponents(parent, busy_start, lane, parts);
    }

    void
    recordComputeSplit(TraceContext parent, Tick t0, Tick t1,
                       std::initializer_list<Component> parts,
                       int lane = kRequestLane)
    {
        recordComputeSplit(parent, t0, t1,
                           std::span(parts.begin(), parts.size()), lane);
    }
    /** @} */

    /**
     * Route every future finalize's attribution charges into @p sink
     * as folded stacks (null detaches).  Requests already finalized
     * are not replayed — attach before the workload runs.
     */
    void attachProfiler(ProfileSink *sink) { profiler_ = sink; }

    ProfileSink *profiler() const { return profiler_; }

    /** @name Queries
     *  @{ */
    const std::vector<Request> &requests() const { return requests_; }

    const Request *
    find(std::uint32_t id) const
    {
        if (id == 0 || id > requests_.size())
            return nullptr;
        return &requests_[id - 1];
    }

    std::uint64_t requestsStarted() const { return started_; }
    std::uint64_t requestsFinished() const { return finished_; }
    /** @} */

    /** @name Exporters
     *  @{ */

    /** Per-request span/breakdown JSON ("ioat-span-report-v1"). */
    void
    writeSpanJson(std::ostream &os) const
    {
        os << "{\"schema\":\"ioat-span-report-v1\",\n\"categories\":[";
        for (std::size_t i = 0; i < kCostCatCount; ++i)
            os << (i ? "," : "") << '"'
               << costCatName(static_cast<CostCat>(i)) << '"';
        os << "],\n\"requests\":[";
        bool first_req = true;
        for (const auto &r : requests_) {
            if (!r.done)
                continue;
            os << (first_req ? "\n" : ",\n");
            first_req = false;
            os << " {\"id\":" << r.id << ",\"name\":\""
               << jsonEscape(r.name) << "\",\"node\":" << r.node
               << ",\"startTick\":" << r.start.count()
               << ",\"endTick\":" << r.end.count()
               << ",\"durationTicks\":" << (r.end - r.start).count()
               << ",\n  \"breakdown\":{";
            for (std::size_t i = 0; i < kCostCatCount; ++i)
                os << (i ? "," : "") << '"'
                   << costCatName(static_cast<CostCat>(i))
                   << "\":" << r.breakdown.cat[i].count();
            os << "},\n  \"criticalPath\":[";
            for (std::size_t i = 0; i < r.critical.size(); ++i)
                os << (i ? "," : "") << r.critical[i];
            os << "]";
            if (r.detailed) {
                os << ",\n  \"spans\":[";
                bool first_span = true;
                for (const auto &s : r.spans) {
                    os << (first_span ? "\n" : ",\n");
                    first_span = false;
                    os << "   {\"id\":" << s.id << ",\"parent\":"
                       << s.parent << ",\"name\":\""
                       << jsonEscape(s.name) << "\",\"cat\":\""
                       << costCatName(s.cat) << "\",\"lane\":" << s.lane
                       << ",\"startTick\":" << s.start.count()
                       << ",\"endTick\":" << s.end.count() << "}";
                }
                os << "]";
            }
            os << "}";
        }
        os << "\n]}\n";
    }

    void
    saveSpanJson(const std::string &path) const
    {
        std::ofstream out(path);
        simAssert(out.good(), "cannot open span report for writing");
        writeSpanJson(out);
    }

    /**
     * Emit detailed requests into a Chrome trace: hardware-lane spans
     * on pid 0, request-track spans on pid 1 (tid = request id), with
     * flow events linking each parent span to children on a different
     * track and " [crit]" marking the critical path.
     */
    void
    exportChrome(TraceWriter &tw) const
    {
        tw.setProcessName(0, "hardware");
        tw.setProcessName(1, "requests");
        for (const auto &r : requests_) {
            if (!r.done || !r.detailed)
                continue;
            const int rtid = static_cast<int>(r.id);
            tw.setLaneName(1, rtid,
                           "request " + std::to_string(r.id) + " " +
                               r.name);
            for (const auto &s : r.spans) {
                const int pid = s.lane == kRequestLane ? 1 : 0;
                const int tid = s.lane == kRequestLane ? rtid : s.lane;
                std::string name = s.name;
                if (s.critical)
                    name += " [crit]";
                tw.complete(std::move(name), costCatName(s.cat),
                            s.start, s.end - s.start, tid, pid);
                if (s.parent != 0) {
                    const Span &p = r.spans[s.parent - 1];
                    const int ppid = p.lane == kRequestLane ? 1 : 0;
                    const int ptid =
                        p.lane == kRequestLane ? rtid : p.lane;
                    if (ppid != pid || ptid != tid) {
                        const std::uint64_t fid =
                            static_cast<std::uint64_t>(r.id) * 1000000u +
                            s.id;
                        tw.flowStart(s.name, costCatName(s.cat),
                                     s.start, ptid, ppid, fid);
                        tw.flowFinish(s.name, costCatName(s.cat),
                                      s.start, tid, pid, fid);
                    }
                }
            }
        }
    }

    /** Aggregate breakdown/latency histograms for the RunReport. */
    void
    instrument(telemetry::Registry &reg) override
    {
        reg.scalar(
            "requestsStarted",
            [this] { return static_cast<double>(started_); },
            "requests minted (beginRequest)");
        reg.scalar(
            "requestsFinished",
            [this] { return static_cast<double>(finished_); },
            "requests completed (endRequest)");
        reg.histogram("endToEndTicks", endToEnd_,
                      "request end-to-end latency", 1.0e-3);
        for (std::size_t i = 0; i < kCostCatCount; ++i)
            reg.histogram(
                std::string("breakdown.") +
                    costCatName(static_cast<CostCat>(i)),
                catHist_[i], "per-request ticks in this category",
                1.0e-3);
    }
    /** @} */

  private:
    /** The request @p ctx points into, or null if invalid/finished. */
    Request *
    liveRequest(TraceContext ctx)
    {
        if (!ctx.valid() || ctx.trace > requests_.size())
            return nullptr;
        Request &r = requests_[ctx.trace - 1];
        return r.done ? nullptr : &r;
    }

    void
    finalize(Request &r)
    {
        // Clip every still-open span (including the root) to the
        // request's end: the work it covered ends when the request
        // does, whatever cleanup the coroutine frame does later.
        for (auto &s : r.spans) {
            if (s.open) {
                s.end = r.end;
                s.open = false;
            }
        }

        std::vector<std::vector<std::uint32_t>> kids(r.spans.size() + 1);
        for (const auto &s : r.spans)
            if (s.parent != 0)
                kids[s.parent].push_back(s.id);

        if (profiler_) {
            const std::string root_path = r.spans[0].name;
            attributeSpan(r, kids, r.spans[0], r.start, r.end,
                          &root_path);
        } else {
            attributeSpan(r, kids, r.spans[0], r.start, r.end,
                          nullptr);
        }
        markCriticalPath(r, kids);

        const Tick e2e = r.end - r.start;
        endToEnd_.sample(e2e.count());
        for (std::size_t i = 0; i < kCostCatCount; ++i)
            catHist_[i].sample(r.breakdown.cat[i].count());

        if (!r.detailed)
            std::vector<Span>().swap(r.spans);
    }

    /**
     * Charge [lo, hi) of span @p s: intervals covered by children go
     * to the covering child (latest clipped end wins on overlap, then
     * larger id); the rest goes to s's category.  A recursive exact
     * partition — children's charges plus s's own always sum to
     * hi - lo.
     *
     * @p path is the semicolon-joined name chain from the request
     * root to @p s — non-null only while a ProfileSink is attached,
     * so the tracing-without-profiling walk allocates no path
     * strings.  Every tick charged to the breakdown is mirrored to
     * the sink under the same partition, which is why profiler
     * totals equal summed request breakdowns exactly.
     */
    void
    attributeSpan(Request &r,
                  const std::vector<std::vector<std::uint32_t>> &kids,
                  const Span &s, Tick lo, Tick hi,
                  const std::string *path)
    {
        if (hi <= lo)
            return;
        struct Clip
        {
            Tick lo;
            Tick hi;
            std::uint32_t id;
        };
        std::vector<Clip> cs;
        for (std::uint32_t cid : kids[s.id]) {
            const Span &c = r.spans[cid - 1];
            const Tick clo = std::max(c.start, lo);
            const Tick chi = std::min(c.end, hi);
            if (chi > clo)
                cs.push_back(Clip{clo, chi, cid});
        }
        if (cs.empty()) {
            r.breakdown.cat[static_cast<std::size_t>(s.cat)] += hi - lo;
            if (path)
                profiler_->add(*path, s.cat, hi - lo);
            return;
        }
        std::vector<Tick> pts;
        pts.reserve(cs.size() * 2 + 2);
        pts.push_back(lo);
        pts.push_back(hi);
        for (const auto &c : cs) {
            pts.push_back(c.lo);
            pts.push_back(c.hi);
        }
        std::sort(pts.begin(), pts.end());
        pts.erase(std::unique(pts.begin(), pts.end()), pts.end());
        for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
            const Tick a = pts[i];
            const Tick b = pts[i + 1];
            const Clip *best = nullptr;
            for (const auto &c : cs) {
                if (c.lo <= a && c.hi >= b &&
                    (!best || c.hi > best->hi ||
                     (c.hi == best->hi && c.id > best->id)))
                    best = &c;
            }
            if (!best) {
                r.breakdown.cat[static_cast<std::size_t>(s.cat)] +=
                    b - a;
                if (path)
                    profiler_->add(*path, s.cat, b - a);
                continue;
            }
            const Span &child = r.spans[best->id - 1];
            if (path) {
                const std::string child_path =
                    *path + ";" + child.name;
                attributeSpan(r, kids, child, a, b, &child_path);
            } else {
                attributeSpan(r, kids, child, a, b, nullptr);
            }
        }
    }

    /** From the root, repeatedly follow the child that finished last. */
    void
    markCriticalPath(Request &r,
                     const std::vector<std::vector<std::uint32_t>> &kids)
    {
        std::uint32_t cur = 1;
        while (true) {
            r.critical.push_back(cur);
            r.spans[cur - 1].critical = true;
            const Span *next = nullptr;
            for (std::uint32_t cid : kids[cur]) {
                const Span &c = r.spans[cid - 1];
                if (!next || c.end > next->end ||
                    (c.end == next->end && c.id > next->id))
                    next = &c;
            }
            if (!next)
                break;
            cur = next->id;
        }
    }

    EventQueue &clock_;
    ProfileSink *profiler_ = nullptr;
    std::uint32_t maxDetailed_;
    std::vector<Request> requests_;
    std::uint64_t started_ = 0;
    std::uint64_t finished_ = 0;
    telemetry::Histogram endToEnd_;
    telemetry::Histogram catHist_[kCostCatCount];
};

/**
 * RAII span: opens on construction (no-op when the tracer is null or
 * the parent context invalid), closes on destruction.  Safe inside
 * coroutine frames — the Simulation destroys frames before its
 * members, so the tracer outlives every in-flight span.
 */
class ScopedSpan
{
  public:
    ScopedSpan() = default;

    ScopedSpan(RequestTracer *rt, TraceContext parent, std::string name,
               CostCat cat, int lane = RequestTracer::kRequestLane)
        : rt_(rt)
    {
        if (rt_ && parent.valid())
            ctx_ = rt_->beginSpan(parent, std::move(name), cat, lane);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    ScopedSpan(ScopedSpan &&other) noexcept
        : rt_(other.rt_), ctx_(other.ctx_)
    {
        other.ctx_ = {};
    }

    ScopedSpan &
    operator=(ScopedSpan &&other) noexcept
    {
        if (this != &other) {
            end();
            rt_ = other.rt_;
            ctx_ = other.ctx_;
            other.ctx_ = {};
        }
        return *this;
    }

    ~ScopedSpan() { end(); }

    /** The context children of this span should parent on. */
    TraceContext ctx() const { return ctx_; }

    /** Close now (idempotent; destructor becomes a no-op). */
    void
    end()
    {
        if (rt_ && ctx_.valid()) {
            rt_->endSpan(ctx_);
            ctx_ = {};
        }
    }

  private:
    RequestTracer *rt_ = nullptr;
    TraceContext ctx_{};
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_REQTRACE_HH
