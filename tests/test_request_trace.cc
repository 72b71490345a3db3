/**
 * @file
 * Causal request tracing: attribution exactness, propagation through
 * the datacenter and PVFS applications, critical-path extraction,
 * export determinism, and the tracing-off/on timing equivalence.
 *
 * `ctest -L trace` runs just this suite.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/testbed.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "pvfs/deployment.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using core::IoatConfig;
using sim::Coro;
using sim::CostCat;
using sim::Simulation;
using sim::Tick;

Tick
catTicks(const sim::RequestTracer::Request &r, CostCat c)
{
    return r.breakdown.cat[static_cast<std::size_t>(c)];
}

bool
hasSpanNamed(const sim::RequestTracer::Request &r, const std::string &name)
{
    for (const auto &s : r.spans)
        if (s.name == name)
            return true;
    return false;
}

// --------------------------------------------------------------------
// Attribution math on a hand-built span tree
// --------------------------------------------------------------------

// Root [0, 1000) with children cpu [0,300), wire [300,600) and
// dma [500,800): the wire/dma overlap goes to dma (latest end wins —
// it is what the parent actually waited for), the uncovered tail
// [800,1000) falls to the root's queue-wait.  Every row is countable
// by hand and the partition is exact.
TEST(RequestTrace, AttributionMatchesHandCountedIntervals)
{
    Simulation sim;
    auto &rt = sim.enableRequestTracing();

    const sim::TraceContext tc = rt.beginRequest("synthetic", 0);
    rt.record(tc, "work", CostCat::cpu, sim::nanoseconds(0),
              sim::nanoseconds(300));
    rt.record(tc, "transit", CostCat::wire, sim::nanoseconds(300),
              sim::nanoseconds(600));
    rt.record(tc, "engine", CostCat::dma, sim::nanoseconds(500),
              sim::nanoseconds(800));

    sim.spawn([](Simulation &s, sim::RequestTracer &t,
                 sim::TraceContext ctx) -> Coro<void> {
        co_await s.delay(sim::nanoseconds(1000));
        t.endRequest(ctx);
    }(sim, rt, tc));
    sim.run();

    const auto *r = rt.find(tc.trace);
    ASSERT_NE(r, nullptr);
    ASSERT_TRUE(r->done);
    EXPECT_EQ(r->end - r->start, sim::nanoseconds(1000));
    EXPECT_EQ(catTicks(*r, CostCat::cpu), sim::nanoseconds(300));
    EXPECT_EQ(catTicks(*r, CostCat::wire), sim::nanoseconds(200));
    EXPECT_EQ(catTicks(*r, CostCat::dma), sim::nanoseconds(300));
    EXPECT_EQ(catTicks(*r, CostCat::queueWait), sim::nanoseconds(200));
    EXPECT_EQ(r->breakdown.total(), r->end - r->start);

    // Critical path: root, then the child that finished last (dma,
    // span id 4 — ids are allocation order, root is 1).
    ASSERT_EQ(r->critical.size(), 2u);
    EXPECT_EQ(r->critical[0], 1u);
    EXPECT_EQ(r->critical[1], 4u);
}

// recordComputeSplit charges the busy tail of the window to the named
// parts and the leading residue to queue-wait.
TEST(RequestTrace, ComputeSplitChargesResidueToQueueWait)
{
    Simulation sim;
    auto &rt = sim.enableRequestTracing();

    const sim::TraceContext tc = rt.beginRequest("split", 0);
    // 100 ns window, 60 ns of named work: 40 ns run-queue wait first.
    rt.recordComputeSplit(tc, sim::nanoseconds(0), sim::nanoseconds(100),
                          {{"parse", CostCat::cpu, sim::nanoseconds(45)},
                           {"copy", CostCat::memcpy,
                            sim::nanoseconds(15)}});
    sim.spawn([](Simulation &s, sim::RequestTracer &t,
                 sim::TraceContext ctx) -> Coro<void> {
        co_await s.delay(sim::nanoseconds(100));
        t.endRequest(ctx);
    }(sim, rt, tc));
    sim.run();

    const auto *r = rt.find(tc.trace);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(catTicks(*r, CostCat::cpu), sim::nanoseconds(45));
    EXPECT_EQ(catTicks(*r, CostCat::memcpy), sim::nanoseconds(15));
    EXPECT_EQ(catTicks(*r, CostCat::queueWait), sim::nanoseconds(40));
    EXPECT_EQ(r->breakdown.total(), r->end - r->start);
}

// --------------------------------------------------------------------
// Datacenter: client -> proxy -> web server
// --------------------------------------------------------------------

struct DcRun
{
    std::uint64_t completed;
    std::uint64_t proxyServed;
    std::uint64_t backendServed;
    double latencyMean;
};

/**
 * One single-threaded, cache-disabled data-center run (every request
 * crosses all three tiers).  @p traced turns request tracing on; the
 * tracer (if any) and span JSON are handed back through @p out_spans.
 */
DcRun
runDatacenter(bool traced, std::string *out_spans = nullptr,
              std::vector<sim::RequestTracer::Request> *out_reqs = nullptr,
              Tick *out_cpu_expected = nullptr,
              IoatConfig features = IoatConfig::enabled())
{
    Simulation sim;
    sim::RequestTracer *rt =
        traced ? &sim.enableRequestTracing() : nullptr;

    core::Testbed tb(sim,
                     core::TestbedConfig{
                         .serverCount = 2,
                         .serverConfig =
                             core::NodeConfig::server(features),
                         .clientCount = 1,
                     });
    dc::DcConfig cfg;
    cfg.proxyCachingEnabled = false;
    dc::SingleFileWorkload wl(4096, 100);
    dc::WebServer server(tb.server(1), cfg, wl);
    dc::Proxy proxy(tb.server(0), cfg, tb.server(1).id());
    server.start();
    proxy.start();

    dc::ClientFleet::Options opts;
    opts.target = tb.server(0).id();
    opts.port = cfg.proxyPort;
    opts.threads = 1;
    dc::ClientFleet fleet({&tb.client(0)}, wl, opts);
    fleet.start();

    sim.runFor(sim::milliseconds(100));

    if (out_cpu_expected) {
        // Every application compute charge on the three-tier path,
        // counted by hand from the DcConfig cost model (the fig07-style
        // split-up this trace must reproduce).
        *out_cpu_expected =
            opts.perRequestCost                                // client
            + cfg.requestParseCost + cfg.workerOverheadCost    // proxy
            + cfg.proxyCacheOpCost + cfg.responseBuildCost     // proxy
            + cfg.requestParseCost + cfg.workerOverheadCost    // server
            + cfg.serverFileLookupCost + cfg.responseBuildCost;
    }
    if (rt && out_spans) {
        std::ostringstream os;
        rt->writeSpanJson(os);
        *out_spans = os.str();
    }
    if (rt && out_reqs)
        *out_reqs = rt->requests();

    return DcRun{fleet.completed(), proxy.requestsServed(),
                 server.requestsServed(), fleet.latencyUs().mean()};
}

TEST(RequestTrace, DatacenterBreakdownSumsToEndToEnd)
{
    std::vector<sim::RequestTracer::Request> reqs;
    const DcRun run = runDatacenter(true, nullptr, &reqs);
    ASSERT_GT(run.completed, 10u);

    std::size_t finished = 0;
    for (const auto &r : reqs) {
        if (!r.done)
            continue;
        ++finished;
        EXPECT_EQ(r.breakdown.total(), r.end - r.start)
            << "request " << r.id << " (" << r.name
            << ") breakdown does not partition its latency";
    }
    EXPECT_GE(finished, run.completed);
}

// The named application spans of a traced request reproduce the
// DcConfig cost model row by row — the same hand-counting the fig07
// split-up tables rest on — and the cpu category contains those rows
// plus a per-request protocol-processing overhead that is constant
// across identical requests.
TEST(RequestTrace, DatacenterCpuMatchesHandCountedCosts)
{
    std::vector<sim::RequestTracer::Request> reqs;
    Tick expected_cpu{};
    const DcRun run =
        runDatacenter(true, nullptr, &reqs, &expected_cpu);
    ASSERT_GT(run.completed, 10u);

    dc::DcConfig cfg;
    dc::ClientFleet::Options cl;
    const std::vector<std::pair<std::string, Tick>> rows = {
        {"client.request", cl.perRequestCost},
        {"proxy.parse", cfg.requestParseCost + cfg.workerOverheadCost},
        {"proxy.cache", cfg.proxyCacheOpCost},
        {"proxy.respond", cfg.responseBuildCost},
        {"server.handle", cfg.requestParseCost +
                              cfg.workerOverheadCost +
                              cfg.serverFileLookupCost +
                              cfg.responseBuildCost},
    };

    Tick first_cpu{};
    bool have_first = false;
    for (const auto &r : reqs) {
        if (!r.done)
            continue;
        if (r.detailed) {
            for (const auto &[name, want] : rows) {
                Tick got{};
                for (const auto &s : r.spans)
                    if (s.name == name)
                        got += s.end - s.start;
                EXPECT_EQ(got, want)
                    << "request " << r.id << " span " << name;
            }
        }
        // Application rows plus the stack's protocol charges
        // (tx.syscall, rx.driver, ...): never less than the
        // hand-counted floor, and bit-identical between identical
        // requests.
        EXPECT_GE(catTicks(r, CostCat::cpu), expected_cpu)
            << "request " << r.id;
        if (!have_first) {
            first_cpu = catTicks(r, CostCat::cpu);
            have_first = true;
        } else {
            EXPECT_EQ(catTicks(r, CostCat::cpu), first_cpu)
                << "request " << r.id;
        }
        // The paper's request lives mostly in copies and transit, so
        // the non-CPU categories must be populated too.
        EXPECT_GT(catTicks(r, CostCat::wire), Tick{}) << "request "
                                                      << r.id;
        EXPECT_GT(catTicks(r, CostCat::queueWait), Tick{})
            << "request " << r.id;
    }
}

// The fig07 split-up, seen through per-request attribution: with the
// copy engine on, data movement shows up in the dma category; with it
// off, the same movement is CPU copies (memcpy + cache misses).
TEST(RequestTrace, IoatShiftsBreakdownFromMemcpyToDma)
{
    auto totals = [](IoatConfig features) {
        std::vector<sim::RequestTracer::Request> reqs;
        runDatacenter(true, nullptr, &reqs, nullptr, features);
        Tick dma{}, cpu_copy{};
        for (const auto &r : reqs) {
            if (!r.done)
                continue;
            dma += catTicks(r, CostCat::dma);
            cpu_copy += catTicks(r, CostCat::memcpy) +
                        catTicks(r, CostCat::cache);
        }
        return std::pair{dma, cpu_copy};
    };
    const auto [dma_on, copy_on] = totals(IoatConfig::enabled());
    const auto [dma_off, copy_off] = totals(IoatConfig::disabled());

    EXPECT_GT(dma_on, Tick{});
    EXPECT_EQ(dma_off, Tick{}) << "no DMA engine, yet dma ticks";
    EXPECT_GT(copy_off, copy_on)
        << "disabling the copy engine should push movement onto the CPU";
}

TEST(RequestTrace, DatacenterRequestCrossesAllTiers)
{
    std::vector<sim::RequestTracer::Request> reqs;
    runDatacenter(true, nullptr, &reqs);

    const sim::RequestTracer::Request *got = nullptr;
    for (const auto &r : reqs)
        if (r.done && r.detailed && r.name == "dc.get") {
            got = &r;
            break;
        }
    ASSERT_NE(got, nullptr) << "no completed detailed dc.get request";

    EXPECT_TRUE(hasSpanNamed(*got, "client.request"));
    EXPECT_TRUE(hasSpanNamed(*got, "proxy"));
    EXPECT_TRUE(hasSpanNamed(*got, "webserver"));
    EXPECT_TRUE(hasSpanNamed(*got, "server.handle"));
    EXPECT_TRUE(hasSpanNamed(*got, "wire"));

    // Span tree is well-formed: ids dense from 1, parents precede
    // children, root is span 1.
    for (std::size_t i = 0; i < got->spans.size(); ++i) {
        const auto &s = got->spans[i];
        EXPECT_EQ(s.id, i + 1);
        EXPECT_LT(s.parent, s.id);
    }

    // Critical path starts at the root and follows parent links.
    ASSERT_FALSE(got->critical.empty());
    EXPECT_EQ(got->critical.front(), 1u);
    for (std::size_t i = 1; i < got->critical.size(); ++i)
        EXPECT_EQ(got->spans[got->critical[i] - 1].parent,
                  got->critical[i - 1]);
}

TEST(RequestTrace, ChromeExportHasPairedFlowEvents)
{
    Simulation sim;
    auto &rt = sim.enableRequestTracing();
    core::Testbed tb(sim,
                     core::TestbedConfig{
                         .serverCount = 2,
                         .serverConfig = core::NodeConfig::server(
                             IoatConfig::enabled()),
                         .clientCount = 1,
                     });
    dc::DcConfig cfg;
    cfg.proxyCachingEnabled = false;
    dc::SingleFileWorkload wl(4096, 100);
    dc::WebServer server(tb.server(1), cfg, wl);
    dc::Proxy proxy(tb.server(0), cfg, tb.server(1).id());
    server.start();
    proxy.start();
    dc::ClientFleet::Options opts;
    opts.target = tb.server(0).id();
    opts.port = cfg.proxyPort;
    opts.threads = 1;
    dc::ClientFleet fleet({&tb.client(0)}, wl, opts);
    fleet.start();
    sim.runFor(sim::milliseconds(50));

    sim::TraceWriter tw;
    rt.exportChrome(tw);
    std::ostringstream os;
    tw.write(os);
    const std::string out = os.str();

    auto count = [&](const std::string &needle) {
        std::size_t n = 0;
        for (std::size_t at = out.find(needle);
             at != std::string::npos; at = out.find(needle, at + 1))
            ++n;
        return n;
    };
    // Flow starts and finishes are emitted strictly in pairs.
    const std::size_t starts = count("\"ph\":\"s\"");
    ASSERT_GT(starts, 0u);
    EXPECT_EQ(starts, count("\"ph\":\"f\""));
    // Request tracks land on the named "requests" process and the
    // critical path is marked.
    EXPECT_NE(out.find("{\"name\":\"requests\"}"), std::string::npos);
    EXPECT_NE(out.find(" [crit]"), std::string::npos);
}

// --------------------------------------------------------------------
// PVFS: striped fan-out and the critical path through it
// --------------------------------------------------------------------

TEST(RequestTrace, PvfsReadShowsPerServerStripes)
{
    Simulation sim;
    auto &rt = sim.enableRequestTracing();
    core::Testbed tb(sim,
                     core::TestbedConfig{
                         .serverCount = 2,
                         .serverConfig = core::NodeConfig::server(
                             IoatConfig::enabled()),
                     });
    pvfs::Deployment fsd(pvfs::PvfsConfig{.iodCount = 4}, tb.server(0));
    const auto client = fsd.makeClient(tb.server(1));

    const std::size_t total = 2 * 1024 * 1024; // 512 KB per iod
    bool done = false;
    sim.spawn([](pvfs::PvfsClient &c, std::size_t n,
                 bool &f) -> Coro<void> {
        co_await c.connect();
        auto h = co_await c.create(1);
        co_await c.write(h, 0, n);
        co_await c.read(h, 0, n);
        f = true;
    }(*client, total, done));
    sim.run();
    ASSERT_TRUE(done);

    const sim::RequestTracer::Request *rd = nullptr;
    const sim::RequestTracer::Request *wr = nullptr;
    for (const auto &r : rt.requests()) {
        if (r.name == "pvfs.read")
            rd = &r;
        if (r.name == "pvfs.write")
            wr = &r;
    }
    ASSERT_NE(rd, nullptr);
    ASSERT_NE(wr, nullptr);
    ASSERT_TRUE(rd->done);
    ASSERT_TRUE(wr->done);

    // Each striped request shows one span per I/O daemon it touched.
    for (std::size_t i = 0; i < fsd.iodCount(); ++i) {
        const std::string stripe = "iod" + std::to_string(i);
        EXPECT_TRUE(hasSpanNamed(*rd, stripe)) << stripe;
        EXPECT_TRUE(hasSpanNamed(*wr, stripe)) << stripe;
    }

    // The stripes fan out concurrently: at least two are in flight at
    // the same time somewhere during the read.
    std::vector<const sim::RequestTracer::Span *> stripes;
    for (const auto &s : rd->spans)
        if (s.name.rfind("iod", 0) == 0)
            stripes.push_back(&s);
    ASSERT_GE(stripes.size(), 2u);
    bool overlap = false;
    for (std::size_t i = 0; i < stripes.size() && !overlap; ++i)
        for (std::size_t j = i + 1; j < stripes.size(); ++j)
            if (stripes[i]->start < stripes[j]->end &&
                stripes[j]->start < stripes[i]->end) {
                overlap = true;
                break;
            }
    EXPECT_TRUE(overlap) << "stripe RPCs never overlapped";

    for (const auto *r : {rd, wr}) {
        EXPECT_EQ(r->breakdown.total(), r->end - r->start);
        ASSERT_FALSE(r->critical.empty());
        EXPECT_EQ(r->critical.front(), 1u);
        for (std::size_t i = 1; i < r->critical.size(); ++i)
            EXPECT_EQ(r->spans[r->critical[i] - 1].parent,
                      r->critical[i - 1]);
    }

    // The read's critical path runs through the last-finishing
    // stripe, not around it.  (The write legitimately ends on the
    // trailing metadata extend, so only the read is checked.)
    bool through_stripe = false;
    for (std::uint32_t id : rd->critical)
        if (rd->spans[id - 1].name.rfind("iod", 0) == 0)
            through_stripe = true;
    EXPECT_TRUE(through_stripe);
    EXPECT_GT(catTicks(*rd, CostCat::wire), Tick{});
    EXPECT_GT(catTicks(*rd, CostCat::cpu), Tick{});
}

// --------------------------------------------------------------------
// Determinism and zero-cost-off
// --------------------------------------------------------------------

TEST(RequestTrace, SpanJsonIsDeterministic)
{
    std::string first, second;
    runDatacenter(true, &first);
    runDatacenter(true, &second);
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(first, second)
        << "same-seed traced runs produced different span reports";
}

// Tracing on/off must not perturb the model: identical completion
// counts and identical measured latencies.
TEST(RequestTrace, TracingDoesNotPerturbTiming)
{
    const DcRun off = runDatacenter(false);
    const DcRun on = runDatacenter(true);
    EXPECT_EQ(off.completed, on.completed);
    EXPECT_EQ(off.proxyServed, on.proxyServed);
    EXPECT_EQ(off.backendServed, on.backendServed);
    EXPECT_EQ(off.latencyMean, on.latencyMean);
}

// Late emissions against a finished request drop silently rather than
// corrupting the report (e.g. cleanup work after the response).
TEST(RequestTrace, LateEventsOnFinishedRequestsAreDropped)
{
    Simulation sim;
    auto &rt = sim.enableRequestTracing();
    const sim::TraceContext tc = rt.beginRequest("r", 0);
    rt.endRequest(tc);
    const auto before = rt.find(tc.trace)->spans.size();
    rt.record(tc, "late", CostCat::cpu, sim::nanoseconds(0),
              sim::nanoseconds(10));
    EXPECT_EQ(rt.beginSpan(tc, "late2", CostCat::cpu).valid(), false);
    EXPECT_EQ(rt.find(tc.trace)->spans.size(), before);
}

} // namespace
