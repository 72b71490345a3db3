/**
 * @file
 * Tests for the chrome-trace exporter and its CPU/DMA integration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/node.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using sim::Coro;
using sim::Simulation;
using sim::TraceWriter;

TEST(Trace, EmitsWellFormedJson)
{
    TraceWriter tw;
    tw.complete("work", "cpu", sim::microseconds(1),
                sim::microseconds(2), 0);
    tw.instant("irq", "nic", sim::microseconds(5), 1);
    std::ostringstream os;
    tw.write(os);
    const std::string out = os.str();
    EXPECT_EQ(out.front(), '{');
    EXPECT_NE(out.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(out.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"work\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(out.find("\"ts\":1"), std::string::npos);
    EXPECT_NE(out.find("\"dur\":2"), std::string::npos);
    EXPECT_EQ(tw.eventCount(), 2u);
}

TEST(Trace, EscapesSpecialCharacters)
{
    TraceWriter tw;
    tw.complete("has\"quote\\slash", "cat", sim::Tick{0}, sim::Tick{1}, 0);
    std::ostringstream os;
    tw.write(os);
    EXPECT_NE(os.str().find("has\\\"quote\\\\slash"), std::string::npos);
}

TEST(Trace, EscapesControlCharactersAndCategory)
{
    TraceWriter tw;
    // Hostile name: embedded newline, tab, and a raw control byte.
    tw.complete(std::string("bad\nname\twith\x01" "ctl"),
                "c\"at\\egory", sim::Tick{0}, sim::Tick{1}, 0);
    std::ostringstream os;
    tw.write(os);
    const std::string out = os.str();
    // The hostile bytes must not survive into any JSON string (the
    // writer's own inter-record newlines are fine).
    EXPECT_EQ(out.find('\x01'), std::string::npos);
    EXPECT_EQ(out.find('\t'), std::string::npos);
    EXPECT_EQ(out.find("bad\nname"), std::string::npos);
    EXPECT_NE(out.find("bad\\nname\\twith\\u0001ctl"),
              std::string::npos);
    // The category is escaped too (it used to be written verbatim).
    EXPECT_NE(out.find("c\\\"at\\\\egory"), std::string::npos);
}

TEST(Trace, EmitsTrackMetadata)
{
    TraceWriter tw;
    tw.complete("work", "cpu", sim::Tick{0}, sim::Tick{1}, 0);
    tw.complete("dma 1B", "dma", sim::Tick{0}, sim::Tick{1},
                TraceWriter::Lanes::dma);
    tw.setProcessName(1, "requests");
    tw.setLaneName(1, TraceWriter::Lanes::requests, "request 1");
    std::ostringstream os;
    tw.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"name\":\"process_name\""), std::string::npos);
    EXPECT_NE(out.find("\"name\":\"thread_name\""), std::string::npos);
    EXPECT_NE(out.find("{\"name\":\"hardware\"}"), std::string::npos);
    EXPECT_NE(out.find("{\"name\":\"core 0\"}"), std::string::npos);
    EXPECT_NE(out.find("{\"name\":\"dma\"}"), std::string::npos);
    EXPECT_NE(out.find("{\"name\":\"requests\"}"), std::string::npos);
    EXPECT_NE(out.find("{\"name\":\"request 1\"}"), std::string::npos);
}

TEST(Trace, EmitsFlowEventPairs)
{
    TraceWriter tw;
    tw.flowStart("req", "flow", sim::Tick{10}, 0, 0, 42);
    tw.flowFinish("req", "flow", sim::Tick{10},
                  TraceWriter::Lanes::requests, 1, 42);
    std::ostringstream os;
    tw.write(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("\"ph\":\"s\""), std::string::npos);
    EXPECT_NE(out.find("\"ph\":\"f\""), std::string::npos);
    EXPECT_NE(out.find("\"bp\":\"e\""), std::string::npos);
    EXPECT_NE(out.find("\"id\":42"), std::string::npos);
}

TEST(Trace, CpuRecordsWorkSpans)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 2});
    TraceWriter tw;
    cpu.setTracer(&tw);

    for (const bool high : {false, true}) {
        sim.spawn([](cpu::CpuSet &c, bool hi) -> Coro<void> {
            co_await c.compute(
                hi ? ioat::sim::Tick{500} : ioat::sim::Tick{1000},
                cpu::CpuSet::kAnyCore, hi);
        }(cpu, high));
    }
    sim.run();

    EXPECT_EQ(tw.eventCount(), 2u);
    std::ostringstream os;
    tw.write(os);
    EXPECT_NE(os.str().find("\"name\":\"app\""), std::string::npos);
    EXPECT_NE(os.str().find("\"name\":\"softirq\""), std::string::npos);
}

TEST(Trace, DmaRecordsTransferSpans)
{
    Simulation sim;
    dma::DmaEngine eng(sim, {});
    TraceWriter tw;
    eng.setTracer(&tw);
    eng.transferAsync(65536, nullptr);
    sim.run();
    EXPECT_EQ(tw.eventCount(), 1u);
    std::ostringstream os;
    tw.write(os);
    EXPECT_NE(os.str().find("dma 65536B"), std::string::npos);
    EXPECT_NE(os.str().find("\"tid\":100"), std::string::npos);
}

TEST(Trace, EndToEndRunProducesPlausibleTimeline)
{
    Simulation sim;
    net::Switch fabric(sim);
    core::Node a(sim, fabric,
                 core::NodeConfig::server(core::IoatConfig::enabled()));
    core::Node b(sim, fabric,
                 core::NodeConfig::server(core::IoatConfig::enabled()));
    TraceWriter tw;
    b.cpu().setTracer(&tw);
    b.dma()->setTracer(&tw);

    sim.spawn([](core::Node &srv) -> Coro<void> {
        auto &l = srv.stack().listen(80);
        tcp::Connection *c = co_await l.accept();
        co_await c->recvAll(sim::kib(256));
    }(b));
    sim.spawn([](core::Node &cl, net::NodeId dst) -> Coro<void> {
        tcp::Connection *c = co_await cl.stack().connect(dst, 80);
        co_await c->send(sim::kib(256));
    }(a, b.id()));
    sim.run();

    // Both CPU work and DMA-engine spans show up.
    std::ostringstream os;
    tw.write(os);
    EXPECT_GT(tw.eventCount(), 10u);
    EXPECT_NE(os.str().find("softirq"), std::string::npos);
    EXPECT_NE(os.str().find("dma "), std::string::npos);
}

TEST(Trace, EachNodeTracesOnItsOwnProcessWithoutOverlap)
{
    // `--trace` attaches one writer to every component the telemetry
    // hub knows.  Each node's CPU and DMA spans must land on its own
    // Chrome process, named after the node, and each DMA channel on
    // its own track, so no two complete events on one (pid, tid)
    // overlap.
    Simulation sim;
    net::Switch fabric(sim);
    const auto cfg =
        core::NodeConfig::server(core::IoatConfig::enabled(), 1);
    core::Node a(sim, fabric, cfg);
    core::Node b(sim, fabric, cfg);
    TraceWriter tw;
    sim.telemetry().attachTracerAll(&tw);

    // A bidirectional stream: both nodes send and receive at once.
    for (core::Node *n : {&a, &b}) {
        n->spawn([](core::Node &srv) -> Coro<void> {
            sock::Listener l(srv.transport(), 80);
            sock::Socket c = co_await l.accept();
            while (co_await c.recv(sim::kib(64)) > 0) {
            }
        }(*n));
    }
    for (auto [from, to] : {std::pair{&a, &b}, std::pair{&b, &a}}) {
        from->spawn([](core::Node &cl, net::NodeId dst) -> Coro<void> {
            sock::Socket c = co_await cl.transport().connect(dst, 80);
            for (;;)
                co_await c.sendAll(sim::kib(64));
        }(*from, to->id()));
    }
    sim.runFor(sim::milliseconds(20));
    sim.telemetry().attachTracerAll(nullptr);

    // Timestamps are exact to the tick, so they convert back.
    std::ostringstream os;
    tw.write(os);
    const std::string out = os.str();

    std::map<int, std::string> processes;
    const std::regex proc_re(R"re("name":"process_name","ph":"M",)re"
                             R"re("pid":(\d+),"args":\{"name":"([^"]*)")re");
    for (std::sregex_iterator it(out.begin(), out.end(), proc_re), end;
         it != end; ++it)
        processes[std::stoi((*it)[1])] = (*it)[2];

    // (pid, tid) -> [start, end) of every complete event, in ticks.
    std::map<std::pair<int, int>, std::vector<std::pair<long, long>>>
        tracks;
    const std::regex span_re(R"re("ph":"X","ts":([^,]+),"dur":([^,]+),)re"
                             R"re("pid":(\d+),"tid":(\d+))re");
    for (std::sregex_iterator it(out.begin(), out.end(), span_re), end;
         it != end; ++it) {
        const long start = std::lround(std::stod((*it)[1]) * 1e3);
        const long dur = std::lround(std::stod((*it)[2]) * 1e3);
        tracks[{std::stoi((*it)[3]), std::stoi((*it)[4])}].push_back(
            {start, start + dur});
    }

    std::set<std::string> span_processes;
    for (const auto &[track, spans] : tracks)
        span_processes.insert(processes[track.first]);
    EXPECT_EQ(span_processes,
              (std::set<std::string>{"node" + std::to_string(a.id()),
                                     "node" + std::to_string(b.id())}));

    std::size_t spans_seen = 0;
    std::size_t dma_tracks = 0;
    for (auto &[track, spans] : tracks) {
        if (track.second >= TraceWriter::Lanes::dma)
            ++dma_tracks;
        std::sort(spans.begin(), spans.end());
        spans_seen += spans.size();
        for (std::size_t i = 1; i < spans.size(); ++i)
            EXPECT_GE(spans[i].first, spans[i - 1].second)
                << "overlap on pid " << track.first << " tid "
                << track.second;
    }
    EXPECT_GT(spans_seen, 100u);
    EXPECT_GT(dma_tracks, 1u); // both nodes copy through their engines
}

TEST(Trace, ClearDropsEvents)
{
    TraceWriter tw;
    tw.complete("x", "c", sim::Tick{0}, sim::Tick{1}, 0);
    tw.clear();
    EXPECT_EQ(tw.eventCount(), 0u);
}

} // namespace
