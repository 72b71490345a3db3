/**
 * @file
 * Telemetry subsystem tests (`ctest -L telemetry`):
 *
 *  - Histogram bucket math: exact buckets below the linear limit,
 *    bounded relative error above it, quantile estimates.
 *  - Sampler: delta vs gauge semantics, the max-samples termination
 *    guarantee, byte-identical series across identical runs, and the
 *    sampling-changes-nothing contract (enabling the sampler must not
 *    perturb model outcomes).
 *  - Session: components added outside the Hub are sampled from the
 *    first tick, and the two timeline encoders (RunReport series and
 *    OpenMetrics rows) describe the same samples.
 *  - RunReport: emitted JSON carries every required key (schema,
 *    bench, gitRev, config echo, dotted stats, histograms with
 *    quantiles, series, flows), escapes hostile names and is
 *    byte-deterministic; CSV export round-trips the series.
 */

#include <cstdint>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/node.hh"
#include "net/switch.hh"
#include "simcore/telemetry.hh"
#include "sock/socket.hh"

using namespace ioat;
using core::IoatConfig;
using core::Node;
using core::NodeConfig;
using sim::Coro;
using sim::Simulation;
using sim::telemetry::Histogram;
using sim::telemetry::OpenMetricsWriter;
using sim::telemetry::ProbeKind;
using sim::telemetry::Registry;
using sim::telemetry::RunReport;
using sim::telemetry::Sampler;
using sim::telemetry::Session;

namespace {

// ---- Histogram -----------------------------------------------------

TEST(Histogram, ExactBucketsBelowLinearLimit)
{
    for (std::uint64_t v = 0; v < Histogram::kLinearLimit; ++v) {
        EXPECT_EQ(Histogram::bucketIndex(v), v);
        EXPECT_EQ(Histogram::bucketUpperBound(
                      Histogram::bucketIndex(v)),
                  v);
    }
}

TEST(Histogram, BoundedRelativeErrorAboveLinearLimit)
{
    // Any value's bucket upper bound overshoots by at most 1/2^P.
    for (std::uint64_t v : {std::uint64_t{16}, std::uint64_t{17},
                            std::uint64_t{100}, std::uint64_t{1000},
                            std::uint64_t{65535}, std::uint64_t{65536},
                            std::uint64_t{1} << 30,
                            (std::uint64_t{1} << 40) + 12345}) {
        const std::uint64_t hi =
            Histogram::bucketUpperBound(Histogram::bucketIndex(v));
        EXPECT_GE(hi, v) << "v=" << v;
        const double rel = static_cast<double>(hi - v) /
                           static_cast<double>(v);
        EXPECT_LE(rel, 1.0 / (1u << Histogram::kPrecisionBits))
            << "v=" << v << " hi=" << hi;
    }
}

TEST(Histogram, BucketIndexMonotonic)
{
    unsigned prev = Histogram::bucketIndex(0);
    for (std::uint64_t v = 1; v < 100000; v += 7) {
        const unsigned idx = Histogram::bucketIndex(v);
        EXPECT_GE(idx, prev) << "v=" << v;
        prev = idx;
    }
}

TEST(Histogram, QuantilesOnUniformSamples)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.sample(v);

    EXPECT_EQ(h.count(), 100u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_NEAR(h.mean(), 50.5, 1e-9);

    // Estimates are bucket upper bounds: within 12.5% above the truth.
    EXPECT_GE(h.p50(), 50u);
    EXPECT_LE(h.p50(), 57u);
    EXPECT_GE(h.p95(), 95u);
    EXPECT_LE(h.p95(), 100u);
    EXPECT_GE(h.p99(), 99u);
    EXPECT_LE(h.p99(), 100u);
    // q=1.0 is exactly the max, never a bucket bound.
    EXPECT_EQ(h.quantile(1.0), 100u);
}

TEST(Histogram, EmptyAndReset)
{
    Histogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_EQ(h.p99(), 0u);

    h.sample(42);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.quantile(0.5), 42u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.max(), 0u);
}

// ---- Sampler -------------------------------------------------------

TEST(Sampler, DeltaAndGaugeSemantics)
{
    Simulation sim;
    Registry reg;
    double counter = 0.0;
    reg.probe("count", ProbeKind::delta, [&counter] { return counter; });
    reg.probe("level", ProbeKind::gauge, [&counter] { return counter; });

    // One +1 bump in the middle of each of the first 10 intervals.
    for (int i = 0; i < 10; ++i)
        sim.queue().scheduleIn(sim::microseconds(5 + 10 * i),
                               [&counter] { counter += 1.0; });

    Sampler sampler(sim, reg, sim::microseconds(10));
    sampler.start();
    sim.run();

    // The cap both bounds the timeline and guarantees run() terminated.
    EXPECT_EQ(sampler.samplesTaken(), Sampler::kMaxSamples);
    EXPECT_FALSE(sampler.running());

    ASSERT_EQ(sampler.probeReadings(0).size(), Sampler::kMaxSamples);
    ASSERT_EQ(sampler.probeReadings(1).size(), Sampler::kMaxSamples);
    double sum = 0.0;
    for (std::size_t i = 0; i < Sampler::kMaxSamples; ++i) {
        EXPECT_DOUBLE_EQ(sampler.seriesValue(0, i), i < 10 ? 1.0 : 0.0)
            << "i=" << i;
        sum += sampler.seriesValue(0, i);
    }
    EXPECT_DOUBLE_EQ(sum, counter); // deltas reassemble the counter
    EXPECT_DOUBLE_EQ(sampler.seriesValue(1, 0), 1.0);
    EXPECT_DOUBLE_EQ(sampler.seriesValue(1, 15), 10.0);
    // Both kinds keep the raw reading; only the series differ.
    EXPECT_EQ(sampler.probeReadings(0), sampler.probeReadings(1));

    // The timeline metadata positions every sample.
    EXPECT_EQ(sampler.interval(), sim::microseconds(10));
    EXPECT_EQ(sampler.timeAt(0), sim::microseconds(10));
}

// Two-node stream used by the end-to-end telemetry tests.
Coro<void>
sinkTask(Node &node)
{
    sock::Listener listener(node.transport(), 5001);
    sock::Socket c = co_await listener.accept();
    for (;;) {
        if (co_await c.recv(64 * 1024) == 0)
            co_return;
    }
}

Coro<void>
senderTask(Node &node, net::NodeId dst)
{
    sock::Socket c = co_await node.transport().connect(dst, 5001);
    for (;;)
        co_await c.sendAll(64 * 1024);
}

/** Run the standard stream; return receiver payload bytes. */
std::uint64_t
runStream(bool with_sampling)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    Node a(sim, fabric, NodeConfig::server(IoatConfig::enabled(), 1));
    Node b(sim, fabric, NodeConfig::server(IoatConfig::enabled(), 1));

    std::optional<Session> session;
    if (with_sampling)
        session.emplace(sim, sim::microseconds(100));

    sim.spawn(sinkTask(b));
    sim.spawn(senderTask(a, b.id()));
    sim.runFor(sim::milliseconds(20));
    return b.stack().rxPayloadBytes();
}

TEST(Sampler, SamplingDoesNotPerturbTheModel)
{
    // The pay-for-what-you-use contract: probes only read model
    // state, so the workload outcome must be bit-identical with the
    // sampler on or off.
    EXPECT_EQ(runStream(false), runStream(true));
}

/** Render the full instrumented-run report as a JSON string. */
std::string
reportJson()
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    Node a(sim, fabric, NodeConfig::server(IoatConfig::enabled(), 1));
    Node b(sim, fabric, NodeConfig::server(IoatConfig::enabled(), 1));

    Session session(sim, sim::microseconds(100));
    sim.spawn(sinkTask(b));
    sim.spawn(senderTask(a, b.id()));
    sim.runFor(sim::milliseconds(20));

    RunReport report;
    report.setBench("test_telemetry");
    report.addConfig("streams", "1");
    // A hostile name: a quote, a newline and a raw control byte.
    report.addConfig("odd\"key\nwith\x01" "ctl", "2");
    session.captureInto(report);

    std::ostringstream os;
    report.writeJson(os);
    return os.str();
}

TEST(Sampler, IdenticalRunsProduceIdenticalReports)
{
    // Series content, flow tables and report bytes are all pure
    // functions of the simulated run.
    EXPECT_EQ(reportJson(), reportJson());
}

// ---- Session: one timeline, two encoders ---------------------------

/** A component the Hub doesn't know: a gauge and a delta probe over
 *  one counter that already reads 100 when sampling starts. */
struct Ticker : sim::telemetry::Instrumented
{
    double count = 100.0;

    void
    instrument(Registry &reg) override
    {
        reg.probe("level", ProbeKind::gauge, [this] { return count; });
        reg.probe("bumps", ProbeKind::delta, [this] { return count; });
    }
};

TEST(Session, AddedComponentIsSampledFromTheFirstTick)
{
    Simulation sim;
    Ticker ticker;
    // One +1 bump every 10 us: ten per 100 us sampling interval.
    for (int i = 0; i < 30; ++i)
        sim.queue().scheduleIn(sim::microseconds(5 + 10 * i),
                               [&ticker] { ticker.count += 1.0; });
    Session session(sim, sim::microseconds(100));
    session.add("ticker", ticker);
    sim.runUntil(sim::microseconds(300));
    ASSERT_EQ(session.sampler().samplesTaken(), 3u);

    RunReport report;
    session.captureInto(report);
    std::ostringstream rj;
    report.writeJson(rj);
    const std::string json = rj.str();
    // The Session's interval, and a first delta of one interval's
    // increase (not the counter's whole value).
    EXPECT_NE(json.find("\"ticker.level\": {\"kind\": \"gauge\", "
                        "\"startTick\": 0, \"intervalTicks\": 100000, "
                        "\"values\": [110, 120, 130]}"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find("\"ticker.bumps\": {\"kind\": \"delta\", "
                        "\"startTick\": 0, \"intervalTicks\": 100000, "
                        "\"values\": [10, 10, 10]}"),
              std::string::npos)
        << json;

    std::ostringstream om;
    OpenMetricsWriter(session.sampler()).writeText(om);
    const std::string text = om.str();
    EXPECT_NE(text.find("# TYPE ioat_level gauge\n"
                        "ioat_level{instance=\"ticker\"} 110 100000\n"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("# TYPE ioat_bumps counter\n"
                        "ioat_bumps{instance=\"ticker\"} 110 100000\n"
                        "ioat_bumps{instance=\"ticker\"} 120 200000\n"
                        "ioat_bumps{instance=\"ticker\"} 130 300000\n"),
              std::string::npos)
        << text;

    // Added after the first sample, its series would be misaligned.
    Ticker late;
    EXPECT_DEATH(session.add("late", late), "after the first sample");
}

/** One report series: its timeline and its values as written. */
struct ReportSeries
{
    std::uint64_t startTick = 0;
    std::uint64_t intervalTicks = 0;
    std::vector<std::string> values;
};

/** Parse series @p name out of a RunReport JSON document. */
ReportSeries
reportSeries(const std::string &json, const std::string &name)
{
    ReportSeries out;
    std::size_t at = json.find("\"" + name + "\": {\"kind\"");
    if (at == std::string::npos)
        return out;
    const std::string line = json.substr(at, json.find('\n', at) - at);
    auto field = [&line](const std::string &key) {
        const std::size_t pos = line.find("\"" + key + "\": ");
        return std::strtoull(line.c_str() + pos + key.size() + 4,
                             nullptr, 10);
    };
    out.startTick = field("startTick");
    out.intervalTicks = field("intervalTicks");
    std::string list = line.substr(line.find('[') + 1);
    list = list.substr(0, list.find(']'));
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ','))
        out.values.push_back(item.substr(item.find_first_not_of(' ')));
    return out;
}

/** One OpenMetrics sample line: value as written, and its tick. */
struct MetricRow
{
    std::string value;
    std::uint64_t tick;
};

/** Every `family{instance="instance"} value tick` line, in order. */
std::vector<MetricRow>
metricRows(const std::string &text, const std::string &family,
           const std::string &instance)
{
    const std::string prefix =
        family + "{instance=\"" + instance + "\"} ";
    std::vector<MetricRow> rows;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, prefix.size(), prefix) != 0)
            continue;
        std::istringstream fields(line.substr(prefix.size()));
        MetricRow row;
        fields >> row.value >> row.tick;
        rows.push_back(row);
    }
    return rows;
}

TEST(Session, ReportAndOpenMetricsEncodeTheSameSamples)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    Node a(sim, fabric, NodeConfig::server(IoatConfig::enabled(), 1));
    Node b(sim, fabric, NodeConfig::server(IoatConfig::enabled(), 1));
    sim.spawn(sinkTask(b));
    sim.spawn(senderTask(a, b.id()));
    sim.runFor(sim::milliseconds(1)); // the timeline starts mid-run
    Session session(sim, sim::microseconds(100));
    sim.runFor(sim::milliseconds(5));

    RunReport report;
    session.captureInto(report);
    ASSERT_EQ(session.sampler().startTick(), sim::milliseconds(1));
    std::ostringstream rj, om;
    report.writeJson(rj);
    OpenMetricsWriter(session.sampler()).writeText(om);

    // A gauge: the OpenMetrics rows are the report series, value for
    // value, and row i sits at startTick + intervalTicks * (i + 1).
    const ReportSeries busy =
        reportSeries(rj.str(), "node1.cpu.busyCores");
    const auto busyRows =
        metricRows(om.str(), "ioat_cpu_busyCores", "node1");
    ASSERT_EQ(busy.values.size(), 50u);
    ASSERT_EQ(busyRows.size(), busy.values.size());
    bool busyMoved = false;
    for (std::size_t i = 0; i < busyRows.size(); ++i) {
        EXPECT_EQ(busyRows[i].value, busy.values[i]) << "i=" << i;
        EXPECT_EQ(busyRows[i].tick,
                  busy.startTick + busy.intervalTicks * (i + 1))
            << "i=" << i;
        busyMoved |= busy.values[i] != "0";
    }
    EXPECT_TRUE(busyMoved) << "the receiver's cores never looked busy";

    // A delta: from the second sample on, each report value is the
    // difference of consecutive counter rows.
    const ReportSeries wire =
        reportSeries(rj.str(), "node1.nic.wireBytes");
    const auto wireRows =
        metricRows(om.str(), "ioat_nic_wireBytes", "node1");
    ASSERT_EQ(wire.values.size(), 50u);
    ASSERT_EQ(wireRows.size(), wire.values.size());
    double moved = 0.0;
    for (std::size_t i = 0; i < wireRows.size(); ++i) {
        EXPECT_EQ(wireRows[i].tick,
                  wire.startTick + wire.intervalTicks * (i + 1))
            << "i=" << i;
        if (i == 0)
            continue;
        const double v = std::strtod(wire.values[i].c_str(), nullptr);
        EXPECT_EQ(v, std::strtod(wireRows[i].value.c_str(), nullptr) -
                         std::strtod(wireRows[i - 1].value.c_str(),
                                     nullptr))
            << "i=" << i;
        moved += v;
    }
    EXPECT_GT(moved, 0.0) << "no wire bytes crossed the receiver's NIC";
}

// ---- RunReport -----------------------------------------------------

TEST(RunReport, JsonCarriesRequiredKeys)
{
    const std::string json = reportJson();

    // Run metadata.
    EXPECT_NE(json.find("\"schema\": \"ioat-run-report-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bench\": \"test_telemetry\""),
              std::string::npos);
    EXPECT_NE(json.find("\"gitRev\""), std::string::npos);
    EXPECT_NE(json.find("\"config\""), std::string::npos);
    EXPECT_NE(json.find("\"streams\": \"1\""), std::string::npos);

    // Dotted-name stats from the Hub walk (two nodes -> node0/node1).
    EXPECT_NE(json.find("\"node0.cpu."), std::string::npos);
    EXPECT_NE(json.find("\"node1.cpu."), std::string::npos);
    EXPECT_NE(json.find("\"node0.tcp."), std::string::npos);
    EXPECT_NE(json.find("\"fabric0."), std::string::npos);

    // At least one histogram with quantiles and one time series.
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"p50\""), std::string::npos);
    EXPECT_NE(json.find("\"p95\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"max\""), std::string::npos);
    EXPECT_NE(json.find("\"series\""), std::string::npos);
    EXPECT_NE(json.find("\"sim.events\""), std::string::npos);
    EXPECT_NE(json.find("\"intervalTicks\": 100000"),
              std::string::npos);

    // Flow telemetry for the one connection.
    EXPECT_NE(json.find("\"flows\""), std::string::npos);
    EXPECT_NE(json.find("\"bytesReceived\""), std::string::npos);
    EXPECT_NE(json.find("\"handshakeTicks\""), std::string::npos);

    // The hostile config key is escaped, never written raw.
    EXPECT_EQ(json.find('\x01'), std::string::npos);
    EXPECT_EQ(json.find("key\nwith"), std::string::npos);
    EXPECT_NE(json.find("\"odd\\\"key\\nwith\\u0001ctl\": \"2\""),
              std::string::npos);
}

TEST(RunReport, CsvExportsSeries)
{
    Simulation sim;
    Registry reg;
    double v = 0.0;
    reg.probe("signal", ProbeKind::gauge, [&v] { return v; });
    sim.queue().scheduleIn(sim::microseconds(15), [&v] { v = 2.5; });

    Sampler sampler(sim, reg, sim::microseconds(10));
    sampler.start();
    sim.runUntil(sim::microseconds(30));
    sampler.stop();
    ASSERT_EQ(sampler.samplesTaken(), 3u);

    RunReport report;
    report.capture(sampler, sim.now());

    std::ostringstream os;
    report.writeCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("series,tick,value\n"), std::string::npos);
    EXPECT_NE(csv.find("signal,10000,0\n"), std::string::npos);
    EXPECT_NE(csv.find("signal,20000,2.5\n"), std::string::npos);
    EXPECT_NE(csv.find("signal,30000,2.5\n"), std::string::npos);
}

TEST(Registry, ScopesBuildDottedNames)
{
    Registry reg;
    {
        Registry::Scope outer(reg, "node0");
        {
            Registry::Scope inner(reg, "cpu");
            reg.scalar("utilization", [] { return 0.5; });
        }
        reg.scalar("top", [] { return 1.0; });
    }
    ASSERT_EQ(reg.scalars().size(), 2u);
    EXPECT_EQ(reg.scalars()[0].name, "node0.cpu.utilization");
    EXPECT_EQ(reg.scalars()[1].name, "node0.top");
}

} // namespace
