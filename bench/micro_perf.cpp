/**
 * @file
 * Engine micro-benchmarks (google-benchmark): raw costs of the
 * simulation substrate itself — event queue, coroutine scheduling,
 * model evaluations.  Not a paper figure; used to keep the simulator
 * fast enough for the full sweeps.
 */

#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common.hh"
#include "core/calibration.hh"
#include "core/node.hh"
#include "dma/dma_engine.hh"
#include "mem/copy_model.hh"
#include "net/switch.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using core::IoatConfig;
using core::Node;
using core::NodeConfig;
using sim::Coro;
using sim::Simulation;

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    for (auto _ : state) {
        sim::EventQueue eq;
        int sink = 0;
        for (int i = 0; i < 1000; ++i)
            eq.schedule(static_cast<sim::Tick>(i), [&sink] { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_CoroutineSpawnResume(benchmark::State &state)
{
    for (auto _ : state) {
        Simulation sim;
        for (int i = 0; i < 100; ++i) {
            sim.spawn([](Simulation &s) -> Coro<void> {
                co_await s.delay(ioat::sim::Tick{1});
                co_await s.delay(ioat::sim::Tick{1});
            }(sim));
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_CoroutineSpawnResume);

void
BM_SemaphoreHandoff(benchmark::State &state)
{
    for (auto _ : state) {
        Simulation sim;
        sim::Semaphore sem(sim, 1);
        for (int i = 0; i < 100; ++i) {
            sim.spawn([](Simulation &s, sim::Semaphore &sm) -> Coro<void> {
                co_await sm.acquire();
                co_await s.delay(ioat::sim::Tick{1});
                sm.release();
            }(sim, sem));
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SemaphoreHandoff);

void
BM_CopyModelEvaluate(benchmark::State &state)
{
    mem::CopyModel cm(core::calibration::serverCopy());
    std::size_t sz = 1024;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cm.copyTime(ioat::sim::Bytes{sz}, 0.5, 1.2));
        sz = sz < (1u << 20) ? sz * 2 : 1024;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CopyModelEvaluate);

void
BM_ZipfSample(benchmark::State &state)
{
    sim::ZipfDistribution zipf(20000, 0.9);
    sim::Rng rng(42);
    for (auto _ : state)
        benchmark::DoNotOptimize(zipf.sample(rng));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ZipfSample);

void
BM_FaultInjectorNodeDown(benchmark::State &state)
{
    // nodeDown() sits on the per-packet delivery path; with many
    // outage windows it must stay O(log #windows-per-node), not a
    // scan of the whole schedule.
    const auto windows = static_cast<std::uint64_t>(state.range(0));
    sim::FaultInjector faults(7);
    for (std::uint64_t i = 0; i < windows; ++i)
        faults.addOutage(static_cast<std::uint32_t>(i % 64),
                         ioat::sim::microseconds(10000 * i + 1000),
                         ioat::sim::microseconds(10000 * i + 2000));
    std::uint64_t t = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(faults.nodeDown(
            static_cast<std::uint32_t>(t % 64),
            ioat::sim::microseconds((t * 997) % (10000 * windows))));
        ++t;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultInjectorNodeDown)->Arg(16)->Arg(1024)->Arg(16384);

void
BM_DmaEngineTransferSim(benchmark::State &state)
{
    for (auto _ : state) {
        Simulation sim;
        dma::DmaEngine eng(sim, core::calibration::ioatDma());
        for (int i = 0; i < 64; ++i)
            eng.transferAsync(65536, nullptr);
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_DmaEngineTransferSim);

// ---- TCP stream workloads ------------------------------------------
//
// End-to-end hot-path throughput: full nodes (NIC + stack + CPU model)
// streaming 64K chunks.  items/sec in the report is simulator
// *events/sec* — the headline number for comparing event-loop and
// stack changes across trees.  The cluster variant carries the large
// event population (64 concurrent flows plus their RTO bookkeeping)
// where calendar-queue behaviour dominates heap behaviour.

Coro<void>
perfSinkLoop(Node &node, std::uint16_t port, std::size_t chunk)
{
    sock::Listener listener(node.transport(), port);
    for (;;) {
        sock::Socket c = co_await listener.accept();
        node.simulation().spawn(
            [](sock::Socket conn, std::size_t ck) -> Coro<void> {
                for (;;) {
                    const std::size_t got = co_await conn.recvAll(ck);
                    if (got == 0)
                        co_return;
                }
            }(c, chunk));
    }
}

Coro<void>
perfSenderLoop(Node &node, net::NodeId dst, std::uint16_t port,
               std::size_t chunk)
{
    sock::Socket c = co_await node.transport().connect(dst, port);
    for (;;)
        co_await c.sendAll(chunk);
}

std::uint64_t
runStreamWorkload(unsigned senderNodes, unsigned flowsPerNode,
                  sim::Tick duration)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    const NodeConfig cfg = NodeConfig::server(IoatConfig::disabled(), 1);
    Node sink(sim, fabric, cfg);
    std::vector<std::unique_ptr<Node>> senders;
    for (unsigned i = 0; i < senderNodes; ++i)
        senders.push_back(std::make_unique<Node>(sim, fabric, cfg));

    const std::size_t chunk = 64 * 1024;
    for (unsigned p = 0; p < senderNodes * flowsPerNode; ++p)
        sim.spawn(perfSinkLoop(sink, static_cast<std::uint16_t>(5001 + p), chunk));
    for (unsigned i = 0; i < senderNodes; ++i)
        for (unsigned f = 0; f < flowsPerNode; ++f)
            sim.spawn(perfSenderLoop(
                *senders[i], sink.id(),
                static_cast<std::uint16_t>(5001 + i * flowsPerNode + f),
                chunk));
    sim.runFor(duration);
    return sim.queue().executedEvents();
}

void
BM_TcpStream2Node(benchmark::State &state)
{
    std::uint64_t events = 0;
    for (auto _ : state)
        events += runStreamWorkload(1, 1, sim::milliseconds(200));
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TcpStream2Node)->Unit(benchmark::kMillisecond);

void
BM_TcpStreamCluster(benchmark::State &state)
{
    // 16 sender nodes x 4 flows into one sink node.
    std::uint64_t events = 0;
    for (auto _ : state)
        events += runStreamWorkload(16, 4, sim::milliseconds(50));
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_TcpStreamCluster)->Unit(benchmark::kMillisecond);

/** Instrumented 2-node stream for --report/--trace artifacts. */
void
reportRun(const ioat::bench::Options &opts)
{
    Simulation sim;
    net::Switch fabric(sim, sim::nanoseconds(2000));
    const NodeConfig cfg = NodeConfig::server(IoatConfig::disabled(), 1);
    Node sink(sim, fabric, cfg);
    Node sender(sim, fabric, cfg);
    ioat::bench::TelemetryRun tr(sim, opts);
    const std::size_t chunk = 64 * 1024;
    sim.spawn(perfSinkLoop(sink, 5001, chunk));
    sim.spawn(perfSenderLoop(sender, sink.id(), 5001, chunk));
    sim.runFor(sim::milliseconds(50));
    tr.finish({{"workload", "stream_2node"},
               {"chunkBytes", std::to_string(chunk)}});
}

} // namespace

int
main(int argc, char **argv)
{
    // The Options flags are ours; everything else belongs to
    // google-benchmark.  Split argv before handing it over.
    ioat::bench::Options opts("micro_perf");
    std::vector<char *> gbench_argv{argv[0]};
    std::vector<char *> our_argv{argv[0]};
    for (int i = 1; i < argc; ++i) {
        if (ioat::bench::Options::isFlag(argv[i])) {
            our_argv.push_back(argv[i]);
            if (i + 1 < argc)
                our_argv.push_back(argv[++i]);
        } else {
            gbench_argv.push_back(argv[i]);
        }
    }
    int our_argc = static_cast<int>(our_argv.size());
    return ioat::bench::benchMain(
        our_argc, our_argv.data(), opts,
        [&](const ioat::bench::Options &) {
            int gbench_argc = static_cast<int>(gbench_argv.size());
            benchmark::Initialize(&gbench_argc, gbench_argv.data());
            // An unknown flag exits 2, as in every other bench.
            if (benchmark::ReportUnrecognizedArguments(
                    gbench_argc, gbench_argv.data()))
                return 2;
            if (opts.instrumented())
                reportRun(opts);
            benchmark::RunSpecifiedBenchmarks();
            benchmark::Shutdown();
            return 0;
        });
}
