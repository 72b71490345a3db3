/**
 * @file
 * Simulator benchmark: the `perfbench` binary.
 *
 * Runs one workload's sweep of simulated clusters — `stream` (ttcp),
 * `datacenter` (2-tier proxy + web server) or `pvfs` (reads and
 * writes) — point after point on one thread, and repeats the sweep
 * until a host-time budget is spent.  Every sweep is timed at the
 * benchmark's own calls into the layers: cluster construction
 * (`core`), tier construction and start (`sock`, `datacenter`,
 * `pvfs`), each `Simulation::runFor` (`run`) and destruction
 * (`teardown`).  Host time is read at a reference speed (HostClock).
 * Traced sweeps (`--trace 1`) also time each 1 ms simulated slice of
 * every runFor and turn on the simulator's request tracer; they
 * alternate with untraced sweeps so the tracing overhead can be
 * measured.
 *
 * Output is one JSON document on stdout: per-sweep host timings,
 * every point's simulated results and exact per-layer work counts,
 * and any conservation violation, named by point.  run.py builds this
 * binary, checks the results and prints the benchmark's metrics.
 *
 * usage: perfbench --workload stream|datacenter|pvfs [--seed n]
 *                  [--seconds s] [--trace 0|1] [--tiny] [--spans file]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "core/app_memory.hh"
#include "core/testbed.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "pvfs/client.hh"
#include "pvfs/fs_state.hh"
#include "pvfs/server.hh"
#include "simcore/reqtrace.hh"
#include "simcore/sim.hh"
#include "sock/socket.hh"

using namespace ioat;
using sim::Coro;
using sim::Simulation;
using sim::Tick;
using Clock = std::chrono::steady_clock;

namespace {

// ---------------------------------------------------------------------
// Host-time spans
// ---------------------------------------------------------------------

double
hostSeconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

/**
 * Host time read against a reference kernel.
 *
 * A shared host runs the same code at speeds up to twice apart, in
 * spells of a few seconds, so raw host time measures the neighbours
 * as much as the simulator.  Every kPeriod of host time this clock
 * runs a short fixed kernel, a discrete-event loop that shares no code
 * with the simulator, and until the next one it advances at
 * kKernelNominal / (the kernel's duration).  Its readings are host
 * seconds at the speed at which the kernel takes kKernelNominal; the
 * kernel's own time is not counted.
 */
class HostClock
{
  public:
    /**
     * Kernel duration that defines reference speed (host seconds).  It
     * only sets the scale of the readings, which compare only with
     * readings against this same kernel.  Between the simulator's
     * slices on a shared 4-core Xeon VM the kernel takes 3 to 6 ms.
     */
    static constexpr double kKernelNominal = 2.5e-3;
    static constexpr Clock::duration kPeriod = std::chrono::milliseconds(40);

    HostClock() : anchor_(Clock::now()) { calibrate(); }

    /** Reference-speed seconds since construction. */
    double
    now()
    {
        poll();
        return norm_ + hostSeconds(Clock::now() - anchor_) * scale_;
    }

    /** Run the kernel if the last run is a period old. */
    void
    poll()
    {
        if (Clock::now() - anchor_ >= kPeriod)
            calibrate();
    }

    /** Every kernel duration measured so far (host seconds). */
    const std::vector<double> &kernelSeconds() const { return kernels_; }

    /** Run the kernel now and read the host speed afresh. */
    void
    calibrate()
    {
        norm_ += hostSeconds(Clock::now() - anchor_) * scale_;
        const Clock::time_point t0 = Clock::now();
        kernel();
        kernels_.push_back(hostSeconds(Clock::now() - t0));
        scale_ = kKernelNominal / kernels_.back();
        anchor_ = Clock::now();
    }

  private:
    /**
     * A binary-heap event queue pops 20 000 events; each touches a
     * random 64-byte slot of a 512 KiB table, allocates and frees a
     * small frame, and schedules a successor.
     */
    void
    kernel()
    {
        struct Ev
        {
            std::uint64_t when;
            std::uint32_t slot;
            bool operator>(const Ev &o) const { return when > o.when; }
        };
        constexpr std::uint32_t kSlots = 8192;
        std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q;
        std::uint64_t x = 88172645463325252ull;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        for (std::uint32_t i = 0; i < 1024; ++i)
            q.push(Ev{next() & 1023,
                      static_cast<std::uint32_t>(next() % kSlots)});
        std::uint64_t sum = 0;
        for (int n = 0; n < 20000; ++n) {
            const Ev e = q.top();
            q.pop();
            Slot &s = table_[e.slot];
            const std::uint64_t r = next();
            s.v[r & 7] += e.when ^ r;
            auto frame = std::make_unique<std::uint64_t[]>(16);
            frame[r & 15] = s.v[(r >> 3) & 7];
            sum += frame[r & 15];
            q.push(Ev{e.when + 1 + ((r >> 40) & 1023),
                      static_cast<std::uint32_t>((s.v[0] ^ r) % kSlots)});
        }
        sink_ = sum;
    }

    struct alignas(64) Slot
    {
        std::uint64_t v[8];
    };

    std::vector<Slot> table_ = std::vector<Slot>(8192);
    /** The kernel's result, kept so the loop is not elided. */
    volatile std::uint64_t sink_ = 0;
    std::vector<double> kernels_;
    Clock::time_point anchor_;
    double norm_ = 0.0;
    double scale_ = 1.0;
};

/**
 * Host-time spans around the benchmark's calls into each layer.
 *
 * Every span adds its duration to its boundary's total.  The
 * boundaries the metrics read (core, tier, run, teardown) are leaves
 * in untraced sweeps, so their totals are their self times.  When
 * `keep` is set the spans themselves, with parent links, are kept for
 * the spans file.
 */
class Recorder
{
  public:
    struct Span
    {
        std::string name;
        int parent;
        double t0Us;
        double t1Us;
        std::uint64_t events;
    };

    Recorder(bool traced, bool keep, HostClock &clock)
        : traced_(traced), keep_(keep), clock_(clock)
    {}

    bool traced() const { return traced_; }

    /** Read the host speed afresh, so every point starts alike. */
    void calibrate() { clock_.calibrate(); }

    void
    begin(const std::string &boundary, std::string label = {})
    {
        open_.push_back(Open{boundary, clock_.now(),
                             keep_ ? static_cast<int>(spans_.size()) : -1});
        if (keep_)
            spans_.push_back(Span{label.empty() ? boundary : label,
                                  parentIndex(), 0, 0, 0});
    }

    /** Close the innermost span; @return its duration in seconds. */
    double
    end(std::uint64_t events = 0)
    {
        const Open o = open_.back();
        open_.pop_back();
        const double t1 = clock_.now();
        const double dur = t1 - o.t0;
        total_[o.boundary] += dur;
        if (o.span >= 0) {
            Span &s = spans_[static_cast<std::size_t>(o.span)];
            s.t0Us = 1e6 * o.t0;
            s.t1Us = 1e6 * t1;
            s.events = events;
        }
        return dur;
    }

    /**
     * Advance @p sim by @p d in 1 ms simulated slices, so the clock
     * can run its kernel between them.  Traced: each slice is a timed
     * span with its event-count delta.
     */
    void
    run(Simulation &sim, Tick d)
    {
        const std::uint64_t ev0 = sim.executedEvents();
        begin("run");
        const Tick until = sim.now() + d;
        while (sim.now() < until) {
            const Tick step =
                std::min(sim::milliseconds(1), until - sim.now());
            if (!traced_) {
                clock_.poll();
                sim.runFor(step);
                continue;
            }
            const std::uint64_t e = sim.executedEvents();
            begin("slice");
            sim.runFor(step);
            sliceUs_.push_back(1e6 * end(sim.executedEvents() - e));
        }
        end(sim.executedEvents() - ev0);
    }

    /** Summed duration of every span of boundary @p b (seconds). */
    double
    total(const std::string &b) const
    {
        const auto it = total_.find(b);
        return it == total_.end() ? 0.0 : it->second;
    }

    const std::vector<double> &sliceUs() const { return sliceUs_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    struct Open
    {
        std::string boundary;
        double t0;
        int span;
    };

    int
    parentIndex() const
    {
        return open_.size() >= 2 ? open_[open_.size() - 2].span : -1;
    }

    bool traced_;
    bool keep_;
    HostClock &clock_;
    std::vector<Open> open_;
    std::map<std::string, double> total_;
    std::vector<double> sliceUs_;
    std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Per-point results and per-layer counts
// ---------------------------------------------------------------------

/** Exact work counters read from the public accessors of each layer. */
const char *const kCountKeys[] = {
    "simcore.events",  "cpu.items",          "cpu.busy_ns",
    "mem.bus_bytes",   "dma.transfers",      "dma.bytes",
    "dma.stalls",      "nic.rx_wire_bytes",  "nic.interrupts",
    "nic.rx_bursts",   "nic.rx_drops",       "net.dead_letters",
    "tcp.rx_segments", "tcp.rx_payload_bytes", "tcp.cpu_copies",
    "tcp.dma_copies",  "tcp.retransmits",    "xpt.poll_passes",
    "xpt.rx_bursts",   "xpt.credit_stalls",  "xpt.retransmits",
};

using Counts = std::map<std::string, std::uint64_t>;

struct PointResult
{
    std::string name;
    /** Simulated results the benchmark pins (throughput, CPU, ...). */
    std::vector<std::pair<std::string, double>> results;
    Counts counts;
    /** Operations issued and failed (sends, requests, PVFS calls). */
    std::uint64_t issued = 0;
    std::uint64_t failed = 0;
    /** Receiver-side CPU utilization over the measurement window. */
    double rxUtil = 0.0;
    /** Host seconds building the cluster and starting its tiers. */
    double setupS = 0.0;
    std::vector<std::string> violations;

    void
    check(bool ok, const std::string &what)
    {
        if (!ok)
            violations.push_back(name + ": " + what);
    }
};

void
addNode(Counts &c, core::Node &n)
{
    c["cpu.items"] += n.cpu().completedItems();
    c["cpu.busy_ns"] += n.cpu().totalBusyTicks().count();
    c["mem.bus_bytes"] += n.bus().totalBytes();
    if (dma::DmaEngine *d = n.dma()) {
        c["dma.transfers"] += d->completedTransfers();
        c["dma.bytes"] += d->bytesCopied();
        c["dma.stalls"] += d->dmaStalls();
    }
    nic::Nic &nic = n.nic();
    c["nic.rx_wire_bytes"] += nic.rxWireBytes();
    c["nic.interrupts"] += nic.interrupts();
    c["nic.rx_bursts"] += nic.rxBursts();
    c["nic.rx_drops"] += nic.rxOverflowDrops() + nic.rxFaultDrops();
    tcp::TcpStack &tcp = n.stack();
    c["tcp.rx_segments"] += tcp.rxSegments();
    c["tcp.rx_payload_bytes"] += tcp.rxPayloadBytes();
    c["tcp.cpu_copies"] += tcp.cpuCopies();
    c["tcp.dma_copies"] += tcp.dmaOffloadedCopies();
    c["tcp.retransmits"] += tcp.retransmits();
    if (xpt::BypassStack *b = n.bypassStack()) {
        c["xpt.poll_passes"] += b->pollPasses();
        c["xpt.rx_bursts"] += b->rxBursts();
        c["xpt.credit_stalls"] += b->creditStalls();
        c["xpt.retransmits"] += b->retransmits();
    }
}

/** Counts for every node of @p tb plus the engine and the switch. */
Counts
clusterCounts(Simulation &sim, core::Testbed &tb)
{
    Counts c;
    for (const char *k : kCountKeys)
        c[k] = 0;
    c["simcore.events"] = sim.executedEvents();
    c["net.dead_letters"] = tb.fabric().deadLetters();
    for (std::size_t i = 0; i < tb.serverCount(); ++i)
        addNode(c, tb.server(i));
    for (std::size_t i = 0; i < tb.clientCount(); ++i)
        addNode(c, tb.client(i));
    return c;
}

/** Measurement windows in simulated time. */
struct Windows
{
    Tick warmup;
    Tick window;
};

/** Category shares of traced request latency, summed over a sweep. */
struct Shares
{
    Tick cat[sim::kCostCatCount] = {};

    void
    add(const sim::RequestTracer *rt)
    {
        if (!rt)
            return;
        for (const auto &r : rt->requests())
            if (r.done)
                for (std::size_t i = 0; i < sim::kCostCatCount; ++i)
                    cat[i] += r.breakdown.cat[i];
    }
};

/** Run the warm-up, then restart the nodes' CPU utilization windows. */
void
warmup(Recorder &rec, Simulation &sim, const Windows &w,
       std::initializer_list<core::Node *> nodes)
{
    rec.run(sim, w.warmup);
    for (core::Node *n : nodes)
        n->cpu().resetUtilizationWindow();
}

// ---------------------------------------------------------------------
// stream: bidirectional ttcp between two Testbed-1 nodes
// ---------------------------------------------------------------------

constexpr std::size_t kChunk = 64 * 1024;
constexpr std::uint16_t kStreamPort = 5001;

struct StreamTally
{
    std::uint64_t sendsIssued = 0;
    std::uint64_t sendsDone = 0;
    std::uint64_t appBytes = 0; ///< bytes the sinks received
};

Coro<void>
sinkConnection(sock::Socket conn, core::AppMemory &mem, StreamTally &t)
{
    mem.reserve(kChunk); // long-lived receive buffer
    for (;;) {
        const std::size_t got = co_await conn.recvAll(kChunk);
        if (got == 0)
            co_return;
        mem.noteBuffer(got);
        t.appBytes += got;
    }
}

Coro<void>
sinkLoop(core::Node &node, core::AppMemory &mem, StreamTally &t)
{
    sock::Listener listener(node.transport(), kStreamPort);
    for (;;) {
        sock::Socket conn = co_await listener.accept();
        node.spawn(sinkConnection(std::move(conn), mem, t));
    }
}

Coro<void>
senderLoop(core::Node &node, net::NodeId dst, StreamTally &t)
{
    sock::Socket conn = co_await node.transport().connect(dst, kStreamPort);
    for (;;) {
        ++t.sendsIssued;
        co_await conn.sendAll(kChunk);
        ++t.sendsDone;
    }
}

enum class Xport { tcp, ioat, bypass };

core::NodeConfig
serverConfig(Xport x, unsigned ports)
{
    core::NodeConfig cfg = core::NodeConfig::server(
        x == Xport::ioat ? core::IoatConfig::enabled()
                         : core::IoatConfig::disabled(),
        ports);
    if (x == Xport::bypass)
        cfg.transport = core::TransportKind::bypass;
    return cfg;
}

PointResult
streamPoint(Recorder &rec, const std::string &name, Xport x,
            unsigned ports, const Windows &w)
{
    PointResult out;
    out.name = name;
    rec.calibrate();
    rec.begin("point", name);

    rec.begin("core");
    auto sim = std::make_unique<Simulation>();
    auto tb = std::make_unique<core::Testbed>(
        *sim, core::TestbedConfig{.serverCount = 2,
                                  .serverConfig = serverConfig(x, ports)});
    const double coreS = rec.end();

    rec.begin("sock");
    core::Node &a = tb->server(0);
    core::Node &b = tb->server(1);
    auto memA = std::make_unique<core::AppMemory>(a.host(), "sinkA");
    auto memB = std::make_unique<core::AppMemory>(b.host(), "sinkB");
    StreamTally toB, toA;
    sim->spawn(sinkLoop(b, *memB, toB));
    sim->spawn(sinkLoop(a, *memA, toA));
    for (unsigned i = 0; i < ports; ++i) {
        sim->spawn(senderLoop(a, b.id(), toB));
        sim->spawn(senderLoop(b, a.id(), toA));
    }
    out.setupS = coreS + rec.end();

    warmup(rec, *sim, w, {&a, &b});
    const std::uint64_t rx0 =
        a.transport().rxPayloadBytes() + b.transport().rxPayloadBytes();
    rec.run(*sim, w.window);
    const std::uint64_t rx1 =
        a.transport().rxPayloadBytes() + b.transport().rxPayloadBytes();

    const double mbps = sim::throughputMbps(rx1 - rx0, w.window);
    out.rxUtil = (a.cpu().utilization() + b.cpu().utilization()) / 2.0;
    out.results = {{"mbps", mbps},
                   {"cpu_a", a.cpu().utilization()},
                   {"cpu_b", b.cpu().utilization()}};
    out.counts = clusterCounts(*sim, *tb);
    out.issued = toA.sendsIssued + toB.sendsIssued;
    out.failed = a.transport().abortedConnections() +
                 b.transport().abortedConnections();

    // Byte conservation per direction: the sinks cannot read more than
    // the receiving transport delivered, nor it more than was sent.
    out.check(toB.appBytes <= b.transport().rxPayloadBytes() &&
                  b.transport().rxPayloadBytes() <=
                      a.transport().txPayloadBytes(),
              "a->b delivered more bytes than were sent");
    out.check(toA.appBytes <= a.transport().rxPayloadBytes() &&
                  a.transport().rxPayloadBytes() <=
                      b.transport().txPayloadBytes(),
              "b->a delivered more bytes than were sent");
    out.check(toA.sendsIssued - toA.sendsDone <= ports &&
                  toB.sendsIssued - toB.sendsDone <= ports,
              "more sends in flight than senders");
    out.check(mbps > 0.0, "no payload moved in the window");

    rec.begin("teardown");
    memB.reset();
    memA.reset();
    tb.reset();
    sim.reset();
    rec.end();
    rec.end();
    return out;
}

std::vector<PointResult>
streamSweep(Recorder &rec, const Windows &w)
{
    std::vector<PointResult> pts;
    const std::pair<const char *, Xport> xports[] = {
        {"tcp", Xport::tcp}, {"ioat", Xport::ioat},
        {"bypass", Xport::bypass}};
    for (const auto &[xname, x] : xports)
        for (unsigned ports : {1u, 6u})
            pts.push_back(streamPoint(rec,
                                      std::string(xname) + "-" +
                                          std::to_string(ports) + "port",
                                      x, ports, w));
    return pts;
}

// ---------------------------------------------------------------------
// datacenter: Fig. 8 2-tier proxy + web server, 64 closed-loop clients
// ---------------------------------------------------------------------

constexpr unsigned kClientNodes = 8;
constexpr unsigned kClientThreads = 64;

struct DcPoint
{
    const char *trace; ///< "4k", "zipf0.95", "zipf0.5"
    double alpha;      ///< 0 for the 4K single-file trace
};

PointResult
dcPoint(Recorder &rec, const std::string &name, bool ioat_on,
        const DcPoint &p, std::uint64_t seed, const Windows &w,
        Shares &shares)
{
    PointResult out;
    out.name = name;
    rec.calibrate();
    rec.begin("point", name);

    rec.begin("core");
    auto sim = std::make_unique<Simulation>();
    if (rec.traced())
        sim->enableRequestTracing();
    auto tb = std::make_unique<core::Testbed>(
        *sim, core::TestbedConfig{
                  .serverCount = 2,
                  .serverConfig = serverConfig(
                      ioat_on ? Xport::ioat : Xport::tcp, 6),
                  .clientCount = kClientNodes,
                  .clientConfig = core::NodeConfig::client(),
              });
    const double coreS = rec.end();

    rec.begin("datacenter");
    std::unique_ptr<dc::Workload> wl;
    if (p.alpha > 0.0)
        wl = std::make_unique<dc::ZipfWorkload>(p.alpha, 20000, 8192);
    else
        wl = std::make_unique<dc::SingleFileWorkload>(4096, 1000);
    dc::DcConfig cfg;
    // The 4K trace runs a pure forwarding proxy (the paper's
    // mod_proxy tier); the Zipf traces cache in 16 MB, so alpha sets
    // the hit ratio.
    cfg.proxyCachingEnabled = p.alpha > 0.0;
    cfg.proxyCacheBytes = p.alpha > 0.0 ? 16u * 1024 * 1024 : 0;
    auto server = std::make_unique<dc::WebServer>(tb->server(1), cfg, *wl);
    auto proxy = std::make_unique<dc::Proxy>(tb->server(0), cfg,
                                             tb->server(1).id());
    server->start();
    proxy->start();
    std::vector<core::Node *> clients;
    for (unsigned i = 0; i < kClientNodes; ++i)
        clients.push_back(&tb->client(i));
    dc::ClientFleet::Options fo;
    fo.target = tb->server(0).id();
    fo.port = cfg.proxyPort;
    fo.threads = kClientThreads;
    fo.rngSeed = seed;
    auto fleet = std::make_unique<dc::ClientFleet>(clients, *wl, fo);
    fleet->start();
    out.setupS = coreS + rec.end();

    warmup(rec, *sim, w, {&tb->server(0), &tb->server(1)});
    const std::uint64_t done0 = fleet->completed();
    rec.run(*sim, w.window);
    const std::uint64_t done = fleet->completed() - done0;

    const double tps =
        static_cast<double>(done) / sim::toSeconds(w.window);
    const double proxyCpu = tb->server(0).cpu().utilization();
    const auto &lat = fleet->latencyUs();
    out.rxUtil = proxyCpu;
    out.results = {{"tps", tps},
                   {"proxy_cpu", proxyCpu},
                   {"web_cpu", tb->server(1).cpu().utilization()},
                   {"hit_ratio", proxy->hitRate()},
                   {"lat_mean_us", lat.mean()},
                   {"lat_max_us", lat.max()}};
    out.counts = clusterCounts(*sim, *tb);
    out.counts["dc.requests"] = done;
    out.counts["dc.hits"] = proxy->cacheHits();
    out.counts["dc.lookups"] =
        p.alpha > 0.0 ? proxy->cacheHits() + proxy->cacheMisses() : 0;
    out.counts["dc.failed"] = fleet->failures() + fleet->rejected();
    out.counts["dc.lat_samples"] = lat.count();
    out.issued = fleet->issued();
    out.failed = fleet->failures() + fleet->rejected();

    // Request conservation: every issued request is completed, failed,
    // rejected or in flight, and a closed loop has at most one request
    // in flight per client thread.
    const std::uint64_t settled =
        fleet->completed() + fleet->failures() + fleet->rejected();
    out.check(settled <= fleet->issued() &&
                  fleet->issued() - settled <= kClientThreads,
              "issued != completed + failed + rejected + in flight");
    out.check(done > 0, "no request completed in the window");

    shares.add(sim->requestTracer());

    rec.begin("teardown");
    fleet.reset();
    proxy.reset();
    server.reset();
    tb.reset();
    sim.reset();
    wl.reset();
    rec.end();
    rec.end();
    return out;
}

std::vector<PointResult>
dcSweep(Recorder &rec, const Windows &w, std::uint64_t seed,
        Shares &shares)
{
    std::vector<PointResult> pts;
    const DcPoint traces[] = {
        {"4k", 0.0}, {"zipf0.95", 0.95}, {"zipf0.5", 0.5}};
    for (bool ioat_on : {false, true})
        for (const DcPoint &p : traces)
            pts.push_back(dcPoint(rec,
                                  std::string(ioat_on ? "ioat" : "non-ioat") +
                                      "-" + p.trace,
                                  ioat_on, p, seed, w, shares));
    return pts;
}

// ---------------------------------------------------------------------
// pvfs: Fig. 10/11, one server node (manager + 6 iods), 6 processes
// ---------------------------------------------------------------------

constexpr unsigned kIods = 6;
constexpr unsigned kProcesses = 6;

struct CallTally
{
    std::uint64_t issued = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
};

Coro<void>
pvfsLoop(pvfs::PvfsClient &cl, pvfs::FileHandle fh, std::size_t bytes,
         bool write, CallTally &t)
{
    co_await cl.connect();
    for (;;) {
        ++t.issued;
        const pvfs::PvfsResult<std::size_t> r =
            write ? co_await cl.write(fh, 0, bytes)
                  : co_await cl.read(fh, 0, bytes);
        if (r.ok())
            ++t.done;
        else
            ++t.failed;
    }
}

PointResult
pvfsPoint(Recorder &rec, const std::string &name, bool write,
          bool ioat_on, const Windows &w, Shares &shares)
{
    PointResult out;
    out.name = name;
    rec.calibrate();
    rec.begin("point", name);

    rec.begin("core");
    auto sim = std::make_unique<Simulation>();
    if (rec.traced())
        sim->enableRequestTracing();
    core::NodeConfig ncfg =
        serverConfig(ioat_on ? Xport::ioat : Xport::tcp, 6);
    // Default socket options, as in the paper's PVFS runs: 64 KB
    // buffers leave each stream window-bound.
    ncfg.tcp.sockBuf = 64 * 1024;
    auto tb = std::make_unique<core::Testbed>(
        *sim, core::TestbedConfig{.serverCount = 2, .serverConfig = ncfg});
    const double coreS = rec.end();

    rec.begin("pvfs");
    core::Node &srv = tb->server(0);
    core::Node &cli = tb->server(1);
    pvfs::PvfsConfig cfg;
    cfg.iodCount = kIods;
    auto fs = std::make_unique<pvfs::FsState>();
    auto mgr = std::make_unique<pvfs::MetadataManager>(srv, cfg, *fs);
    mgr->start();
    std::vector<std::unique_ptr<pvfs::IodServer>> iods;
    std::vector<pvfs::DaemonAddr> addrs;
    for (unsigned i = 0; i < kIods; ++i) {
        iods.push_back(std::make_unique<pvfs::IodServer>(srv, cfg, i));
        iods.back()->start();
        addrs.push_back({srv.id(), iods.back()->port()});
    }
    // Each call moves 2 MB to or from every iod, as pvfs-test does.
    const std::size_t region = 2ull * 1024 * 1024 * kIods;
    std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
    CallTally calls;
    for (unsigned c = 0; c < kProcesses; ++c) {
        clients.push_back(std::make_unique<pvfs::PvfsClient>(
            cli, cfg, pvfs::DaemonAddr{srv.id(), cfg.mgrPort}, addrs));
        const pvfs::FileHandle h = fs->create("f" + std::to_string(c));
        fs->extendTo(h, region);
        sim->spawn(pvfsLoop(*clients.back(), h, region, write, calls));
    }
    out.setupS = coreS + rec.end();

    warmup(rec, *sim, w, {&srv, &cli});
    auto moved = [&] {
        std::uint64_t n = 0;
        for (const auto &c : clients)
            n += write ? c->bytesWritten() : c->bytesRead();
        return n;
    };
    const std::uint64_t b0 = moved();
    rec.run(*sim, w.window);
    const std::uint64_t b1 = moved();

    const double mbps = sim::throughputMBps(b1 - b0, w.window);
    // I/OAT is a receiver-side optimization: reads receive on the
    // compute node, writes on the server node.
    out.rxUtil = write ? srv.cpu().utilization() : cli.cpu().utilization();
    out.results = {{"MBps", mbps},
                   {"client_cpu", cli.cpu().utilization()},
                   {"server_cpu", srv.cpu().utilization()}};
    out.counts = clusterCounts(*sim, *tb);
    std::uint64_t appBytes = 0, iodBytes = 0, retries = 0, failures = 0;
    for (const auto &c : clients) {
        appBytes += write ? c->bytesWritten() : c->bytesRead();
        retries += c->rpcRetries();
        failures += c->rpcFailures();
    }
    for (const auto &iod : iods)
        iodBytes += write ? iod->bytesWritten() : iod->bytesRead();
    out.counts["pvfs.calls"] = calls.done;
    out.counts["pvfs.iod_bytes"] = iodBytes;
    out.counts["pvfs.rpc_retries"] = retries;
    out.counts["pvfs.rpc_failures"] = failures;
    out.issued = calls.issued;
    out.failed = calls.failed;

    // Byte conservation along the data path.  Reads: the processes got
    // no more than the compute node's transport delivered, nor it more
    // than the server node sent.  Writes: acked bytes were stored by
    // the iods first, which cannot store more than arrived, nor more
    // arrive than the compute node sent.
    if (write)
        out.check(appBytes <= iodBytes &&
                      iodBytes <= srv.transport().rxPayloadBytes() &&
                      srv.transport().rxPayloadBytes() <=
                          cli.transport().txPayloadBytes(),
                  "write bytes acked > stored > received > sent");
    else
        out.check(appBytes <= cli.transport().rxPayloadBytes() &&
                      cli.transport().rxPayloadBytes() <=
                          srv.transport().txPayloadBytes(),
                  "read bytes delivered > received > sent");
    out.check(calls.issued - calls.done - calls.failed <= kProcesses,
              "more PVFS calls in flight than processes");
    out.check(mbps > 0.0, "no payload moved in the window");

    shares.add(sim->requestTracer());

    rec.begin("teardown");
    clients.clear();
    iods.clear();
    mgr.reset();
    fs.reset();
    tb.reset();
    sim.reset();
    rec.end();
    rec.end();
    return out;
}

std::vector<PointResult>
pvfsSweep(Recorder &rec, const Windows &w, Shares &shares)
{
    std::vector<PointResult> pts;
    for (bool write : {false, true})
        for (bool ioat_on : {false, true})
            pts.push_back(pvfsPoint(
                rec,
                std::string(write ? "write" : "read") + "-" +
                    (ioat_on ? "ioat" : "non-ioat"),
                write, ioat_on, w, shares));
    return pts;
}

// ---------------------------------------------------------------------
// Sweeps, digests and output
// ---------------------------------------------------------------------

struct Workload
{
    const char *name;
    Windows full;
    Windows tiny;
    const char *shareLayer; ///< "dc"/"pvfs": request-latency shares
};

const Workload kWorkloads[] = {
    {"stream", {sim::milliseconds(100), sim::milliseconds(9900)},
     {sim::milliseconds(2), sim::milliseconds(5)}, nullptr},
    {"datacenter", {sim::milliseconds(300), sim::milliseconds(700)},
     {sim::milliseconds(2), sim::milliseconds(10)}, "dc"},
    {"pvfs", {sim::milliseconds(200), sim::milliseconds(15800)},
     {sim::milliseconds(5), sim::milliseconds(150)}, "pvfs"},
};

std::string
fmt(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/** FNV-1a over every point's simulated results and counts. */
std::string
digest(const std::vector<PointResult> &pts)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const std::string &s) {
        for (const unsigned char ch : s) {
            h ^= ch;
            h *= 1099511628211ull;
        }
    };
    for (const PointResult &p : pts) {
        mix(p.name);
        for (const auto &[k, v] : p.results)
            mix(k + "=" + fmt(v) + ";");
        for (const auto &[k, v] : p.counts)
            mix(k + "=" + std::to_string(v) + ";");
        mix("issued=" + std::to_string(p.issued) +
            ";failed=" + std::to_string(p.failed) + ";");
    }
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

struct Round
{
    bool traced;
    /** Median duration of the clock's kernel runs in this sweep. */
    double kernelMs;
    double wall;
    double setup;
    double run;
    double teardown;
    double core;
    double tier;
    double sliceP50Us;
    double sliceP99Us;
    std::string digest;
    /** Each point's set-up time, in sweep order. */
    std::vector<double> pointSetup;
};

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(idx, v.size() - 1)];
}

/** Peak resident memory of this process image (VmHWM), in MiB.
 *  getrusage's ru_maxrss would also count the launching process's
 *  peak, which survives exec. */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        double kib = 0.0;
        if (key == "VmHWM:" && status >> kib)
            return kib / 1024.0;
        status.ignore(4096, '\n');
    }
    return 0.0;
}

/** Chrome trace-event JSON of the kept spans (chrome://tracing). */
void
writeSpans(const std::string &path,
           const std::vector<Recorder::Span> &spans)
{
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Recorder::Span &s = spans[i];
        out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << fmt(s.t0Us)
            << ",\"dur\":" << fmt(s.t1Us - s.t0Us) << ",\"args\":{\"id\":"
            << i << ",\"parent\":" << s.parent << ",\"events\":" << s.events
            << "}}";
    }
    out << "\n]}\n";
}

/** The binary's output: one JSON object (see run.py for the reader). */
std::string
document(const Workload &wl, std::uint64_t seed, bool tiny,
         const std::vector<Round> &rounds,
         const std::vector<PointResult> &points, const Shares &shares,
         const std::vector<std::string> &violations)
{
    std::string o = std::string("{\"workload\":\"") + wl.name +
                    "\",\"seed\":" + std::to_string(seed) +
                    ",\"tiny\":" + (tiny ? "true" : "false");
    o += ",\"rounds\":[";
    for (std::size_t i = 0; i < rounds.size(); ++i) {
        const Round &r = rounds[i];
        o += i ? ",{" : "{";
        o += std::string("\"traced\":") + (r.traced ? "true" : "false");
        o += ",\"kernel_ms\":" + fmt(r.kernelMs);
        o += ",\"wall_s\":" + fmt(r.wall) + ",\"setup_s\":" + fmt(r.setup);
        o += ",\"core_s\":" + fmt(r.core) + ",\"tier_s\":" + fmt(r.tier);
        o += ",\"run_s\":" + fmt(r.run);
        o += ",\"teardown_s\":" + fmt(r.teardown);
        o += ",\"slice_p50_us\":" + fmt(r.sliceP50Us);
        o += ",\"slice_p99_us\":" + fmt(r.sliceP99Us);
        o += ",\"point_setup_s\":[";
        for (std::size_t j = 0; j < r.pointSetup.size(); ++j) {
            if (j)
                o += ",";
            o += fmt(r.pointSetup[j]);
        }
        o += "],\"digest\":\"" + r.digest + "\"}";
    }
    o += "],\"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointResult &p = points[i];
        o += i ? ",{" : "{";
        o += "\"name\":\"" + p.name + "\"";
        o += ",\"issued\":" + std::to_string(p.issued);
        o += ",\"failed\":" + std::to_string(p.failed);
        o += ",\"rx_util\":" + fmt(p.rxUtil) + ",\"results\":{";
        for (std::size_t j = 0; j < p.results.size(); ++j) {
            o += j ? ",\"" : "\"";
            o += p.results[j].first + "\":" + fmt(p.results[j].second);
        }
        o += "},\"counts\":{";
        const char *sep = "\"";
        for (const auto &[k, v] : p.counts) {
            o += sep + k + "\":" + std::to_string(v);
            sep = ",\"";
        }
        o += "}}";
    }
    o += "],\"shares\":{";
    Tick all{};
    for (const Tick t : shares.cat)
        all += t;
    for (std::size_t i = 0; i < sim::kCostCatCount; ++i) {
        const double share =
            all > Tick{0} ? static_cast<double>(shares.cat[i].count()) /
                                static_cast<double>(all.count())
                          : 0.0;
        o += i ? ",\"" : "\"";
        o += std::string(sim::costCatName(static_cast<sim::CostCat>(i))) +
             "\":" + fmt(share);
    }
    o += std::string("},\"share_layer\":\"") +
         (wl.shareLayer ? wl.shareLayer : "") + "\",\"violations\":[";
    for (std::size_t i = 0; i < violations.size(); ++i)
        o += (i ? ",\"" : "\"") + violations[i] + "\"";
    o += "],\"peak_rss_mb\":" + fmt(peakRssMiB()) + "}";
    return o;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "stream|datacenter|pvfs [--seed n] [--seconds s] "
                 "[--trace 0|1] [--tiny] [--spans file]\n",
                 why);
    return 2;
}

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(s, &end, 10);
    return *s != '\0' && *end == '\0' && *s != '-';
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::string spansPath;
    std::uint64_t seed = 1;
    std::uint64_t seconds = 10;
    std::uint64_t trace = 0;
    bool tiny = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--tiny") {
            tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        bool ok = true;
        if (arg == "--workload")
            workload = val;
        else if (arg == "--spans")
            spansPath = val;
        else if (arg == "--seed")
            ok = parseUnsigned(val, seed);
        else if (arg == "--seconds")
            ok = parseUnsigned(val, seconds);
        else if (arg == "--trace")
            ok = parseUnsigned(val, trace) && trace <= 1;
        else
            ok = false;
        if (!ok)
            return usage(("bad flag or value: " + arg).c_str());
    }
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (workload == w.name)
            wl = &w;
    if (!wl)
        return usage("--workload wants stream, datacenter or pvfs");
    const Windows win = tiny ? wl->tiny : wl->full;

    const Clock::time_point start = Clock::now();
    HostClock clock;
    std::vector<Round> rounds;
    std::vector<PointResult> points;
    std::vector<std::string> violations;
    std::vector<Recorder::Span> keptSpans;
    Shares shares;
    // Untraced sweeps alternate with traced ones in a traced run; stop
    // when one more cycle would overrun the budget.
    const std::size_t cycle = trace ? 2 : 1;
    for (;;) {
        const Clock::time_point c0 = Clock::now();
        for (std::size_t k = 0; k < cycle; ++k) {
            const bool traced = k == 1;
            const bool keep = traced && keptSpans.empty();
            const std::size_t kernel0 = clock.kernelSeconds().size();
            Recorder rec(traced, keep, clock);
            Shares roundShares;
            rec.begin("round", std::string(wl->name) + " sweep");
            std::vector<PointResult> pts;
            if (workload == "stream")
                pts = streamSweep(rec, win);
            else if (workload == "datacenter")
                pts = dcSweep(rec, win, seed, roundShares);
            else
                pts = pvfsSweep(rec, win, roundShares);
            rec.end();

            const std::vector<double> &sl = rec.sliceUs();
            const std::vector<double> kernels(
                clock.kernelSeconds().begin() +
                    static_cast<std::ptrdiff_t>(kernel0),
                clock.kernelSeconds().end());
            rounds.push_back(Round{
                traced, 1e3 * percentile(kernels, 0.5), rec.total("round"),
                rec.total("core") + rec.total("sock") +
                    rec.total("datacenter") + rec.total("pvfs"),
                rec.total("run"), rec.total("teardown"), rec.total("core"),
                rec.total("sock") + rec.total("datacenter") +
                    rec.total("pvfs"),
                percentile(sl, 0.50), percentile(sl, 0.99), digest(pts), {}});
            for (const PointResult &p : pts)
                rounds.back().pointSetup.push_back(p.setupS);
            if (points.empty()) {
                points = pts;
                for (const PointResult &p : pts)
                    violations.insert(violations.end(),
                                      p.violations.begin(),
                                      p.violations.end());
            } else if (rounds.back().digest != rounds.front().digest) {
                violations.push_back(
                    std::string(traced ? "traced" : "untraced") +
                    " sweep " + std::to_string(rounds.size()) +
                    ": simulated digest " + rounds.back().digest +
                    " differs from the first sweep's " +
                    rounds.front().digest);
            }
            if (keep) {
                keptSpans = rec.spans();
                shares = roundShares;
            }
        }
        const double cycleSeconds = hostSeconds(Clock::now() - c0);
        const double elapsed = hostSeconds(Clock::now() - start);
        if (elapsed + cycleSeconds > static_cast<double>(seconds))
            break;
    }
    if (trace && !spansPath.empty())
        writeSpans(spansPath, keptSpans);

    std::puts(document(*wl, seed, tiny, rounds, points, shares, violations)
                  .c_str());
    return violations.empty() ? 0 : 1;
}
