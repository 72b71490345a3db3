/**
 * @file
 * A complete simulated cluster node: CPU, cache, memory bus, DMA
 * engine, NIC and protocol stack, wired per an IoatConfig.
 *
 * This is the library's main entry point for building systems; see
 * core/testbed.hh for paper-testbed shortcuts.
 */

#ifndef IOAT_CORE_NODE_HH
#define IOAT_CORE_NODE_HH

#include <memory>

#include "core/calibration.hh"
#include "core/ioat_config.hh"
#include "cpu/cpu.hh"
#include "dma/dma_engine.hh"
#include "mem/cache_model.hh"
#include "mem/copy_model.hh"
#include "mem/memory_bus.hh"
#include "mem/page_model.hh"
#include "net/switch.hh"
#include "nic/nic.hh"
#include "simcore/lifecycle.hh"
#include "simcore/sim.hh"
#include "sock/socket.hh"
#include "tcp/host.hh"
#include "tcp/stack.hh"
#include "xpt/bypass.hh"

namespace ioat::core {

using sim::Simulation;

/** Which transport `Node::transport()` hands to applications. */
enum class TransportKind {
    tcp,    ///< kernel TCP stack (the default; tcp+ioat testbeds)
    bypass, ///< user-space kernel-bypass library (xpt::BypassStack)
};

/** Full static description of one node. */
struct NodeConfig
{
    cpu::CpuConfig cpu = calibration::serverCpu();
    std::size_t l2CacheBytes = calibration::kServerL2Bytes;
    mem::CopyModelConfig copy = calibration::serverCopy();
    mem::PageModelConfig pages = calibration::serverPages();
    mem::MemoryBusConfig bus = calibration::serverBus();
    dma::DmaConfig dma = calibration::ioatDma();
    nic::NicConfig nic = calibration::serverNic();
    tcp::TcpConfig tcp = calibration::serverTcp();
    /** Kernel-bypass library parameters (used when transport says so). */
    xpt::BypassConfig bypass = calibration::bypassXpt();
    /** Which transport applications get from Node::transport().  The
     *  kernel TCP stack always exists (it owns ports/telemetry the
     *  benches compare against); `bypass` additionally builds an
     *  xpt::BypassStack that takes over the NIC RX path. */
    TransportKind transport = TransportKind::tcp;
    /** Which I/OAT features to enable (requires the hardware). */
    IoatConfig ioat = IoatConfig::disabled();
    /** Node physically has the I/OAT chipset/NIC (Testbed 1 does;
     *  the Testbed 2 clients do not). */
    bool hasIoatHardware = true;

    /** Convenience: Testbed 1 node with the given feature set. */
    static NodeConfig
    server(IoatConfig features, unsigned ports = 6)
    {
        NodeConfig cfg;
        cfg.nic = calibration::serverNic(ports);
        cfg.ioat = features;
        return cfg;
    }

    /** Convenience: Testbed 2 client node (no I/OAT hardware). */
    static NodeConfig
    client()
    {
        NodeConfig cfg;
        cfg.cpu = calibration::clientCpu();
        cfg.nic = calibration::clientNic();
        cfg.hasIoatHardware = false;
        return cfg;
    }
};

/**
 * One node, owning all of its hardware models and its stack.
 *
 * Registers itself with the simulation's telemetry hub as "node", so
 * `telemetry::Session` picks up every node ("node0.cpu.utilization",
 * "node1.tcp.txPayloadBytes", ...) with no bench-side wiring.
 *
 * A Node is also `sim::Restartable`: attached to a `sim::Lifecycle`
 * (always first, before the daemons living on it), a crash resets the
 * transport stack — every connection aborts, handshake dedup state is
 * forgotten — modelling the kernel state lost with the process.  The
 * hardware models (CPU, cache, bus, NIC) are physical and keep their
 * identity across the crash.
 */
class Node : public sim::telemetry::Instrumented, public sim::Restartable
{
  public:
    Node(Simulation &sim, net::Switch &fabric, const NodeConfig &cfg)
        : sim_(sim), cfg_(applyFeatures(cfg)),
          cpu_(sim, cfg_.cpu),
          cache_(cfg_.l2CacheBytes),
          copy_(cfg_.copy),
          pages_(cfg_.pages),
          bus_(sim, cfg_.bus),
          dma_(cfg_.hasIoatHardware
                   ? std::make_unique<dma::DmaEngine>(sim, cfg_.dma)
                   : nullptr),
          nic_(sim, fabric, cfg_.nic),
          stack_(tcp::Host{sim, cpu_, cache_, copy_, pages_, bus_,
                           dma_.get()},
                 nic_, cfg_.tcp),
          // Built after stack_: its RX-handler registration must win
          // so delivered bursts reach the user-space poll loops.
          bypass_(cfg_.transport == TransportKind::bypass
                      ? std::make_unique<xpt::BypassStack>(
                            tcp::Host{sim, cpu_, cache_, copy_, pages_,
                                      bus_, dma_.get()},
                            nic_, cfg_.bypass)
                      : nullptr),
          transport_(bypass_ ? static_cast<tcp::Protocol &>(*bypass_)
                             : stack_)
    {
        // Named by switch port id, so "node3" is the node whose bursts
        // carry src 3 and whose events run on lane 4.
        sim_.telemetry().addNamed("node" + std::to_string(id()), this);
    }

    ~Node() override { sim_.telemetry().remove(this); }

    Node(const Node &) = delete;
    Node &operator=(const Node &) = delete;

    /** Hierarchy walk: publish every hardware model and the stack. */
    void
    instrument(sim::telemetry::Registry &reg) override
    {
        using Scope = sim::telemetry::Registry::Scope;
        {
            Scope s(reg, "cpu");
            cpu_.instrument(reg);
        }
        {
            Scope s(reg, "cache");
            cache_.instrument(reg);
        }
        {
            Scope s(reg, "bus");
            bus_.instrument(reg);
        }
        if (dma_) {
            Scope s(reg, "dma");
            dma_->instrument(reg);
        }
        {
            Scope s(reg, "nic");
            nic_.instrument(reg);
        }
        {
            Scope s(reg, "tcp");
            stack_.instrument(reg);
        }
        if (bypass_) {
            Scope s(reg, "xpt");
            bypass_->instrument(reg);
        }
    }

    /**
     * Forward a trace writer to the models that emit trace events.
     * They record on this node's own Chrome process ("node3" on pid
     * 4), so nodes' CPU and DMA tracks never share a lane.
     */
    void
    attachTracer(sim::TraceWriter *t) override
    {
        const int pid = static_cast<int>(lane());
        if (t)
            t->setProcessName(pid, "node" + std::to_string(id()));
        cpu_.setTracer(t, pid);
        if (dma_)
            dma_->setTracer(t, pid);
    }

    /** @name Crash–restart hooks (sim::Restartable)
     *  @{ */
    void
    onCrash(sim::Tick) override
    {
        stack_.crashReset();
        if (bypass_)
            bypass_->crashReset();
    }
    /** Nothing to rebuild: listeners persist and connections are
     *  re-established lazily by the applications' recovery paths. */
    void onRestart(sim::Tick) override {}
    /** @} */

    net::NodeId id() const { return nic_.id(); }
    const NodeConfig &config() const { return cfg_; }

    /**
     * This node's scheduling lane (see simcore/event_queue.hh):
     * lane 0 is the driver, node i runs on lane i + 1.
     */
    std::uint32_t lane() const { return id() + 1; }

    /**
     * Start a node-affine coroutine: like `simulation().spawn()` but
     * the activity carries this node's lane, which orders its events
     * against other nodes' at the same tick (see
     * simcore/event_queue.hh).  Driver code spawning work that lives
     * on a node must use this.
     */
    void
    spawn(sim::Coro<void> body)
    {
        sim_.spawnLane(lane(), std::move(body));
    }

    Simulation &simulation() { return sim_; }
    cpu::CpuSet &cpu() { return cpu_; }
    mem::CacheModel &cache() { return cache_; }
    const mem::CopyModel &copyModel() const { return copy_; }
    const mem::PageModel &pageModel() const { return pages_; }
    mem::MemoryBus &bus() { return bus_; }
    dma::DmaEngine *dma() { return dma_.get(); }
    nic::Nic &nic() { return nic_; }
    tcp::TcpStack &stack() { return stack_; }
    /** The bypass stack, when this node is configured for it. */
    xpt::BypassStack *bypassStack() { return bypass_.get(); }

    /**
     * The transport applications should open connections through —
     * the configured one (kernel TCP or kernel bypass).  Application
     * and bench code written against this never names a transport.
     */
    sock::Transport &transport() { return transport_; }

    /** Non-owning hardware view (for AsyncMemcpy and apps). */
    tcp::Host
    host()
    {
        return tcp::Host{sim_, cpu_, cache_, copy_, pages_, bus_,
                         dma_.get()};
    }

  private:
    /** Translate the IoatConfig into NIC/TCP feature switches. */
    static NodeConfig
    applyFeatures(NodeConfig cfg)
    {
        if (cfg.ioat.any()) {
            sim::simAssert(cfg.hasIoatHardware,
                           "I/OAT features require I/OAT hardware");
        }
        cfg.nic.splitHeader = cfg.ioat.splitHeader;
        cfg.tcp.splitHeader = cfg.ioat.splitHeader;
        cfg.tcp.dmaCopyOffload = cfg.ioat.dmaEngine;
        cfg.nic.rxQueuesPerPort = cfg.ioat.multiQueue ? 4 : 1;
        return cfg;
    }

    Simulation &sim_;
    NodeConfig cfg_;
    cpu::CpuSet cpu_;
    mem::CacheModel cache_;
    mem::CopyModel copy_;
    mem::PageModel pages_;
    mem::MemoryBus bus_;
    std::unique_ptr<dma::DmaEngine> dma_;
    nic::Nic nic_;
    tcp::TcpStack stack_;
    std::unique_ptr<xpt::BypassStack> bypass_;
    sock::Transport transport_;
};

} // namespace ioat::core

#endif // IOAT_CORE_NODE_HH
