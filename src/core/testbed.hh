/**
 * @file
 * Cluster builder replicating the paper's testbeds.
 *
 * Testbed 1: two server nodes (dual dual-core 3.46 GHz, 6 × 1 GbE,
 * I/OAT-capable) behind a GigE switch.  Testbed 2: a farm of client
 * nodes (dual 2.66 GHz Xeon, 1 GbE, no I/OAT) used purely as request
 * generators.
 */

#ifndef IOAT_CORE_TESTBED_HH
#define IOAT_CORE_TESTBED_HH

#include <memory>
#include <vector>

#include "core/node.hh"
#include "net/switch.hh"
#include "simcore/sim.hh"

namespace ioat::core {

/** Testbed shape. */
struct TestbedConfig
{
    /** Server (Testbed 1) nodes and their common configuration. */
    unsigned serverCount = 2;
    NodeConfig serverConfig = NodeConfig::server(IoatConfig::disabled());
    /** Client (Testbed 2) nodes. */
    unsigned clientCount = 0;
    NodeConfig clientConfig = NodeConfig::client();
    /** Switch forwarding latency. */
    sim::Tick switchLatency = sim::nanoseconds(2000);
};

/**
 * Owns the switch and all nodes of an experiment.
 */
class Testbed
{
  public:
    Testbed(sim::Simulation &sim, const TestbedConfig &cfg)
        : fabric_(sim, cfg.switchLatency)
    {
        servers_.reserve(cfg.serverCount);
        for (unsigned i = 0; i < cfg.serverCount; ++i) {
            servers_.push_back(
                std::make_unique<Node>(sim, fabric_, cfg.serverConfig));
        }
        clients_.reserve(cfg.clientCount);
        for (unsigned i = 0; i < cfg.clientCount; ++i) {
            clients_.push_back(
                std::make_unique<Node>(sim, fabric_, cfg.clientConfig));
        }
    }

    net::Switch &fabric() { return fabric_; }

    std::size_t serverCount() const { return servers_.size(); }
    std::size_t clientCount() const { return clients_.size(); }

    Node &server(std::size_t i) { return *servers_.at(i); }
    Node &client(std::size_t i) { return *clients_.at(i); }

  private:
    net::Switch fabric_;
    std::vector<std::unique_ptr<Node>> servers_;
    std::vector<std::unique_ptr<Node>> clients_;
};

} // namespace ioat::core

#endif // IOAT_CORE_TESTBED_HH
