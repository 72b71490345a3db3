/**
 * @file
 * Closed-loop HTTP client fleet.
 *
 * Each client thread fires one request at a time and sends the next
 * only after the response arrives — exactly the paper's client model
 * (§5.1: "Each client fires one request at a time and sends another
 * request after getting a reply").  Threads are spread round-robin
 * over the given client nodes (the Testbed 2 farm, or a Testbed 1
 * node for the Fig. 9 "emulated clients" experiment).
 */

#ifndef IOAT_DATACENTER_CLIENT_HH
#define IOAT_DATACENTER_CLIENT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/app_memory.hh"
#include "core/node.hh"
#include "datacenter/config.hh"
#include "datacenter/workload.hh"
#include "simcore/stats.hh"

namespace ioat::dc {

/**
 * A fleet of closed-loop request generators.
 */
class ClientFleet
{
  public:
    struct Options
    {
        /** Target node (proxy, or web server directly). */
        net::NodeId target;
        std::uint16_t port = 8080;
        /** Total client threads, spread over the nodes. */
        unsigned threads = 16;
        /** Per-request client-side application cost. */
        sim::Tick perRequestCost = sim::microseconds(10);
        /** Stream over the received payload (realistic consumer). */
        bool touchPayload = true;
        /** Resident application memory on each client node. */
        std::size_t residentBytes = 0;
        /** Message tag to send (HttpTag::Get, or DynTag::DynamicGet
         *  when driving the application-server tier directly). */
        std::uint64_t requestTag = 1;
        /** Extra resident memory per client thread (worker process
         *  heap, stack, buffers — prefork servers scale with
         *  concurrency). */
        std::size_t residentBytesPerThread = 0;
        std::uint64_t rngSeed = 1;
        /** @name Fault tolerance (defaults off: seed behaviour)
         *  @{ */
        /** Per-request deadline; expiry aborts the connection and
         *  the thread reconnects (0 = wait forever). */
        sim::Tick requestTimeout{};
        /** Pause before reconnecting a dead connection. */
        sim::Tick reconnectDelay = sim::milliseconds(5);
        /** With a nonzero cap, consecutive failed reconnects back
         *  off: reconnectDelay, 2x, 4x, ... capped here; a successful
         *  connect resets the schedule.  0 keeps the fixed
         *  reconnectDelay pause (the seed behaviour). */
        sim::Tick reconnectBackoffCap{};
        /** @} */
    };

    ClientFleet(std::vector<core::Node *> nodes, Workload &workload,
                const Options &opts);
    ~ClientFleet();

    ClientFleet(const ClientFleet &) = delete;
    ClientFleet &operator=(const ClientFleet &) = delete;

    /** Spawn every client thread. */
    void start();

    /**
     * Ask every thread to exit its closed loop.  A thread finishes
     * the request it is on (every wait is bounded when
     * `requestTimeout` is set) and stops at the next loop top;
     * `activeThreads()` reaching zero means the fleet has drained —
     * at that point issued() == completed()+failures()+rejected(),
     * the request-conservation invariant chaos harnesses check.
     */
    void stop() { stopping_ = true; }

    /** Threads still inside their closed loop. */
    unsigned activeThreads() const { return active_; }

    /** Requests sent (each terminates: response, 503, or failure). */
    std::uint64_t issued() const { return issued_.value(); }

    /** Completed requests since start. */
    std::uint64_t completed() const { return completed_.value(); }

    /**
     * Response-latency summary (microseconds).  Folded from per-node
     * partials in node order on every call: threads sample into their
     * own node's accumulator, and the fixed merge order fixes the
     * order of the floating-point sums the golden digests and the
     * benchmark pins depend on.
     */
    const sim::stats::Accumulator &
    latencyUs() const
    {
        mergedLatency_ = sim::stats::Accumulator();
        for (const auto &loc : locals_)
            mergedLatency_.merge(loc->latency);
        return mergedLatency_;
    }

    /** Requests that failed (timeout / server closed / short body). */
    std::uint64_t failures() const { return failures_.value(); }
    /** Requests answered with a 503 (shed by proxy or server). */
    std::uint64_t rejected() const { return rejected_.value(); }
    /** Reconnections after a dead connection. */
    std::uint64_t reconnects() const { return reconnects_.value(); }

    /**
     * Instants the fleet decided to reconnect (first
     * `kMaxRecordedReconnects` only): the gaps between consecutive
     * entries of one outage pin the capped-backoff schedule in tests.
     * Recorded per node and merged time-ordered (ties by node index)
     * on read.
     */
    const std::vector<sim::Tick> &reconnectTicks() const;

    static constexpr std::size_t kMaxRecordedReconnects = 64;

  private:
    /** Order-sensitive stats, written by one node's threads only. */
    struct NodeLocal
    {
        sim::stats::Accumulator latency;
        std::vector<sim::Tick> reconnectTicks;
    };

    sim::Coro<void> clientThread(core::Node &node, core::AppMemory &mem,
                                 NodeLocal &local, std::uint64_t seed);

    std::vector<core::Node *> nodes_;
    Workload &workload_;
    Options opts_;
    /** One working-set tracker per node (shared by its threads). */
    std::vector<std::unique_ptr<core::AppMemory>> mems_;
    std::vector<std::unique_ptr<NodeLocal>> locals_;
    sim::stats::Counter issued_;
    sim::stats::Counter completed_;
    sim::stats::Counter failures_;
    sim::stats::Counter rejected_;
    sim::stats::Counter reconnects_;
    mutable sim::stats::Accumulator mergedLatency_;
    mutable std::vector<sim::Tick> mergedReconnects_;
    bool stopping_ = false;
    unsigned active_ = 0;
};

} // namespace ioat::dc

#endif // IOAT_DATACENTER_CLIENT_HH
