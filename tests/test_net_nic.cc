/**
 * @file
 * Unit tests for the fabric (switch) and NIC models.
 */

#include <gtest/gtest.h>

#include "net/switch.hh"
#include "nic/nic.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using net::Burst;
using sim::Simulation;
using sim::Tick;

nic::NicConfig
gigePorts(unsigned ports)
{
    nic::NicConfig cfg;
    cfg.ports = ports;
    cfg.portRate = sim::Rate::gbps(1.0);
    cfg.mtu = 1500;
    cfg.frameOverhead = 58;
    return cfg;
}

struct TwoNodes
{
    Simulation sim;
    net::Switch fabric{sim, sim::nanoseconds(2000)};
    nic::Nic a;
    nic::Nic b;

    explicit TwoNodes(unsigned ports = 1)
        : a(sim, fabric, gigePorts(ports)), b(sim, fabric, gigePorts(ports))
    {}
};

Burst
dataBurst(net::NodeId dst, std::uint64_t flow, std::uint32_t payload,
          const nic::Nic &src_nic)
{
    Burst b;
    b.dst = dst;
    b.flow = flow;
    b.payloadBytes = payload;
    b.frames = src_nic.framesFor(sim::Bytes{payload});
    b.wireBytes = static_cast<std::uint32_t>(
        src_nic.wireBytesFor(sim::Bytes{payload}).count());
    return b;
}

TEST(Nic, FrameMath)
{
    TwoNodes t;
    EXPECT_EQ(t.a.framesFor(sim::Bytes{0}), 1u);
    EXPECT_EQ(t.a.framesFor(sim::Bytes{1}), 1u);
    EXPECT_EQ(t.a.framesFor(sim::Bytes{1500}), 1u);
    EXPECT_EQ(t.a.framesFor(sim::Bytes{1501}), 2u);
    EXPECT_EQ(t.a.framesFor(sim::Bytes{65536}), 44u);
    EXPECT_EQ(t.a.wireBytesFor(sim::Bytes{1500}), sim::Bytes{1500 + 58});
    EXPECT_EQ(t.a.wireBytesFor(sim::Bytes{3000}),
              sim::Bytes{3000 + 2 * 58});
}

TEST(Nic, JumboFramesReduceFrameCount)
{
    Simulation sim;
    net::Switch fabric(sim);
    auto cfg = gigePorts(1);
    cfg.mtu = 2048; // Fig. 5 Case 4
    nic::Nic n(sim, fabric, cfg);
    EXPECT_EQ(n.framesFor(sim::Bytes{65536}), 32u);
}

TEST(NicSwitch, DeliversBurstToDestination)
{
    TwoNodes t;
    std::vector<Burst> got;
    t.b.setRxHandler([&](unsigned, std::vector<Burst> &&batch) {
        for (auto &x : batch)
            got.push_back(x);
    });
    t.a.transmit(dataBurst(t.b.id(), 0, 1500, t.a));
    t.sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].src, t.a.id());
    EXPECT_EQ(got[0].payloadBytes, 1500u);
    // Wire time = 1558 B at 1 Gbps = 12464 ns each hop + 2000 switch.
    const Tick wire = t.a.wireTime(t.a.wireBytesFor(sim::Bytes{1500}));
    EXPECT_EQ(t.sim.now(), 2 * wire + sim::Tick{2000});
}

TEST(NicSwitch, FaultFreeHopIsOneEvent)
{
    // A burst runs delivery, RX completion and the interrupt: the
    // fault-free switch hop adds no event of its own.  An attached
    // injector (with no fault configured) keeps the depart-tick
    // forward event, and the burst arrives at the same tick.
    for (const bool injector : {false, true}) {
        TwoNodes t;
        sim::FaultInjector faults(1);
        if (injector)
            t.fabric.setFaultInjector(&faults);
        Tick arrived{};
        t.b.setRxHandler([&](unsigned, std::vector<Burst> &&) {
            arrived = t.sim.now();
        });
        t.a.transmit(dataBurst(t.b.id(), 0, 1500, t.a));
        EXPECT_EQ(t.sim.run(), injector ? 4u : 3u);
        const Tick wire = t.a.wireTime(t.a.wireBytesFor(sim::Bytes{1500}));
        EXPECT_EQ(arrived, 2 * wire + sim::Tick{2000});
    }
}

TEST(NicSwitch, SerializationLimitsPortThroughput)
{
    TwoNodes t;
    std::uint64_t bytes = 0;
    t.b.setRxHandler([&](unsigned, std::vector<Burst> &&batch) {
        for (auto &x : batch)
            bytes += x.payloadBytes;
    });
    // Submit 100 x 64KB at t=0 on one flow/port.
    for (int i = 0; i < 100; ++i)
        t.a.transmit(dataBurst(t.b.id(), 0, 65536, t.a));
    t.sim.run();
    const double gbps =
        static_cast<double>(bytes) * 8.0 / sim::toSeconds(t.sim.now()) / 1e9;
    // Payload throughput just under 1 Gbps (frame overhead ~3.7%).
    EXPECT_LT(gbps, 1.0);
    EXPECT_GT(gbps, 0.9);
}

TEST(NicSwitch, MultiplePortsCarryTrafficInParallel)
{
    TwoNodes t(4);
    Tick last{};
    t.b.setRxHandler([&](unsigned, std::vector<Burst> &&) {
        last = t.sim.now();
    });
    // One burst per port: all serialize concurrently.
    for (std::uint64_t f = 0; f < 4; ++f)
        t.a.transmit(dataBurst(t.b.id(), f, 65536, t.a));
    t.sim.run();
    const Tick wire = t.a.wireTime(t.a.wireBytesFor(sim::Bytes{65536}));
    EXPECT_EQ(last, 2 * wire + sim::Tick{2000}); // not 4x: parallel ports
}

TEST(Nic, FlowsPinToPortsRoundRobin)
{
    TwoNodes t(6);
    for (std::uint64_t f = 0; f < 12; ++f)
        EXPECT_EQ(t.a.portFor(f), f % 6);
}

TEST(Nic, QueuePerPortByDefault)
{
    TwoNodes t(6);
    EXPECT_EQ(t.a.rxQueueCount(), 6u);
    EXPECT_EQ(t.a.queueFor(0), 0u);
    EXPECT_EQ(t.a.queueFor(7), 1u);
}

TEST(Nic, MultiQueueSpreadsFlowsOfOnePort)
{
    Simulation sim;
    net::Switch fabric(sim);
    auto cfg = gigePorts(2);
    cfg.rxQueuesPerPort = 4;
    nic::Nic n(sim, fabric, cfg);
    EXPECT_EQ(n.rxQueueCount(), 8u);
    // Flows 0 and 2 hit port 0 but different queues.
    EXPECT_EQ(n.portFor(0), n.portFor(2));
    EXPECT_NE(n.queueFor(0), n.queueFor(2));
}

TEST(Nic, InterruptCoalescingBatchesBursts)
{
    Simulation sim;
    net::Switch fabric(sim);
    auto cfg = gigePorts(1);
    nic::Nic sender(sim, fabric, cfg);
    cfg.coalesceDelay = sim::microseconds(100);
    nic::Nic receiver(sim, fabric, cfg);

    std::size_t batches = 0, bursts = 0;
    receiver.setRxHandler([&](unsigned, std::vector<Burst> &&batch) {
        ++batches;
        bursts += batch.size();
    });
    // 8 small bursts sent back-to-back arrive within the window.
    for (int i = 0; i < 8; ++i)
        sender.transmit(dataBurst(receiver.id(), 0, 512, sender));
    sim.run();
    EXPECT_EQ(bursts, 8u);
    EXPECT_EQ(batches, 1u);
    EXPECT_EQ(receiver.interrupts(), 1u);
}

TEST(Nic, NoCoalescingInterruptsPerArrival)
{
    Simulation sim;
    net::Switch fabric(sim);
    auto cfg = gigePorts(1);
    nic::Nic sender(sim, fabric, cfg);
    nic::Nic receiver(sim, fabric, cfg); // coalesceDelay = 0

    std::size_t batches = 0;
    receiver.setRxHandler([&](unsigned, std::vector<Burst> &&) {
        ++batches;
    });
    // Spaced-out bursts: each its own interrupt.
    for (int i = 0; i < 4; ++i) {
        sim.queue().schedule(
            static_cast<unsigned>(i) * sim::milliseconds(1), [&, i] {
                sender.transmit(dataBurst(receiver.id(), 0, 512, sender));
            });
    }
    sim.run();
    EXPECT_EQ(batches, 4u);
    EXPECT_EQ(receiver.interrupts(), 4u);
}

TEST(Nic, CoalesceMaxBurstsFiresEarly)
{
    Simulation sim;
    net::Switch fabric(sim);
    auto cfg = gigePorts(1);
    nic::Nic sender(sim, fabric, cfg);
    cfg.coalesceDelay = sim::seconds(10); // effectively forever
    cfg.coalesceMaxBursts = 4;
    nic::Nic receiver(sim, fabric, cfg);

    std::size_t batches = 0, bursts = 0;
    receiver.setRxHandler([&](unsigned, std::vector<Burst> &&batch) {
        ++batches;
        bursts += batch.size();
    });
    for (int i = 0; i < 8; ++i)
        sender.transmit(dataBurst(receiver.id(), 0, 512, sender));
    sim.runFor(sim::seconds(1));
    EXPECT_EQ(bursts, 8u);
    EXPECT_EQ(batches, 2u); // two full batches of 4
}

TEST(Nic, CoalescingWindowRestartsAfterEarlyFire)
{
    Simulation sim;
    net::Switch fabric(sim);
    auto cfg = gigePorts(1);
    nic::Nic sender(sim, fabric, cfg);
    cfg.coalesceDelay = sim::microseconds(100);
    cfg.coalesceMaxBursts = 2;
    nic::Nic receiver(sim, fabric, cfg);

    std::vector<Tick> fired;
    receiver.setRxHandler([&](unsigned, std::vector<Burst> &&) {
        fired.push_back(sim.now());
    });
    // Two back-to-back bursts fill the batch and fire early; a third,
    // sent 50 us later, opens a fresh 100 us window of its own.
    for (int i = 0; i < 2; ++i)
        sender.transmit(dataBurst(receiver.id(), 0, 512, sender));
    sim.queue().schedule(sim::microseconds(50), [&] {
        sender.transmit(dataBurst(receiver.id(), 0, 512, sender));
    });
    sim.run();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_LT(fired[0], sim::microseconds(50));
    EXPECT_GE(fired[1], sim::microseconds(150));
}

TEST(Nic, TrafficCounters)
{
    TwoNodes t;
    t.b.setRxHandler([](unsigned, std::vector<Burst> &&) {});
    t.a.transmit(dataBurst(t.b.id(), 0, 1500, t.a));
    t.sim.run();
    EXPECT_EQ(t.a.txWireBytes(),
              t.a.wireBytesFor(sim::Bytes{1500}).count());
    EXPECT_EQ(t.b.rxWireBytes(),
              t.a.wireBytesFor(sim::Bytes{1500}).count());
    EXPECT_EQ(t.b.rxBursts(), 1u);
}

TEST(Nic, PollingModeDeliversWithoutInterrupts)
{
    Simulation sim;
    net::Switch fabric(sim);
    auto cfg = gigePorts(1);
    nic::Nic sender(sim, fabric, cfg);
    cfg.pollingPeriod = sim::microseconds(50);
    nic::Nic receiver(sim, fabric, cfg);

    std::size_t bursts = 0;
    receiver.setRxHandler([&](unsigned, std::vector<Burst> &&batch) {
        bursts += batch.size();
    });
    for (int i = 0; i < 4; ++i)
        sender.transmit(dataBurst(receiver.id(), 0, 512, sender));
    sim.runFor(sim::milliseconds(1));
    EXPECT_EQ(bursts, 4u);
    EXPECT_EQ(receiver.interrupts(), 0u);
    EXPECT_GT(receiver.softPolls(), 0u);
    EXPECT_TRUE(receiver.pollingMode());
}

TEST(Nic, PollingAddsBoundedLatency)
{
    Simulation sim;
    net::Switch fabric(sim);
    auto cfg = gigePorts(1);
    nic::Nic sender(sim, fabric, cfg);
    cfg.pollingPeriod = sim::microseconds(100);
    nic::Nic receiver(sim, fabric, cfg);

    Tick delivered{};
    receiver.setRxHandler([&](unsigned, std::vector<Burst> &&) {
        delivered = sim.now();
    });
    sender.transmit(dataBurst(receiver.id(), 0, 512, sender));
    sim.runFor(sim::milliseconds(1));
    const Tick wire =
        2 * sender.wireTime(sender.wireBytesFor(sim::Bytes{512})) +
                      fabric.forwardLatency();
    EXPECT_GE(delivered, wire);
    // At most one polling period after arrival.
    EXPECT_LE(delivered, wire + sim::microseconds(100));
}

/** A one-burst RX batch tagged by its flow. */
std::vector<Burst>
batchOf(std::uint64_t flow)
{
    Burst b;
    b.flow = flow;
    return {b};
}

/** An RX loop that takes a batch, stays busy 10 ticks, and repeats. */
sim::Coro<void>
busyRxLoop(Simulation &sim, nic::RxMailbox &box,
           std::vector<std::pair<Tick, std::uint64_t>> &taken)
{
    for (;;) {
        std::vector<Burst> batch = co_await box.next();
        taken.emplace_back(sim.now(), batch.front().flow);
        co_await sim.delay(Tick{10});
    }
}

TEST(RxMailbox, ParkedLoopWakesOnceAndBatchesKeepPostOrder)
{
    Simulation sim;
    nic::RxMailbox box(sim);
    std::vector<std::pair<Tick, std::uint64_t>> taken;
    sim.spawn(busyRxLoop(sim, box, taken));
    ASSERT_EQ(sim.run(), 1u); // the spawn; the loop parks

    // Posted while the loop is parked: one wake event, then the
    // loop's busy spell.
    box.post(batchOf(1));
    EXPECT_EQ(sim.run(), 2u);

    // A post to the parked loop wakes it once; posts made while it is
    // busy (tick 15, inside its 10..20 spell) run no wake event.
    box.post(batchOf(2));
    sim.queue().scheduleIn(Tick{5}, [&box] {
        box.post(batchOf(3));
        box.post(batchOf(4));
    });
    // wake, poster, and three busy spells
    EXPECT_EQ(sim.run(), 5u);
    const std::vector<std::pair<Tick, std::uint64_t>> want = {
        {Tick{0}, 1}, {Tick{10}, 2}, {Tick{20}, 3}, {Tick{30}, 4}};
    EXPECT_EQ(taken, want);
}

/** Takes one batch from @p box. */
sim::Coro<void>
takeOne(nic::RxMailbox &box)
{
    co_await box.next();
}

TEST(RxMailboxDeathTest, SecondParkedConsumerPanics)
{
    Simulation sim;
    nic::RxMailbox box(sim);
    sim.spawn(takeOne(box));
    sim.spawn(takeOne(box));
    EXPECT_DEATH(sim.run(), "second consumer");
}

TEST(SwitchDeathTest, UnattachedDestinationPanics)
{
    TwoNodes t;
    Burst b = dataBurst(99, 0, 100, t.a);
    t.a.transmit(b);
    EXPECT_DEATH(t.sim.run(), "unattached");
}

TEST(SwitchDeathTest, InjectorAttachedWithDeliveriesInFlightPanics)
{
    // A fault-free burst's delivery is scheduled at transmit; an
    // injector attached before it departs could not make the link
    // decision the depart tick owes it.
    TwoNodes t;
    sim::FaultInjector faults(1);
    t.a.transmit(dataBurst(t.b.id(), 0, 100, t.a));
    EXPECT_DEATH(t.fabric.setFaultInjector(&faults), "in flight");
    t.sim.run();
    t.fabric.setFaultInjector(&faults);
}

} // namespace
