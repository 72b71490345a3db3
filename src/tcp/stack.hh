/**
 * @file
 * The kernel TCP stack: the shared connection protocol
 * (tcp/protocol.hh) priced the way the paper measures the kernel —
 * syscalls, per-frame protocol work, kernel↔user copies (CPU or I/OAT
 * DMA engine), interrupts, wakeups and credit returns, and their
 * interaction with the cache and memory-bus models.
 */

#ifndef IOAT_TCP_STACK_HH
#define IOAT_TCP_STACK_HH

#include <cstdint>
#include <vector>

#include "mem/rolling_bytes.hh"
#include "tcp/config.hh"
#include "tcp/protocol.hh"

namespace ioat::tcp {

/**
 * One node's kernel transport stack, bound to its NIC and hardware
 * models.
 */
class TcpStack final : public Protocol
{
  public:
    TcpStack(const Host &host, nic::Nic &nic, const TcpConfig &cfg);
    ~TcpStack() override;

    const TcpConfig &config() const { return cfg_; }

    /** @name Cost-model statistics
     *  @{ */
    std::uint64_t rxSegments() const { return rxSegments_.value(); }
    std::uint64_t dmaOffloadedCopies() const { return dmaCopies_.value(); }
    std::uint64_t cpuCopies() const { return cpuCopies_.value(); }
    /** @} */

  private:
    /** The protocol as this config drives it. */
    static Spec specOf(const TcpConfig &cfg);

    Charge segmentCharge(std::size_t bytes, std::uint32_t frames,
                         bool zero_copy) override;
    /** Kernel→user copy inside recv() (CPU or DMA-engine path). */
    Coro<void> receiveCopy(sim::Bytes bytes,
                           sim::TraceContext ctx) override;
    Tick rxPassCost(const std::vector<Burst> &bursts,
                    std::vector<RxShare> *shares) override;
    int rxCoreFor(unsigned queue) const override;
    void instrumentCosts(sim::telemetry::Registry &reg) override;

    /** Record CPU-streamed payload bytes (cache-pollution tracking). */
    void noteStreamBytes(sim::Bytes bytes);

    TcpConfig cfg_;

    /** Header/metadata pool footprint (protected iff split-header). */
    mem::FootprintId hdrPool_;
    /** Streaming payload footprint from recent CPU copies/touches. */
    mem::FootprintId netStream_;
    mem::RollingBytes streamWindow_;

    sim::stats::Counter rxSegments_;
    sim::stats::Counter dmaCopies_;
    sim::stats::Counter cpuCopies_;
};

} // namespace ioat::tcp

#endif // IOAT_TCP_STACK_HH
