/**
 * @file
 * The redesigned instrumentation API: one `Instrumented` interface,
 * one `Registry` every component publishes into, one `Hub` that walks
 * the component hierarchy.
 *
 * A component implements `instrument(Registry&)` once, registering
 * scalars, sampled probes, histograms and flow tables under its
 * *local* names ("utilization", "wireBytes"); the caller
 * brings the dotted prefix ("node0.cpu") via Registry::Scope, so the
 * same component code yields "node0.cpu.utilization" and
 * "node3.cpu.utilization" with zero per-call-site boilerplate.
 *
 * Components register themselves with their Simulation's Hub at
 * construction (Node, Switch, Proxy, PvfsClient, ...), so building a
 * full report is a single hierarchy walk — `hub.instrumentAll(reg)` —
 * with no bench-side wiring.  Registration is registration-order
 * deterministic (a vector, never a hash map), matching the
 * simulator's bit-identical-replay contract.
 *
 * Pay-for-what-you-use: a Registry only exists while a Session is
 * live; components that merely *declare* instrument() pay nothing on
 * the simulation hot path.  The registry holds no readings: the
 * Sampler (sampler.hh) keeps the run's one timeline.
 */

#ifndef IOAT_SIMCORE_TELEMETRY_REGISTRY_HH
#define IOAT_SIMCORE_TELEMETRY_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/stats.hh"
#include "simcore/telemetry/histogram.hh"
#include "simcore/trace.hh"
#include "simcore/types.hh"

namespace ioat::sim::telemetry {

/** How a probe's readings become series values. */
enum class ProbeKind {
    /** The instantaneous reading (queue depth, busy cores). */
    gauge,
    /**
     * The increase since the previous sample (per-interval rate of a
     * monotonic counter, e.g. link bytes per interval).
     */
    delta,
};

/**
 * Per-connection transport flow record (bytes, retransmits, RTO
 * fires, handshake/FIN latency) — the TCP flow telemetry the paper's
 * per-stream figures need.
 */
struct FlowSample
{
    std::uint64_t flow = 0;          ///< stack-assigned flow id
    std::uint64_t bytesSent = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t retransmits = 0;   ///< data segments resent
    std::uint64_t rtoFires = 0;      ///< retransmission timeouts
    Tick handshakeLatency{};         ///< connect() -> established
    Tick finLatency{};               ///< established -> FIN/abort (0 if open)
    bool open = true;                ///< still usable at capture time
};

/**
 * Everything one run publishes: scalars, sampled probes, histograms
 * and flow tables, each under a dotted hierarchical name.
 */
class Registry
{
  public:
    /** A named point-in-time numeric reading. */
    struct Scalar
    {
        std::string name;
        std::string description;
        std::function<double()> read;
    };

    /** A named signal the Sampler reads every interval. */
    struct Probe
    {
        std::string name;
        std::string description;
        ProbeKind kind = ProbeKind::gauge;
        std::function<double()> read;
    };

    /** A named view onto a component-owned histogram. */
    struct HistogramRef
    {
        std::string name;
        std::string description;
        /** Multiply reported bounds by this to recover the unit
         *  (1 for raw tick/byte histograms). */
        double scale = 1.0;
        const Histogram *hist = nullptr;
    };

    /** A named per-flow table provider. */
    struct FlowSource
    {
        std::string name;
        std::function<std::vector<FlowSample>()> read;
    };

    /** RAII dotted-name prefix: Scope s(reg, "cpu"). */
    class Scope
    {
      public:
        Scope(Registry &reg, std::string_view segment) : reg_(reg)
        {
            reg_.push(segment);
        }
        ~Scope() { reg_.pop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Registry &reg_;
    };

    void
    push(std::string_view segment)
    {
        simAssert(!segment.empty(), "empty registry scope segment");
        prefix_.emplace_back(segment);
    }

    void
    pop()
    {
        simAssert(!prefix_.empty(), "registry scope underflow");
        prefix_.pop_back();
    }

    /** Current dotted prefix applied to @p name. */
    std::string
    qualify(std::string_view name) const
    {
        std::string out;
        for (const auto &seg : prefix_) {
            out += seg;
            out += '.';
        }
        out += name;
        return out;
    }

    /** @name Registration (called from Instrumented::instrument)
     *  @{ */
    void
    scalar(std::string_view name, std::function<double()> read,
           std::string desc = "")
    {
        scalars_.push_back(
            {qualify(name), std::move(desc), std::move(read)});
    }

    /** Convenience: a stats::Counter published as a scalar. */
    void
    counter(std::string_view name, const stats::Counter &c,
            std::string desc = "")
    {
        scalar(
            name,
            [&c] { return static_cast<double>(c.value()); },
            std::move(desc));
    }

    void
    probe(std::string_view name, ProbeKind kind,
          std::function<double()> read, std::string desc = "")
    {
        probes_.push_back(
            Probe{qualify(name), std::move(desc), kind, std::move(read)});
    }

    void
    histogram(std::string_view name, const Histogram &h,
              std::string desc = "", double scale = 1.0)
    {
        histograms_.push_back(
            {qualify(name), std::move(desc), scale, &h});
    }

    void
    flows(std::string_view name,
          std::function<std::vector<FlowSample>()> read)
    {
        flowSources_.push_back({qualify(name), std::move(read)});
    }
    /** @} */

    /** @name Access (Sampler, RunReport, tests)
     *  @{ */
    const std::vector<Scalar> &scalars() const { return scalars_; }
    const std::vector<Probe> &probes() const { return probes_; }
    const std::vector<HistogramRef> &histograms() const
    {
        return histograms_;
    }
    const std::vector<FlowSource> &flowSources() const
    {
        return flowSources_;
    }
    /** @} */

  private:
    std::vector<std::string> prefix_;
    std::vector<Scalar> scalars_;
    std::vector<Probe> probes_;
    std::vector<HistogramRef> histograms_;
    std::vector<FlowSource> flowSources_;
};

/**
 * The one registration interface every observable component
 * implements.  instrument() publishes under the registry's *current*
 * prefix; attachTracer() opts the component's internal models into an
 * externally-owned Chrome trace (default: no-op).
 */
class Instrumented
{
  public:
    virtual ~Instrumented() = default;
    virtual void instrument(Registry &reg) = 0;
    virtual void attachTracer(TraceWriter *) {}
};

/**
 * Component directory owned by a Simulation: top-level components add
 * themselves at construction under a base name ("node", "fabric",
 * "proxy") and get a unique indexed prefix back ("node0", "node1",
 * ...).  instrumentAll() is the hierarchy walk that builds a whole
 * run's registry.
 */
class Hub
{
  public:
    /** Register @p c; returns the assigned dotted-name prefix. */
    std::string
    add(const std::string &base, Instrumented *c)
    {
        const unsigned idx = nextIndex_[base]++;
        std::string name = base + std::to_string(idx);
        entries_.push_back({name, c});
        return name;
    }

    /**
     * Register under an exact, caller-chosen name.  Components with
     * an identity of their own (nodes, keyed by switch-port id) use
     * this so their telemetry name matches that identity rather than
     * their registration order.
     */
    std::string
    addNamed(std::string name, Instrumented *c)
    {
        entries_.push_back({name, c});
        return entries_.back().name;
    }

    /** Unregister (component destruction). */
    void
    remove(const Instrumented *c)
    {
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
            if (it->component == c) {
                entries_.erase(it);
                return;
            }
        }
    }

    /** Walk every registered component in registration order. */
    void
    instrumentAll(Registry &reg) const
    {
        for (const auto &e : entries_) {
            Registry::Scope scope(reg, e.name);
            e.component->instrument(reg);
        }
    }

    /** Attach (or detach, with nullptr) a tracer everywhere. */
    void
    attachTracerAll(TraceWriter *t) const
    {
        for (const auto &e : entries_)
            e.component->attachTracer(t);
    }

  private:
    struct Entry
    {
        std::string name;
        Instrumented *component;
    };

    std::vector<Entry> entries_;
    /** Next per-base index; std::map for deterministic behaviour. */
    std::map<std::string, unsigned> nextIndex_;
};

} // namespace ioat::sim::telemetry

#endif // IOAT_SIMCORE_TELEMETRY_REGISTRY_HH
