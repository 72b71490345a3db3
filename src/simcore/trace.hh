/**
 * @file
 * Chrome-trace (about:tracing / Perfetto) exporter for simulated
 * activity.
 *
 * Components record complete events (name, category, start, duration,
 * lane); `write()` emits the standard Trace Event JSON so a run can
 * be inspected in any chrome://tracing-compatible viewer.  Tracing is
 * opt-in per component (`setTracer`) and costs nothing when off.
 *
 * Output uses the object form (`{"displayTimeUnit":...,
 * "traceEvents":[...]}`) with `thread_name`/`process_name` metadata
 * records so lanes render as named tracks, and supports flow events
 * (`s`/`f`) that link spans across lanes — the request tracer uses
 * them to stitch one request's spans into a followable arrow chain.
 */

#ifndef IOAT_SIMCORE_TRACE_HH
#define IOAT_SIMCORE_TRACE_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/types.hh"

namespace ioat::sim {

/**
 * JSON string escape: quotes, backslashes, and *all* control
 * characters (embedded newlines/tabs in a hostile name must not break
 * the document).  Every JSON writer in the tree routes its strings
 * through this one function.
 */
inline std::string
jsonEscape(std::string_view s)
{
    static constexpr char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (c == '\r') {
            out += "\\r";
        } else if (u < 0x20) {
            out += "\\u00";
            out.push_back(hex[(u >> 4) & 0xf]);
            out.push_back(hex[u & 0xf]);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

/**
 * Collects trace events and serializes them as Trace Event JSON.
 */
class TraceWriter
{
  public:
    /** Lanes (chrome "tid") group related events in the viewer. */
    struct Lanes
    {
        static constexpr int core0 = 0;     ///< CPU cores: 0..N-1
        static constexpr int dma = 100;     ///< DMA engine channels
        static constexpr int wire = 200;    ///< NIC ports
        static constexpr int fault = 300;   ///< injected faults / recovery
        static constexpr int requests = 400; ///< per-request tracks
    };

    explicit TraceWriter(std::size_t reserve = 4096)
    {
        events_.reserve(reserve);
    }

    /** A span of simulated time ("X" complete event). */
    void
    complete(std::string name, const char *category, Tick start,
             Tick duration, int lane, int pid = 0)
    {
        events_.push_back(Event{std::move(name), category, start,
                                duration, lane, pid, Kind::Complete, 0});
    }

    /** A point in simulated time ("i" instant event). */
    void
    instant(std::string name, const char *category, Tick when, int lane,
            int pid = 0)
    {
        events_.push_back(Event{std::move(name), category, when, Tick{0},
                                lane, pid, Kind::Instant, 0});
    }

    /**
     * Start of a flow ("s"): an arrow leaves (pid, lane) at @p when.
     * Pair with a flowFinish() carrying the same @p flow_id.
     */
    void
    flowStart(std::string name, const char *category, Tick when, int lane,
              int pid, std::uint64_t flow_id)
    {
        events_.push_back(Event{std::move(name), category, when, Tick{0},
                                lane, pid, Kind::FlowStart, flow_id});
    }

    /** End of a flow ("f", binding point "e"): the arrow arrives. */
    void
    flowFinish(std::string name, const char *category, Tick when, int lane,
               int pid, std::uint64_t flow_id)
    {
        events_.push_back(Event{std::move(name), category, when, Tick{0},
                                lane, pid, Kind::FlowFinish, flow_id});
    }

    /** Name one process ("process_name" metadata record). */
    void
    setProcessName(int pid, std::string name)
    {
        processNames_[pid] = std::move(name);
    }

    /** Name one lane ("thread_name" metadata record). */
    void
    setLaneName(int pid, int lane, std::string name)
    {
        laneNames_[{pid, lane}] = std::move(name);
    }

    std::size_t eventCount() const { return events_.size(); }
    void clear() { events_.clear(); }

    /** Emit Trace Event JSON (object format, metadata first). */
    void
    write(std::ostream &os) const
    {
        os << "{\"displayTimeUnit\":\"ns\",\n\"traceEvents\":[\n";
        bool first = true;
        writeMetadata(os, first);
        for (const auto &e : events_) {
            if (!first)
                os << ",\n";
            first = false;
            os << "  {\"name\":\"" << jsonEscape(e.name)
               << "\",\"cat\":\"" << jsonEscape(e.category)
               << "\",\"ph\":\"" << phase(e.kind)
               << "\",\"ts\":";
            writeMicroseconds(os, e.start);
            if (e.kind == Kind::Complete) {
                os << ",\"dur\":";
                writeMicroseconds(os, e.duration);
            }
            os << ",\"pid\":" << e.pid << ",\"tid\":" << e.lane;
            if (e.kind == Kind::Instant)
                os << ",\"s\":\"t\"";
            if (e.kind == Kind::FlowStart)
                os << ",\"id\":" << e.flowId;
            if (e.kind == Kind::FlowFinish)
                os << ",\"id\":" << e.flowId << ",\"bp\":\"e\"";
            os << "}";
        }
        os << "\n]}\n";
    }

    /** Convenience: write to a file. */
    void
    save(const std::string &path) const
    {
        std::ofstream out(path);
        simAssert(out.good(), "cannot open trace file for writing");
        write(out);
    }

  private:
    enum class Kind : std::uint8_t {
        Complete,
        Instant,
        FlowStart,
        FlowFinish,
    };

    struct Event
    {
        std::string name;
        const char *category;
        Tick start;
        Tick duration;
        int lane;
        int pid;
        Kind kind;
        std::uint64_t flowId;
    };

    /**
     * @p t in microseconds, exact to the tick ("12.345", "12.3", "12"):
     * a stream's default six significant digits would round spans
     * late in a run onto each other.
     */
    static void
    writeMicroseconds(std::ostream &os, Tick t)
    {
        os << t.count() / 1000;
        const auto frac = t.count() % 1000;
        if (frac == 0)
            return;
        const char digits[] = {'.', static_cast<char>('0' + frac / 100),
                               static_cast<char>('0' + frac / 10 % 10),
                               static_cast<char>('0' + frac % 10)};
        std::streamsize len = 4;
        while (digits[len - 1] == '0')
            --len;
        os.write(digits, len);
    }

    static const char *
    phase(Kind k)
    {
        switch (k) {
        case Kind::Complete:
            return "X";
        case Kind::Instant:
            return "i";
        case Kind::FlowStart:
            return "s";
        case Kind::FlowFinish:
            return "f";
        }
        return "X";
    }

    /** Default track name for an unnamed lane, by lane-range convention. */
    static std::string
    defaultLaneName(int lane)
    {
        if (lane >= Lanes::requests)
            return "request " + std::to_string(lane - Lanes::requests);
        if (lane >= Lanes::fault)
            return "fault";
        if (lane >= Lanes::wire)
            return "wire " + std::to_string(lane - Lanes::wire);
        if (lane >= Lanes::dma)
            return "dma";
        return "core " + std::to_string(lane);
    }

    void
    writeMetadata(std::ostream &os, bool &first) const
    {
        // Every (pid, lane) pair any event touches gets a thread_name
        // record: explicit names win, otherwise the lane-range default.
        // std::map/std::set keep the emission order deterministic.
        std::set<std::pair<int, int>> lanes;
        std::set<int> pids;
        for (const auto &e : events_) {
            lanes.insert({e.pid, e.lane});
            pids.insert(e.pid);
        }
        for (const auto &[pid, name] : processNames_)
            pids.insert(pid);
        for (const auto &[key, name] : laneNames_)
            lanes.insert(key);

        for (int pid : pids) {
            std::string name;
            if (auto it = processNames_.find(pid);
                it != processNames_.end())
                name = it->second;
            else
                name = pid == 0 ? "hardware" : "process " +
                                                   std::to_string(pid);
            if (!first)
                os << ",\n";
            first = false;
            os << "  {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":"
               << pid << ",\"args\":{\"name\":\"" << jsonEscape(name)
               << "\"}}";
        }
        for (const auto &key : lanes) {
            const auto [pid, lane] = key;
            std::string name;
            if (auto it = laneNames_.find(key); it != laneNames_.end())
                name = it->second;
            else
                name = defaultLaneName(lane);
            if (!first)
                os << ",\n";
            first = false;
            os << "  {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":"
               << pid << ",\"tid\":" << lane
               << ",\"args\":{\"name\":\"" << jsonEscape(name)
               << "\"}}";
        }
    }

    std::vector<Event> events_;
    std::map<int, std::string> processNames_;
    std::map<std::pair<int, int>, std::string> laneNames_;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_TRACE_HH
