/**
 * @file
 * Capacity-level L2 cache occupancy model.
 *
 * The paper's split-header result (Fig. 7b) is a cache-pollution
 * effect: incoming network payload competes with the application's
 * working set and the stack's header/metadata structures for the 2 MB
 * L2.  We model this at *capacity* granularity: components register
 * footprints; protected ("pinned") footprints — e.g. the split-header
 * pool, which is small and extremely hot — get capacity first, and the
 * remainder is shared proportionally among the rest.
 *
 * residency(id) answers "what fraction of this footprint's lines will
 * a streaming access find in cache", which feeds the copy model.
 */

#ifndef IOAT_MEM_CACHE_MODEL_HH
#define IOAT_MEM_CACHE_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/telemetry/registry.hh"

namespace ioat::mem {

/** Opaque footprint handle. */
using FootprintId = std::uint32_t;

/**
 * Tracks named memory footprints competing for a fixed cache capacity.
 *
 * Residency depends on only two totals, the protected and the
 * streaming bytes, so the model keeps them as running sums that every
 * add, resize and remove updates: a residency query is O(1) whatever
 * the number of footprints.  Unsigned sums are exact in any order of
 * updates, so a query returns the same double a recount would.
 */
class CacheModel
{
  public:
    explicit CacheModel(std::size_t capacity_bytes)
        : capacity_(capacity_bytes)
    {
        sim::simAssert(capacity_bytes > 0, "cache capacity must be > 0");
    }

    std::size_t capacity() const { return capacity_; }

    /**
     * Register a footprint.
     *
     * @param name debugging label
     * @param bytes current size of the working set
     * @param protectedHot model this footprint as winning cache
     *        capacity before the streaming ones (split-header pool,
     *        hot metadata)
     */
    FootprintId
    addFootprint(std::string name, std::size_t bytes,
                 bool protectedHot = false)
    {
        const auto id = static_cast<FootprintId>(footprints_.size());
        footprints_.push_back(
            Footprint{std::move(name), bytes, protectedHot, true});
        sumOf(protectedHot) += bytes;
        ++live_;
        return id;
    }

    /** Update a footprint's size (working sets grow and shrink). */
    void
    resizeFootprint(FootprintId id, std::size_t bytes)
    {
        Footprint &f = at(id);
        std::size_t &sum = sumOf(f.protectedHot);
        sum -= f.bytes;
        sum += bytes;
        f.bytes = bytes;
    }

    void
    removeFootprint(FootprintId id)
    {
        Footprint &f = at(id);
        sumOf(f.protectedHot) -= f.bytes;
        f.bytes = 0;
        f.live = false;
        --live_;
    }

    std::size_t footprintSize(FootprintId id) const { return at(id).bytes; }

    /** Sum of all registered footprints. */
    std::size_t
    totalFootprint() const
    {
        return protectedBytes_ + streamingBytes_;
    }

    /**
     * Fraction of this footprint's lines expected resident.
     *
     * Protected footprints claim capacity first (shared
     * proportionally among themselves if they alone exceed capacity);
     * unprotected footprints share what remains in proportion to
     * size.
     */
    double
    residency(FootprintId id) const
    {
        const Footprint &f = at(id);
        if (f.bytes == 0)
            return 1.0;

        if (f.protectedHot) {
            if (protectedBytes_ <= capacity_)
                return 1.0;
            return static_cast<double>(capacity_) /
                   static_cast<double>(protectedBytes_);
        }

        const std::size_t left = streamingCapacity();
        if (streamingBytes_ <= left)
            return 1.0;
        if (left == 0)
            return 0.0;
        return static_cast<double>(left) /
               static_cast<double>(streamingBytes_);
    }

    /**
     * Residency of a hypothetical streaming footprint of @p bytes on
     * top of the current contents (for one-shot transfers that are
     * not worth registering).
     */
    double
    transientResidency(std::size_t bytes) const
    {
        if (bytes == 0)
            return 1.0;
        const std::size_t left = streamingCapacity();
        const std::size_t demand = streamingBytes_ + bytes;
        if (demand <= left)
            return 1.0;
        if (left == 0)
            return 0.0;
        return static_cast<double>(left) / static_cast<double>(demand);
    }

    std::size_t footprintCount() const { return live_; }

    /** Publish cache telemetry (called under the node's "cache"
     *  scope). */
    void
    instrument(sim::telemetry::Registry &reg)
    {
        reg.scalar(
            "capacityBytes",
            [this] { return static_cast<double>(capacity_); },
            "modelled L2 capacity");
        reg.scalar(
            "footprints",
            [this] { return static_cast<double>(live_); },
            "registered working sets");
        reg.probe(
            "footprintBytes", sim::telemetry::ProbeKind::gauge,
            [this] { return static_cast<double>(totalFootprint()); },
            "total working-set demand on the cache");
    }

  private:
    struct Footprint
    {
        std::string name;
        std::size_t bytes;
        bool protectedHot;
        bool live;
    };

    bool
    known(FootprintId id) const
    {
        return id < footprints_.size() && footprints_[id].live;
    }

    const Footprint &
    at(FootprintId id) const
    {
        sim::simAssert(known(id), "unknown footprint");
        return footprints_[id];
    }

    Footprint &
    at(FootprintId id)
    {
        sim::simAssert(known(id), "unknown footprint");
        return footprints_[id];
    }

    std::size_t &
    sumOf(bool protectedHot)
    {
        return protectedHot ? protectedBytes_ : streamingBytes_;
    }

    /** Capacity left to the streaming footprints. */
    std::size_t
    streamingCapacity() const
    {
        return protectedBytes_ >= capacity_ ? 0 : capacity_ - protectedBytes_;
    }

    std::size_t capacity_;
    /** Indexed by id; a removed footprint's slot stays, dead. */
    std::vector<Footprint> footprints_;
    std::size_t live_ = 0;
    std::size_t protectedBytes_ = 0;
    std::size_t streamingBytes_ = 0;
};

} // namespace ioat::mem

#endif // IOAT_MEM_CACHE_MODEL_HH
