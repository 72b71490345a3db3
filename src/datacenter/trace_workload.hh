/**
 * @file
 * Mixed-size workload.
 *
 * The paper's evaluation uses synthetic single-file and Zipf traces;
 * real deployments serve wildly mixed object sizes.
 * MixedSizeZipfWorkload is Zipf popularity over a population whose
 * per-file sizes follow a SPECweb-like class mix (many small pages,
 * some images, few downloads), deterministic per file id.
 */

#ifndef IOAT_DATACENTER_TRACE_WORKLOAD_HH
#define IOAT_DATACENTER_TRACE_WORKLOAD_HH

#include <vector>

#include "datacenter/workload.hh"
#include "simcore/assert.hh"

namespace ioat::dc {

/**
 * Zipf popularity with a mixed object-size distribution.
 */
class MixedSizeZipfWorkload final : public Workload
{
  public:
    /** One object-size class. */
    struct SizeClass
    {
        double weight;     ///< fraction of the population
        std::size_t minBytes;
        std::size_t maxBytes;
    };

    /** SPECweb99-flavoured default mix. */
    static std::vector<SizeClass>
    defaultClasses()
    {
        return {
            {0.35, 1 * 1024, 10 * 1024},    // pages
            {0.50, 10 * 1024, 100 * 1024},  // images
            {0.14, 100 * 1024, 1024 * 1024}, // media
            {0.01, 1024 * 1024, 8 * 1024 * 1024}, // downloads
        };
    }

    MixedSizeZipfWorkload(double alpha, std::uint64_t files,
                          std::vector<SizeClass> classes =
                              defaultClasses(),
                          std::uint64_t size_seed = 12345)
        : zipf_(files, alpha), sizes_(files)
    {
        sim::simAssert(!classes.empty(), "need at least one size class");
        double total = 0.0;
        for (const auto &c : classes)
            total += c.weight;
        sim::simAssert(total > 0.0, "class weights must be positive");

        // Sizes are fixed per file id so every run (and both sides of
        // an I/OAT comparison) sees identical content.
        sim::Rng rng(size_seed);
        for (auto &sz : sizes_) {
            double u = rng.uniform() * total;
            const SizeClass *pick = &classes.back();
            for (const auto &c : classes) {
                if (u < c.weight) {
                    pick = &c;
                    break;
                }
                u -= c.weight;
            }
            sz = pick->minBytes +
                 rng.uniformInt(0, pick->maxBytes - pick->minBytes);
        }
    }

    Request
    next(sim::Rng &rng) override
    {
        const std::uint64_t id = zipf_.sample(rng);
        return {id, sizes_[id]};
    }

    std::uint64_t fileCount() const override { return sizes_.size(); }

    std::size_t
    fileSize(std::uint64_t id) const override
    {
        sim::simAssert(id < sizes_.size(), "file id out of range");
        return sizes_[id];
    }

    /** Population bytes (overrides the uniform-size base helper). */
    std::uint64_t
    corpusBytes() const
    {
        std::uint64_t sum = 0;
        for (auto sz : sizes_)
            sum += sz;
        return sum;
    }

  private:
    sim::ZipfDistribution zipf_;
    std::vector<std::size_t> sizes_;
};

} // namespace ioat::dc

#endif // IOAT_DATACENTER_TRACE_WORKLOAD_HH
