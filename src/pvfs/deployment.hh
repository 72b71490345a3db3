/**
 * @file
 * PVFS deployment: the one place a metadata manager and its I/O
 * daemons are built.  It places and starts them, then hands clients
 * ready-made addresses and pre-sized files.
 *
 * The paper ran everything on one server node (Testbed 1 had two
 * machines); real PVFS installations spread iods across many nodes.
 * This builder supports both: pass one node, or a whole rack.
 */

#ifndef IOAT_PVFS_DEPLOYMENT_HH
#define IOAT_PVFS_DEPLOYMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "core/node.hh"
#include "pvfs/client.hh"
#include "pvfs/fs_state.hh"
#include "pvfs/server.hh"

namespace ioat::pvfs {

/**
 * Owns the daemons of one PVFS file system.  They start serving on
 * construction, the manager first, then the iods in index order.
 */
class Deployment
{
  public:
    /**
     * @param mgr_node node hosting the metadata manager
     * @param iod_nodes nodes hosting I/O daemons, assigned
     *        round-robin (one node may host several iods, as on the
     *        paper's testbed)
     */
    Deployment(const PvfsConfig &cfg, core::Node &mgr_node,
               std::vector<core::Node *> iod_nodes)
        : cfg_(cfg), mgr_(std::make_unique<MetadataManager>(
                         mgr_node, cfg_, fs_)),
          mgrAddr_{mgr_node.id(), cfg_.mgrPort}
    {
        sim::simAssert(!iod_nodes.empty(),
                       "deployment needs at least one iod node");
        for (unsigned i = 0; i < cfg_.iodCount; ++i) {
            core::Node &node = *iod_nodes[i % iod_nodes.size()];
            iods_.push_back(
                std::make_unique<IodServer>(node, cfg_, i));
            addrs_.push_back({node.id(), iods_.back()->port()});
        }
        mgr_->start();
        for (auto &iod : iods_)
            iod->start();
    }

    /** The paper's layout: the manager and every iod on @p node. */
    Deployment(const PvfsConfig &cfg, core::Node &node)
        : Deployment(cfg, node, {&node})
    {}

    const PvfsConfig &config() const { return cfg_; }
    FsState &fs() { return fs_; }
    MetadataManager &manager() { return *mgr_; }
    IodServer &iod(std::size_t i) { return *iods_.at(i); }
    std::size_t iodCount() const { return iods_.size(); }
    DaemonAddr managerAddr() const { return mgrAddr_; }
    const std::vector<DaemonAddr> &iodAddrs() const { return addrs_; }

    /** Create a client for a compute node of this file system. */
    std::unique_ptr<PvfsClient>
    makeClient(core::Node &compute_node)
    {
        return std::make_unique<PvfsClient>(compute_node, cfg_,
                                            mgrAddr_, addrs_);
    }

    /** Pre-create a file of a given size (metadata-only setup). */
    FileHandle
    presizeFile(const std::string &name, std::uint64_t bytes)
    {
        const FileHandle h = fs_.create(name);
        fs_.extendTo(h, bytes);
        return h;
    }

    /** Aggregate iod counters. */
    std::uint64_t
    totalBytesRead() const
    {
        std::uint64_t sum = 0;
        for (const auto &iod : iods_)
            sum += iod->bytesRead();
        return sum;
    }

    std::uint64_t
    totalBytesWritten() const
    {
        std::uint64_t sum = 0;
        for (const auto &iod : iods_)
            sum += iod->bytesWritten();
        return sum;
    }

  private:
    PvfsConfig cfg_;
    FsState fs_;
    std::unique_ptr<MetadataManager> mgr_;
    DaemonAddr mgrAddr_;
    std::vector<std::unique_ptr<IodServer>> iods_;
    std::vector<DaemonAddr> addrs_;
};

} // namespace ioat::pvfs

#endif // IOAT_PVFS_DEPLOYMENT_HH
