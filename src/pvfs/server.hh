/**
 * @file
 * PVFS server daemons: the metadata manager and the I/O daemon (iod).
 *
 * Mirrors the paper's Fig. 2b: one manager provides a consistent
 * namespace and handles metadata (it is *not* in the read/write data
 * path); N iods store file stripes on their local file system — here
 * ramfs, matching the paper's §6.1 choice to take disks out of the
 * picture — and move data directly to/from compute nodes.
 */

#ifndef IOAT_PVFS_SERVER_HH
#define IOAT_PVFS_SERVER_HH

#include <cstdint>
#include <map>

#include "core/app_memory.hh"
#include "core/node.hh"
#include "pvfs/config.hh"
#include "pvfs/fs_state.hh"
#include "simcore/lifecycle.hh"
#include "simcore/stats.hh"

namespace ioat::pvfs {

/**
 * The metadata manager daemon.  Hub name "pvfsMgr".
 */
class MetadataManager : public sim::telemetry::Instrumented,
                        public sim::Restartable
{
  public:
    MetadataManager(core::Node &node, const PvfsConfig &cfg,
                    FsState &fs);

    ~MetadataManager() override;

    MetadataManager(const MetadataManager &) = delete;
    MetadataManager &operator=(const MetadataManager &) = delete;

    /** Begin accepting on cfg.mgrPort. */
    void start();

    /** @name Crash–restart hooks (sim::Restartable)
     * The namespace (FsState) models the manager's *on-disk* metadata
     * and survives; the transport teardown happens in the Node's
     * hook, so the manager itself has no volatile state to wipe.
     *  @{ */
    void onCrash(sim::Tick) override {}
    void onRestart(sim::Tick) override {}
    /** @} */

    std::uint64_t opsServed() const { return ops_.value(); }

    void
    instrument(sim::telemetry::Registry &reg) override
    {
        reg.counter("opsServed", ops_, "metadata operations answered");
    }

  private:
    sim::Coro<void> acceptLoop();
    sim::Coro<void> serveConnection(sock::Socket conn);

    core::Node &node_;
    PvfsConfig cfg_;
    FsState &fs_;
    sim::stats::Counter ops_;
};

/**
 * One I/O daemon, serving its stripe of every file from ramfs.
 * Hub name "iod".
 */
class IodServer : public sim::telemetry::Instrumented,
                  public sim::Restartable
{
  public:
    IodServer(core::Node &node, const PvfsConfig &cfg, unsigned index);

    ~IodServer() override;

    IodServer(const IodServer &) = delete;
    IodServer &operator=(const IodServer &) = delete;

    /** Begin accepting on cfg.iodBasePort + index. */
    void start();

    /** @name Crash–restart hooks (sim::Restartable)
     * A crash loses the volatile applied-write state (ramfs contents
     * die with the node); the intent journal models an fsync'd log
     * and survives.  The restart replays it — re-applying every
     * journaled write, charging `journalReplayCost` per entry — which
     * restores "no acked write lost".  Without `journaledWrites`,
     * acked-but-volatile writes are gone after a crash, which is
     * exactly the regression a durability harness should catch.
     *  @{ */
    void onCrash(sim::Tick) override;
    void onRestart(sim::Tick) override;
    /** @} */

    unsigned index() const { return index_; }
    std::uint16_t port() const
    {
        return static_cast<std::uint16_t>(cfg_.iodBasePort + index_);
    }
    std::uint64_t bytesRead() const { return bytesRead_.value(); }
    std::uint64_t bytesWritten() const { return bytesWritten_.value(); }

    /** @name Durability-tracking state (cfg.trackDurability)
     *  @{ */
    /** Is write @p id currently applied (answerable from state)? */
    bool
    writeApplied(std::uint64_t id) const
    {
        return applied_.count(id) > 0;
    }
    std::size_t appliedWrites() const { return applied_.size(); }
    std::size_t journalEntries() const { return journal_.size(); }
    /** Writes acked whose payload was already applied (retry dedup). */
    std::uint64_t duplicateWrites() const { return dupWrites_.value(); }
    /** Journal entries re-applied across all restarts. */
    std::uint64_t journalReplays() const { return replays_.value(); }
    /** @} */

    void
    instrument(sim::telemetry::Registry &reg) override
    {
        reg.counter("bytesRead", bytesRead_,
                    "stripe bytes served to clients");
        reg.counter("bytesWritten", bytesWritten_,
                    "stripe bytes stored from clients");
        reg.counter("duplicateWrites", dupWrites_,
                    "retried writes deduplicated by id");
        reg.counter("journalReplays", replays_,
                    "journal entries re-applied on restart");
    }

  private:
    sim::Coro<void> acceptLoop();
    sim::Coro<void> serveConnection(sock::Socket conn);
    /** CPU work of replaying @p entries journal entries on restart. */
    sim::Coro<void> replayCost(std::size_t entries);

    core::Node &node_;
    PvfsConfig cfg_;
    unsigned index_;
    core::AppMemory mem_;
    sim::stats::Counter bytesRead_;
    sim::stats::Counter bytesWritten_;
    sim::stats::Counter dupWrites_;
    sim::stats::Counter replays_;
    // std::map: deterministic iteration (simcheck bans unordered).
    /** Volatile: write ids whose payload is in ramfs right now. */
    std::map<std::uint64_t, std::size_t> applied_;
    /** Durable: the ack-after-journal intent log (id -> bytes). */
    std::map<std::uint64_t, std::size_t> journal_;
};

} // namespace ioat::pvfs

#endif // IOAT_PVFS_SERVER_HH
