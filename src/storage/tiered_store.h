#ifndef CINDERELLA_STORAGE_TIERED_STORE_H_
#define CINDERELLA_STORAGE_TIERED_STORE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/cinderella.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/page_codec.h"
#include "pagestore/pager.h"
#include "storage/cold_tier.h"

namespace cinderella {

/// Settings of the cold tier.
struct TieredStoreOptions {
  std::string path;           // Backing page file (required).
  size_t page_size = 8192;    // Bytes per page, in [64, 65536].
  size_t pool_frames = 64;    // Buffer-pool frames for cold reads (>= 2).
  uint64_t budget_bytes = 0;  // Hot-tier byte budget; 0 = no auto-spill.
  uint64_t min_idle = 2;      // Evaluations a partition must go untouched
                              // before it may spill.
};

/// Residency and I/O counters of the tier.
struct TieredStoreStats {
  uint64_t chains = 0;          // Live cold chains.
  uint64_t cold_entities = 0;
  uint64_t cold_bytes = 0;      // Logical bytes of the cold rows.
  uint64_t cold_pages = 0;
  uint64_t chains_written = 0;  // Lifetime spills through this tier.
  uint64_t chains_dropped = 0;  // Lifetime chain releases (faults/retires).
  BufferPoolStats pool;
  uint64_t pager_pages_read = 0;
  uint64_t pager_pages_written = 0;
  uint64_t file_pages = 0;      // Page ids handed out, freed ones included.
  uint64_t free_pages = 0;
};

/// The cold tier: write-once page chains in one file, read through an LRU
/// buffer pool, under one mutex, implementing the ColdTier interface the
/// core engine spills through.
///
/// A chain's pages are written once, full, straight to the file, and
/// never changed: a chain is read whole and then dropped whole. Dropping
/// discards the chain's frames from the pool and returns its page ids to
/// the pager's in-memory free list, so a later chain may reuse them. The
/// mutex serializes every chain write/read/drop so concurrent MVCC
/// snapshot readers can scan cold chains while the writer spills new
/// ones. Chains are handed out as shared_ptr<const ColdChain> whose
/// deleter routes back here (through a registry the destructor clears,
/// so a release after the tier was destroyed is a no-op) — a pinned
/// snapshot can therefore outlive the partition's fault-in and keep
/// reading its chain.
class TieredStore : public ColdTier {
 public:
  /// Creates the backing file (truncating any previous one — recovery
  /// re-spills through journal replay, it never reuses old pages).
  static StatusOr<std::unique_ptr<TieredStore>> Open(
      TieredStoreOptions options);

  ~TieredStore() override;

  TieredStore(const TieredStore&) = delete;
  TieredStore& operator=(const TieredStore&) = delete;

  /// Fails with InvalidArgument, writing nothing, when a row does not fit
  /// in one page; on a write error the pages taken so far go back to the
  /// free list.
  StatusOr<std::shared_ptr<const ColdChain>> WriteChain(
      const std::vector<Row>& rows) override;
  Status ReadChain(const ColdChain& chain,
                   const std::function<void(Row&&)>& fn) const override;

  TieredStoreStats stats() const;
  const TieredStoreOptions& options() const { return options_; }

 private:
  // Shared with every chain deleter; `store` is nulled in the destructor
  // so late releases (pinned snapshots outliving the tier) are safe.
  struct Registry {
    std::mutex mu;
    TieredStore* store = nullptr;
  };

  TieredStore(TieredStoreOptions options, std::unique_ptr<Pager> pager);

  /// Encodes `rows` into pages, writing each page once it is full.
  Status WritePages(const std::vector<Row>& rows,
                    std::vector<uint64_t>* pages);
  /// Discards the pages' frames and frees their ids. No I/O.
  void ReleasePages(const std::vector<uint64_t>& pages);
  void DropChain(const ColdChain& chain);

  TieredStoreOptions options_;
  std::shared_ptr<Registry> registry_;
  mutable std::mutex mu_;  // Serializes all access to the page stack.
  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  PageCodec codec_;
  std::vector<uint8_t> page_;  // WritePages' encode buffer.
  uint64_t chains_ = 0;
  uint64_t cold_entities_ = 0;
  uint64_t cold_bytes_ = 0;
  uint64_t cold_pages_ = 0;
  uint64_t chains_written_ = 0;
  uint64_t chains_dropped_ = 0;
};

/// Spill policy of the TierController; callers usually copy
/// TieredStoreOptions::{budget_bytes, min_idle} in.
struct TierControllerOptions {
  uint64_t budget_bytes = 0;  // Hot-tier byte budget; 0 = never auto-spill.
  uint64_t min_idle = 2;      // Evaluations a partition must go untouched.
};

/// The spill policy driver: watches catalog mutations (as a listener on
/// the engine), and on each evaluation — the ingest layer fires one per
/// committed window, DurableTable one per serial op — evicts the coldest
/// idle partitions until the hot tier fits its byte budget.
///
/// "Coldest" orders by (query activity asc, last-touch tick asc, id asc):
/// query activity comes from an optional probe (the tuner's decayed
/// workload counters when attached, 0 otherwise), last-touch from the
/// mutation stream. Runs under the same external serialization as the
/// engine itself (the ingest commit lock / the durable table's op loop).
class TierController {
 public:
  TierController(Cinderella* engine, TierControllerOptions options);
  ~TierController();

  TierController(const TierController&) = delete;
  TierController& operator=(const TierController&) = delete;

  /// Supplies decayed per-partition query activity (e.g. a lambda over
  /// WorkloadTracker::ActivityOf). Unset = all partitions equally cold.
  void set_activity_probe(std::function<double(PartitionId)> probe) {
    probe_ = std::move(probe);
  }

  /// One policy evaluation: advances the idle clock, folds in the
  /// mutations since the last call, then spills until the hot tier fits
  /// the budget. Returns the number of partitions spilled (0 when the
  /// budget is 0 or already met).
  StatusOr<size_t> EvaluateAndSpill();

  /// Spills the given partitions unconditionally (the tuner's evict-idle
  /// plans route here); already-cold or since-dropped ids are skipped.
  /// Returns the number actually spilled.
  StatusOr<size_t> SpillPartitions(const std::vector<PartitionId>& ids);

  /// Hot-tier footprint in bytes (sum over hot partitions).
  uint64_t HotBytes() const;

  uint64_t evaluations() const { return tick_; }

 private:
  void AbsorbMutations();

  Cinderella* engine_;
  TierControllerOptions options_;
  std::function<double(PartitionId)> probe_;
  CatalogMutations listener_;
  std::unordered_map<PartitionId, uint64_t> last_touch_;
  uint64_t tick_ = 0;
};

}  // namespace cinderella

#endif  // CINDERELLA_STORAGE_TIERED_STORE_H_
