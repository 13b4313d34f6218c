#ifndef CINDERELLA_PAGESTORE_PAGED_STORE_H_
#define CINDERELLA_PAGESTORE_PAGED_STORE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/catalog.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/page_codec.h"
#include "query/query.h"

namespace cinderella {

/// Physical I/O counters of one paged query.
struct PagedScanResult {
  uint64_t partitions_total = 0;
  uint64_t partitions_scanned = 0;
  uint64_t partitions_pruned = 0;
  uint64_t pages_fetched = 0;    // Buffer pool fetches issued by the scan.
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
};

/// Disk-resident image of a horizontal partitioning: each partition is a
/// chain of slotted pages, with the partition synopses kept in memory for
/// pruning — the paper's "pages may represent a partition granularity"
/// deployment (Section II).
///
/// A query fetches only the page chains of partitions whose synopsis
/// intersects the query, so the number of pages read (the physical cost
/// on a disk-based system) shrinks exactly with the pruning rate.
class PagedStore {
 public:
  /// `pool` must be constructed over `pager`; the store allocates and
  /// frees pages through the pager and reads/writes them through the
  /// pool. With `track_entities` false the per-entity index is not
  /// maintained: Insert skips the duplicate-id check (the same entity may
  /// appear in several chains) and Delete/Lookup are unavailable — the
  /// mode the cold tier uses, where chains are dropped wholesale and the
  /// hot engine owns entity identity.
  PagedStore(Pager* pager, BufferPool* pool, bool track_entities = true);

  PagedStore(const PagedStore&) = delete;
  PagedStore& operator=(const PagedStore&) = delete;

  /// Materializes one partition from an in-memory catalog partition:
  /// writes its rows into a fresh page chain and registers its synopsis.
  /// Returns the store-local partition index.
  StatusOr<size_t> AddPartition(const Partition& partition);

  /// Creates an empty partition, reusing the slot of a dropped partition
  /// when one exists.
  size_t AddEmptyPartition();

  /// Frees every page of partition `index` and retires its slot for reuse
  /// by AddEmptyPartition. Entity-index entries pointing into the chain
  /// are erased.
  Status DropPartition(size_t index);

  /// Appends a row to partition `index`, growing its chain as needed and
  /// updating its synopsis.
  Status Insert(size_t index, const Row& row);

  /// Tombstones an entity's row. The synopsis is *not* shrunk (a
  /// conservative over-approximation, like real systems' stale catalog
  /// stats); once the chain's tombstone ratio reaches vacuum_threshold()
  /// the chain is compacted and its synopsis rebuilt automatically.
  Status Delete(EntityId entity);

  /// Point lookup via the in-memory entity index.
  StatusOr<Row> Lookup(EntityId entity);

  /// Streams the live rows of partition `index`, in chain order, into
  /// `fn`.
  Status ForEachRow(size_t index, const std::function<void(Row&&)>& fn);

  /// Executes an attribute-set query with synopsis pruning; rows of
  /// non-pruned partitions are decoded and matched.
  StatusOr<PagedScanResult> ExecuteQuery(const Query& query);

  /// Compacts one chain (dropping tombstones), frees its surplus pages,
  /// and recomputes its synopsis.
  Status VacuumChain(size_t index);

  /// Compacts every page (dropping tombstones) and recomputes synopses.
  Status Vacuum();

  /// Tombstone ratio (tombstones / stored slots, per chain) at which
  /// Delete triggers an automatic VacuumChain. <= 0 disables the
  /// trigger. Default 0.5.
  double vacuum_threshold() const { return vacuum_threshold_; }
  void set_vacuum_threshold(double ratio) { vacuum_threshold_ = ratio; }

  /// Partition slots, including dropped ones awaiting reuse.
  size_t partition_count() const { return partitions_.size(); }
  uint64_t entity_count() const { return entity_index_.size(); }

  bool PartitionDropped(size_t index) const;

  /// Pages used by partition `index`.
  size_t PartitionPageCount(size_t index) const;

  /// Live (non-tombstoned) rows stored in partition `index`.
  uint64_t PartitionRowCount(size_t index) const;

  /// Tombstoned slots in partition `index` (reset by vacuum).
  uint64_t PartitionTombstoneCount(size_t index) const;

  const Synopsis& PartitionSynopsis(size_t index) const;

 private:
  struct PartitionChain {
    std::vector<PageId> pages;
    Synopsis synopsis;
    uint64_t row_count = 0;
    uint64_t tombstones = 0;
    bool dropped = false;
  };
  struct RowLocation {
    size_t partition;
    PageId page;
    uint16_t slot;
  };

  Status AppendToChain(PartitionChain& chain, size_t partition_index,
                       const Row& row);
  Status FreeChainPages(PartitionChain& chain);

  Pager* pager_;
  BufferPool* pool_;
  PageCodec codec_;
  bool track_entities_;
  double vacuum_threshold_ = 0.5;
  std::vector<PartitionChain> partitions_;
  std::vector<size_t> free_slots_;
  std::unordered_map<EntityId, RowLocation> entity_index_;
};

}  // namespace cinderella

#endif  // CINDERELLA_PAGESTORE_PAGED_STORE_H_
