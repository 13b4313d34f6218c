#ifndef CINDERELLA_MVCC_PARTITION_VERSION_H_
#define CINDERELLA_MVCC_PARTITION_VERSION_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/arena.h"
#include "core/catalog.h"
#include "core/partition.h"
#include "storage/cold_tier.h"
#include "storage/row.h"
#include "synopsis/synopsis.h"
#include "synopsis/synopsis_tree.h"

namespace cinderella {

/// Fixed-size raw-storage free list for pooled version/view shells. The
/// publisher places PartitionVersion objects into recycled storage so
/// steady-state publication allocates nothing; the epoch reclaimer runs
/// the destructor and returns the storage here instead of freeing it.
/// Thread-safe (Acquire on the publisher thread, Return on whichever
/// thread drives reclamation).
class ShellPool {
 public:
  struct Stats {
    uint64_t created = 0;   // Acquire() misses (::operator new).
    uint64_t reused = 0;    // Acquire() hits.
    uint64_t recycled = 0;  // Returns.
    size_t pooled = 0;      // Currently idle.
  };

  ShellPool() = default;
  ~ShellPool();

  ShellPool(const ShellPool&) = delete;
  ShellPool& operator=(const ShellPool&) = delete;

  /// Storage of `size` bytes (the same size every call — one pool per
  /// shell type).
  void* Acquire(size_t size);

  /// Returns storage previously handed out by Acquire.
  void Return(void* storage);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::vector<void*> free_;
  size_t size_ = 0;
  uint64_t created_ = 0;
  uint64_t reused_ = 0;
  uint64_t recycled_ = 0;
};

/// An immutable copy-on-write snapshot of one partition, taken at a
/// publication point (see versioned_table.h). Readers scan versions
/// instead of live Partition objects, so the ingest writer never has to
/// take a lock the read path contends on.
///
/// Storage: everything the version owns — row headers, cell payloads,
/// point index, synopsis words, carrier counts — is packed into one
/// publication-shared Arena, so a ForEachPartition scan walks sequential
/// memory instead of chasing per-version heap blocks:
///
///   PackedRow[row_count]   (id, cell range)     8+4+4 bytes each
///   Row::Cell[cell_total]  cell payloads, per-row slices sorted by attr
///   IndexSlot[pow2]        open-addressing point index, load <= 0.5
///   uint64_t[words]        synopsis bitset words
///   uint32_t[words*64]     dense per-attribute carrier counts
///
/// Cells hold Value variants; string payloads beyond the SSO buffer
/// remain heap-backed (the std::string inside the variant owns them), so
/// the destructor destroys the cell array before the arena is recycled.
///
/// Lifetime: versions are created by the publisher, shared by any number
/// of CatalogViews, retired to the EpochManager exactly once (when they
/// leave the newest view), and reclaimed when no pinned reader can reach
/// them. Each version holds one reference on its arena; the arena
/// recycles into the publisher's ArenaPool when its last version dies.
class PartitionVersion {
 public:
  /// One row header: entity id plus its slice of the packed cell array.
  struct PackedRow {
    EntityId id;
    uint32_t cell_begin;
    uint32_t cell_count;
  };

  /// Packs the partition's current state into `arena` and takes one
  /// arena reference. Must be called while the catalog is quiescent (the
  /// publisher's lock).
  ///
  /// A *cold* partition (rows evicted to a page chain) yields a cold
  /// version: the synopsis, carrier counts, and size totals are packed
  /// into the arena as usual — pruning and estimation stay I/O-free —
  /// but no rows, cells, or point index are materialized. The version
  /// instead shares ownership of the partition's ColdChain (keeping its
  /// pages alive for snapshot readers even across a later fault-in or
  /// re-spill) and remembers `tier` so scans can fetch the chain.
  PartitionVersion(const Partition& partition, Arena* arena,
                   const ColdTier* tier = nullptr);

  ~PartitionVersion();

  PartitionVersion(const PartitionVersion&) = delete;
  PartitionVersion& operator=(const PartitionVersion&) = delete;

  PartitionId id() const { return id_; }

  size_t entity_count() const { return row_count_; }
  uint64_t cell_count() const {
    // Cold versions pack no cells; the logical count lives in the chain.
    return cold_chain_ != nullptr ? cold_chain_->cells : cell_total_;
  }
  uint64_t byte_size() const { return byte_size_; }

  /// True when this version's rows live in a cold page chain. Cold
  /// versions answer entity_count/byte_size/synopsis/carrier queries from
  /// memory; packed_rows/cell_data/row/ForEachRow must not be called on
  /// them (scan through cold_tier()->ReadChain(*cold_chain(), ...)), and
  /// Find returns an invalid view (no point index — the table facade
  /// falls back to a chain scan).
  bool cold() const { return cold_chain_ != nullptr; }

  /// The shared page chain backing a cold version (nullptr when hot).
  const ColdChain* cold_chain() const { return cold_chain_.get(); }

  /// The tier to read the chain through (nullptr when hot).
  const ColdTier* cold_tier() const { return tier_; }

  /// Row headers in the segment's scan order at capture time.
  const PackedRow* packed_rows() const { return rows_; }

  /// The shared cell array; row i's cells are
  /// cell_data()[rows[i].cell_begin .. +rows[i].cell_count).
  const Row::Cell* cell_data() const { return cells_; }

  /// View of row `i` (i < entity_count()).
  RowView row(size_t i) const {
    const PackedRow& r = rows_[i];
    return RowView(r.id, cells_ + r.cell_begin, r.cell_count);
  }

  /// Invokes `fn(const RowView&)` over the rows in scan order.
  template <typename Fn>
  void ForEachRow(Fn&& fn) const {
    for (size_t i = 0; i < row_count_; ++i) fn(row(i));
  }

  /// The pruning synopsis (set of attributes instantiated by residents).
  SynopsisSpan attribute_synopsis() const {
    return SynopsisSpan{synopsis_words_, synopsis_word_count_,
                        synopsis_cardinality_};
  }

  /// Residents instantiating `attribute` (estimator input), mirroring
  /// Partition::AttributeCarrierCount.
  uint32_t AttributeCarrierCount(AttributeId attribute) const {
    return attribute < carrier_len_ ? carrier_counts_[attribute] : 0;
  }

  /// Point lookup; an invalid view when the entity is not resident.
  RowView Find(EntityId entity) const;

  /// Bytes this version consumed from its arena (diagnostics).
  size_t arena_bytes() const { return arena_bytes_; }

  /// The shell pool this version's storage returns to on reclamation;
  /// nullptr when the shell was plain-new'ed. Set by the publisher.
  ShellPool* shell_pool() const { return shell_pool_; }

 private:
  friend class VersionedTable;

  struct IndexSlot {
    EntityId entity;
    uint32_t row;  // kEmptySlot when free.
  };
  static constexpr uint32_t kEmptySlot = ~uint32_t{0};

  PartitionId id_;
  Arena* arena_;
  const PackedRow* rows_;
  Row::Cell* cells_;  // Mutable only for the destructor's destroy pass.
  const IndexSlot* index_;
  uint32_t index_mask_ = 0;  // Index capacity - 1 (capacity: power of 2).
  uint32_t row_count_ = 0;
  uint32_t cell_total_ = 0;
  const uint64_t* synopsis_words_;
  size_t synopsis_word_count_ = 0;
  size_t synopsis_cardinality_ = 0;
  const uint32_t* carrier_counts_;
  uint32_t carrier_len_ = 0;
  uint64_t byte_size_ = 0;
  size_t arena_bytes_ = 0;
  ShellPool* shell_pool_ = nullptr;
  std::shared_ptr<const ColdChain> cold_chain_;  // Null when hot.
  const ColdTier* tier_ = nullptr;
};

/// One immutable generation of the whole catalog: an ascending-id array
/// of partition versions plus the table totals. A reader that pins an
/// epoch and loads the current view gets a transactionally consistent
/// image — prune-then-scan never observes a half-applied split cascade,
/// because cascades publish a single view swap after the cascade settled.
///
/// Views share unchanged versions with their predecessor; only partitions
/// the mutation touched are re-copied (COW at partition granularity).
/// View objects themselves are pooled (see VersionedTable): reclamation
/// clears and recycles them, keeping the partitions_ capacity.
class CatalogView {
 public:
  CatalogView() = default;

  CatalogView(const CatalogView&) = delete;
  CatalogView& operator=(const CatalogView&) = delete;

  /// Monotonic publication counter (1 = the initial view).
  uint64_t generation() const { return generation_; }

  size_t partition_count() const { return partitions_.size(); }
  size_t entity_count() const { return entity_count_; }

  /// Versions in ascending partition-id order.
  const std::vector<const PartitionVersion*>& partitions() const {
    return partitions_;
  }

  /// Invokes `fn(const PartitionVersion&)` for every partition in id
  /// order.
  template <typename Fn>
  void ForEachPartition(Fn&& fn) const {
    for (const PartitionVersion* version : partitions_) fn(*version);
  }

  /// Point lookup across all partitions of this generation; an invalid
  /// view when the entity is absent.
  RowView Find(EntityId entity) const;

  /// Union of every partition's attribute synopsis: the attributes any
  /// resident of this generation instantiates. This is the per-node
  /// pruning digest the networked coordinator caches — a query whose
  /// synopsis misses the union cannot match anything this node hosts
  /// (Definition 1 lifted from partitions to whole nodes). When the
  /// publisher attached a synopsis tree, this is the tree root's union
  /// (already maintained — no per-partition OR pass).
  Synopsis UnionSynopsis() const;

  /// Immutable synopsis tree over this generation's attribute synopses
  /// (leaf key = partition id), frozen at publication. Invalid (valid()
  /// == false) when the table runs without use_synopsis_tree. Readers
  /// descend it lock-free to skip whole subtrees whose union cannot
  /// intersect a query.
  const SynopsisTreeSnapshot& tree() const { return tree_; }

  /// Total byte footprint of the generation's rows (sum of version
  /// byte_size()), shipped in node-stats frames.
  uint64_t byte_size() const;

 private:
  friend class VersionedTable;
  friend class ViewPool;
  friend class CatalogCapture;

  std::vector<const PartitionVersion*> partitions_;
  uint64_t generation_ = 0;
  size_t entity_count_ = 0;
  SynopsisTreeSnapshot tree_;
  /// Recycle target on reclamation; nullptr when plain-new'ed. The
  /// pointer doubles as the free-list link owner — see
  /// VersionedTable::ReclaimView.
  class ViewPool* pool_ = nullptr;
};

/// An owned, immutable CatalogView of a quiescent PartitionCatalog, for
/// catalogs no VersionedTable publishes (the baseline partitioners, and
/// the tests and figure benches that compare Cinderella with them). Every
/// live partition — empty ones included, so scan counters match the
/// catalog's partition count — is packed into one unpooled Arena that
/// deletes itself when the capture's last version releases it. Cold
/// partitions are carried as their page chains and read through
/// ColdChain::tier, which must outlive the capture's scans. No synopsis
/// tree is built, so scans over a capture take the flat path.
///
/// The catalog may change or die after the capture is taken; the capture
/// keeps showing the state it packed.
class CatalogCapture {
 public:
  explicit CatalogCapture(const PartitionCatalog& catalog);
  ~CatalogCapture();

  CatalogCapture(const CatalogCapture&) = delete;
  CatalogCapture& operator=(const CatalogCapture&) = delete;

  const CatalogView& view() const { return view_; }

 private:
  CatalogView view_;
};

/// Free list of recycled CatalogView objects (kept constructed so their
/// partitions_ capacity survives reuse). Thread-safety mirrors ShellPool.
class ViewPool {
 public:
  struct Stats {
    uint64_t created = 0;
    uint64_t reused = 0;
    uint64_t recycled = 0;
    size_t pooled = 0;
  };

  ViewPool() = default;
  ~ViewPool();

  ViewPool(const ViewPool&) = delete;
  ViewPool& operator=(const ViewPool&) = delete;

  /// An empty view whose pool_ points here.
  CatalogView* Acquire();

  /// Clears `view` (keeping capacity) and free-lists it.
  void Return(CatalogView* view);

  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::vector<CatalogView*> free_;
  uint64_t created_ = 0;
  uint64_t reused_ = 0;
  uint64_t recycled_ = 0;
};

}  // namespace cinderella

#endif  // CINDERELLA_MVCC_PARTITION_VERSION_H_
