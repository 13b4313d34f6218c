#ifndef CINDERELLA_MVCC_PARTITION_VERSION_H_
#define CINDERELLA_MVCC_PARTITION_VERSION_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/catalog.h"
#include "core/partition.h"
#include "storage/cold_tier.h"
#include "storage/row.h"
#include "synopsis/synopsis.h"
#include "synopsis/synopsis_tree.h"

namespace cinderella {

/// An immutable copy-on-write snapshot of one partition, taken at a
/// publication point (see versioned_table.h). Readers scan versions
/// instead of live Partition objects, so the ingest writer never has to
/// take a lock the read path contends on.
///
/// Storage: each version is one exact-size heap buffer. This header sits
/// at its front and everything the version owns is packed behind it, so
/// a scan of one version walks sequential memory:
///
///   PartitionVersion       this header
///   PackedRow[row_count]   (id, cell range)     8+4+4 bytes each
///   Row::Cell[cell_total]  cell payloads, per-row slices sorted by attr
///   IndexSlot[pow2]        open-addressing point index, load <= 0.5
///   uint64_t[words]        synopsis bitset words
///   uint32_t[words*64]     dense per-attribute carrier counts
///
/// Cells hold Value variants; string payloads beyond the SSO buffer
/// remain heap-backed (the std::string inside the variant owns them), so
/// Destroy runs the cell destructors before it frees the buffer.
///
/// Lifetime: versions are created by the publisher, shared by any number
/// of CatalogViews, retired to the EpochManager exactly once (when they
/// leave the newest view), and destroyed when no pinned reader can reach
/// them. A version's buffer lives exactly as long as the version: it
/// shares no storage with the other versions of its publication.
class PartitionVersion {
 public:
  /// One row header: entity id plus its slice of the packed cell array.
  struct PackedRow {
    EntityId id;
    uint32_t cell_begin;
    uint32_t cell_count;
  };

  /// Packs the partition's current state into a fresh buffer sized for
  /// it. Must be called while the catalog is quiescent (the publisher's
  /// lock). When `held_bytes` is non-null, the buffer's size is added to
  /// it here and subtracted by Destroy; it must outlive the version.
  ///
  /// A *cold* partition (rows evicted to a page chain) yields a cold
  /// version: the synopsis, carrier counts, and size totals are packed
  /// as usual — pruning and estimation stay I/O-free — but no rows,
  /// cells, or point index are materialized. The version instead shares
  /// ownership of the partition's ColdChain (keeping its pages alive for
  /// snapshot readers even across a later fault-in or re-spill) and
  /// remembers `tier` so scans can fetch the chain.
  static const PartitionVersion* Create(
      const Partition& partition, const ColdTier* tier = nullptr,
      std::atomic<size_t>* held_bytes = nullptr);

  /// Destroys a version Create built and frees its buffer.
  static void Destroy(const PartitionVersion* version);

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

  /// The packed cell array; row i's cells are
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

  /// Size of this version's buffer, header included (diagnostics).
  size_t buffer_bytes() const { return buffer_bytes_; }

 private:
  struct IndexSlot {
    EntityId entity;
    uint32_t row;  // kEmptySlot when free.
  };
  static constexpr uint32_t kEmptySlot = ~uint32_t{0};

  /// Region sizes and byte offsets inside the buffer.
  struct Layout;

  /// Fills the header and the regions of the buffer it sits at the front
  /// of; only Create calls it.
  PartitionVersion(const Partition& partition, const ColdTier* tier,
                   const Layout& layout, std::atomic<size_t>* held_bytes);
  ~PartitionVersion();

  PartitionId id_;
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
  size_t buffer_bytes_ = 0;
  std::atomic<size_t>* held_bytes_ = nullptr;
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
  friend class CatalogCapture;

  std::vector<const PartitionVersion*> partitions_;
  uint64_t generation_ = 0;
  size_t entity_count_ = 0;
  SynopsisTreeSnapshot tree_;
};

/// An owned, immutable CatalogView of a quiescent PartitionCatalog, for
/// catalogs no VersionedTable publishes (the baseline partitioners, and
/// the tests and figure benches that compare Cinderella with them). Every
/// live partition — empty ones included, so scan counters match the
/// catalog's partition count — becomes a version built exactly as a
/// VersionedTable builds it, and the capture destroys them all when it
/// dies. Cold partitions are carried as their page chains and read through
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

}  // namespace cinderella

#endif  // CINDERELLA_MVCC_PARTITION_VERSION_H_
