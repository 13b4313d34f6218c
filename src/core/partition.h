#ifndef CINDERELLA_CORE_PARTITION_H_
#define CINDERELLA_CORE_PARTITION_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/refcounted_synopsis.h"
#include "core/size_measure.h"
#include "storage/cold_tier.h"
#include "storage/segment.h"
#include "synopsis/synopsis.h"

namespace cinderella {

/// Stable identifier of a partition within a catalog. Ids of dropped
/// partitions are never reused.
using PartitionId = uint32_t;

/// One horizontal partition: its physical segment, its catalog metadata
/// (attribute synopsis and, in workload-based mode, a separate rating
/// synopsis), and its pair of split starters (Section III).
class Partition {
 public:
  /// A split starter: a resident entity remembered with its rating
  /// synopsis so starter comparisons need no row lookup.
  struct Starter {
    EntityId entity;
    Synopsis synopsis;
  };

  /// `separate_rating_synopsis` is true in workload-based mode, where the
  /// rating ids (query ids) differ from the attribute ids; in entity-based
  /// mode the rating synopsis aliases the attribute synopsis and only one
  /// refcount structure is maintained.
  Partition(PartitionId id, bool separate_rating_synopsis);

  Partition(const Partition&) = delete;
  Partition& operator=(const Partition&) = delete;

  PartitionId id() const { return id_; }

  /// Adds `row`. `rating_synopsis` is the entity's rating synopsis (equal
  /// to the row's attribute synopsis in entity-based mode). Ids newly
  /// appearing in the partition's rating synopsis are appended to
  /// `*rating_ids_added` when non-null (feeds the synopsis index).
  Status AddRow(Row row, const Synopsis& rating_synopsis,
                std::vector<AttributeId>* rating_ids_added = nullptr);

  /// Removes and returns the row for `entity`. `rating_synopsis` must be
  /// the same synopsis passed at AddRow time. Ids vanishing from the
  /// rating synopsis are appended to `*rating_ids_removed` when non-null.
  StatusOr<Row> RemoveRow(EntityId entity, const Synopsis& rating_synopsis,
                          std::vector<AttributeId>* rating_ids_removed = nullptr);

  /// Replaces the entity's row in place (update that stays in its
  /// partition). Both the old and the new rating synopses are needed to
  /// maintain refcounts.
  Status ReplaceRow(Row row, const Synopsis& old_rating_synopsis,
                    const Synopsis& new_rating_synopsis,
                    std::vector<AttributeId>* rating_ids_added = nullptr,
                    std::vector<AttributeId>* rating_ids_removed = nullptr);

  const Segment& segment() const { return segment_; }

  /// Streams the partition's rows whichever tier holds them: hot rows in
  /// segment scan order, cold rows in chain order, read through the
  /// chain's tier (ColdChain::tier). Returns the chain read's status (OK
  /// for a hot partition). Requires external serialization against
  /// mutations, like every other accessor.
  Status ForEachRow(const std::function<void(const Row&)>& fn) const;

  /// Set of attributes instantiated by at least one resident entity; the
  /// catalog synopsis used for query pruning.
  const Synopsis& attribute_synopsis() const { return attributes_.synopsis(); }

  /// Synopsis used by the partition rating; equals attribute_synopsis()
  /// in entity-based mode.
  const Synopsis& rating_synopsis() const {
    return separate_rating_ ? rating_.synopsis() : attributes_.synopsis();
  }

  /// Number of resident entities instantiating `attribute` — the
  /// per-partition carrier count behind the synopsis, used by the
  /// selectivity estimator (query/estimator.h).
  uint32_t AttributeCarrierCount(AttributeId attribute) const {
    return attributes_.RefCount(attribute);
  }

  /// The full refcounted attribute synopsis; copied into immutable
  /// partition versions by the MVCC publisher (mvcc/partition_version.h).
  const RefcountedSynopsis& attribute_refcounts() const { return attributes_; }

  /// SIZE(p) under the given measure. Answered from the cold chain's
  /// stored totals while the partition is cold (identical values — the
  /// chain carries the segment's counts at spill time), so the rating
  /// never touches a page.
  uint64_t Size(SizeMeasure measure) const;

  size_t entity_count() const {
    return cold_chain_ != nullptr ? static_cast<size_t>(cold_chain_->entities)
                                  : segment_.entity_count();
  }

  // -- Cold residency (two-tier storage) ------------------------------------

  /// True while the partition's rows live in a cold-tier page chain
  /// instead of the segment. Synopses, refcounts, starters and size
  /// totals stay memory-resident, so rating and pruning are unaffected;
  /// only row access (mutations, drains, scans) requires a fault-in.
  bool cold() const { return cold_chain_ != nullptr; }

  /// The chain descriptor while cold, nullptr otherwise. Shared with the
  /// MVCC versions published during the cold span; the chain's pages are
  /// freed when the last holder releases it.
  const std::shared_ptr<const ColdChain>& cold_chain() const {
    return cold_chain_;
  }

  /// Marks the partition cold: discards the segment's rows (they were
  /// just written to `chain`, whose totals must match) and remembers the
  /// chain. Synopsis refcounts and starters are untouched.
  void SetCold(std::shared_ptr<const ColdChain> chain);

  /// Faults the partition back hot: re-inserts `rows` (the chain's rows,
  /// in chain order — the segment's scan order at spill time, so
  /// subsequent behaviour is bit-identical to never having spilled) and
  /// releases the chain reference.
  Status FaultIn(std::vector<Row> rows);

  /// Sparseness of the partition: 1 − cells / (entities · |synopsis|);
  /// 0 for an empty partition or an empty synopsis.
  double Sparseness() const;

  // -- Split starters ------------------------------------------------------

  const std::optional<Starter>& starter_a() const { return starter_a_; }
  const std::optional<Starter>& starter_b() const { return starter_b_; }
  void set_starter_a(std::optional<Starter> s) { starter_a_ = std::move(s); }
  void set_starter_b(std::optional<Starter> s) { starter_b_ = std::move(s); }
  void ClearStarters();

 private:
  PartitionId id_;
  bool separate_rating_;
  Segment segment_;
  RefcountedSynopsis attributes_;
  RefcountedSynopsis rating_;  // Used only when separate_rating_.
  std::shared_ptr<const ColdChain> cold_chain_;  // Non-null while cold.
  std::optional<Starter> starter_a_;
  std::optional<Starter> starter_b_;
};

}  // namespace cinderella

#endif  // CINDERELLA_CORE_PARTITION_H_
