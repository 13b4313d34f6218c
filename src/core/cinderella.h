#ifndef CINDERELLA_CORE_CINDERELLA_H_
#define CINDERELLA_CORE_CINDERELLA_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/catalog.h"
#include "core/config.h"
#include "core/partitioner.h"
#include "core/synopsis_extractor.h"
#include "core/synopsis_index.h"
#include "storage/cold_tier.h"
#include "storage/row.h"
#include "synopsis/synopsis.h"

namespace cinderella {

/// Operation counters exposed for the benches (e.g. the split counts the
/// paper reports for Figure 8: 448 splits at B=500, 100 at B=5000, 0 at
/// B=50000 on the DBpedia load).
struct CinderellaStats {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t updates = 0;
  uint64_t updates_moved = 0;          // Updates that changed partition.
  uint64_t partitions_created = 0;
  uint64_t partitions_dropped = 0;
  uint64_t splits = 0;
  uint64_t split_cascades = 0;         // Splits triggered inside a split.
  uint64_t entities_redistributed = 0; // Rows moved during splits.
  uint64_t partitions_rated = 0;       // Rating evaluations performed.
  uint64_t partitions_dissolved = 0;   // Under-filled partitions dissolved.
  uint64_t entities_reinserted = 0;    // Rows re-homed by dissolution.
  uint64_t spills = 0;                 // Partitions evicted to the cold tier.
  uint64_t faults = 0;                 // Cold partitions faulted back hot.
};

/// Partition ids touched by catalog mutations, recorded for mutation
/// listeners: `touched` lists every partition that gained, lost or
/// replaced a row (ids may repeat), `created` the partitions added to the
/// catalog, and `dropped` the partitions removed from it. The batched
/// mutation engine (src/ingest) uses the record to refresh its sharded
/// packed mirror incrementally instead of rebuilding it after every
/// commit; the MVCC publisher (src/mvcc) accumulates it into the pending
/// snapshot delta.
struct CatalogMutations {
  std::vector<PartitionId> touched;
  std::vector<PartitionId> created;
  std::vector<PartitionId> dropped;
};

/// Hook through which Cinderella's batch entry points (InsertBatch,
/// UpdateBatch, DeleteBatch, ApplyMutations, Reorganize) delegate to the
/// batched mutation engine (src/ingest/mutation_pipeline.h). Lives outside
/// src/core so the core library carries no ingest dependency; the engine
/// owns its thread pool and sharded catalog mirror and calls back into
/// Cinderella via the *Resolved hooks for each placement.
class BatchMutationEngine {
 public:
  virtual ~BatchMutationEngine() = default;
  virtual Status InsertBatch(std::vector<Row> rows) = 0;
  virtual Status UpdateBatch(std::vector<Row> rows) = 0;
  virtual Status DeleteBatch(const std::vector<EntityId>& entities) = 0;
  virtual Status ApplyMutations(std::vector<Mutation> ops,
                                size_t* applied) = 0;
  virtual Status Reorganize() = 0;
};

/// The Cinderella online horizontal partitioner (Sections III-IV).
///
/// Implements Algorithm 1 with the deviations documented in DESIGN.md:
/// the entity triggering a split is inserted restricted to the two new
/// partitions after redistribution; restricted inserts never create new
/// partitions; deleted split starters are re-seeded lazily.
///
/// Thread-compatible, not thread-safe: one instance per table, external
/// synchronization required for concurrent use (the paper's setting is a
/// per-statement trigger, i.e. serial).
class Cinderella : public Partitioner {
 public:
  /// Creates an entity-based partitioner. Returns InvalidArgument for a
  /// bad config or a workload-based mode without a workload.
  static StatusOr<std::unique_ptr<Cinderella>> Create(CinderellaConfig config);

  /// Creates a workload-based partitioner: `workload[i]` is the attribute
  /// synopsis of query i, and entity synopses are bitsets over query ids.
  static StatusOr<std::unique_ptr<Cinderella>> Create(
      CinderellaConfig config, std::vector<Synopsis> workload);

  // -- Partitioner interface ------------------------------------------------

  Status Insert(Row row) override;
  Status Delete(EntityId entity) override;
  Status Update(Row row) override;
  /// The batch entry points route through the attached BatchMutationEngine
  /// when one is set, else fall back to the validated serial loops of the
  /// base class. Either way, placements are identical to serial
  /// single-row operations.
  Status InsertBatch(std::vector<Row> rows) override;
  Status UpdateBatch(std::vector<Row> rows) override;
  Status DeleteBatch(const std::vector<EntityId>& entities) override;
  Status ApplyMutations(std::vector<Mutation> ops,
                        size_t* applied = nullptr) override;
  PartitionCatalog& catalog() override { return catalog_; }
  const PartitionCatalog& catalog() const override { return catalog_; }
  std::string name() const override;

  const CinderellaConfig& config() const { return config_; }
  const CinderellaStats& stats() const { return stats_; }

  /// Rating synopsis of a row under the active mode (attribute set, or
  /// relevant-query set in workload-based mode).
  Synopsis ExtractSynopsis(const Row& row) const { return extractor_(row); }

  /// Deep self-check of every structural invariant: entity bindings are
  /// bijective with resident rows, partition synopses equal the union of
  /// their residents' synopses (attribute and rating side), per-measure
  /// sizes match, capacity holds for the entity measure, no partition is
  /// empty, and split starters are resident with accurate synopses.
  /// O(total cells); intended for tests, tools (`stats --verify`) and
  /// after restoring persisted state. Returns Internal with a diagnostic
  /// on the first violation.
  Status VerifyIntegrity() const;

  /// Full reorganization pass (extension): extracts every entity and
  /// re-inserts it through the normal routine, in descending synopsis
  /// cardinality so the most descriptive entities seed the partitions.
  /// Use to repair a partitioning degraded by adversarial arrival order
  /// or heavy churn; cost is one full reload. Counted in stats() as one
  /// dissolution per prior partition plus one reinsertion per entity.
  /// Routes through the attached engine when one is set (same final
  /// catalog, amortized window scans, per-window MVCC publication).
  Status Reorganize();

  /// Snapshot support: materializes one partition with exactly `rows`,
  /// bypassing the rating (the placement was already decided when the
  /// snapshot was taken). Fails on duplicate entity ids. `starter_a` and
  /// `starter_b` are the entity ids of the saved split starters (nullopt
  /// for an empty slot); each must be a row of `rows` (InvalidArgument
  /// otherwise), and its synopsis is re-derived from that row. Slots left
  /// empty are re-seeded lazily on the next structural operation.
  Status RestorePartition(
      std::vector<Row> rows,
      std::optional<EntityId> starter_a = std::nullopt,
      std::optional<EntityId> starter_b = std::nullopt);

  /// The query set W of workload-based mode (empty in entity-based mode);
  /// snapshots persist it so a restored instance rates identically.
  const std::vector<Synopsis>& workload() const;

  // -- Batched-mutation engine hooks (src/ingest) ---------------------------

  /// Inserts a row whose placement was already resolved externally:
  /// `target` must be the partition the serial rating scan would pick for
  /// `row` (nullptr for "no partition rates >= 0: create a new one"), and
  /// `synopsis` the row's rating synopsis under the active mode. Runs
  /// everything of Insert() downstream of the scan — duplicate check,
  /// starter maintenance, capacity check, split cascade, binding — so a
  /// caller that computes the same argmax the serial scan would (the batch
  /// engine's revalidated top-2) produces the exact serial catalog state.
  Status InsertResolved(Row row, const Synopsis& synopsis, Partition* target);

  /// Result of one externally-resolved rating scan: the argmax the serial
  /// FindBestPartition would return for the same synopsis/size, or
  /// `valid == false` for an empty catalog.
  struct ResolvedScan {
    bool valid = false;
    PartitionId id = 0;
    double rating = 0.0;
  };

  /// Callback supplying rating-scan results to UpdateResolved. Called up
  /// to twice per update — once for the stay decision with the old row
  /// still resident, once after the removal for the re-placement — and
  /// must each time return the exact argmax (rating-desc, id-asc
  /// tie-break) over the live catalog at that instant.
  using ScanResolver =
      std::function<ResolvedScan(const Synopsis& synopsis, double entity_size)>;

  /// Updates a row whose rating scans are supplied by `resolve`: runs
  /// everything of Update() except the scans themselves — home lookup,
  /// stay-or-move decision, removal, starter repair, re-placement, source
  /// dissolution — so a resolver that reproduces the serial argmax yields
  /// the exact serial catalog state. `new_synopsis` must be the rating
  /// synopsis of `row` under the active mode.
  Status UpdateResolved(Row row, const Synopsis& new_synopsis,
                        const ScanResolver& resolve);

  /// Re-inserts a drained row during Reorganize with its placement already
  /// resolved (the reorganize-side mirror of InsertResolved; counted as a
  /// reinsertion, not an insert).
  Status ReinsertResolved(Row row, const Synopsis& synopsis, Partition* target);

  /// First half of Reorganize: drains every partition (dropping them all,
  /// counted as dissolutions) and returns the rows paired with their
  /// rating synopses, sorted by descending synopsis cardinality — the
  /// reinsertion order of the serial pass. Exposed so the engine can drain
  /// under its commit lock and re-place the rows through the windowed
  /// pipeline.
  StatusOr<std::vector<std::pair<Row, Synopsis>>> DrainForReorganize();

  /// Monotonic counter bumped at the start of every mutating operation
  /// (including InsertResolved and failed attempts). The batch engine
  /// compares it against the generation it last mirrored: a mismatch means
  /// the catalog changed outside the engine's own commits (serial inserts,
  /// deletes, updates, reorganize, restore) and the packed mirror must be
  /// rebuilt before the next placement is resolved.
  uint64_t catalog_generation() const { return catalog_generation_; }

  /// Registers `listener` to receive the partition ids every subsequent
  /// mutation touches, creates or drops. One unified slot type serves all
  /// observers: the batch engine registers transiently around each commit
  /// to learn which packed entries the commit (and any split cascade it
  /// triggered) invalidated, while the MVCC publisher stays registered for
  /// the lifetime of the facade to accumulate its pending snapshot delta.
  /// The listener must outlive its registration; duplicate registrations
  /// are ignored.
  void AddMutationListener(CatalogMutations* listener) {
    if (listener == nullptr) return;
    for (CatalogMutations* existing : mutation_listeners_) {
      if (existing == listener) return;
    }
    mutation_listeners_.push_back(listener);
  }
  void RemoveMutationListener(CatalogMutations* listener) {
    for (size_t i = 0; i < mutation_listeners_.size(); ++i) {
      if (mutation_listeners_[i] == listener) {
        mutation_listeners_.erase(mutation_listeners_.begin() + i);
        return;
      }
    }
  }

  /// Attaches the engine consulted by the batch entry points (nullptr
  /// detaches). The engine is owned by the caller and must outlive the
  /// attachment; see AttachMutationPipeline in ingest/mutation_pipeline.h.
  void set_batch_engine(BatchMutationEngine* engine) { batch_engine_ = engine; }
  BatchMutationEngine* batch_engine() const { return batch_engine_; }

  // -- Cold tier (two-tier storage) -----------------------------------------

  /// Attaches the cold tier partitions spill to (nullptr detaches; owned
  /// by the caller, must outlive the attachment). Attaching a tier does
  /// not by itself spill anything — see SpillPartition and the
  /// TierController policy driver (storage/tiered_store.h).
  void set_cold_tier(ColdTier* tier) { cold_tier_ = tier; }
  ColdTier* cold_tier() const { return cold_tier_; }

  /// Evicts partition `id` to the cold tier: its rows are written out as
  /// one page chain and the segment is emptied. Synopses, refcounts, size
  /// totals and split starters stay memory-resident, so ratings, pruning
  /// and placements are bit-identical to the all-hot engine; the spill is
  /// invisible except to row access, which faults the partition back.
  /// No-op on an already-cold partition.
  Status SpillPartition(PartitionId id);

  /// Faults `partition` back to the hot tier if cold: reads the chain's
  /// rows back into the segment in chain order (the spill-time scan
  /// order) and drops the chain reference. Every row-touching path calls
  /// this first; no-op on a hot partition.
  Status EnsureHot(Partition& partition);

  /// Streams the partition's rows regardless of residency (hot: segment
  /// scan order; cold: chain order, read through the tier). Snapshot save
  /// and integrity checking use this.
  Status ForEachRowOf(const Partition& partition,
                      const std::function<void(const Row&)>& fn) const;

 private:
  Cinderella(CinderellaConfig config,
             std::unique_ptr<WorkloadSynopsisBuilder> workload);

  struct BestPartition {
    Partition* partition = nullptr;
    double rating = 0.0;
  };

  /// Scans the catalog (or `restricted` targets, or the synopsis index)
  /// for the best-rated partition. Ties keep the lowest partition id,
  /// matching Algorithm 1's first-best scan order.
  BestPartition FindBestPartition(const Synopsis& synopsis,
                                  double entity_size,
                                  const std::vector<PartitionId>* restricted);

  /// The insert routine (Algorithm 1). With `restricted == nullptr` the
  /// whole catalog is scanned and a negative best rating creates a new
  /// partition; with a restricted target list (split redistribution) the
  /// best target is used even when negative. `depth > 0` inside a split.
  Status InsertIntoCatalog(Row row, const Synopsis& synopsis,
                           std::vector<PartitionId>* restricted, int depth);

  /// Everything of the insert routine downstream of the rating scan:
  /// places `row` into `target` (starter maintenance, capacity check,
  /// split cascade) or, with `target == nullptr`, into a fresh partition.
  /// Shared by InsertIntoCatalog and the externally-resolved
  /// InsertResolved so both paths produce identical catalog state.
  Status PlaceRow(Row row, const Synopsis& synopsis, Partition* target,
                  std::vector<PartitionId>* restricted, int depth);

  /// Splits `source` (which is full w.r.t. the pending row): the split
  /// starters seed two new partitions, remaining entities are re-inserted
  /// restricted to the new partitions, and the pending row follows. When
  /// `outer_targets` is non-null (cascade), `source` is replaced in it by
  /// the surviving new partitions.
  Status SplitPartition(PartitionId source, Row pending_row,
                        const Synopsis& pending_synopsis,
                        std::vector<PartitionId>* outer_targets, int depth);

  /// Lines 14-24 of Algorithm 1: fills empty starter slots with the
  /// incoming entity, else replaces a starter when the incoming entity
  /// forms a more differential pair (DIFF = |e1 ⊕ e2|).
  void UpdateStarters(Partition& partition, EntityId entity,
                      const Synopsis& synopsis);

  /// Re-seeds missing starters (after a starter entity was deleted) by
  /// scanning the partition: a surviving starter is kept, the partner is
  /// the resident with maximal DIFF to it.
  void EnsureStarters(Partition& partition);

  /// For StarterPolicy::kRandom: re-picks both starters uniformly among
  /// residents just before a split.
  void PickRandomStarters(Partition& partition);

  /// Extension: when `dissolve_threshold` is enabled and `partition`
  /// dropped below it, re-homes its remaining entities via the insert
  /// routine and drops it. Called after deletes and update moves.
  Status MaybeDissolve(Partition& partition);

  // Row movement helpers keeping catalog bindings, the synopsis index and
  // the empty-synopsis partition set in sync.
  Status AddRowToPartition(Partition& partition, Row row,
                           const Synopsis& synopsis);
  StatusOr<Row> RemoveRowFromPartition(Partition& partition, EntityId entity,
                                       const Synopsis& synopsis);
  void DropEmptyPartition(Partition& partition);

  // Fan a catalog mutation out to every registered listener (batch
  // engine, MVCC publisher, ...).
  void RecordTouched(PartitionId id) {
    for (CatalogMutations* listener : mutation_listeners_) {
      listener->touched.push_back(id);
    }
  }
  void RecordCreated(PartitionId id) {
    for (CatalogMutations* listener : mutation_listeners_) {
      listener->created.push_back(id);
    }
  }
  void RecordDropped(PartitionId id) {
    for (CatalogMutations* listener : mutation_listeners_) {
      listener->dropped.push_back(id);
    }
  }

  bool index_enabled() const {
    // At w == 1 every partition rates >= 0, so the overlap-only candidate
    // set of the index would diverge from the full scan; fall back to
    // scanning (see synopsis_index.h).
    return config_.use_synopsis_index && config_.weight < 1.0;
  }

  CinderellaConfig config_;
  PartitionCatalog catalog_;
  // Scan pool for the unrestricted rating scan; null when the resolved
  // degree is 1 (serial). Created once in the constructor.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<WorkloadSynopsisBuilder> workload_;
  SynopsisExtractor extractor_;
  SynopsisIndex index_;
  // Live partitions whose rating synopsis is empty (entities without
  // attributes); they have no postings but must stay rateable when the
  // index restricts the scan. Maintained only under use_synopsis_index.
  std::unordered_set<PartitionId> empty_synopsis_partitions_;
  CinderellaStats stats_;
  Rng rng_;
  // Batched-mutation engine state: see the public hooks above.
  uint64_t catalog_generation_ = 0;
  std::vector<CatalogMutations*> mutation_listeners_;
  BatchMutationEngine* batch_engine_ = nullptr;
  ColdTier* cold_tier_ = nullptr;
};

}  // namespace cinderella

#endif  // CINDERELLA_CORE_CINDERELLA_H_
