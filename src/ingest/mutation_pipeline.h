#ifndef CINDERELLA_INGEST_MUTATION_PIPELINE_H_
#define CINDERELLA_INGEST_MUTATION_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "core/cinderella.h"
#include "ingest/sharded_catalog.h"
#include "storage/row.h"
#include "synopsis/synopsis.h"

namespace cinderella {

/// Tuning knobs of the batched mutation engine.
struct MutationPipelineOptions {
  /// Catalog shards (= scan parallelism). Positive wins; 0 resolves from
  /// CinderellaConfig::insert_shards, then the CINDERELLA_INSERT_SHARDS
  /// environment variable, then the hardware concurrency.
  int shards = 0;

  /// Ops placed per rating pass. Larger windows amortize the scan over
  /// more entities (duplicate synopses within a window rate once) but
  /// grow the dirty set the commit phase must revalidate against.
  size_t window = 128;
};

/// The unified mutation pipeline (ISSUE 5 tentpole): one batched write
/// path for the full mutation stream — inserts, updates, deletes, and
/// reorganize — with placements bit-identical to the serial operations.
///
/// A typed op list (Mutation, core/partitioner.h) flows through one
/// engine. Every op that needs a placement (insert, update, reorganize
/// reinsertion) is rated against the packed ShardedCatalog mirror with
/// the window machinery of the PR 2 insert engine:
///  1. Group: placement ops with identical (rating synopsis, SIZE(e))
///     collapse into one entity group — one rating per (group, partition)
///     pair. Deletes carry no synopsis and skip the scan entirely.
///  2. Scan (no global lock): every shard of the packed mirror is rated
///     against all groups in one partition-major pass (the packed kernel;
///     RatingTermsFromCounts, i.e. the same inline the serial scan
///     evaluates). Each (shard, group) slot keeps the top-2 candidates
///     under the serial comparator (rating descending, partition id
///     ascending — exactly the strict `>` ascending-id scan of
///     Algorithm 1).
///  3. Commit (serialized on one mutex): ops apply in batch order through
///     the Cinderella *Resolved hooks. Every commit logs the partition
///     ids it touched into a dirty log; a placement is resolved from the
///     merged top-2 plus exact re-ratings of the dirty ids. The top-2
///     invariant makes this exact (DESIGN.md §8): if the best slot is
///     clean it is the true argmax; if only the best is dirty, every
///     clean partition is bounded by the second slot; if both are dirty
///     (or the scan predates a mirror rebuild) the entity is fully
///     re-scanned under the lock.
///
/// Updates re-rate exactly like inserts, with two wrinkles (DESIGN.md
/// §11): the entity's home partition joins the dirty set for both scans
/// of Cinderella::UpdateResolved (its live state changes mid-op when the
/// old row is removed, which the mirror cannot see until the op commits),
/// and dirty re-ratings are taken from the live catalog rather than the
/// mirror for the same reason. Both sources agree bit-exactly whenever
/// the mirror is fresh, so insert resolution is unchanged.
///
/// Validate-first: a mixed batch is validated by simulating entity
/// liveness across the whole op list (Partitioner::ValidateMutations)
/// under the commit lock before anything applies, so a rejected batch
/// leaves the table unchanged; insert-after-delete of one id within a
/// batch is legal, exactly as in a serial loop.
///
/// Determinism: placements, splits, partition ids and all catalog state
/// equal a serial op loop over the same stream in the same order, at any
/// shard count and window size — the rating arithmetic is the shared
/// inline of core/rating.h, so even floating-point ties break
/// identically.
///
/// Concurrency: the batch entry points may be called from multiple
/// threads; scans run concurrently, commits serialize. Each batch's ops
/// commit in order, interleaved at window granularity with other batches.
/// Serial mutations remain safe when not concurrent with a batch: the
/// engine detects them via catalog_generation() and rebuilds its mirror.
/// A batch that loses an id race to a concurrent batch fails at the op
/// that lost, after committing its prefix.
class MutationPipeline : public BatchMutationEngine {
 public:
  /// Operation counters (batched-side complement of CinderellaStats).
  struct Stats {
    uint64_t batches = 0;
    uint64_t rows = 0;        // Ops accepted through the batch entry points.
    uint64_t windows = 0;
    uint64_t ratings = 0;     // (group, partition) rating evaluations.
    uint64_t reratings = 0;   // Exact dirty re-ratings at commit time.
    uint64_t rescans = 0;     // Entities fully re-scanned under the lock.
    uint64_t rebuilds = 0;    // Mirror rebuilds after external mutations.
    uint64_t updates = 0;     // Update ops committed.
    uint64_t deletes = 0;     // Delete ops committed.
    uint64_t reinserts = 0;   // Rows re-placed by Reorganize.
  };

  /// Does not attach itself; see AttachMutationPipeline. The mirror is
  /// built from the current catalog immediately.
  MutationPipeline(Cinderella* cinderella, MutationPipelineOptions options);

  /// Detaches from the Cinderella instance if still attached.
  ~MutationPipeline() override;

  MutationPipeline(const MutationPipeline&) = delete;
  MutationPipeline& operator=(const MutationPipeline&) = delete;

  // -- BatchMutationEngine ---------------------------------------------------

  /// Inserts `rows` in order with serial-identical placements. Fails with
  /// AlreadyExists — before touching the table — when a row duplicates an
  /// existing entity or another row of the batch.
  Status InsertBatch(std::vector<Row> rows) override;

  /// Updates `rows` in order with serial-identical placements. Fails with
  /// NotFound — before touching the table — when a row names an unknown
  /// entity; duplicate ids within the batch apply in turn.
  Status UpdateBatch(std::vector<Row> rows) override;

  /// Deletes `entities` in order. Fails with NotFound — before touching
  /// the table — when an id is unknown or duplicated within the batch.
  Status DeleteBatch(const std::vector<EntityId>& entities) override;

  /// Applies a mixed, ordered op list with effects identical to a serial
  /// dispatch loop. Validate-first across the batch (liveness simulated,
  /// so insert-after-delete of one id is legal); *applied (when non-null)
  /// receives the committed op prefix on both success and failure.
  Status ApplyMutations(std::vector<Mutation> ops, size_t* applied) override;

  /// Full reorganization with the same final catalog as the serial pass:
  /// drains every partition under the commit lock, then re-places the
  /// rows (descending synopsis cardinality) through the windowed
  /// pipeline, firing the commit hook per window so MVCC readers see the
  /// rebuild incrementally.
  Status Reorganize() override;

  size_t shard_count() const { return catalog_.shard_count(); }
  const ShardedCatalog& sharded_catalog() const { return catalog_; }
  Stats stats() const;

  /// What one committed window changed — passed to the commit hook so the
  /// MVCC publisher can size its publication (VersionedTable pre-sizes
  /// its fresh-version scratch from dirty_partitions).
  struct WindowCommit {
    size_t rows = 0;              // Ops this window applied.
    size_t dirty_partitions = 0;  // Distinct partitions it touched.
  };

  /// Called at the end of every committed window, while the commit lock is
  /// still held (the catalog is quiescent and exactly the window's ops
  /// are applied). The MVCC publisher registers here so each window
  /// becomes one consistent published snapshot. The hook must not call
  /// back into the engine. nullptr clears.
  using CommitHook = std::function<void(const WindowCommit&)>;
  void set_commit_hook(CommitHook hook);

  /// Called at the end of every committed window, while the commit lock
  /// is still held, immediately BEFORE the commit hook — the window
  /// commit is the tiered-storage spill boundary. A registered spill
  /// policy (TierController) evicts cold partitions here; the residency
  /// changes it makes are captured by the same mutation listeners as the
  /// window's ops, so the commit hook's publication already reflects
  /// them. The hook may mutate partition residency through the engine's
  /// spill entry points but must not add/remove rows. nullptr clears.
  using SpillHook = std::function<void()>;
  void set_spill_hook(SpillHook hook);

 private:
  /// A scan/revalidation candidate under the serial comparator.
  struct Candidate {
    double rating = 0.0;
    PartitionId id = 0;
    bool valid = false;
  };
  struct Top2 {
    Candidate best;
    Candidate second;
  };
  /// One deduplicated (synopsis, size) entity class of a window.
  struct EntityGroup {
    size_t words_offset = 0;  // Into the window's packed entity arena.
    uint32_t count = 0;       // |e|.
    double size = 0.0;        // SIZE(e) under the engine's measure.
  };
  /// Window-scoped scratch shared by the scan and commit phases.
  struct Window;

  static void Consider(Candidate* c, double rating, PartitionId id);
  static void Offer(Top2* top, double rating, PartitionId id);

  /// Rates one packed entry against one group: the packed kernel. Exact
  /// same expression as core/rating.h Rate().
  double RateEntry(const ShardedCatalog::EntryView& entry,
                   const uint64_t* entity_words, size_t entity_stride,
                   const EntityGroup& group) const;

  /// Rates one live partition against a synopsis — the serial Rate() call,
  /// used where the mirror may be mid-op stale (update re-ratings).
  double RateLive(const Partition& partition, const Synopsis& synopsis,
                  double entity_size) const;

  /// Builds the window scratch (groups, packed arena) over the placement
  /// ops of [begin, end); deletes get kNoGroup.
  void BuildWindow(const std::vector<Mutation>& ops,
                   const std::vector<Synopsis>& synopses, size_t begin,
                   size_t end, Window* win) const;

  /// Scan phase over the packed mirror: fills the merged per-group top-2
  /// and bumps the rating counter. No commit lock required (may also be
  /// called with it held, as Reorganize does).
  void ScanWindow(const Window& win, std::vector<Top2>* merged,
                  uint64_t* rated) const;

  Status ProcessWindow(std::vector<Mutation>* ops,
                       const std::vector<Synopsis>* synopses, size_t begin,
                       size_t end, size_t* applied);

  // All *Locked methods require commit_mu_.

  /// Resolves one placement from the merged top-2 + exact mirror
  /// re-ratings of the dirty ids (the insert/reinsert path).
  Candidate ResolvePlacementLocked(const Window& win, size_t group_index,
                                   const std::vector<Top2>& merged, bool stale,
                                   const std::unordered_set<PartitionId>& dirty);

  /// Commits one reinsertion window of drained reorganize rows (wrapped
  /// as insert ops). The commit lock is already held for the whole
  /// reorganize.
  Status ReinsertWindowLocked(std::vector<Mutation>* ops,
                              const std::vector<Synopsis>* synopses,
                              size_t begin, size_t end);

  void SyncMirrorLocked();
  void RebuildLocked();
  void AppendMutationsLocked(const CatalogMutations& mutations,
                             std::unordered_set<PartitionId>* dirty);
  void PublishDirtyStateLocked();

  // Dirty-state encoding: epoch in the high bits, log length in the low
  // kSizeBits. A scanner snapshots this before rating; at commit time the
  // log suffix past the snapshot is the dirty set, and an epoch mismatch
  // (log trimmed, or mirror rebuilt) forces the full-rescan path.
  static constexpr uint64_t kSizeBits = 40;
  static constexpr size_t kDirtyLogTrim = 1 << 16;
  static constexpr size_t kNoGroup = static_cast<size_t>(-1);

  Cinderella* const cinderella_;
  const MutationPipelineOptions options_;
  const double weight_;
  const bool normalize_;
  const SizeMeasure measure_;
  ShardedCatalog catalog_;
  std::unique_ptr<ThreadPool> pool_;  // Null when shard_count() == 1.

  // Serializes commit phases (and all mutations of the state below).
  mutable std::mutex commit_mu_;
  CommitHook commit_hook_;
  SpillHook spill_hook_;
  uint64_t synced_generation_ = 0;
  uint64_t dirty_epoch_ = 0;
  std::vector<PartitionId> dirty_log_;
  std::atomic<uint64_t> dirty_state_{0};
  Stats stats_;
};

/// Creates a MutationPipeline over `cinderella` and attaches it, so the
/// Cinderella batch entry points (and everything layered on them:
/// UniversalTable, DurableTable, VersionedTable, CSV import) route
/// through the batched engine. The returned engine must outlive the
/// attachment; destroying it detaches.
std::unique_ptr<MutationPipeline> AttachMutationPipeline(
    Cinderella* cinderella, MutationPipelineOptions options = {});

}  // namespace cinderella

#endif  // CINDERELLA_INGEST_MUTATION_PIPELINE_H_
