#ifndef CINDERELLA_MVCC_VERSIONED_TABLE_H_
#define CINDERELLA_MVCC_VERSIONED_TABLE_H_

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "core/cinderella.h"
#include "ingest/batch_inserter.h"
#include "mvcc/epoch.h"
#include "mvcc/partition_version.h"
#include "storage/row.h"

namespace cinderella {

/// The epoch-based MVCC read engine: a facade over a Cinderella
/// partitioner and the table's one read path. Readers never take a lock
/// the writer holds, so selective queries keep running while batched
/// ingest (rating scans, split cascades) adapts the partitioning:
///
///  - Writers (Insert/Update/Delete/DeleteBatch/InsertBatch) mutate the
///    live catalog as before, serialized on an internal writer mutex, and
///    then *publish*: every partition the mutation touched is re-copied
///    into an immutable PartitionVersion, spliced copy-on-write into a
///    fresh CatalogView, and the view pointer is swapped atomically.
///    InsertBatch publishes once per committed ingest window (the
///    BatchInserter's commit hook), so a long batch becomes a sequence of
///    consistent snapshots rather than one opaque lock hold.
///  - Readers pin an epoch, load the current view, and scan immutable
///    data — no lock, no waiting, and a prune-then-scan that always sees
///    one consistent generation even mid-split-cascade.
///  - Superseded versions and views are retired to the EpochManager and
///    reclaimed once no pinned reader can reach them.
///
/// Storage: every fresh version is one exact-size buffer
/// (mvcc/partition_version.h), freed when the EpochManager reclaims that
/// version, so snapshot memory is the current view plus the versions
/// retired since the oldest pinned reader (DESIGN.md §10). The published
/// view is also guaranteed free of empty partitions: a partition drained
/// by a DeleteBatch (or left empty by a failed cascade) is dropped from
/// the next view even if the live catalog briefly keeps it, so estimator
/// totals stay consistent.
///
/// Contract: all mutations must go through this facade (or be followed by
/// RefreshView()); mutating the underlying Cinderella directly leaves the
/// published view stale. Reads are safe from any number of threads;
/// writes from multiple threads serialize internally. The placements the
/// facade produces are bit-identical to bare serial inserts — it changes
/// when readers see state, never what the state is.
class VersionedTable {
 public:
  struct Options {
    /// Attach (and own) a BatchInserter so InsertBatch runs the batched
    /// ingest pipeline with per-window publication. When false,
    /// InsertBatch falls back to the validated serial loop and publishes
    /// once per batch.
    bool batched_ingest = true;
    BatchInserterOptions ingest;
  };

  /// Owning constructor: takes the partitioner, registers the publication
  /// hooks, publishes the initial view. The single-argument overload uses
  /// default Options (GCC rejects `Options options = {}` as a default
  /// argument when the nested struct carries member initializers).
  explicit VersionedTable(std::unique_ptr<Cinderella> table);
  VersionedTable(std::unique_ptr<Cinderella> table, Options options);

  /// Borrowing constructor for tables whose partitioner is owned
  /// elsewhere (e.g. inside a UniversalTable): `table` and `engine` (may
  /// be nullptr) must outlive this facade. When `engine` is non-null its
  /// window commits publish a view each (the CLI's load-while-querying
  /// path).
  VersionedTable(Cinderella* table, BatchInserter* engine);

  /// Unhooks, retires the final view, and frees everything. All readers
  /// must have released their snapshots; outstanding pins fail a CHECK
  /// rather than silently leaking.
  ~VersionedTable();

  VersionedTable(const VersionedTable&) = delete;
  VersionedTable& operator=(const VersionedTable&) = delete;

  // -- Read path (lock-free) ------------------------------------------------

  /// A pinned, immutable image of the table. Holding it keeps every
  /// version it references alive; release promptly — long-lived pins
  /// delay reclamation of everything retired since.
  class Snapshot {
   public:
    Snapshot(Snapshot&& other) noexcept
        : epochs_(other.epochs_), slot_(other.slot_), view_(other.view_) {
      other.epochs_ = nullptr;
    }

    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;
    Snapshot& operator=(Snapshot&&) = delete;

    ~Snapshot() {
      if (epochs_ != nullptr) epochs_->Unpin(slot_);
    }

    const CatalogView& view() const { return *view_; }
    const CatalogView* operator->() const { return view_; }

   private:
    friend class VersionedTable;
    Snapshot(EpochManager* epochs, size_t slot, const CatalogView* view)
        : epochs_(epochs), slot_(slot), view_(view) {}

    EpochManager* epochs_;
    size_t slot_;
    const CatalogView* view_;
  };

  /// Pins the current generation. Never blocks on writers.
  Snapshot snapshot() const;

  /// Owned copy of the entity's row from the current generation.
  StatusOr<Row> Get(EntityId entity) const;

  size_t entity_count() const;
  size_t partition_count() const;

  /// Generation of the currently published view (tests and benches watch
  /// this advance per window during InsertBatch).
  uint64_t published_generation() const;

  // -- Write path (internally serialized) -----------------------------------

  Status Insert(Row row);
  Status Update(Row row);
  Status Delete(EntityId entity);

  /// Batched delete with InsertBatch-mirroring semantics: validated
  /// before any mutation (unknown or duplicated ids fail with NotFound
  /// and leave the table unchanged), then applied in order. Publishes one
  /// view; dropped empty partitions retire their versions through the
  /// epoch machinery.
  Status DeleteBatch(const std::vector<EntityId>& entities);

  /// Routes through the attached ingest engine (placements identical to
  /// serial), publishing a view per committed window.
  Status InsertBatch(std::vector<Row> rows);

  /// Batched update through the mutation pipeline, publishing a view per
  /// committed window; placements identical to serial Update calls.
  Status UpdateBatch(std::vector<Row> rows);

  /// Mixed, ordered mutation batch (validate-first) through the pipeline,
  /// publishing a view per committed window. *applied (when non-null)
  /// receives the committed op prefix.
  Status ApplyMutations(std::vector<Mutation> ops, size_t* applied = nullptr);

  /// Full reorganization pass (Cinderella::Reorganize). With an engine
  /// attached, the batched pass publishes a view per reinsertion window
  /// (readers watch the catalog rebuild incrementally, including the
  /// drained-empty state); a final full rebuild reconciles either way.
  Status Reorganize();

  /// Outcome of a RepartitionEntities call.
  struct RepartitionResult {
    size_t requested = 0;  // Ids in the plan (after deduplication).
    size_t moved = 0;      // Rows drained and reinserted.
    size_t missing = 0;    // Ids no longer live (stale plan; skipped).
  };

  /// Targeted reorganization — the background tuner's apply path. Drains
  /// the given entities and reinserts them as one ordered delete+insert
  /// batch through ApplyMutations, i.e. through the same
  /// Partitioner::ValidateMutations-checked, windowed pipeline as every
  /// other write, with a view published per committed window. Reinsertion
  /// re-rates each row against the *current* catalog (most-descriptive
  /// rows first, mirroring Reorganize's drain order), which is what
  /// repairs arrival-order damage in hot mixed partitions and coalesces
  /// cold remnants.
  ///
  /// Plans are made on pinned snapshots, so ids may have been deleted by
  /// the time the plan applies: those are skipped (counted in
  /// result->missing), never failed — a stale plan degrades to a smaller
  /// move. The whole drain set is captured under the writer lock before
  /// any mutation, so a concurrent writer can never race a row into or
  /// out of the batch (no lost updates, no duplicated rows).
  Status RepartitionEntities(const std::vector<EntityId>& entities,
                             RepartitionResult* result = nullptr);

  /// Re-publishes a full view from the live catalog. Call after mutating
  /// the underlying partitioner outside the facade.
  void RefreshView();

  /// Spills the given partitions to the partitioner's cold tier and
  /// publishes the residency change as one view (the tuner's evict-idle
  /// apply path). Already-cold, since-dropped, and empty partitions are
  /// skipped; *spilled (when non-null) receives the number evicted.
  /// FailedPrecondition when no cold tier is attached.
  Status SpillPartitions(const std::vector<PartitionId>& ids,
                         size_t* spilled = nullptr);

  // -- Introspection --------------------------------------------------------

  Cinderella& partitioner() { return *cinderella_; }
  const Cinderella& partitioner() const { return *cinderella_; }
  EpochManager& epochs() { return epochs_; }

  /// Snapshot memory footprint: what the current generation holds, and
  /// what retired versions still hold until reclamation. Safe to call
  /// concurrently with readers and writers.
  struct MemoryStats {
    uint64_t generation = 0;
    size_t live_versions = 0;    // Versions in the current view.
    size_t view_bytes = 0;       // Buffer bytes of those versions.
    /// Buffer bytes of every version not yet reclaimed, current or
    /// retired. Equals view_bytes once no reader pins a retired version.
    size_t held_bytes = 0;
    size_t hot_versions = 0;     // Versions with packed rows.
    size_t cold_versions = 0;    // Versions backed by cold page chains.
    uint64_t cold_bytes = 0;     // Logical row bytes resident in chains.
    uint64_t cold_pages = 0;     // Pages those chains occupy.
    size_t retired_objects = 0;  // Awaiting epoch reclamation.
    uint64_t reclaimed_objects = 0;
    struct Buffers {
      /// Version buffers allocated since construction: one per published
      /// partition version. The name is older than per-version buffers
      /// (versions used to share 64 KiB arena blocks); perfbench reads it
      /// as mvcc.arena_blocks.
      uint64_t blocks_allocated = 0;
    };
    Buffers arenas;
    /// Publisher-side synopsis tree (the one frozen into each view);
    /// counters are cumulative since construction.
    struct TreeStats {
      bool enabled = false;
      size_t depth = 0;
      size_t fanout = 0;
      size_t internal_nodes = 0;
      uint64_t live_leaves = 0;
      uint64_t upserts = 0;
      uint64_t removes = 0;
      uint64_t fast_merges = 0;
      uint64_t node_reors = 0;
      uint64_t nodes_copied = 0;
      uint64_t collapses = 0;
    };
    TreeStats tree;
  };
  MemoryStats memory_stats() const;

 private:
  void Hook();

  /// Runs `op` under the writer lock and publishes the captured delta.
  Status Apply(const std::function<Status()>& op);

  /// Publishes pending_ as a COW delta against the current view. Requires
  /// publish_mu_; the catalog must be quiescent (writer lock or the
  /// engine's commit lock). `delta_hint` pre-sizes the publication
  /// scratch (the ingest commit hook passes its window's dirty-partition
  /// count).
  void PublishLocked(size_t delta_hint = 0);

  /// Replaces the view with a full copy of the live catalog (initial
  /// publication and RefreshView).
  void RebuildViewLocked();

  /// Swaps `view` in, retires the previous view and `superseded`, and
  /// runs a reclamation pass.
  void InstallLocked(CatalogView* view,
                     const std::vector<const PartitionVersion*>& superseded);

  /// Builds one version in its own buffer, counted in held_bytes_.
  /// `partition` must be non-empty.
  const PartitionVersion* MakeVersionLocked(const Partition& partition);

  /// Epoch deleter of retired versions.
  static void ReclaimVersion(void* object);

  // Destruction order matters twice over: owned_engine_ detaches from the
  // partitioner in its destructor, so it must die before owned_; and
  // held_bytes_ must outlive epochs_ (whose reclamation subtracts from
  // it), so it is declared before it.
  std::unique_ptr<Cinderella> owned_;
  std::unique_ptr<BatchInserter> owned_engine_;
  Cinderella* cinderella_;
  BatchInserter* engine_ = nullptr;

  /// Buffer bytes of every unreclaimed version (MemoryStats::held_bytes).
  std::atomic<size_t> held_bytes_{0};
  /// Version buffers allocated so far (MemoryStats::arenas).
  std::atomic<uint64_t> buffers_allocated_{0};

  mutable EpochManager epochs_;
  /// Serializes facade write operations. Lock order: write_mu_ before the
  /// engine's commit lock before publish_mu_.
  std::mutex write_mu_;
  /// Serializes view publication (facade writes and the engine's window
  /// commit hook reach PublishLocked under different outer locks).
  /// Mutable so memory_stats() can read the publisher tree.
  mutable std::mutex publish_mu_;
  /// Mutation delta since the last publication; registered as the
  /// partitioner's version capture, drained by PublishLocked.
  CatalogMutations pending_;
  std::atomic<const CatalogView*> current_{nullptr};
  uint64_t view_generation_ = 0;  // Guarded by publish_mu_.
  /// Read-side synopsis tree over attribute synopses (leaf key =
  /// partition id), maintained incrementally per publication and frozen
  /// into every view via Share() — snapshot readers descend it lock-free
  /// to prune scans. Null when the partitioner runs without
  /// use_synopsis_tree. Guarded by publish_mu_.
  std::unique_ptr<SynopsisTree> query_tree_;

  // Publication scratch, guarded by publish_mu_ and reused across
  // publications: the delta ping-pongs its vector capacity with pending_,
  // and the set/map keep their buckets across clear().
  CatalogMutations delta_scratch_;
  std::unordered_set<PartitionId> dropped_scratch_;
  std::unordered_map<PartitionId, const PartitionVersion*> fresh_scratch_;
  std::vector<const PartitionVersion*> superseded_scratch_;
  std::vector<const PartitionVersion*> created_scratch_;
};

}  // namespace cinderella

#endif  // CINDERELLA_MVCC_VERSIONED_TABLE_H_
