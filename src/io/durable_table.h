#ifndef CINDERELLA_IO_DURABLE_TABLE_H_
#define CINDERELLA_IO_DURABLE_TABLE_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cinderella.h"
#include "core/universal_table.h"
#include "ingest/batch_inserter.h"
#include "io/journal.h"
#include "storage/tiered_store.h"

namespace cinderella {

/// Crash-recoverable universal table: an in-memory Cinderella-partitioned
/// table made durable by a snapshot + journal pair in one directory
/// (`snapshot.bin`, `journal.log`).
///
/// Open() loads the latest snapshot (if any), replays the journal tail —
/// tolerating a torn final entry from a crash mid-append — and resumes.
/// Every successful modification is appended to the journal; Checkpoint()
/// writes a fresh snapshot and truncates the journal. Because Cinderella
/// is deterministic, recovery reproduces the exact partitioning, not just
/// the data.
class DurableTable {
 public:
  struct Options {
    std::string directory;
    /// Used when no snapshot exists yet. Ignored on recovery (the
    /// snapshot carries its own config).
    CinderellaConfig config;
    /// fsync-like flush after every logged operation (slower, safer).
    bool sync_every_op = false;
    /// Group-commit coalescing: when > 0, single-row operations fsync
    /// only once every `group_commit_ops` journaled operations (and
    /// InsertBatch fsyncs once per batch regardless of its size). Takes
    /// precedence over sync_every_op. An un-synced tail is still written
    /// to the OS on close, but a crash may lose up to group_commit_ops-1
    /// trailing operations — replay recovers a consistent prefix.
    uint32_t group_commit_ops = 0;
    /// Batched-insert engine tuning (shard count, rating window) for the
    /// BatchInserter attached to the recovered partitioner.
    BatchInserterOptions ingest;
    /// Cold-tier settings (see TieredStoreOptions); `path` is ignored —
    /// the page file always lives at <directory>/pages.bin. When
    /// budget_bytes is 0 (the default), tiering is disabled entirely.
    TieredStoreOptions spill;
  };

  /// Opens or creates the table in `options.directory` (the directory
  /// must exist).
  static StatusOr<std::unique_ptr<DurableTable>> Open(Options options);

  Status Insert(EntityId entity,
                const std::vector<UniversalTable::NamedValue>& attributes);
  Status InsertRow(Row row);
  /// Group-commit insert: applies the batch through the ingest pipeline,
  /// journals every row, then issues exactly one fsync (when any syncing
  /// is configured) — the durability cost is amortized over the batch.
  /// On failure the journal records exactly the successfully applied
  /// prefix, so recovery stays consistent with the in-memory state.
  Status InsertBatch(std::vector<Row> rows);
  Status Update(EntityId entity,
                const std::vector<UniversalTable::NamedValue>& attributes);
  Status UpdateRow(Row row);
  /// Group-commit update: same contract as InsertBatch — batched
  /// placements identical to serial updates, one journal record, one
  /// fsync.
  Status UpdateBatch(std::vector<Row> rows);
  Status Delete(EntityId entity);
  /// Group-commit delete: validated before any mutation (NotFound leaves
  /// table and journal untouched), applied in order, journaled as one run
  /// of kDelete entries, then fsynced once (when syncing is configured).
  /// On failure the journal records exactly the applied prefix.
  Status DeleteBatch(const std::vector<EntityId>& entities);

  /// Group-commit mixed batch: the unified mutation pipeline end to end.
  /// Validate-first across the whole op list, applied in order, journaled
  /// as one kMutationBatch record covering exactly the applied prefix,
  /// then one fsync (when syncing is configured). All the batch entry
  /// points above are adapters over this path.
  Status ApplyMutations(std::vector<Mutation> ops);

  /// Writes a snapshot and truncates the journal.
  Status Checkpoint();

  UniversalTable& table() { return *table_; }
  const UniversalTable& table() const { return *table_; }
  const Cinderella& cinderella() const { return *cinderella_; }

  /// Journal entries replayed by Open() (0 after a clean checkpoint).
  uint64_t replayed_on_open() const { return replayed_; }

  /// True if Open() found a torn trailing journal entry (crash evidence).
  bool recovered_from_torn_tail() const { return torn_tail_; }

  /// fsyncs issued on the current journal segment (resets at Checkpoint);
  /// lets tests and the bench verify group-commit coalescing.
  uint64_t journal_syncs() const { return journal_->syncs(); }

  /// The batched-insert engine attached to the table's partitioner.
  const BatchInserter& batch_inserter() const { return *ingest_; }

  /// True when a cold tier is attached (spill budget > 0).
  bool tiering_enabled() const { return tier_ != nullptr; }

  /// The cold tier, or nullptr when tiering is disabled.
  const TieredStore* tier() const { return tier_.get(); }

  /// The spill policy driver, or nullptr when tiering is disabled.
  TierController* tier_controller() { return tier_controller_.get(); }

 private:
  DurableTable(Options options, std::unique_ptr<UniversalTable> table,
               Cinderella* cinderella,
               std::unique_ptr<JournalWriter> journal, uint64_t replayed,
               bool torn_tail);

  Status AfterApply(Status status,
                    const std::function<Status(JournalWriter&)>& log);

  /// Journals dictionary entries interned since the last call, so replay
  /// reproduces attribute ids before the rows that use them.
  Status LogDictionaryGrowth();

  /// Sync policy shared by the single-op and batch paths: `ops` journaled
  /// operations just completed.
  Status MaybeSync(uint64_t ops);

  /// Runs one spill-policy evaluation (no-op without a tier) and journals
  /// the cold set when residency changed since the last record.
  Status EvaluateTier();

  /// Appends a kSpill record with the complete current cold set when the
  /// engine's spill+fault epoch moved since the last record.
  Status MaybeLogTierPlacement();

  std::string snapshot_path() const;
  std::string journal_path() const;

  Options options_;
  /// Cold tier; declared before the table so every chain released during
  /// the engine's destruction drops into a live tier.
  std::unique_ptr<TieredStore> tier_;
  std::unique_ptr<UniversalTable> table_;
  Cinderella* cinderella_;  // Owned by table_'s partitioner slot.
  /// Batched-insert engine attached to cinderella_; must outlive the
  /// attachment and is therefore owned here, next to the partitioner.
  std::unique_ptr<BatchInserter> ingest_;
  /// Spill policy; listens on the engine's catalog mutations, so it is
  /// declared after table_ (destroyed first, while the engine is alive).
  std::unique_ptr<TierController> tier_controller_;
  std::unique_ptr<JournalWriter> journal_;
  /// Engine spills+faults at the last kSpill record; any movement means
  /// the cold set changed and must be re-journaled.
  uint64_t tier_epoch_ = 0;
  /// Journaled ops since the last fsync (group-commit accounting).
  uint64_t ops_since_sync_ = 0;
  uint64_t replayed_ = 0;
  bool torn_tail_ = false;
  /// Dictionary entries already persisted (snapshot or journaled); any
  /// attribute interned beyond this watermark is journaled before the
  /// first row that uses it.
  size_t logged_attributes_ = 0;
};

}  // namespace cinderella

#endif  // CINDERELLA_IO_DURABLE_TABLE_H_
