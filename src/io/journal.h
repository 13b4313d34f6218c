#ifndef CINDERELLA_IO_JOURNAL_H_
#define CINDERELLA_IO_JOURNAL_H_

#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/partitioner.h"
#include "storage/row.h"
#include "synopsis/attribute_dictionary.h"

namespace cinderella {

/// One logged modification operation.
struct JournalEntry {
  enum class Kind : uint8_t {
    kInsert = 1,
    kUpdate = 2,
    kDelete = 3,
    /// Dictionary interning event: attribute `attribute` was assigned
    /// `name`. Logged before the first row that uses the attribute, so a
    /// replay into an empty dictionary reproduces the same ids.
    kAttribute = 4,
    /// Group-commit batch record: u32 op count, then per op a u8 sub-kind
    /// (the kInsert/kUpdate/kDelete wire tags, = Mutation::Kind) and the
    /// op's usual payload. The reader expands a batch into individual
    /// entries, so replay is op-granular: a torn tail inside a batch
    /// recovers exactly the decoded op prefix. Never surfaced from
    /// JournalReader::Next.
    kMutationBatch = 5,
    /// Tier placement record: u32 count, then count u64 representative
    /// entity ids — one per *cold* partition, the lowest entity id the
    /// partition held when it was spilled. Each record carries the
    /// COMPLETE current cold set (not a delta), so replay applies only
    /// the last one seen; entity ids are used because partition ids are
    /// not stable across a snapshot restore. A torn record is ignored
    /// (residency is a performance property, never a correctness one).
    kSpill = 6,
  };
  Kind kind = Kind::kInsert;
  Row row;              // Payload of inserts and updates.
  EntityId entity = 0;  // Target of deletes.
  AttributeId attribute = 0;  // Payload of kAttribute...
  std::string name;           // ...with its interned name.
  std::vector<EntityId> cold_set;  // kSpill: representative entity ids.
};

/// Append-only journal of modification operations.
///
/// Together with core/snapshot.h this gives the durability story: log
/// every DML before applying it, checkpoint by writing a snapshot and
/// truncating the journal, recover by loading the snapshot and replaying
/// the tail. Because Cinderella is deterministic, replay reproduces not
/// only the table contents but the exact same partitioning.
///
/// Entries accumulate in a user-space buffer; Sync() writes the buffer
/// and issues a real fsync, so the group-commit policy of DurableTable
/// (one Sync per batch instead of per row) directly controls the number
/// of disk round trips — observable through syncs().
class JournalWriter {
 public:
  /// Opens for append (`truncate` = false) or creates afresh.
  static StatusOr<std::unique_ptr<JournalWriter>> Open(
      const std::string& path, bool truncate);

  /// Close(), ignoring its error; call Close() to see it.
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  Status LogInsert(const Row& row);
  Status LogUpdate(const Row& row);
  Status LogDelete(EntityId entity);
  Status LogAttribute(AttributeId attribute, const std::string& name);

  /// Group-commit append: one kMutationBatch record covering the whole op
  /// list (mixed kinds allowed), serialized into the buffer in one pass.
  /// Pair with a single Sync() to make the whole batch durable with one
  /// fsync. Ops replay in list order; entries_written() counts each op.
  Status LogMutationBatch(const std::vector<Mutation>& ops);

  /// Insert-only group commit: one kMutationBatch record of kInsert ops
  /// (wire-identical to LogMutationBatch over Mutation::Insert of each
  /// row, without copying the rows).
  Status LogBatch(const std::vector<Row>& rows);

  /// Delete-side group commit: one kMutationBatch record of kDelete ops.
  Status LogDeleteBatch(const std::vector<EntityId>& entities);

  /// Logs the complete cold set (kSpill): one representative entity id
  /// per cold partition. Later records supersede earlier ones on replay.
  Status LogSpillSet(const std::vector<EntityId>& representatives);

  /// Writes buffered entries to the OS and fsyncs the file: everything
  /// logged so far is durable when this returns OK.
  Status Sync();

  /// Flushes buffered entries to the OS (no fsync) and closes the file;
  /// the first failure of the two comes back. Later calls return OK and
  /// later appends fail.
  Status Close();

  uint64_t entries_written() const { return entries_; }

  /// Number of fsyncs issued; the bench and the recovery tests use this
  /// to verify the group-commit coalescing actually coalesces.
  uint64_t syncs() const { return syncs_; }

 private:
  explicit JournalWriter(int fd);

  /// Writes the buffer to the OS (no fsync).
  Status FlushBuffer();
  Status LogRow(JournalEntry::Kind kind, const Row& row);

  int fd_ = -1;
  std::string buffer_;
  uint64_t entries_ = 0;
  uint64_t syncs_ = 0;
};

/// Sequential reader over a journal file.
class JournalReader {
 public:
  static StatusOr<std::unique_ptr<JournalReader>> Open(
      const std::string& path);

  /// Reads the next entry. Returns false on clean end-of-journal; a
  /// truncated trailing entry (torn write) also ends the stream cleanly,
  /// reported via torn_tail().
  StatusOr<bool> Next(JournalEntry* entry);

  /// True if the journal ended mid-entry (crash during append); recovery
  /// treats everything before the tear as valid.
  bool torn_tail() const { return torn_tail_; }

 private:
  explicit JournalReader(std::ifstream in);

  /// Decodes the next op of the kMutationBatch record being expanded.
  StatusOr<bool> NextBatchOp(JournalEntry* entry);

  std::ifstream in_;
  bool torn_tail_ = false;
  // Ops left in the kMutationBatch record currently being expanded.
  uint32_t batch_remaining_ = 0;
};

/// Replays every entry of the journal at `path` into `partitioner`.
/// Returns the number of entries applied. A missing file counts as an
/// empty journal. kAttribute entries are interned into `*dictionary` when
/// non-null (they must reproduce the recorded ids) and skipped otherwise.
/// kSpill entries are skipped: standalone replay has no cold tier to
/// place partitions on (DurableTable handles them during its recovery).
StatusOr<uint64_t> ReplayJournal(const std::string& path,
                                 Partitioner* partitioner,
                                 AttributeDictionary* dictionary = nullptr);

}  // namespace cinderella

#endif  // CINDERELLA_IO_JOURNAL_H_
