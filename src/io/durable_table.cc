#include "io/durable_table.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/snapshot.h"

namespace cinderella {
namespace {

bool FileExists(const std::string& path) {
  std::ifstream file(path);
  return file.is_open();
}

/// fsyncs the file or directory at `path`.
Status SyncPath(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::Internal("cannot open " + path + " to sync: " +
                            std::strerror(errno));
  }
  const int synced = ::fsync(fd);
  const int sync_errno = errno;
  ::close(fd);
  if (synced != 0) {
    return Status::Internal("cannot sync " + path + ": " +
                            std::strerror(sync_errno));
  }
  return Status::OK();
}

}  // namespace

DurableTable::DurableTable(Options options,
                           std::unique_ptr<UniversalTable> table,
                           Cinderella* cinderella,
                           std::unique_ptr<JournalWriter> journal,
                           uint64_t replayed, bool torn_tail)
    : options_(std::move(options)),
      table_(std::move(table)),
      cinderella_(cinderella),
      journal_(std::move(journal)),
      replayed_(replayed),
      torn_tail_(torn_tail) {}

std::string DurableTable::snapshot_path() const {
  return options_.directory + "/snapshot.bin";
}

std::string DurableTable::journal_path() const {
  return options_.directory + "/journal.log";
}

StatusOr<std::unique_ptr<DurableTable>> DurableTable::Open(Options options) {
  const std::string snapshot_file = options.directory + "/snapshot.bin";
  const std::string journal_file = options.directory + "/journal.log";

  // Cold tier: create the page store when a budget is configured. The
  // page file is always truncated — recovery re-establishes tier
  // placement from the journal's kSpill records, it never reuses old
  // pages.
  options.spill.path = options.directory + "/pages.bin";
  std::unique_ptr<TieredStore> tier;
  if (options.spill.budget_bytes > 0) {
    StatusOr<std::unique_ptr<TieredStore>> opened =
        TieredStore::Open(options.spill);
    CINDERELLA_RETURN_IF_ERROR(opened.status());
    tier = std::move(opened).value();
  }

  std::unique_ptr<UniversalTable> table;
  Cinderella* cinderella = nullptr;
  if (FileExists(snapshot_file)) {
    StatusOr<RestoredSnapshot> restored = LoadSnapshotFromFile(snapshot_file);
    CINDERELLA_RETURN_IF_ERROR(restored.status());
    cinderella = restored->partitioner.get();
    table = std::make_unique<UniversalTable>(
        std::move(restored->partitioner), std::move(*restored->dictionary));
  } else {
    StatusOr<std::unique_ptr<Cinderella>> fresh =
        Cinderella::Create(options.config);
    CINDERELLA_RETURN_IF_ERROR(fresh.status());
    cinderella = fresh->get();
    table = std::make_unique<UniversalTable>(std::move(fresh).value());
  }

  if (tier != nullptr) cinderella->set_cold_tier(tier.get());

  // Replay the journal tail; tolerate a torn final entry. kSpill records
  // carry the complete cold set, so only the last one matters; it is
  // applied after the whole tail so partitions faulted hot by later ops
  // are not re-spilled.
  uint64_t replayed = 0;
  bool torn_tail = false;
  std::vector<EntityId> cold_set;
  {
    auto reader = JournalReader::Open(journal_file);
    if (reader.ok()) {
      JournalEntry entry;
      while (true) {
        StatusOr<bool> more = (*reader)->Next(&entry);
        CINDERELLA_RETURN_IF_ERROR(more.status());
        if (!*more) break;
        switch (entry.kind) {
          case JournalEntry::Kind::kInsert:
            CINDERELLA_RETURN_IF_ERROR(
                table->InsertRow(std::move(entry.row)));
            break;
          case JournalEntry::Kind::kUpdate:
            CINDERELLA_RETURN_IF_ERROR(
                table->UpdateRow(std::move(entry.row)));
            break;
          case JournalEntry::Kind::kDelete:
            CINDERELLA_RETURN_IF_ERROR(table->Delete(entry.entity));
            break;
          case JournalEntry::Kind::kAttribute: {
            const AttributeId assigned =
                table->dictionary().GetOrCreate(entry.name);
            if (assigned != entry.attribute) {
              return Status::Internal("dictionary replay mismatch for '" +
                                      entry.name + "'");
            }
            break;
          }
          case JournalEntry::Kind::kSpill:
            cold_set = std::move(entry.cold_set);
            break;
          case JournalEntry::Kind::kMutationBatch:
            // Expanded by the reader; never surfaced.
            return Status::Internal("unexpanded mutation batch entry");
        }
        ++replayed;
      }
      torn_tail = (*reader)->torn_tail();
    } else if (reader.status().code() != StatusCode::kNotFound) {
      return reader.status();
    }
  }

  // Re-establish tier placement. Representatives that no longer resolve
  // (possible only behind a torn tail, where the last complete record is
  // slightly stale) are skipped — residency is a performance property,
  // the data itself is already recovered.
  if (tier != nullptr) {
    for (const EntityId representative : cold_set) {
      const std::optional<PartitionId> home =
          cinderella->catalog().FindEntity(representative);
      if (!home.has_value()) continue;
      CINDERELLA_RETURN_IF_ERROR(cinderella->SpillPartition(*home));
    }
  }

  // Re-open for append; a torn tail is truncated away by rewriting the
  // journal from the recovered state via an immediate checkpoint below.
  StatusOr<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(journal_file, /*truncate=*/false);
  CINDERELLA_RETURN_IF_ERROR(journal.status());

  std::unique_ptr<DurableTable> durable(new DurableTable(
      std::move(options), std::move(table), cinderella,
      std::move(journal).value(), replayed, torn_tail));
  durable->tier_ = std::move(tier);
  durable->logged_attributes_ = durable->table_->dictionary().size();
  // Attach the ingest pipeline after replay so its catalog mirror is
  // built once, from the fully recovered state.
  durable->ingest_ = AttachBatchInserter(cinderella, durable->options_.ingest);
  if (durable->tier_ != nullptr) {
    const CinderellaStats& stats = cinderella->stats();
    durable->tier_epoch_ = stats.spills + stats.faults;
    durable->tier_controller_ = std::make_unique<TierController>(
        cinderella, TierControllerOptions{durable->options_.spill.budget_bytes,
                                          durable->options_.spill.min_idle});
  }
  if (torn_tail) {
    // The torn bytes would corrupt future replays; checkpoint now so the
    // journal restarts clean.
    CINDERELLA_RETURN_IF_ERROR(durable->Checkpoint());
  }
  return durable;
}

Status DurableTable::LogDictionaryGrowth() {
  // Persist dictionary growth before the rows that rely on it.
  const AttributeDictionary& dictionary = table_->dictionary();
  while (logged_attributes_ < dictionary.size()) {
    const AttributeId id = static_cast<AttributeId>(logged_attributes_);
    auto name = dictionary.Name(id);
    CINDERELLA_RETURN_IF_ERROR(name.status());
    CINDERELLA_RETURN_IF_ERROR(journal_->LogAttribute(id, name.value()));
    ++logged_attributes_;
  }
  return Status::OK();
}

Status DurableTable::MaybeSync(uint64_t ops) {
  if (options_.group_commit_ops > 0) {
    ops_since_sync_ += ops;
    if (ops_since_sync_ < options_.group_commit_ops) return Status::OK();
  } else if (!options_.sync_every_op) {
    return Status::OK();
  }
  CINDERELLA_RETURN_IF_ERROR(journal_->Sync());
  ops_since_sync_ = 0;
  return Status::OK();
}

Status DurableTable::MaybeLogTierPlacement() {
  if (tier_ == nullptr) return Status::OK();
  const CinderellaStats& stats = cinderella_->stats();
  const uint64_t epoch = stats.spills + stats.faults;
  if (epoch == tier_epoch_) return Status::OK();
  tier_epoch_ = epoch;
  std::vector<EntityId> cold;
  cinderella_->catalog().ForEachPartition([&](const Partition& partition) {
    if (partition.cold()) {
      cold.push_back(partition.cold_chain()->representative);
    }
  });
  return journal_->LogSpillSet(cold);
}

Status DurableTable::EvaluateTier() {
  if (tier_controller_ != nullptr) {
    CINDERELLA_RETURN_IF_ERROR(tier_controller_->EvaluateAndSpill().status());
  }
  // Faults (ops that targeted a cold partition) move the epoch even when
  // the evaluation itself spilled nothing.
  return MaybeLogTierPlacement();
}

Status DurableTable::AfterApply(
    Status status, const std::function<Status(JournalWriter&)>& log) {
  CINDERELLA_RETURN_IF_ERROR(status);
  CINDERELLA_RETURN_IF_ERROR(LogDictionaryGrowth());
  CINDERELLA_RETURN_IF_ERROR(log(*journal_));
  CINDERELLA_RETURN_IF_ERROR(EvaluateTier());
  return MaybeSync(1);
}

Status DurableTable::InsertRow(Row row) {
  Row copy = row;
  return AfterApply(table_->InsertRow(std::move(row)),
                    [&](JournalWriter& journal) {
                      return journal.LogInsert(copy);
                    });
}

Status DurableTable::ApplyMutations(std::vector<Mutation> ops) {
  if (ops.empty()) return Status::OK();
  std::vector<Mutation> copies = ops;
  size_t applied = 0;
  const Status status = table_->ApplyMutations(std::move(ops), &applied);
  CINDERELLA_RETURN_IF_ERROR(LogDictionaryGrowth());
  if (applied > 0) {
    // Journal exactly the committed prefix — the part the in-memory state
    // reflects even when the batch failed part-way — as one batch record,
    // made durable by a single fsync (the group-commit payoff).
    copies.resize(applied);
    CINDERELLA_RETURN_IF_ERROR(journal_->LogMutationBatch(copies));
    CINDERELLA_RETURN_IF_ERROR(EvaluateTier());
    if (options_.sync_every_op || options_.group_commit_ops > 0) {
      CINDERELLA_RETURN_IF_ERROR(journal_->Sync());
      ops_since_sync_ = 0;
    }
  }
  return status;
}

Status DurableTable::InsertBatch(std::vector<Row> rows) {
  std::vector<Mutation> ops;
  ops.reserve(rows.size());
  for (Row& row : rows) ops.push_back(Mutation::Insert(std::move(row)));
  return ApplyMutations(std::move(ops));
}

Status DurableTable::UpdateBatch(std::vector<Row> rows) {
  std::vector<Mutation> ops;
  ops.reserve(rows.size());
  for (Row& row : rows) ops.push_back(Mutation::Update(std::move(row)));
  return ApplyMutations(std::move(ops));
}

Status DurableTable::Insert(
    EntityId entity,
    const std::vector<UniversalTable::NamedValue>& attributes) {
  Row row(entity);
  for (const auto& [name, value] : attributes) {
    row.Set(table_->dictionary().GetOrCreate(name), value);
  }
  return InsertRow(std::move(row));
}

Status DurableTable::UpdateRow(Row row) {
  Row copy = row;
  return AfterApply(table_->UpdateRow(std::move(row)),
                    [&](JournalWriter& journal) {
                      return journal.LogUpdate(copy);
                    });
}

Status DurableTable::Update(
    EntityId entity,
    const std::vector<UniversalTable::NamedValue>& attributes) {
  Row row(entity);
  for (const auto& [name, value] : attributes) {
    row.Set(table_->dictionary().GetOrCreate(name), value);
  }
  return UpdateRow(std::move(row));
}

Status DurableTable::Delete(EntityId entity) {
  return AfterApply(table_->Delete(entity), [&](JournalWriter& journal) {
    return journal.LogDelete(entity);
  });
}

Status DurableTable::DeleteBatch(const std::vector<EntityId>& entities) {
  std::vector<Mutation> ops;
  ops.reserve(entities.size());
  for (EntityId entity : entities) ops.push_back(Mutation::Delete(entity));
  return ApplyMutations(std::move(ops));
}

Status DurableTable::Checkpoint() {
  // Snapshot to a temp file, make it durable, then atomically swap it in
  // and make the rename durable before truncating the journal: a crash at
  // any point leaves either the old snapshot with the full journal or
  // the complete new snapshot on disk.
  const std::string tmp = snapshot_path() + ".tmp";
  CINDERELLA_RETURN_IF_ERROR(
      SaveSnapshotToFile(*cinderella_, table_->dictionary(), tmp));
  CINDERELLA_RETURN_IF_ERROR(SyncPath(tmp));
  if (std::rename(tmp.c_str(), snapshot_path().c_str()) != 0) {
    return Status::Internal("cannot rename snapshot into place");
  }
  CINDERELLA_RETURN_IF_ERROR(SyncPath(options_.directory));
  // Close the old writer before truncating: its buffered bytes would
  // otherwise flush into the freshly truncated file on destruction. On
  // failure the closed writer stays in place, so later appends fail
  // with a Status instead of reaching a dead file.
  CINDERELLA_RETURN_IF_ERROR(journal_->Close());
  StatusOr<std::unique_ptr<JournalWriter>> journal =
      JournalWriter::Open(journal_path(), /*truncate=*/true);
  CINDERELLA_RETURN_IF_ERROR(journal.status());
  journal_ = std::move(journal).value();
  ops_since_sync_ = 0;
  // The snapshot is residency-agnostic (restore starts all-hot), so the
  // fresh journal must re-assert the current cold set for the next
  // recovery. The page file needs no flush: nothing reads it after a
  // restart.
  if (tier_ != nullptr) {
    std::vector<EntityId> cold;
    cinderella_->catalog().ForEachPartition([&](const Partition& partition) {
      if (partition.cold()) {
        cold.push_back(partition.cold_chain()->representative);
      }
    });
    if (!cold.empty()) {
      CINDERELLA_RETURN_IF_ERROR(journal_->LogSpillSet(cold));
    }
  }
  return Status::OK();
}

}  // namespace cinderella
