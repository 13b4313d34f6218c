// Tests for the operation journal and the durable table: round-trips,
// deterministic replay, torn-tail crash recovery, checkpointing, and
// dictionary persistence.

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "io/durable_table.h"
#include "io/journal.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id, std::initializer_list<AttributeId> attrs) {
  Row row(id);
  for (AttributeId a : attrs) row.Set(a, Value(int64_t{1}));
  return row;
}

std::string TempPath(const char* name) {
  return testing::TempDir() + "/" + name;
}

std::string FreshDir(const char* name) {
  const std::string dir = TempPath(name);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::set<std::set<EntityId>> Grouping(const Cinderella& c) {
  std::set<std::set<EntityId>> groups;
  c.catalog().ForEachPartition([&](const Partition& p) {
    std::set<EntityId> members;
    EXPECT_TRUE(
        c.ForEachRowOf(p, [&](const Row& row) { members.insert(row.id()); })
            .ok());
    groups.insert(std::move(members));
  });
  return groups;
}

// -- Journal ---------------------------------------------------------------------

TEST(JournalTest, WriteReadRoundTrip) {
  const std::string path = TempPath("journal_roundtrip.log");
  {
    auto writer = JournalWriter::Open(path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok());
    Row row(7);
    row.Set(1, Value(int64_t{5}));
    row.Set(2, Value("shoe"));
    ASSERT_TRUE((*writer)->LogInsert(row).ok());
    row.Set(3, Value(1.5));
    ASSERT_TRUE((*writer)->LogUpdate(row).ok());
    ASSERT_TRUE((*writer)->LogDelete(7).ok());
    ASSERT_TRUE((*writer)->LogAttribute(4, "slipper").ok());
    ASSERT_TRUE((*writer)->Sync().ok());
    EXPECT_EQ((*writer)->entries_written(), 4u);
  }
  auto reader = JournalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  JournalEntry entry;

  ASSERT_TRUE(*(*reader)->Next(&entry));
  EXPECT_EQ(entry.kind, JournalEntry::Kind::kInsert);
  EXPECT_EQ(entry.row.id(), 7u);
  EXPECT_EQ(entry.row.Get(2)->as_string(), "shoe");

  ASSERT_TRUE(*(*reader)->Next(&entry));
  EXPECT_EQ(entry.kind, JournalEntry::Kind::kUpdate);
  EXPECT_DOUBLE_EQ(entry.row.Get(3)->as_double(), 1.5);

  ASSERT_TRUE(*(*reader)->Next(&entry));
  EXPECT_EQ(entry.kind, JournalEntry::Kind::kDelete);
  EXPECT_EQ(entry.entity, 7u);

  ASSERT_TRUE(*(*reader)->Next(&entry));
  EXPECT_EQ(entry.kind, JournalEntry::Kind::kAttribute);
  EXPECT_EQ(entry.attribute, 4u);
  EXPECT_EQ(entry.name, "slipper");

  EXPECT_FALSE(*(*reader)->Next(&entry));  // Clean EOF.
  EXPECT_FALSE((*reader)->torn_tail());
}

TEST(JournalTest, ReplayReproducesExactPartitioning) {
  const std::string path = TempPath("journal_replay.log");
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 10;
  auto original = std::move(Cinderella::Create(config)).value();
  {
    auto writer = JournalWriter::Open(path, true);
    ASSERT_TRUE(writer.ok());
    Rng rng(3);
    for (EntityId id = 0; id < 200; ++id) {
      Row row(id);
      const AttributeId base = static_cast<AttributeId>(rng.Uniform(3) * 10);
      for (AttributeId a = 0; a < 3; ++a) {
        row.Set(base + a, Value(int64_t{1}));
      }
      ASSERT_TRUE((*writer)->LogInsert(row).ok());
      ASSERT_TRUE(original->Insert(std::move(row)).ok());
    }
    for (EntityId id = 0; id < 50; ++id) {
      ASSERT_TRUE((*writer)->LogDelete(id).ok());
      ASSERT_TRUE(original->Delete(id).ok());
    }
  }
  auto replayed = std::move(Cinderella::Create(config)).value();
  auto applied = ReplayJournal(path, replayed.get());
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 250u);
  // Determinism: identical co-location, not just identical contents.
  EXPECT_EQ(Grouping(*original), Grouping(*replayed));
}

TEST(JournalTest, MissingFileIsEmptyJournal) {
  auto c = std::move(Cinderella::Create(CinderellaConfig{})).value();
  auto applied = ReplayJournal(TempPath("never_written.log"), c.get());
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
}

TEST(JournalTest, TornTailDetected) {
  const std::string path = TempPath("journal_torn.log");
  {
    auto writer = JournalWriter::Open(path, true);
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE((*writer)->LogInsert(MakeRow(1, {0, 1})).ok());
    ASSERT_TRUE((*writer)->LogInsert(MakeRow(2, {0, 1})).ok());
  }
  // Chop off the last few bytes (simulated crash mid-append).
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(path, size - 5, ec);
  ASSERT_FALSE(ec);

  auto reader = JournalReader::Open(path);
  ASSERT_TRUE(reader.ok());
  JournalEntry entry;
  ASSERT_TRUE(*(*reader)->Next(&entry));
  EXPECT_EQ(entry.row.id(), 1u);
  EXPECT_FALSE(*(*reader)->Next(&entry));
  EXPECT_TRUE((*reader)->torn_tail());
}

TEST(JournalTest, CloseReportsAFailedFlush) {
  // /dev/full accepts the open and fails every write with ENOSPC, so the
  // buffered entry can only fail when Close() flushes it.
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "/dev/full is absent";
  }
  auto writer = JournalWriter::Open("/dev/full", /*truncate=*/false);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE((*writer)->LogInsert(MakeRow(1, {0, 1})).ok());
  const Status closed = (*writer)->Close();
  EXPECT_FALSE(closed.ok());
  EXPECT_NE(closed.ToString().find(std::strerror(ENOSPC)), std::string::npos)
      << closed.ToString();
  // Closed once: a second Close has nothing left to report, and appends
  // after it fail instead of writing.
  EXPECT_TRUE((*writer)->Close().ok());
  ASSERT_TRUE((*writer)->LogInsert(MakeRow(2, {0, 1})).ok());
  EXPECT_FALSE((*writer)->Sync().ok());
}

// -- DurableTable ------------------------------------------------------------------

TEST(DurableTableTest, SurvivesReopenWithoutCheckpoint) {
  const std::string dir = FreshDir("durable_nockpt");
  DurableTable::Options options;
  options.directory = dir;
  options.config.weight = 0.3;
  options.config.max_size = 100;
  {
    auto table = DurableTable::Open(options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE((*table)
                    ->Insert(1, {{"name", Value("Canon")},
                                 {"aperture", Value(2.0)}})
                    .ok());
    ASSERT_TRUE((*table)
                    ->Insert(2, {{"name", Value("WD")},
                                 {"rotation", Value(int64_t{7200})}})
                    .ok());
    ASSERT_TRUE((*table)->Delete(2).ok());
    // No checkpoint: recovery must come purely from the journal.
  }
  auto reopened = DurableTable::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->replayed_on_open(), 6u);  // 3 attrs + 3 ops.
  EXPECT_EQ((*reopened)->table().entity_count(), 1u);
  // Dictionary ids survived: "aperture" resolves and the row has it.
  auto row = (*reopened)->table().Get(1);
  ASSERT_TRUE(row.ok());
  const auto aperture = (*reopened)->table().dictionary().Find("aperture");
  ASSERT_TRUE(aperture.has_value());
  EXPECT_TRUE(row->Has(*aperture));
}

TEST(DurableTableTest, CheckpointTruncatesJournal) {
  const std::string dir = FreshDir("durable_ckpt");
  DurableTable::Options options;
  options.directory = dir;
  {
    auto table = DurableTable::Open(options);
    ASSERT_TRUE(table.ok());
    for (EntityId id = 0; id < 20; ++id) {
      ASSERT_TRUE((*table)->InsertRow(MakeRow(id, {0, 1})).ok());
    }
    ASSERT_TRUE((*table)->Checkpoint().ok());
    // Post-checkpoint operations land in the fresh journal.
    ASSERT_TRUE((*table)->InsertRow(MakeRow(100, {0, 1})).ok());
  }
  auto reopened = DurableTable::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->replayed_on_open(), 1u);  // Only the tail op.
  EXPECT_EQ((*reopened)->table().entity_count(), 21u);
}

TEST(DurableTableTest, RecoversFromTornTail) {
  const std::string dir = FreshDir("durable_torn");
  DurableTable::Options options;
  options.directory = dir;
  {
    auto table = DurableTable::Open(options);
    ASSERT_TRUE(table.ok());
    for (EntityId id = 0; id < 10; ++id) {
      ASSERT_TRUE((*table)->InsertRow(MakeRow(id, {0, 1})).ok());
    }
  }
  // Tear the journal.
  const std::string journal = dir + "/journal.log";
  std::error_code ec;
  const auto size = std::filesystem::file_size(journal, ec);
  ASSERT_FALSE(ec);
  std::filesystem::resize_file(journal, size - 3, ec);
  ASSERT_FALSE(ec);

  auto recovered = DurableTable::Open(options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->recovered_from_torn_tail());
  // The torn final insert is lost; everything before it survived, and the
  // automatic checkpoint cleaned the journal.
  EXPECT_EQ((*recovered)->table().entity_count(), 9u);
  auto reopened = DurableTable::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_FALSE((*reopened)->recovered_from_torn_tail());
  EXPECT_EQ((*reopened)->table().entity_count(), 9u);
}

TEST(DurableTableTest, RecoveryReproducesPartitioning) {
  const std::string dir = FreshDir("durable_partitioning");
  DurableTable::Options options;
  options.directory = dir;
  options.config.weight = 0.4;
  options.config.max_size = 8;
  std::set<std::set<EntityId>> before;
  {
    auto table = DurableTable::Open(options);
    ASSERT_TRUE(table.ok());
    Rng rng(11);
    for (EntityId id = 0; id < 150; ++id) {
      Row row(id);
      const AttributeId base = static_cast<AttributeId>(rng.Uniform(4) * 8);
      for (AttributeId a = 0; a < 3; ++a) {
        row.Set(base + a, Value(int64_t{1}));
      }
      ASSERT_TRUE((*table)->InsertRow(std::move(row)).ok());
    }
    ASSERT_TRUE((*table)->Checkpoint().ok());
    for (EntityId id = 150; id < 200; ++id) {
      ASSERT_TRUE((*table)->InsertRow(MakeRow(id, {0, 1, 2})).ok());
    }
    before = Grouping((*table)->cinderella());
  }
  auto reopened = DurableTable::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(Grouping((*reopened)->cinderella()), before);
}

TEST(DurableTableTest, UpdatesAreDurable) {
  const std::string dir = FreshDir("durable_updates");
  DurableTable::Options options;
  options.directory = dir;
  {
    auto table = DurableTable::Open(options);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->Insert(1, {{"a", Value(int64_t{1})}}).ok());
    ASSERT_TRUE((*table)->Update(1, {{"b", Value(int64_t{2})}}).ok());
  }
  auto reopened = DurableTable::Open(options);
  ASSERT_TRUE(reopened.ok());
  auto row = (*reopened)->table().Get(1);
  ASSERT_TRUE(row.ok());
  const auto b = (*reopened)->table().dictionary().Find("b");
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(row->Has(*b));
  EXPECT_EQ(row->attribute_count(), 1u);
}

TEST(DurableTableTest, FailedOperationNotJournaled) {
  const std::string dir = FreshDir("durable_failed");
  DurableTable::Options options;
  options.directory = dir;
  {
    auto table = DurableTable::Open(options);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->InsertRow(MakeRow(1, {0})).ok());
    EXPECT_FALSE((*table)->InsertRow(MakeRow(1, {1})).ok());  // Duplicate.
    EXPECT_FALSE((*table)->Delete(99).ok());
  }
  auto reopened = DurableTable::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->table().entity_count(), 1u);
}

// Split starters survive a checkpoint: a table closed after a checkpoint
// and a journal tail, and reopened with the ingest pipeline and the cold
// tier attached, goes on grouping rows exactly like a table never closed.
TEST(DurableTableTest, ReopenedTableGroupsLikeAnUnclosedOne) {
  auto options_for = [](const std::string& dir) {
    DurableTable::Options options;
    options.directory = dir;
    options.config.weight = 0.3;
    options.config.max_size = 12;
    options.ingest.shards = 2;
    options.ingest.window = 16;
    options.spill.page_size = 1024;
    options.spill.pool_frames = 4;
    options.spill.budget_bytes = 4096;
    options.spill.min_idle = 1;
    return options;
  };
  // Batches of inserts, updates and deletes over three attribute families.
  Rng rng(23);
  std::vector<EntityId> live;
  EntityId next = 0;
  auto make = [&](EntityId id) {
    Row row(id);
    const AttributeId base = static_cast<AttributeId>(rng.Uniform(3) * 10);
    const size_t attrs = 2 + rng.Uniform(5);
    for (size_t a = 0; a < attrs; ++a) {
      row.Set(base + static_cast<AttributeId>(rng.Uniform(8)),
              Value(std::string(rng.Uniform(40), 'v')));
    }
    return row;
  };
  auto batch = [&]() {
    std::vector<Mutation> ops;
    std::set<EntityId> touched;
    for (int i = 0; i < 64; ++i) {
      const uint64_t pick = rng.Uniform(10);
      if (live.size() < 40 || pick < 6) {
        live.push_back(next);
        ops.push_back(Mutation::Insert(make(next++)));
        continue;
      }
      const size_t victim = rng.Uniform(live.size());
      if (!touched.insert(live[victim]).second) continue;
      if (pick < 8) {
        ops.push_back(Mutation::Update(make(live[victim])));
      } else {
        ops.push_back(Mutation::Delete(live[victim]));
        live[victim] = live.back();
        live.pop_back();
      }
    }
    return ops;
  };

  const DurableTable::Options closed_options =
      options_for(FreshDir("durable_closed"));
  auto unclosed = DurableTable::Open(options_for(FreshDir("durable_unclosed")));
  ASSERT_TRUE(unclosed.ok()) << unclosed.status().ToString();
  ASSERT_TRUE((*unclosed)->tiering_enabled());
  uint64_t splits_at_reopen = 0;
  {
    auto closed = DurableTable::Open(closed_options);
    ASSERT_TRUE(closed.ok()) << closed.status().ToString();
    for (int b = 0; b < 12; ++b) {
      if (b == 10) {
        ASSERT_TRUE((*closed)->Checkpoint().ok());
      }
      const std::vector<Mutation> ops = batch();
      ASSERT_TRUE((*closed)->ApplyMutations(ops).ok());
      ASSERT_TRUE((*unclosed)->ApplyMutations(ops).ok());
    }
    EXPECT_GT((*closed)->cinderella().stats().spills, 0u);
    splits_at_reopen = (*unclosed)->cinderella().stats().splits;
    ASSERT_GT(splits_at_reopen, 0u);
  }
  auto reopened = DurableTable::Open(closed_options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT((*reopened)->replayed_on_open(), 0u);
  EXPECT_EQ(Grouping((*reopened)->cinderella()),
            Grouping((*unclosed)->cinderella()));
  for (int b = 0; b < 12; ++b) {
    const std::vector<Mutation> ops = batch();
    ASSERT_TRUE((*reopened)->ApplyMutations(ops).ok());
    ASSERT_TRUE((*unclosed)->ApplyMutations(ops).ok());
  }
  EXPECT_GT((*unclosed)->cinderella().stats().splits, splits_at_reopen);
  EXPECT_EQ(Grouping((*reopened)->cinderella()),
            Grouping((*unclosed)->cinderella()));
  EXPECT_TRUE((*reopened)->cinderella().VerifyIntegrity().ok());
}

}  // namespace
}  // namespace cinderella
