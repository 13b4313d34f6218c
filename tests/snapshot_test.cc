// Tests for snapshot save/restore: exact partitioning round-trip, value
// fidelity, workload-based mode, corruption handling, and continued
// operation after a restore.

#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "core/snapshot.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id, std::initializer_list<AttributeId> attrs) {
  Row row(id);
  for (AttributeId a : attrs) row.Set(a, Value(int64_t{1}));
  return row;
}

std::set<std::set<EntityId>> Grouping(const Cinderella& c) {
  std::set<std::set<EntityId>> groups;
  c.catalog().ForEachPartition([&](const Partition& p) {
    std::set<EntityId> members;
    for (const Row& row : p.segment().rows()) members.insert(row.id());
    groups.insert(std::move(members));
  });
  return groups;
}

TEST(SnapshotTest, RoundTripsPartitioningExactly) {
  CinderellaConfig config;
  config.weight = 0.35;
  config.max_size = 17;
  config.dissolve_threshold = 0.1;
  auto original = std::move(Cinderella::Create(config)).value();
  AttributeDictionary dictionary;
  dictionary.GetOrCreate("name");
  dictionary.GetOrCreate("weight");

  Rng rng(5);
  for (EntityId id = 0; id < 300; ++id) {
    Row row(id);
    const AttributeId base = static_cast<AttributeId>(rng.Uniform(3) * 8);
    for (AttributeId a = 0; a < 4; ++a) {
      row.Set(base + a, Value(static_cast<int64_t>(rng.Uniform(100))));
    }
    ASSERT_TRUE(original->Insert(std::move(row)).ok());
  }

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(*original, dictionary, buffer).ok());
  auto restored = LoadSnapshot(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  EXPECT_EQ(Grouping(*original), Grouping(*restored->partitioner));
  EXPECT_EQ(restored->partitioner->catalog().entity_count(), 300u);
  EXPECT_TRUE(restored->partitioner->VerifyIntegrity().ok());
  EXPECT_EQ(restored->partitioner->config().weight, 0.35);
  EXPECT_EQ(restored->partitioner->config().max_size, 17u);
  EXPECT_EQ(restored->partitioner->config().dissolve_threshold, 0.1);
  EXPECT_EQ(restored->dictionary->size(), 2u);
  EXPECT_EQ(restored->dictionary->Find("weight"),
            std::optional<AttributeId>(1));
}

TEST(SnapshotTest, PreservesValues) {
  CinderellaConfig config;
  auto original = std::move(Cinderella::Create(config)).value();
  AttributeDictionary dictionary;
  Row row(7);
  row.Set(0, Value(int64_t{-42}));
  row.Set(1, Value(2.718));
  row.Set(2, Value("Grimm"));
  ASSERT_TRUE(original->Insert(std::move(row)).ok());

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(*original, dictionary, buffer).ok());
  auto restored = LoadSnapshot(buffer);
  ASSERT_TRUE(restored.ok());
  const auto home = restored->partitioner->catalog().FindEntity(7);
  ASSERT_TRUE(home.has_value());
  const Row* loaded =
      restored->partitioner->catalog().GetPartition(*home)->segment().Find(7);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Get(0)->as_int64(), -42);
  EXPECT_DOUBLE_EQ(loaded->Get(1)->as_double(), 2.718);
  EXPECT_EQ(loaded->Get(2)->as_string(), "Grimm");
}

TEST(SnapshotTest, WorkloadBasedRoundTrip) {
  CinderellaConfig config;
  config.mode = SynopsisMode::kWorkloadBased;
  auto original = std::move(
      Cinderella::Create(config, {Synopsis{0, 1}, Synopsis{5}})).value();
  AttributeDictionary dictionary;
  ASSERT_TRUE(original->Insert(MakeRow(1, {0})).ok());
  ASSERT_TRUE(original->Insert(MakeRow(2, {5})).ok());

  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(*original, dictionary, buffer).ok());
  auto restored = LoadSnapshot(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->partitioner->config().mode,
            SynopsisMode::kWorkloadBased);
  ASSERT_EQ(restored->partitioner->workload().size(), 2u);
  EXPECT_EQ(restored->partitioner->workload()[0], (Synopsis{0, 1}));
  // A restored instance keeps rating in workload terms.
  EXPECT_EQ(restored->partitioner->ExtractSynopsis(MakeRow(9, {1})),
            Synopsis{0});
}

TEST(SnapshotTest, RestoredInstanceKeepsOperating) {
  CinderellaConfig config;
  config.weight = 0.5;
  config.max_size = 5;
  auto original = std::move(Cinderella::Create(config)).value();
  AttributeDictionary dictionary;
  for (EntityId id = 0; id < 12; ++id) {
    ASSERT_TRUE(original->Insert(MakeRow(id, {0, 1})).ok());
  }
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(*original, dictionary, buffer).ok());
  auto restored = LoadSnapshot(buffer);
  ASSERT_TRUE(restored.ok());
  Cinderella& c = *restored->partitioner;
  // Inserts (incl. splits: restored partitions re-seed their starters
  // lazily), deletes and updates all still work.
  for (EntityId id = 100; id < 120; ++id) {
    ASSERT_TRUE(c.Insert(MakeRow(id, {0, 1})).ok());
  }
  ASSERT_TRUE(c.Delete(3).ok());
  ASSERT_TRUE(c.Update(MakeRow(5, {40, 41})).ok());
  EXPECT_EQ(c.catalog().entity_count(), 31u);
  c.catalog().ForEachPartition([&](const Partition& p) {
    EXPECT_LE(p.entity_count(), 5u);
    EXPECT_GT(p.entity_count(), 0u);
  });
  // Duplicate against restored content is rejected.
  EXPECT_EQ(c.Insert(MakeRow(7, {0})).code(), StatusCode::kAlreadyExists);
}

TEST(SnapshotTest, RejectsGarbageAndTruncation) {
  {
    std::stringstream buffer;
    buffer << "not a snapshot at all";
    EXPECT_FALSE(LoadSnapshot(buffer).ok());
  }
  {
    // Valid header, truncated body.
    CinderellaConfig config;
    auto original = std::move(Cinderella::Create(config)).value();
    AttributeDictionary dictionary;
    ASSERT_TRUE(original->Insert(MakeRow(1, {0, 1, 2})).ok());
    std::stringstream buffer;
    ASSERT_TRUE(SaveSnapshot(*original, dictionary, buffer).ok());
    const std::string full = buffer.str();
    std::stringstream truncated(full.substr(0, full.size() / 2));
    EXPECT_FALSE(LoadSnapshot(truncated).ok());
  }
}

TEST(SnapshotTest, FileRoundTrip) {
  CinderellaConfig config;
  auto original = std::move(Cinderella::Create(config)).value();
  AttributeDictionary dictionary;
  dictionary.GetOrCreate("alpha");
  ASSERT_TRUE(original->Insert(MakeRow(1, {0})).ok());
  const std::string path = testing::TempDir() + "/cinderella_snapshot.bin";
  ASSERT_TRUE(SaveSnapshotToFile(*original, dictionary, path).ok());
  auto restored = LoadSnapshotFromFile(path);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->partitioner->catalog().entity_count(), 1u);
  EXPECT_FALSE(LoadSnapshotFromFile(path + ".missing").ok());
}

TEST(SnapshotTest, RestorePartitionRejectsDuplicates) {
  CinderellaConfig config;
  auto c = std::move(Cinderella::Create(config)).value();
  std::vector<Row> rows;
  rows.push_back(MakeRow(1, {0}));
  ASSERT_TRUE(c->RestorePartition(std::move(rows)).ok());
  std::vector<Row> duplicate;
  duplicate.push_back(MakeRow(1, {2}));
  EXPECT_EQ(c->RestorePartition(std::move(duplicate)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_FALSE(c->RestorePartition({}).ok());
}

/// A mixed serial stream over three attribute families: inserts of fresh
/// ids, and (once rows exist) updates and deletes of live ones. With a
/// small MAXSIZE it splits often.
std::vector<Mutation> MixedStream(size_t ops, uint64_t seed) {
  Rng rng(seed);
  std::vector<Mutation> stream;
  std::vector<EntityId> live;
  EntityId next = 0;
  auto make = [&](EntityId id) {
    Row row(id);
    const AttributeId base = static_cast<AttributeId>(rng.Uniform(3) * 10);
    const size_t attrs = 2 + rng.Uniform(5);
    for (size_t a = 0; a < attrs; ++a) {
      row.Set(base + static_cast<AttributeId>(rng.Uniform(8)),
              Value(static_cast<int64_t>(rng.Uniform(100))));
    }
    return row;
  };
  for (size_t i = 0; i < ops; ++i) {
    const uint64_t pick = rng.Uniform(10);
    if (live.size() < 20 || pick < 6) {
      live.push_back(next);
      stream.push_back(Mutation::Insert(make(next++)));
    } else if (pick < 8) {
      stream.push_back(Mutation::Update(make(live[rng.Uniform(live.size())])));
    } else {
      const size_t victim = rng.Uniform(live.size());
      stream.push_back(Mutation::Delete(live[victim]));
      live[victim] = live.back();
      live.pop_back();
    }
  }
  return stream;
}

Status ApplySerially(Cinderella& c, const std::vector<Mutation>& stream,
                     size_t begin, size_t end) {
  for (size_t i = begin; i < end; ++i) {
    const Mutation& op = stream[i];
    switch (op.kind) {
      case Mutation::Kind::kInsert:
        CINDERELLA_RETURN_IF_ERROR(c.Insert(op.row));
        break;
      case Mutation::Kind::kUpdate:
        CINDERELLA_RETURN_IF_ERROR(c.Update(op.row));
        break;
      case Mutation::Kind::kDelete:
        CINDERELLA_RETURN_IF_ERROR(c.Delete(op.entity));
        break;
    }
  }
  return Status::OK();
}

// Split starters are part of the persisted state: a table restored in the
// middle of a stream must split exactly as the saved one goes on to.
TEST(SnapshotTest, RestoredTableFinishesAStreamLikeTheSavedOne) {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 12;
  const std::vector<Mutation> stream = MixedStream(1200, 21);
  const size_t middle = stream.size() / 2;
  auto original = std::move(Cinderella::Create(config)).value();
  ASSERT_TRUE(ApplySerially(*original, stream, 0, middle).ok());
  const uint64_t splits_before = original->stats().splits;
  ASSERT_GT(splits_before, 0u);

  AttributeDictionary dictionary;
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(*original, dictionary, buffer).ok());
  auto restored = LoadSnapshot(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Cinderella& copy = *restored->partitioner;
  ASSERT_TRUE(copy.VerifyIntegrity().ok());
  EXPECT_EQ(Grouping(copy), Grouping(*original));

  ASSERT_TRUE(ApplySerially(*original, stream, middle, stream.size()).ok());
  ASSERT_TRUE(ApplySerially(copy, stream, middle, stream.size()).ok());
  EXPECT_GT(original->stats().splits, splits_before);
  EXPECT_EQ(copy.stats().splits, original->stats().splits - splits_before);
  EXPECT_EQ(Grouping(copy), Grouping(*original));
  EXPECT_TRUE(copy.VerifyIntegrity().ok());
}

template <typename T>
void Put(std::string* out, T value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

// Version 1 of the format carries no split starters; it still loads, and
// the starters are re-seeded on the next structural operation.
TEST(SnapshotTest, VersionOneSnapshotStillLoads) {
  std::string bytes;
  Put<uint32_t>(&bytes, 0x434e4443);  // Magic.
  Put<uint32_t>(&bytes, 1);           // Version.
  Put<double>(&bytes, 0.5);           // weight
  Put<uint64_t>(&bytes, 3);           // max_size
  Put<uint8_t>(&bytes, 0);            // measure: entities
  Put<uint8_t>(&bytes, 0);            // mode: entity-based
  Put<uint8_t>(&bytes, 1);            // normalize_rating
  Put<uint8_t>(&bytes, 0);            // starter_policy: max-diff
  Put<uint8_t>(&bytes, 0);            // use_synopsis_index
  Put<uint64_t>(&bytes, 42);          // starter_seed
  Put<double>(&bytes, 0.0);           // dissolve_threshold
  Put<uint32_t>(&bytes, 0);           // Workload queries.
  Put<uint32_t>(&bytes, 1);           // Dictionary entries.
  Put<uint32_t>(&bytes, 4);
  bytes.append("name");
  const std::vector<std::vector<EntityId>> partitions = {{1, 2, 3}, {4, 5}};
  Put<uint32_t>(&bytes, static_cast<uint32_t>(partitions.size()));
  for (size_t p = 0; p < partitions.size(); ++p) {
    Put<uint64_t>(&bytes, partitions[p].size());
    for (const EntityId id : partitions[p]) {
      Put<uint64_t>(&bytes, id);
      Put<uint32_t>(&bytes, 2);  // Cells.
      for (AttributeId a = 0; a < 2; ++a) {
        Put<uint32_t>(&bytes, static_cast<AttributeId>(p * 2) + a);
        Put<uint8_t>(&bytes, 0);  // ValueType::kInt64.
        Put<int64_t>(&bytes, static_cast<int64_t>(id));
      }
    }
  }

  std::stringstream buffer(bytes);
  auto restored = LoadSnapshot(buffer);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  Cinderella& c = *restored->partitioner;
  EXPECT_EQ(Grouping(c), (std::set<std::set<EntityId>>{{1, 2, 3}, {4, 5}}));
  EXPECT_EQ(c.config().max_size, 3u);
  c.catalog().ForEachPartition([](const Partition& partition) {
    EXPECT_FALSE(partition.starter_a().has_value());
    EXPECT_FALSE(partition.starter_b().has_value());
  });
  ASSERT_TRUE(c.VerifyIntegrity().ok());
  // The full partition splits on the next fitting insert, seeding its
  // starters lazily.
  ASSERT_TRUE(c.Insert(MakeRow(6, {0, 1})).ok());
  EXPECT_EQ(c.stats().splits, 1u);
  EXPECT_TRUE(c.VerifyIntegrity().ok());
}

// A starter that is not a row of its own partition fails the load.
TEST(SnapshotTest, RejectsAStarterOutsideItsPartition) {
  CinderellaConfig config;
  auto original = std::move(Cinderella::Create(config)).value();
  ASSERT_TRUE(original->Insert(MakeRow(1, {0, 1})).ok());
  ASSERT_TRUE(original->Insert(MakeRow(2, {0, 1})).ok());
  ASSERT_TRUE(original->Insert(MakeRow(3, {7, 8})).ok());
  ASSERT_EQ(original->catalog().partition_count(), 2u);
  AttributeDictionary dictionary;
  std::stringstream buffer;
  ASSERT_TRUE(SaveSnapshot(*original, dictionary, buffer).ok());
  const std::string pristine = buffer.str();
  {
    std::stringstream intact(pristine);
    ASSERT_TRUE(LoadSnapshot(intact).ok());
  }

  // The last partition ({3}) ends the file with its two starter slots:
  // u8 present + u64 entity id each.
  const size_t slot_a = pristine.size() - 2 * (1 + sizeof(uint64_t));
  ASSERT_EQ(pristine[slot_a], 1);
  auto load_with = [&](size_t offset, const std::string& patch) {
    std::string corrupted = pristine;
    corrupted.replace(offset, patch.size(), patch);
    std::stringstream in(corrupted);
    return LoadSnapshot(in).status();
  };
  std::string other_partition_row;
  Put<uint64_t>(&other_partition_row, 1);
  EXPECT_EQ(load_with(slot_a + 1, other_partition_row).code(),
            StatusCode::kInvalidArgument);
  std::string unknown_row;
  Put<uint64_t>(&unknown_row, 999);
  EXPECT_EQ(load_with(slot_a + 1, unknown_row).code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(load_with(slot_a, std::string(1, '\x02')).ok());
}

}  // namespace
}  // namespace cinderella
