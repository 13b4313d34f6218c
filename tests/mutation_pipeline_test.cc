// Tests for the unified mutation pipeline (src/ingest/mutation_pipeline.h):
// batched updates, deletes, mixed op lists, and Reorganize must produce
// catalogs bit-identical to the serial operations, validate-first must
// leave a rejected batch untouched, and the update move path must repair
// the source partition's split starters (the satellite regression).

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cinderella.h"
#include "ingest/mutation_pipeline.h"
#include "workload/dbpedia_generator.h"

namespace cinderella {
namespace {

std::vector<Row> TestRows(size_t n, AttributeDictionary* dictionary,
                          uint64_t seed = 42) {
  DbpediaConfig config;
  config.num_entities = n;
  config.seed = seed;
  DbpediaGenerator generator(config, dictionary);
  return generator.Generate();
}

// Canonical partitioning fingerprint: partition id -> sorted resident ids.
// Identical fingerprints mean identical partitionings including the ids
// the partitions were created under (i.e. identical creation order).
std::map<PartitionId, std::vector<EntityId>> Fingerprint(
    const PartitionCatalog& catalog) {
  std::map<PartitionId, std::vector<EntityId>> fingerprint;
  catalog.ForEachPartition([&](const Partition& partition) {
    std::vector<EntityId>& residents = fingerprint[partition.id()];
    for (const Row& row : partition.segment().rows()) {
      residents.push_back(row.id());
    }
    std::sort(residents.begin(), residents.end());
  });
  return fingerprint;
}

CinderellaConfig SmallConfig() {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 12;  // Small partitions: updates move, splits happen.
  return config;
}

// An update stream that re-randomizes attribute sets, so most updates
// change the rating synopsis (stay-or-move decisions of every flavor).
std::vector<Row> MakeUpdates(const std::vector<Row>& base, size_t count,
                             uint64_t seed) {
  std::vector<Row> updates;
  uint64_t state = seed;
  auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 33;
  };
  for (size_t i = 0; i < count; ++i) {
    const Row& victim = base[next() % base.size()];
    Row row(victim.id());
    const size_t attrs = 2 + next() % 6;
    for (size_t a = 0; a < attrs; ++a) {
      row.Set(static_cast<AttributeId>(next() % 40),
              Value(static_cast<int64_t>(next() % 1000)));
    }
    updates.push_back(std::move(row));
  }
  return updates;
}

// -- Batched updates ----------------------------------------------------------

struct PipelineParam {
  size_t shards;
  size_t window;
};

std::string PipelineParamName(const PipelineParam& param) {
  return "shards" + std::to_string(param.shards) + "_window" +
         std::to_string(param.window);
}

// Without a printer gtest dumps the parameter's bytes, and CTest carries
// the dump in every test name.
void PrintTo(const PipelineParam& param, std::ostream* os) {
  *os << PipelineParamName(param);
}

class PipelineDeterminismTest
    : public testing::TestWithParam<PipelineParam> {};

TEST_P(PipelineDeterminismTest, UpdateBatchMatchesSerial) {
  const PipelineParam param = GetParam();
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(300, &dictionary);
  const std::vector<Row> updates = MakeUpdates(base, 200, 7);

  auto serial = std::move(Cinderella::Create(SmallConfig())).value();
  for (const Row& row : base) ASSERT_TRUE(serial->Insert(row).ok());
  for (const Row& row : updates) ASSERT_TRUE(serial->Update(row).ok());

  auto batched = std::move(Cinderella::Create(SmallConfig())).value();
  for (const Row& row : base) ASSERT_TRUE(batched->Insert(row).ok());
  MutationPipelineOptions options;
  options.shards = static_cast<int>(param.shards);
  options.window = param.window;
  const std::unique_ptr<MutationPipeline> engine =
      AttachMutationPipeline(batched.get(), options);
  ASSERT_TRUE(batched->UpdateBatch(updates).ok());

  EXPECT_EQ(Fingerprint(batched->catalog()), Fingerprint(serial->catalog()));
  EXPECT_EQ(batched->stats().splits, serial->stats().splits);
  EXPECT_EQ(batched->stats().updates_moved, serial->stats().updates_moved);
  EXPECT_EQ(batched->stats().partitions_dissolved,
            serial->stats().partitions_dissolved);
  EXPECT_EQ(engine->stats().updates, updates.size());
  { auto vs = batched->VerifyIntegrity(); EXPECT_TRUE(vs.ok()) << vs.ToString(); }
  EXPECT_TRUE(serial->VerifyIntegrity().ok());
}

TEST_P(PipelineDeterminismTest, MixedBatchMatchesSerialDispatch) {
  const PipelineParam param = GetParam();
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(200, &dictionary);
  const std::vector<Row> fresh = TestRows(60, &dictionary, 99);
  // Deletes below take ids 0, 3, 6, ...; keep the update victims disjoint
  // so every serial-order prefix of the stream stays valid.
  std::vector<Row> updates;
  for (Row& row : MakeUpdates(base, 400, 17)) {
    if (row.id() % 3 != 0) updates.push_back(std::move(row));
    if (updates.size() == 60) break;
  }
  ASSERT_EQ(updates.size(), 60u);

  // A mixed, ordered op stream: inserts of fresh ids (offset past the
  // base), updates of resident ids, deletes of resident ids — interleaved.
  std::vector<Mutation> ops;
  size_t fi = 0, ui = 0;
  EntityId delete_cursor = 0;
  for (size_t i = 0; i < 150; ++i) {
    switch (i % 3) {
      case 0: {
        Row row = fresh[fi++];
        Row moved(row.id() + 100000);
        for (const auto& cell : row.cells()) {
          moved.Set(cell.attribute, cell.value);
        }
        ops.push_back(Mutation::Insert(std::move(moved)));
        break;
      }
      case 1:
        ops.push_back(Mutation::Update(updates[ui++]));
        break;
      default:
        ops.push_back(Mutation::Delete(delete_cursor));
        delete_cursor += 3;  // Distinct victims, all resident in base.
        break;
    }
  }

  auto serial = std::move(Cinderella::Create(SmallConfig())).value();
  for (const Row& row : base) ASSERT_TRUE(serial->Insert(row).ok());
  for (const Mutation& op : ops) {
    switch (op.kind) {
      case Mutation::Kind::kInsert:
        ASSERT_TRUE(serial->Insert(op.row).ok());
        break;
      case Mutation::Kind::kUpdate:
        ASSERT_TRUE(serial->Update(op.row).ok());
        break;
      case Mutation::Kind::kDelete:
        ASSERT_TRUE(serial->Delete(op.entity).ok());
        break;
    }
  }

  auto batched = std::move(Cinderella::Create(SmallConfig())).value();
  for (const Row& row : base) ASSERT_TRUE(batched->Insert(row).ok());
  MutationPipelineOptions options;
  options.shards = static_cast<int>(param.shards);
  options.window = param.window;
  const std::unique_ptr<MutationPipeline> engine =
      AttachMutationPipeline(batched.get(), options);
  size_t applied = 0;
  ASSERT_TRUE(batched->ApplyMutations(ops, &applied).ok());
  EXPECT_EQ(applied, ops.size());

  EXPECT_EQ(Fingerprint(batched->catalog()), Fingerprint(serial->catalog()));
  EXPECT_EQ(batched->stats().splits, serial->stats().splits);
  EXPECT_EQ(batched->stats().updates_moved, serial->stats().updates_moved);
  EXPECT_EQ(engine->stats().deletes, 50u);
  { auto vs = batched->VerifyIntegrity(); EXPECT_TRUE(vs.ok()) << vs.ToString(); }
}

TEST_P(PipelineDeterminismTest, ReorganizeMatchesSerial) {
  const PipelineParam param = GetParam();
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(250, &dictionary);
  const std::vector<Row> updates = MakeUpdates(base, 120, 23);

  // Same pre-reorganize state on both sides, built serially; the updates
  // leave partitions scrambled enough that Reorganize actually moves rows.
  auto serial = std::move(Cinderella::Create(SmallConfig())).value();
  auto batched = std::move(Cinderella::Create(SmallConfig())).value();
  for (const Row& row : base) {
    ASSERT_TRUE(serial->Insert(row).ok());
    ASSERT_TRUE(batched->Insert(row).ok());
  }
  for (const Row& row : updates) {
    ASSERT_TRUE(serial->Update(row).ok());
    ASSERT_TRUE(batched->Update(row).ok());
  }
  ASSERT_EQ(Fingerprint(batched->catalog()), Fingerprint(serial->catalog()));

  ASSERT_TRUE(serial->Reorganize().ok());

  MutationPipelineOptions options;
  options.shards = static_cast<int>(param.shards);
  options.window = param.window;
  const std::unique_ptr<MutationPipeline> engine =
      AttachMutationPipeline(batched.get(), options);
  ASSERT_TRUE(batched->Reorganize().ok());

  EXPECT_EQ(Fingerprint(batched->catalog()), Fingerprint(serial->catalog()));
  EXPECT_EQ(batched->stats().entities_reinserted,
            serial->stats().entities_reinserted);
  EXPECT_EQ(engine->stats().reinserts, base.size());
  { auto vs = batched->VerifyIntegrity(); EXPECT_TRUE(vs.ok()) << vs.ToString(); }
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndWindows, PipelineDeterminismTest,
    testing::Values(PipelineParam{1, 1}, PipelineParam{1, 128},
                    PipelineParam{2, 7}, PipelineParam{4, 32},
                    PipelineParam{4, 128}),
    [](const testing::TestParamInfo<PipelineParam>& info) {
      return PipelineParamName(info.param);
    });

// -- Validate-first -----------------------------------------------------------

TEST(MutationPipelineValidationTest, RejectedBatchLeavesTableUntouched) {
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(50, &dictionary);
  auto c = std::move(Cinderella::Create(SmallConfig())).value();
  const std::unique_ptr<MutationPipeline> engine =
      AttachMutationPipeline(c.get(), {2, 16});
  ASSERT_TRUE(c->InsertBatch(base).ok());
  const auto before = Fingerprint(c->catalog());

  // Insert of a resident id (position 2 of the batch).
  {
    std::vector<Mutation> ops;
    ops.push_back(Mutation::Update(base[0]));
    ops.push_back(Mutation::Insert(base[3]));
    size_t applied = 99;
    const Status status = c->ApplyMutations(ops, &applied);
    EXPECT_EQ(status.code(), StatusCode::kAlreadyExists);
    EXPECT_EQ(applied, 0u);
    EXPECT_EQ(Fingerprint(c->catalog()), before);
  }
  // Update of an unknown id.
  {
    Row ghost(777777);
    ghost.Set(1, Value(int64_t{1}));
    std::vector<Mutation> ops;
    ops.push_back(Mutation::Insert(Row(888888)));
    ops.push_back(Mutation::Update(std::move(ghost)));
    const Status status = c->ApplyMutations(std::move(ops), nullptr);
    EXPECT_EQ(status.code(), StatusCode::kNotFound);
    EXPECT_EQ(Fingerprint(c->catalog()), before);
  }
  // Delete of an unknown id, and a delete duplicated within the batch.
  {
    std::vector<Mutation> ops;
    ops.push_back(Mutation::Delete(777777));
    EXPECT_EQ(c->ApplyMutations(ops, nullptr).code(), StatusCode::kNotFound);
    ops.clear();
    ops.push_back(Mutation::Delete(base[0].id()));
    ops.push_back(Mutation::Delete(base[0].id()));
    EXPECT_EQ(c->ApplyMutations(ops, nullptr).code(), StatusCode::kNotFound);
    EXPECT_EQ(Fingerprint(c->catalog()), before);
  }
  // UpdateBatch adapter validates the same way.
  {
    Row ghost(777777);
    ghost.Set(1, Value(int64_t{1}));
    EXPECT_EQ(c->UpdateBatch({ghost}).code(), StatusCode::kNotFound);
    EXPECT_EQ(Fingerprint(c->catalog()), before);
  }
  EXPECT_TRUE(c->VerifyIntegrity().ok());
}

TEST(MutationPipelineValidationTest, InsertAfterDeleteWithinBatchIsLegal) {
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(40, &dictionary);
  auto serial = std::move(Cinderella::Create(SmallConfig())).value();
  auto batched = std::move(Cinderella::Create(SmallConfig())).value();
  for (const Row& row : base) {
    ASSERT_TRUE(serial->Insert(row).ok());
    ASSERT_TRUE(batched->Insert(row).ok());
  }
  const std::unique_ptr<MutationPipeline> engine =
      AttachMutationPipeline(batched.get(), {2, 8});

  // Delete then re-insert the same id with a different shape — exactly
  // what a serial loop permits.
  Row reborn(base[5].id());
  reborn.Set(33, Value(int64_t{9}));
  reborn.Set(34, Value(int64_t{9}));
  std::vector<Mutation> ops;
  ops.push_back(Mutation::Delete(base[5].id()));
  ops.push_back(Mutation::Insert(reborn));
  size_t applied = 0;
  ASSERT_TRUE(batched->ApplyMutations(std::move(ops), &applied).ok());
  EXPECT_EQ(applied, 2u);

  ASSERT_TRUE(serial->Delete(base[5].id()).ok());
  ASSERT_TRUE(serial->Insert(reborn).ok());
  EXPECT_EQ(Fingerprint(batched->catalog()), Fingerprint(serial->catalog()));
}

TEST(MutationPipelineValidationTest, DuplicateUpdatesApplyInOrder) {
  AttributeDictionary dictionary;
  const std::vector<Row> base = TestRows(30, &dictionary);
  auto serial = std::move(Cinderella::Create(SmallConfig())).value();
  auto batched = std::move(Cinderella::Create(SmallConfig())).value();
  for (const Row& row : base) {
    ASSERT_TRUE(serial->Insert(row).ok());
    ASSERT_TRUE(batched->Insert(row).ok());
  }
  const std::unique_ptr<MutationPipeline> engine =
      AttachMutationPipeline(batched.get(), {1, 4});

  Row first(base[2].id());
  first.Set(10, Value(int64_t{1}));
  Row second(base[2].id());
  second.Set(20, Value(int64_t{2}));
  second.Set(21, Value(int64_t{2}));

  ASSERT_TRUE(serial->Update(first).ok());
  ASSERT_TRUE(serial->Update(second).ok());
  ASSERT_TRUE(batched->UpdateBatch({first, second}).ok());

  EXPECT_EQ(Fingerprint(batched->catalog()), Fingerprint(serial->catalog()));
}

// -- Starter repair on the update move path (satellite regression) ------------

// When an update moves an entity that was one of its source partition's
// split starters, the vacated starter slot must be re-seeded from the
// survivors — an un-repaired pair would let the source's next split seed
// a child from a stale singleton.
void CheckStarterRepair(bool batched_path) {
  CinderellaConfig config;
  config.weight = 0.5;
  config.max_size = 8;
  auto c = std::move(Cinderella::Create(config)).value();

  // Two disjoint attribute clusters -> two partitions.
  for (EntityId id = 0; id < 4; ++id) {
    Row row(id);
    row.Set(1, Value(int64_t{1}));
    row.Set(2, Value(int64_t{1}));
    row.Set(3, Value(int64_t{1}));
    ASSERT_TRUE(c->Insert(std::move(row)).ok());
  }
  for (EntityId id = 10; id < 14; ++id) {
    Row row(id);
    row.Set(30, Value(int64_t{1}));
    row.Set(31, Value(int64_t{1}));
    row.Set(32, Value(int64_t{1}));
    ASSERT_TRUE(c->Insert(std::move(row)).ok());
  }

  const auto home = c->catalog().FindEntity(0);
  ASSERT_TRUE(home.has_value());
  const Partition* source = c->catalog().GetPartition(*home);
  ASSERT_NE(source, nullptr);
  ASSERT_EQ(source->entity_count(), 4u);
  ASSERT_TRUE(source->starter_a().has_value());
  const EntityId moved = source->starter_a()->entity;

  // Re-shape the starter entity into the other cluster: negative rating
  // at home, positive at the other partition -> the update moves it.
  Row reshaped(moved);
  reshaped.Set(30, Value(int64_t{2}));
  reshaped.Set(31, Value(int64_t{2}));
  reshaped.Set(32, Value(int64_t{2}));
  if (batched_path) {
    const std::unique_ptr<MutationPipeline> engine =
        AttachMutationPipeline(c.get(), {2, 8});
    ASSERT_TRUE(c->UpdateBatch({reshaped}).ok());
  } else {
    ASSERT_TRUE(c->Update(reshaped).ok());
  }
  ASSERT_EQ(c->stats().updates_moved, 1u);
  const auto new_home = c->catalog().FindEntity(moved);
  ASSERT_TRUE(new_home.has_value());
  ASSERT_NE(*new_home, *home);

  // The source survives with 3 entities and must have a full, resident,
  // distinct starter pair again.
  const Partition* survivor = c->catalog().GetPartition(*home);
  ASSERT_NE(survivor, nullptr);
  ASSERT_EQ(survivor->entity_count(), 3u);
  ASSERT_TRUE(survivor->starter_a().has_value());
  ASSERT_TRUE(survivor->starter_b().has_value());
  EXPECT_NE(survivor->starter_a()->entity, moved);
  EXPECT_NE(survivor->starter_b()->entity, moved);
  EXPECT_NE(survivor->starter_a()->entity, survivor->starter_b()->entity);
  EXPECT_NE(survivor->segment().Find(survivor->starter_a()->entity), nullptr);
  EXPECT_NE(survivor->segment().Find(survivor->starter_b()->entity), nullptr);
  EXPECT_TRUE(c->VerifyIntegrity().ok());
}

TEST(StarterRepairTest, SerialUpdateMoveRepairsSourceStarters) {
  CheckStarterRepair(/*batched_path=*/false);
}

TEST(StarterRepairTest, BatchedUpdateMoveRepairsSourceStarters) {
  CheckStarterRepair(/*batched_path=*/true);
}

}  // namespace
}  // namespace cinderella
