// Tests for the epoch-based MVCC read engine (src/mvcc): EpochManager
// reclamation semantics, snapshot isolation across split cascades,
// per-window publication, serial-identical placements, DeleteBatch
// (in-memory and journaled), and executor/estimator equivalence between
// the live catalog and a pinned view.

#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "io/durable_table.h"
#include "mvcc/epoch.h"
#include "mvcc/partition_version.h"
#include "mvcc/versioned_table.h"
#include "query/estimator.h"
#include "query/executor.h"
#include "query/predicate.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id, std::initializer_list<AttributeId> attrs) {
  Row row(id);
  for (AttributeId a : attrs) row.Set(a, Value(int64_t{1}));
  return row;
}

std::unique_ptr<Cinderella> MakePartitioner(uint64_t max_size = 16) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = max_size;
  config.scan_threads = 1;
  return std::move(Cinderella::Create(config)).value();
}

/// Rows with clustered attribute sets so splits and multiple partitions
/// actually happen.
std::vector<Row> MakeRows(EntityId first, size_t count) {
  std::vector<Row> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const EntityId id = first + static_cast<EntityId>(i);
    const AttributeId base = static_cast<AttributeId>((id % 4) * 8);
    rows.push_back(MakeRow(id, {base, base + 1, base + 2}));
  }
  return rows;
}

/// Order-insensitive fingerprint of which entities share partitions.
uint64_t GroupingFingerprint(const Cinderella& c) {
  uint64_t fingerprint = 0;
  c.catalog().ForEachPartition([&](const Partition& partition) {
    uint64_t member_hash = 0;
    for (const Row& row : partition.segment().rows()) {
      member_hash += row.id() * 0x9e3779b97f4a7c15ULL + 1;
    }
    fingerprint ^= member_hash * 0xff51afd7ed558ccdULL;
  });
  return fingerprint;
}

/// Structural invariants every published view must satisfy, whatever
/// instant it was pinned at: strictly ascending partition ids, totals
/// consistent with the versions, every resident row findable.
void CheckViewInvariants(const CatalogView& view) {
  size_t entities = 0;
  PartitionId last_id = 0;
  bool first = true;
  for (const PartitionVersion* version : view.partitions()) {
    if (!first) {
      ASSERT_GT(version->id(), last_id);
    }
    first = false;
    last_id = version->id();
    ASSERT_GT(version->entity_count(), 0u);
    entities += version->entity_count();
    for (size_t i = 0; i < version->entity_count(); ++i) {
      const RowView row = version->row(i);
      const RowView found = version->Find(row.id());
      ASSERT_TRUE(found.valid());
      ASSERT_EQ(found.id(), row.id());
    }
  }
  ASSERT_EQ(view.entity_count(), entities);
}

// -- EpochManager ------------------------------------------------------------

TEST(EpochTest, AdvanceFreesUnpinnedGarbage) {
  EpochManager epochs;
  epochs.Retire(new int(7));
  EXPECT_EQ(epochs.retired_count(), 1u);
  EXPECT_EQ(epochs.Advance(), 1u);
  EXPECT_EQ(epochs.retired_count(), 0u);
  EXPECT_EQ(epochs.reclaimed_count(), 1u);
}

TEST(EpochTest, PinnedReaderBlocksReclamation) {
  EpochManager epochs;
  const size_t slot = epochs.Pin();
  EXPECT_EQ(epochs.pinned_count(), 1u);
  // Retired at the pinned epoch: must survive any number of advances
  // while the reader is pinned.
  epochs.Retire(new int(1));
  EXPECT_EQ(epochs.Advance(), 0u);
  EXPECT_EQ(epochs.Advance(), 0u);
  EXPECT_EQ(epochs.retired_count(), 1u);
  epochs.Unpin(slot);
  EXPECT_EQ(epochs.pinned_count(), 0u);
  EXPECT_EQ(epochs.Advance(), 1u);
  EXPECT_EQ(epochs.retired_count(), 0u);
}

TEST(EpochTest, LateReaderDoesNotBlockOlderGarbage) {
  EpochManager epochs;
  epochs.Retire(new int(1));  // Tagged with the current epoch e.
  epochs.Advance();           // Freed: nobody pinned.
  EXPECT_EQ(epochs.reclaimed_count(), 1u);

  epochs.Retire(new int(2));  // Tagged e+1.
  epochs.Advance();           // Freed too.
  const size_t slot = epochs.Pin();  // Pins e+2.
  epochs.Retire(new int(3));         // Tagged e+2: blocked by the pin.
  EXPECT_EQ(epochs.Advance(), 0u);
  epochs.Unpin(slot);
  EXPECT_EQ(epochs.Advance(), 1u);
}

TEST(EpochTest, GuardPinsForItsLifetime) {
  EpochManager epochs;
  {
    EpochGuard guard(&epochs);
    EXPECT_EQ(epochs.pinned_count(), 1u);
    EpochGuard moved(std::move(guard));
    EXPECT_EQ(epochs.pinned_count(), 1u);
  }
  EXPECT_EQ(epochs.pinned_count(), 0u);
}

TEST(EpochTest, SlotsAreReusedAcrossManyPins) {
  EpochManager epochs;
  for (int i = 0; i < 1000; ++i) {
    const size_t slot = epochs.Pin();
    EXPECT_LT(slot, EpochManager::kMaxReaders);
    epochs.Unpin(slot);
  }
  EXPECT_EQ(epochs.pinned_count(), 0u);
}

// -- VersionedTable basics ---------------------------------------------------

TEST(VersionedTableTest, ServesReadsAfterWrites) {
  VersionedTable table(MakePartitioner());
  EXPECT_EQ(table.entity_count(), 0u);
  ASSERT_TRUE(table.Insert(MakeRow(1, {0, 1})).ok());
  ASSERT_TRUE(table.Insert(MakeRow(2, {0, 2})).ok());

  EXPECT_EQ(table.entity_count(), 2u);
  auto row = table.Get(1);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->Has(1));
  EXPECT_FALSE(table.Get(99).ok());

  ASSERT_TRUE(table.Update(MakeRow(1, {0, 5})).ok());
  row = table.Get(1);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->Has(5));
  EXPECT_FALSE(row->Has(1));

  ASSERT_TRUE(table.Delete(2).ok());
  EXPECT_EQ(table.entity_count(), 1u);
  EXPECT_FALSE(table.Get(2).ok());
}

TEST(VersionedTableTest, FailedWritesDoNotChangeTheView) {
  VersionedTable table(MakePartitioner());
  ASSERT_TRUE(table.Insert(MakeRow(1, {0})).ok());
  const uint64_t generation = table.published_generation();
  EXPECT_FALSE(table.Insert(MakeRow(1, {0})).ok());   // Duplicate.
  EXPECT_FALSE(table.Delete(99).ok());                // Unknown.
  EXPECT_FALSE(table.Update(MakeRow(99, {0})).ok());  // Unknown.
  // No catalog mutation happened, so no new view was published.
  EXPECT_EQ(table.published_generation(), generation);
  EXPECT_EQ(table.entity_count(), 1u);
}

TEST(VersionedTableTest, SnapshotIsIsolatedFromSplitCascades) {
  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 24)).ok());

  const VersionedTable::Snapshot snapshot = table.snapshot();
  const uint64_t generation = snapshot.view().generation();
  const size_t entities = snapshot.view().entity_count();
  const size_t partitions = snapshot.view().partition_count();
  std::vector<size_t> per_partition;
  for (const PartitionVersion* v : snapshot.view().partitions()) {
    per_partition.push_back(v->entity_count());
  }

  // Drive plenty of splits (max_size 8, 72 more rows) while the snapshot
  // stays pinned.
  ASSERT_TRUE(table.InsertBatch(MakeRows(1000, 72)).ok());
  ASSERT_GT(table.partitioner().stats().splits, 0u);

  // The pinned view is bitwise the generation it was taken at: same
  // totals, same per-partition sizes, and internally consistent — no
  // half-applied cascade can ever be observed through it.
  EXPECT_EQ(snapshot.view().generation(), generation);
  EXPECT_EQ(snapshot.view().entity_count(), entities);
  ASSERT_EQ(snapshot.view().partition_count(), partitions);
  for (size_t i = 0; i < per_partition.size(); ++i) {
    EXPECT_EQ(snapshot.view().partitions()[i]->entity_count(),
              per_partition[i]);
  }
  CheckViewInvariants(snapshot.view());

  // A fresh snapshot sees everything.
  const VersionedTable::Snapshot fresh = table.snapshot();
  EXPECT_EQ(fresh.view().entity_count(), entities + 72);
  EXPECT_GT(fresh.view().generation(), generation);
  CheckViewInvariants(fresh.view());
}

TEST(VersionedTableTest, RetiredVersionsReclaimOnceReadersRelease) {
  VersionedTable table(MakePartitioner());
  ASSERT_TRUE(table.Insert(MakeRow(1, {0})).ok());

  const uint64_t reclaimed_before = table.epochs().reclaimed_count();
  {
    const VersionedTable::Snapshot snapshot = table.snapshot();
    // This write supersedes the pinned generation's version of the
    // touched partition and the view object itself; both must be retired,
    // not freed.
    ASSERT_TRUE(table.Insert(MakeRow(2, {0})).ok());
    EXPECT_GE(table.epochs().retired_count(), 2u);
    // The pinned snapshot still reads its own generation.
    EXPECT_EQ(snapshot.view().entity_count(), 1u);
  }
  // Reader released: the next publication's advance frees the garbage.
  ASSERT_TRUE(table.Insert(MakeRow(3, {0})).ok());
  EXPECT_GT(table.epochs().reclaimed_count(), reclaimed_before);
  EXPECT_EQ(table.epochs().retired_count(), 0u);
}

TEST(VersionedTableTest, IngestPublishesOncePerCommittedWindow) {
  VersionedTable::Options options;
  options.ingest.window = 8;
  options.ingest.shards = 2;
  VersionedTable table(MakePartitioner(), std::move(options));

  const uint64_t generation = table.published_generation();
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 64)).ok());
  // 64 rows at window 8: one publication per committed window, and the
  // facade's trailing publication is a no-op (no pending delta).
  EXPECT_EQ(table.published_generation(), generation + 8);
  EXPECT_EQ(table.entity_count(), 64u);
  CheckViewInvariants(table.snapshot().view());
}

TEST(VersionedTableTest, BatchedPlacementsAreSerialIdentical) {
  // Serial reference: bare Cinderella, one Insert per row.
  auto serial = MakePartitioner(/*max_size=*/8);
  for (Row& row : MakeRows(0, 96)) {
    ASSERT_TRUE(serial->Insert(std::move(row)).ok());
  }

  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 96)).ok());

  EXPECT_EQ(GroupingFingerprint(table.partitioner()),
            GroupingFingerprint(*serial));
  ASSERT_TRUE(table.partitioner().VerifyIntegrity().ok());
}

TEST(VersionedTableTest, BorrowedEnginePublishesThroughExternalBatches) {
  // The CLI's load path: the partitioner and engine live elsewhere (e.g.
  // inside a UniversalTable); the facade only hooks publication.
  auto cinderella = MakePartitioner();
  Cinderella* raw = cinderella.get();
  auto engine = AttachBatchInserter(raw, BatchInserterOptions{1, 8});

  VersionedTable table(raw, engine.get());
  const uint64_t generation = table.published_generation();
  // Not through the facade: the engine's commit hook still publishes.
  ASSERT_TRUE(raw->InsertBatch(MakeRows(0, 16)).ok());
  EXPECT_EQ(table.published_generation(), generation + 2);
  EXPECT_EQ(table.snapshot().view().entity_count(), 16u);
}

// -- DeleteBatch -------------------------------------------------------------

TEST(DeleteBatchTest, ValidatesBeforeTouchingTheTable) {
  VersionedTable table(MakePartitioner());
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 10)).ok());
  const uint64_t generation = table.published_generation();

  // Unknown id: nothing deleted, no publication.
  Status status = table.DeleteBatch({3, 99});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(table.entity_count(), 10u);
  EXPECT_EQ(table.published_generation(), generation);

  // Duplicate id within the batch: same.
  status = table.DeleteBatch({3, 3});
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(table.entity_count(), 10u);

  ASSERT_TRUE(table.DeleteBatch({1, 2, 3}).ok());
  EXPECT_EQ(table.entity_count(), 7u);
  EXPECT_FALSE(table.Get(2).ok());
  EXPECT_TRUE(table.Get(4).ok());
}

TEST(DeleteBatchTest, SnapshotStillSeesDeletedRows) {
  VersionedTable table(MakePartitioner());
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 12)).ok());
  const VersionedTable::Snapshot snapshot = table.snapshot();

  ASSERT_TRUE(table.DeleteBatch({0, 1, 2, 3}).ok());
  EXPECT_EQ(snapshot.view().entity_count(), 12u);
  EXPECT_TRUE(snapshot.view().Find(0).valid());
  EXPECT_FALSE(table.snapshot().view().Find(0).valid());
}

TEST(DeleteBatchTest, DrainedPartitionsRetireTheirVersions) {
  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 24)).ok());
  ASSERT_GT(table.partition_count(), 1u);

  std::vector<EntityId> all;
  for (EntityId id = 0; id < 24; ++id) all.push_back(id);
  ASSERT_TRUE(table.DeleteBatch(all).ok());

  // Every partition drained and dropped; the view is empty and every
  // dropped partition's version has already been reclaimed (no reader
  // was pinned).
  EXPECT_EQ(table.entity_count(), 0u);
  EXPECT_EQ(table.partition_count(), 0u);
  EXPECT_EQ(table.epochs().retired_count(), 0u);
  EXPECT_GT(table.partitioner().stats().partitions_dropped, 0u);
  ASSERT_TRUE(table.partitioner().VerifyIntegrity().ok());
}

TEST(DeleteBatchTest, MatchesOneByOneDeletes) {
  auto serial = MakePartitioner(/*max_size=*/8);
  for (Row& row : MakeRows(0, 40)) {
    ASSERT_TRUE(serial->Insert(std::move(row)).ok());
  }
  for (EntityId id = 10; id < 30; ++id) {
    ASSERT_TRUE(serial->Delete(id).ok());
  }

  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 40)).ok());
  std::vector<EntityId> batch;
  for (EntityId id = 10; id < 30; ++id) batch.push_back(id);
  ASSERT_TRUE(table.DeleteBatch(batch).ok());

  EXPECT_EQ(GroupingFingerprint(table.partitioner()),
            GroupingFingerprint(*serial));
}

TEST(DeleteBatchTest, PublishedViewNeverContainsEmptyVersions) {
  // Regression: a DeleteBatch that drains a partition must drop that
  // partition's version from the published view — an empty version would
  // skew estimator totals and violate the per-view invariants.
  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 32)).ok());
  ASSERT_GT(table.partition_count(), 2u);

  // Entities 0,4,8,... cluster by (id % 4), so deleting one residue class
  // drains whole partitions while others stay populated.
  std::vector<EntityId> victims;
  for (EntityId id = 0; id < 32; id += 4) victims.push_back(id);
  ASSERT_TRUE(table.DeleteBatch(victims).ok());

  const VersionedTable::Snapshot snapshot = table.snapshot();
  size_t entities = 0;
  for (const PartitionVersion* version : snapshot.view().partitions()) {
    EXPECT_GT(version->entity_count(), 0u);
    entities += version->entity_count();
  }
  EXPECT_EQ(entities, 24u);
  EXPECT_EQ(snapshot.view().entity_count(), 24u);
  CheckViewInvariants(snapshot.view());
}

TEST(VersionedTableTest, RefreshViewSkipsEmptyLivePartitions) {
  // Regression for the publication guard itself: even if the live catalog
  // holds an empty partition (created here directly, bypassing the
  // facade), a full view rebuild must not publish a version for it.
  VersionedTable table(MakePartitioner());
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 8)).ok());
  const size_t live_partitions =
      table.partitioner().catalog().partition_count();

  table.partitioner().catalog().CreatePartition();
  table.RefreshView();

  const VersionedTable::Snapshot snapshot = table.snapshot();
  EXPECT_EQ(snapshot.view().partition_count(), live_partitions);
  EXPECT_EQ(snapshot.view().entity_count(), 8u);
  CheckViewInvariants(snapshot.view());
}

// -- Per-version snapshot buffers ---------------------------------------------

/// Buffer bytes of the versions `view` references.
size_t ViewBufferBytes(const CatalogView& view) {
  size_t bytes = 0;
  for (const PartitionVersion* version : view.partitions()) {
    bytes += version->buffer_bytes();
  }
  return bytes;
}

TEST(VersionedTableTest, SteadyStatePublicationFreesSupersededBuffers) {
  VersionedTable table(MakePartitioner());
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 16)).ok());

  // Every publication allocates one buffer per fresh version and, with no
  // reader pinned, frees the buffers of the versions it superseded before
  // it returns: held bytes never exceed the current view's.
  for (int i = 0; i < 32; ++i) {
    const VersionedTable::MemoryStats before = table.memory_stats();
    const EntityId target = 1 + static_cast<EntityId>(i % 2);
    ASSERT_TRUE(table.Update(MakeRow(target, {0, 1, 2})).ok());
    const VersionedTable::MemoryStats after = table.memory_stats();
    EXPECT_GT(after.arenas.blocks_allocated, before.arenas.blocks_allocated);
    EXPECT_GT(after.reclaimed_objects, before.reclaimed_objects);
    EXPECT_EQ(after.retired_objects, 0u);
    EXPECT_EQ(after.held_bytes, after.view_bytes);
  }

  // The queries still see exactly the right data.
  auto row = table.Get(2);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE(row->Has(2));
  CheckViewInvariants(table.snapshot().view());
}

TEST(VersionedTableTest, MemoryStatsReportTheLiveFootprint) {
  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 48)).ok());

  const VersionedTable::MemoryStats stats = table.memory_stats();
  EXPECT_EQ(stats.generation, table.published_generation());
  EXPECT_EQ(stats.live_versions, table.partition_count());
  EXPECT_EQ(stats.view_bytes, ViewBufferBytes(table.snapshot().view()));
  EXPECT_GT(stats.view_bytes, 0u);
  EXPECT_EQ(stats.held_bytes, stats.view_bytes);
  // Every live version was built in a buffer of its own.
  EXPECT_GE(stats.arenas.blocks_allocated, stats.live_versions);
}

/// Applies `batches` ApplyMutations batches of 8 ops on random entities
/// of `live` (70% updates, 20% deletes, 10% inserts of fresh ids from
/// `*next_id`), each batch touching an entity at most once, and calls
/// `check` after every batch.
template <typename Check>
void ApplyPartialChurn(VersionedTable* table, Rng* rng,
                       std::vector<EntityId>* live, EntityId* next_id,
                       int batches, Check check) {
  for (int batch = 0; batch < batches; ++batch) {
    std::vector<Mutation> ops;
    std::set<EntityId> touched;
    while (ops.size() < 8) {
      const uint64_t roll = rng->Uniform(10);
      if (roll == 0) {
        const EntityId id = (*next_id)++;
        ops.push_back(Mutation::Insert(MakeRows(id, 1).front()));
        live->push_back(id);
        touched.insert(id);
        continue;
      }
      const size_t pick = rng->Uniform(live->size());
      const EntityId id = (*live)[pick];
      if (!touched.insert(id).second) continue;
      if (roll <= 2) {
        ops.push_back(Mutation::Delete(id));
        (*live)[pick] = live->back();
        live->pop_back();
      } else {
        // A different attribute cluster moves the entity between
        // partitions now and then.
        const AttributeId base = static_cast<AttributeId>(rng->Uniform(4) * 8);
        ops.push_back(Mutation::Update(MakeRow(id, {base, base + 1, base + 2})));
      }
    }
    ASSERT_TRUE(table->ApplyMutations(std::move(ops)).ok());
    check();
  }
}

TEST(VersionedTableTest, HeldBytesStayBoundedUnderPartialChurn) {
  // Small writes re-touch a few partitions of a large catalog at a time,
  // so the versions of one publication are superseded at different
  // times. Each version's buffer must be freed when that version is
  // reclaimed, whatever happens to the rest of its publication.
  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 400)).ok());
  ASSERT_GE(table.partition_count(), 32u);
  std::vector<EntityId> live;
  for (EntityId id = 0; id < 400; ++id) live.push_back(id);
  EntityId next_id = 400;
  Rng rng(2014);

  // No reader pinned: every publication reclaims what it retired.
  ApplyPartialChurn(&table, &rng, &live, &next_id, 100, [&] {
    const VersionedTable::MemoryStats stats = table.memory_stats();
    ASSERT_EQ(stats.held_bytes, stats.view_bytes);
    ASSERT_EQ(stats.retired_objects, 0u);
  });

  // One reader pinned across the stream: its view's buffers stay held
  // (and readable) until it lets go.
  {
    const VersionedTable::Snapshot pinned = table.snapshot();
    const size_t pinned_bytes = ViewBufferBytes(pinned.view());
    const size_t pinned_entities = pinned.view().entity_count();
    ApplyPartialChurn(&table, &rng, &live, &next_id, 100, [&] {
      const VersionedTable::MemoryStats stats = table.memory_stats();
      ASSERT_GE(stats.held_bytes, pinned_bytes);
      ASSERT_GE(stats.held_bytes, stats.view_bytes);
    });
    EXPECT_GT(table.memory_stats().retired_objects, 0u);
    EXPECT_EQ(ViewBufferBytes(pinned.view()), pinned_bytes);
    EXPECT_EQ(pinned.view().entity_count(), pinned_entities);
    CheckViewInvariants(pinned.view());
  }

  // Released: one more publication frees everything retired meanwhile.
  ASSERT_TRUE(table.Insert(MakeRows(next_id, 1).front()).ok());
  const VersionedTable::MemoryStats stats = table.memory_stats();
  EXPECT_EQ(stats.held_bytes, stats.view_bytes);
  EXPECT_EQ(stats.retired_objects, 0u);
  EXPECT_EQ(table.entity_count(), live.size() + 1);
  CheckViewInvariants(table.snapshot().view());
}

// -- Journaled DeleteBatch (DurableTable) ------------------------------------

std::string FreshDir(const char* name) {
  const std::string dir = testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(DurableDeleteBatchTest, GroupCommitsAndRecovers) {
  const std::string dir = FreshDir("mvcc_durable_delete");
  DurableTable::Options options;
  options.directory = dir;
  options.config.max_size = 8;
  options.config.scan_threads = 1;
  options.group_commit_ops = 100;  // Nothing syncs except batch commits.

  uint64_t fingerprint = 0;
  {
    auto opened = DurableTable::Open(options);
    ASSERT_TRUE(opened.ok());
    DurableTable& table = **opened;
    ASSERT_TRUE(table.InsertBatch(MakeRows(0, 20)).ok());
    const uint64_t syncs = table.journal_syncs();

    // Unknown id: validated away before journal or table are touched.
    EXPECT_EQ(table.DeleteBatch({5, 99}).code(), StatusCode::kNotFound);
    EXPECT_EQ(table.table().entity_count(), 20u);
    EXPECT_EQ(table.journal_syncs(), syncs);

    // One fsync for the whole delete batch (group commit).
    ASSERT_TRUE(table.DeleteBatch({0, 1, 2, 3, 4}).ok());
    EXPECT_EQ(table.table().entity_count(), 15u);
    EXPECT_EQ(table.journal_syncs(), syncs + 1);
    fingerprint = GroupingFingerprint(table.cinderella());
  }

  // Recovery replays the deletes and reproduces the exact partitioning.
  auto reopened = DurableTable::Open(options);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->table().entity_count(), 15u);
  EXPECT_FALSE((*reopened)->table().Get(3).ok());
  EXPECT_TRUE((*reopened)->table().Get(10).ok());
  EXPECT_EQ(GroupingFingerprint((*reopened)->cinderella()), fingerprint);
}

// -- Query stack over a pinned view ------------------------------------------

// The pinned view's scan counters, match order, estimate and plan,
// checked against an oracle computed by hand from the live catalog's rows
// (partition by partition in id order) — not against a second scan path.
TEST(ViewQueryTest, ExecutorAndEstimatorMatchTheLiveCatalog) {
  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 64)).ok());

  const Query query(Synopsis{0, 8});
  const VersionedTable::Snapshot snapshot = table.snapshot();
  QueryExecutor pinned(snapshot.view());

  ScanMetrics expected;
  uint64_t expected_cells = 0;
  uint64_t attr8_pruned = 0;
  std::vector<EntityId> attr8_order;
  table.partitioner().catalog().ForEachPartition(
      [&](const Partition& partition) {
        const std::vector<Row>& rows = partition.segment().rows();
        ++expected.partitions_total;
        bool carries_query = false;
        bool carries_8 = false;
        for (const Row& row : rows) {
          carries_query |= row.Has(0) || row.Has(8);
          carries_8 |= row.Has(8);
          if (row.Has(8)) attr8_order.push_back(row.id());
        }
        if (!carries_8) ++attr8_pruned;
        if (!carries_query) {
          ++expected.partitions_pruned;
          return;
        }
        ++expected.partitions_scanned;
        for (const Row& row : rows) {
          ++expected.rows_scanned;
          expected.cells_read += row.attribute_count();
          expected.bytes_read += row.byte_size();
          const uint64_t cells = (row.Has(0) ? 1 : 0) + (row.Has(8) ? 1 : 0);
          if (cells > 0) ++expected.rows_matched;
          expected_cells += cells;
        }
      });
  // Rows with id % 4 in {0, 1} carry attribute 0 or 8, one cell each.
  ASSERT_EQ(expected.rows_matched, 32u);
  ASSERT_EQ(expected_cells, 32u);
  ASSERT_GT(expected.partitions_pruned, 0u);

  const QueryResult from_view = pinned.Execute(query);
  EXPECT_EQ(from_view.metrics.partitions_total, expected.partitions_total);
  EXPECT_EQ(from_view.metrics.partitions_scanned,
            expected.partitions_scanned);
  EXPECT_EQ(from_view.metrics.partitions_pruned, expected.partitions_pruned);
  EXPECT_EQ(from_view.metrics.rows_scanned, expected.rows_scanned);
  EXPECT_EQ(from_view.metrics.rows_matched, expected.rows_matched);
  EXPECT_EQ(from_view.metrics.cells_read, expected.cells_read);
  EXPECT_EQ(from_view.metrics.bytes_read, expected.bytes_read);
  EXPECT_EQ(from_view.cells_materialized, expected_cells);
  EXPECT_EQ(from_view.selectivity, 0.5);

  std::vector<EntityId> order;
  const QueryResult pred_view = pinned.ScanMatches(
      *IsNotNull(8), [&](const RowView& row) { order.push_back(row.id()); });
  EXPECT_EQ(pred_view.metrics.rows_matched, 16u);
  EXPECT_EQ(pred_view.metrics.partitions_pruned, attr8_pruned);
  EXPECT_EQ(order, attr8_order);

  // No row carries both attributes, so the union bound is exact.
  const SelectivityEstimate est_view =
      EstimateSelectivity(snapshot.view(), query);
  EXPECT_EQ(est_view.table_entities, 64u);
  EXPECT_EQ(est_view.partitions_scanned, expected.partitions_scanned);
  EXPECT_EQ(est_view.partitions_pruned, expected.partitions_pruned);
  EXPECT_LE(est_view.rows_lower_bound, expected.rows_matched);
  EXPECT_EQ(est_view.rows_upper_bound, expected.rows_matched);
  EXPECT_GE(est_view.rows_estimate,
            static_cast<double>(est_view.rows_lower_bound));
  EXPECT_LE(est_view.rows_estimate,
            static_cast<double>(est_view.rows_upper_bound));

  const std::string plan = ExplainQuery(snapshot.view(), query);
  EXPECT_NE(plan.find("scan " + std::to_string(expected.partitions_scanned) +
                      " partitions, prune " +
                      std::to_string(expected.partitions_pruned)),
            std::string::npos)
      << plan;
}

TEST(ViewQueryTest, ParallelScanOverViewMatchesSerial) {
  VersionedTable table(MakePartitioner(/*max_size=*/8));
  ASSERT_TRUE(table.InsertBatch(MakeRows(0, 64)).ok());
  const VersionedTable::Snapshot snapshot = table.snapshot();

  const Query query(Synopsis{0, 16});
  QueryExecutor serial(snapshot.view(), /*scan_threads=*/1);
  QueryExecutor parallel(snapshot.view(), /*scan_threads=*/4);
  const QueryResult a = serial.Execute(query);
  const QueryResult b = parallel.Execute(query);
  EXPECT_EQ(a.metrics.rows_matched, b.metrics.rows_matched);
  EXPECT_EQ(a.metrics.partitions_scanned, b.metrics.partitions_scanned);
  EXPECT_EQ(a.cells_materialized, b.cells_materialized);
  EXPECT_EQ(a.selectivity, b.selectivity);
}

}  // namespace
}  // namespace cinderella
