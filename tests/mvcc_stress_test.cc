// Reader-during-ingest stress for the MVCC read engine: one writer runs
// batched inserts and batched deletes while several reader threads pin
// snapshots and check per-view invariants. Built for the TSan pass of
// tools/tier1.sh; the assertions catch torn views (a reader observing a
// half-applied split cascade) and use-after-free of retired versions.

#include <atomic>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "query/query.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id) {
  Row row(id);
  const AttributeId base = static_cast<AttributeId>((id % 4) * 8);
  row.Set(base, Value(int64_t{1}));
  row.Set(base + 1, Value(int64_t{1}));
  row.Set(base + 2, Value(static_cast<int64_t>(id)));
  return row;
}

int ReaderThreads() {
  const char* env = std::getenv("CINDERELLA_STRESS_READERS");
  if (env != nullptr && *env != '\0') {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 3;
}

TEST(MvccStressTest, ReadersNeverObserveTornViews) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;  // Small capacity: frequent splits under load.
  config.scan_threads = 1;
  VersionedTable::Options options;
  options.ingest.window = 16;
  options.ingest.shards = 2;
  VersionedTable table(std::move(Cinderella::Create(config)).value(),
                       std::move(options));

  constexpr int kBatches = 40;
  constexpr EntityId kBatchRows = 48;
  std::atomic<bool> done{false};
  std::atomic<uint64_t> views_checked{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  const int num_readers = ReaderThreads();
  readers.reserve(static_cast<size_t>(num_readers));
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&] {
      const Query query(Synopsis{0, 8});
      while (!done.load(std::memory_order_acquire)) {
        const VersionedTable::Snapshot snapshot = table.snapshot();
        const CatalogView& view = snapshot.view();
        // Per-view invariants: ascending unique partition ids, totals
        // consistent, every resident row findable, rows self-consistent.
        size_t entities = 0;
        PartitionId last_id = 0;
        bool first = true;
        for (const PartitionVersion* version : view.partitions()) {
          if (!first && version->id() <= last_id) {
            failed.store(true);
            return;
          }
          first = false;
          last_id = version->id();
          if (version->entity_count() == 0) {
            failed.store(true);
            return;
          }
          entities += version->entity_count();
          const RowView probe = version->row(0);
          const RowView found = version->Find(probe.id());
          if (!found.valid() || found.id() != probe.id()) {
            failed.store(true);
            return;
          }
        }
        if (entities != view.entity_count()) {
          failed.store(true);
          return;
        }
        // A full scan through the executor must agree with the view's own
        // totals — rows_scanned counts exactly the non-pruned residents.
        QueryExecutor executor(view);
        const QueryResult result = executor.Execute(query);
        if (result.metrics.partitions_total != view.partition_count()) {
          failed.store(true);
          return;
        }
        views_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Writer: interleaved batched inserts and batched deletes.
  EntityId next_id = 0;
  for (int b = 0; b < kBatches; ++b) {
    std::vector<Row> rows;
    rows.reserve(kBatchRows);
    for (EntityId i = 0; i < kBatchRows; ++i) rows.push_back(MakeRow(next_id++));
    ASSERT_TRUE(table.InsertBatch(std::move(rows)).ok());
    if (b % 4 == 3) {
      // Delete the oldest surviving half-batch, exercising partition
      // drains and version retirement under concurrent readers.
      const EntityId low = (static_cast<EntityId>(b) / 4) * kBatchRows;
      std::vector<EntityId> victims;
      for (EntityId id = low; id < low + kBatchRows / 2; ++id) {
        victims.push_back(id);
      }
      ASSERT_TRUE(table.DeleteBatch(victims).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(views_checked.load(), 0u);
  ASSERT_TRUE(table.partitioner().VerifyIntegrity().ok());

  // All readers released: one more publication reclaims everything that
  // was retired while they were pinned.
  ASSERT_TRUE(table.Insert(MakeRow(1000000)).ok());
  EXPECT_EQ(table.epochs().retired_count(), 0u);
}

TEST(MvccStressTest, BuffersAreNotFreedUnderPinnedReaders) {
  // The reclamation hazard: a superseded version's buffer may only be
  // freed (and its memory handed to a later version by the allocator)
  // after every reader pinned at or before its retirement unpins.
  // Readers here hold snapshots across writer churn and re-verify the
  // pinned data cell-by-cell; a premature free lets later versions
  // scribble over the cells they are reading, which the value checks
  // catch and the ASan tier-1 pass flags as a use-after-free.
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;
  config.scan_threads = 1;
  VersionedTable table(std::move(Cinderella::Create(config)).value());

  std::vector<Row> rows;
  for (EntityId id = 0; id < 64; ++id) rows.push_back(MakeRow(id));
  ASSERT_TRUE(table.InsertBatch(std::move(rows)).ok());

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<uint64_t> holds{0};

  auto view_is_coherent = [](const CatalogView& view) {
    // MakeRow stores Value(id) at attribute base+2; any overwrite of a
    // freed buffer breaks the id -> cell agreement.
    for (const PartitionVersion* version : view.partitions()) {
      for (size_t i = 0; i < version->entity_count(); ++i) {
        const RowView row = version->row(i);
        const AttributeId base = static_cast<AttributeId>((row.id() % 4) * 8);
        const Value* value = row.Get(base + 2);
        if (value == nullptr ||
            value->as_int64() != static_cast<int64_t>(row.id())) {
          return false;
        }
      }
    }
    return true;
  };

  std::vector<std::thread> readers;
  const int num_readers = ReaderThreads();
  readers.reserve(static_cast<size_t>(num_readers));
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&] {
      // do-while: even if the writer outruns reader startup (single-core
      // schedulers), every reader still validates at least one pinned
      // snapshot.
      do {
        const VersionedTable::Snapshot snapshot = table.snapshot();
        // First pass, then hold the pin across writer publications, then
        // re-verify: the buffers behind this generation must still hold
        // exactly the bytes they were published with.
        if (!view_is_coherent(snapshot.view())) {
          failed.store(true);
          return;
        }
        for (int spin = 0; spin < 20; ++spin) {
          std::this_thread::yield();
        }
        if (!view_is_coherent(snapshot.view())) {
          failed.store(true);
          return;
        }
        holds.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  // Writer: single-row updates, each one a publication that builds a
  // fresh version and retires the superseded generation's version and
  // view.
  for (int i = 0; i < 600; ++i) {
    const EntityId target = static_cast<EntityId>(i % 64);
    ASSERT_TRUE(table.Update(MakeRow(target)).ok());
    if (i % 8 == 7) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(holds.load(), 0u);

  // Reclamation did happen under load (retired buffers were freed while
  // readers came and went, not only at the end)...
  EXPECT_GT(table.memory_stats().reclaimed_objects, 0u);
  // ...and with every reader released, one more publication frees every
  // retired generation: only the current view's buffers stay held.
  ASSERT_TRUE(table.Insert(MakeRow(1000000)).ok());
  EXPECT_EQ(table.epochs().retired_count(), 0u);
  const VersionedTable::MemoryStats stats = table.memory_stats();
  EXPECT_EQ(stats.held_bytes, stats.view_bytes);
}

TEST(MvccStressTest, ReadersNeverObserveTornViewsDuringUpdateBatch) {
  // The unified-pipeline variant of the torn-view check: the writer runs
  // batched updates (and occasional mixed update/delete/insert batches)
  // through the MutationPipeline while readers pin snapshots. An update
  // that moves an entity is a remove+place pair inside the engine; a
  // reader must never see the in-between state (entity in zero or two
  // partitions, totals off by one).
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;
  config.scan_threads = 1;
  VersionedTable::Options options;
  options.ingest.window = 16;
  options.ingest.shards = 2;
  VersionedTable table(std::move(Cinderella::Create(config)).value(),
                       std::move(options));

  constexpr EntityId kEntities = 512;
  std::vector<Row> base;
  base.reserve(kEntities);
  for (EntityId id = 0; id < kEntities; ++id) base.push_back(MakeRow(id));
  ASSERT_TRUE(table.InsertBatch(std::move(base)).ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> views_checked{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> readers;
  const int num_readers = ReaderThreads();
  readers.reserve(static_cast<size_t>(num_readers));
  for (int r = 0; r < num_readers; ++r) {
    readers.emplace_back([&] {
      do {
        const VersionedTable::Snapshot snapshot = table.snapshot();
        const CatalogView& view = snapshot.view();
        size_t entities = 0;
        PartitionId last_id = 0;
        bool first = true;
        for (const PartitionVersion* version : view.partitions()) {
          if (!first && version->id() <= last_id) {
            failed.store(true);
            return;
          }
          first = false;
          last_id = version->id();
          if (version->entity_count() == 0) {
            failed.store(true);
            return;
          }
          entities += version->entity_count();
          // Every resident row must be self-consistent: MakeRow keeps
          // Value(id) at base+2, and updates preserve that shape.
          const RowView probe = version->row(version->entity_count() - 1);
          const AttributeId attr =
              static_cast<AttributeId>((probe.id() % 4) * 8 + 2);
          const Value* value = probe.Get(attr);
          if (value == nullptr ||
              value->as_int64() != static_cast<int64_t>(probe.id())) {
            failed.store(true);
            return;
          }
        }
        if (entities != view.entity_count()) {
          failed.store(true);
          return;
        }
        views_checked.fetch_add(1, std::memory_order_relaxed);
      } while (!done.load(std::memory_order_acquire));
    });
  }

  // Writer: batched updates that rotate entities across the four
  // attribute clusters (so many updates move partition), plus a mixed
  // delete+reinsert batch every fourth round.
  for (int round = 0; round < 30; ++round) {
    std::vector<Row> updates;
    updates.reserve(48);
    for (EntityId i = 0; i < 48; ++i) {
      const EntityId id = (static_cast<EntityId>(round) * 37 + i * 11) %
                          kEntities;
      // Re-home the entity into the cluster of (id + round), keeping the
      // id -> Value(id) invariant the readers check.
      Row row(id);
      const AttributeId base_attr =
          static_cast<AttributeId>(((id + static_cast<EntityId>(round)) % 4) *
                                   8);
      row.Set(base_attr, Value(int64_t{1}));
      row.Set(base_attr + 1, Value(int64_t{1}));
      row.Set(static_cast<AttributeId>((id % 4) * 8 + 2),
              Value(static_cast<int64_t>(id)));
      updates.push_back(std::move(row));
    }
    ASSERT_TRUE(table.UpdateBatch(std::move(updates)).ok());
    if (round % 4 == 3) {
      std::vector<Mutation> ops;
      const EntityId victim = static_cast<EntityId>(round) % kEntities;
      ops.push_back(Mutation::Delete(victim));
      ops.push_back(Mutation::Insert(MakeRow(victim)));
      ASSERT_TRUE(table.ApplyMutations(std::move(ops), nullptr).ok());
    }
  }
  done.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();

  EXPECT_FALSE(failed.load());
  EXPECT_GT(views_checked.load(), 0u);
  ASSERT_TRUE(table.partitioner().VerifyIntegrity().ok());
  ASSERT_TRUE(table.Insert(MakeRow(1000000)).ok());
  EXPECT_EQ(table.epochs().retired_count(), 0u);
}

TEST(MvccStressTest, GetIsSafeDuringIngest) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 16;
  config.scan_threads = 1;
  VersionedTable table(std::move(Cinderella::Create(config)).value());

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      // Point lookups race with ingest; a hit must return a coherent
      // owned copy, a miss a clean NotFound.
      for (EntityId id = 0; id < 64; id += 7) {
        const StatusOr<Row> row = table.Get(id);
        if (row.ok() && row->id() != id) {
          failed.store(true);
          return;
        }
      }
    }
  });

  for (int b = 0; b < 30; ++b) {
    std::vector<Row> rows;
    for (EntityId i = 0; i < 32; ++i) {
      rows.push_back(MakeRow(static_cast<EntityId>(b) * 32 + i));
    }
    ASSERT_TRUE(table.InsertBatch(std::move(rows)).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace cinderella
