// Determinism tests for the parallel scan engine: the parallel rating
// scan of Cinderella::FindBestPartition and the parallel partition scan
// of QueryExecutor must produce results bit-identical to thread-count 1 —
// placements, operation counters, scan metrics, match order, and
// materialized cells.

#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "query/predicate.h"
#include "query/query.h"

namespace cinderella {
namespace {

Row RandomRow(EntityId id, Rng& rng, uint32_t attribute_space) {
  Row row(id);
  if (!rng.Bernoulli(0.03)) {
    const AttributeId base =
        static_cast<AttributeId>(rng.Uniform(3) * (attribute_space / 3));
    const int core = 2 + static_cast<int>(rng.Uniform(5));
    for (int i = 0; i < core; ++i) {
      row.Set(base + static_cast<AttributeId>(rng.Uniform(attribute_space / 3)),
              Value(static_cast<int64_t>(rng.Uniform(100))));
    }
    if (rng.Bernoulli(0.3)) {
      row.Set(static_cast<AttributeId>(rng.Uniform(attribute_space)),
              Value("noise"));
    }
  }
  return row;
}

/// The observable partitioning outcome: which entities share a partition.
std::set<std::set<EntityId>> Grouping(const Cinderella& c) {
  std::set<std::set<EntityId>> groups;
  c.catalog().ForEachPartition([&](const Partition& partition) {
    std::set<EntityId> members;
    for (const Row& row : partition.segment().rows()) members.insert(row.id());
    groups.insert(std::move(members));
  });
  return groups;
}

/// Drives an identical random insert/delete/update stream into `c`.
void DriveWorkload(Cinderella& c, int operations, uint64_t seed) {
  Rng rng(seed);
  EntityId next_id = 0;
  std::vector<EntityId> live;
  for (int op = 0; op < operations; ++op) {
    const double dice = rng.UniformDouble();
    if (dice < 0.80 || live.empty()) {
      Row row = RandomRow(next_id++, rng, 36);
      live.push_back(row.id());
      ASSERT_TRUE(c.Insert(std::move(row)).ok());
    } else if (dice < 0.90) {
      const size_t pick = static_cast<size_t>(rng.Uniform(live.size()));
      const EntityId victim = live[pick];
      live[pick] = live.back();
      live.pop_back();
      ASSERT_TRUE(c.Delete(victim).ok());
    } else {
      const EntityId target =
          live[static_cast<size_t>(rng.Uniform(live.size()))];
      ASSERT_TRUE(c.Update(RandomRow(target, rng, 36)).ok());
    }
  }
}

// Enough operations at a tiny MAXSIZE that the catalog crosses the
// parallel-scan threshold (128 live partitions) and keeps inserting, so
// the parallel argmax path decides real placements.
constexpr int kOperations = 2500;
constexpr uint64_t kSeed = 771;

std::unique_ptr<Cinderella> BuildWithThreads(int scan_threads) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = 8;
  config.scan_threads = scan_threads;
  auto created = Cinderella::Create(config);
  EXPECT_TRUE(created.ok());
  auto c = std::move(created).value();
  DriveWorkload(*c, kOperations, kSeed);
  return c;
}

TEST(ParallelScanDeterminismTest, PlacementsIdenticalToSerial) {
  auto serial = BuildWithThreads(1);
  auto parallel = BuildWithThreads(4);
  ASSERT_GE(serial->catalog().partition_count(), 128u)
      << "workload too small to engage the parallel scan";

  EXPECT_EQ(serial->catalog().partition_count(),
            parallel->catalog().partition_count());
  EXPECT_EQ(Grouping(*serial), Grouping(*parallel));

  // Operation counters are part of the bit-identical contract: the same
  // partitions are rated in the same decision sequence.
  const CinderellaStats& a = serial->stats();
  const CinderellaStats& b = parallel->stats();
  EXPECT_EQ(a.partitions_rated, b.partitions_rated);
  EXPECT_EQ(a.partitions_created, b.partitions_created);
  EXPECT_EQ(a.splits, b.splits);
  EXPECT_EQ(a.split_cascades, b.split_cascades);
  EXPECT_EQ(a.entities_redistributed, b.entities_redistributed);
  EXPECT_EQ(a.partitions_dropped, b.partitions_dropped);

  EXPECT_TRUE(serial->VerifyIntegrity().ok());
  EXPECT_TRUE(parallel->VerifyIntegrity().ok());
}

bool MetricsEqual(const ScanMetrics& a, const ScanMetrics& b) {
  return a.partitions_total == b.partitions_total &&
         a.partitions_scanned == b.partitions_scanned &&
         a.partitions_pruned == b.partitions_pruned &&
         a.rows_scanned == b.rows_scanned &&
         a.rows_matched == b.rows_matched && a.cells_read == b.cells_read &&
         a.bytes_read == b.bytes_read;
}

TEST(ParallelScanDeterminismTest, QueryExecutionIdenticalToSerial) {
  auto table = BuildWithThreads(1);
  const CatalogCapture capture(table->catalog());
  QueryExecutor serial(capture.view(), /*scan_threads=*/1);
  QueryExecutor parallel(capture.view(), /*scan_threads=*/4);
  EXPECT_EQ(serial.scan_degree(), 1);
  EXPECT_EQ(parallel.scan_degree(), 4);

  // Attribute-set queries of varying selectivity (Execute materializes).
  for (AttributeId a = 0; a < 36; a += 3) {
    const Query query(Synopsis{a, a + 1});
    const QueryResult s = serial.Execute(query);
    const QueryResult p = parallel.Execute(query);
    EXPECT_TRUE(MetricsEqual(s.metrics, p.metrics)) << "attribute " << a;
    EXPECT_DOUBLE_EQ(s.selectivity, p.selectivity);
    EXPECT_EQ(s.cells_materialized, p.cells_materialized);
  }

  // Predicate scans: matched rows must arrive in identical order.
  for (AttributeId a = 0; a < 36; a += 5) {
    const PredicatePtr predicate = IsNotNull(a);
    std::vector<EntityId> serial_matches;
    std::vector<EntityId> parallel_matches;
    const QueryResult s = serial.ScanMatches(
        *predicate,
        [&](const RowView& row) { serial_matches.push_back(row.id()); });
    const QueryResult p = parallel.ScanMatches(
        *predicate,
        [&](const RowView& row) { parallel_matches.push_back(row.id()); });
    EXPECT_TRUE(MetricsEqual(s.metrics, p.metrics)) << "attribute " << a;
    EXPECT_DOUBLE_EQ(s.selectivity, p.selectivity);
    EXPECT_EQ(serial_matches, parallel_matches);
  }

  // A compound predicate with no pruning synopsis (forces full scans).
  const PredicatePtr compound = Or([] {
    std::vector<PredicatePtr> children;
    children.push_back(Compare(1, CompareOp::kGt, Value(int64_t{40})));
    children.push_back(Not(IsNotNull(2)));
    return children;
  }());
  const QueryResult s = serial.ExecutePredicate(*compound);
  const QueryResult p = parallel.ExecutePredicate(*compound);
  EXPECT_TRUE(MetricsEqual(s.metrics, p.metrics));
  EXPECT_DOUBLE_EQ(s.selectivity, p.selectivity);
}

// An executor whose pool degree exceeds the partition count (and tiny
// catalogs in general) must behave identically too.
TEST(ParallelScanDeterminismTest, TinyCatalogParallelExecutor) {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 100;
  auto c = std::move(Cinderella::Create(config)).value();
  for (EntityId id = 0; id < 10; ++id) {
    Row row(id);
    row.Set(static_cast<AttributeId>(id % 2), Value(int64_t{7}));
    ASSERT_TRUE(c->Insert(std::move(row)).ok());
  }
  const CatalogCapture capture(c->catalog());
  QueryExecutor serial(capture.view(), 1);
  QueryExecutor parallel(capture.view(), 8);
  const Query query(Synopsis{0});
  const QueryResult s = serial.Execute(query);
  const QueryResult p = parallel.Execute(query);
  EXPECT_TRUE(MetricsEqual(s.metrics, p.metrics));
  EXPECT_EQ(s.cells_materialized, p.cells_materialized);
  EXPECT_DOUBLE_EQ(s.selectivity, p.selectivity);
}

}  // namespace
}  // namespace cinderella
