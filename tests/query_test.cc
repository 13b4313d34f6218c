// Tests for the query layer: query construction, synopsis pruning, scan
// metrics, selectivity, and the cost model.

#include <memory>

#include <gtest/gtest.h>

#include "baseline/single_partitioner.h"
#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "query/query.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id, std::initializer_list<AttributeId> attrs) {
  Row row(id);
  for (AttributeId a : attrs) row.Set(a, Value(int64_t{1}));
  return row;
}

TEST(QueryTest, FromNamesResolvesKnownAttributes) {
  AttributeDictionary dict;
  dict.GetOrCreate("name");
  dict.GetOrCreate("weight");
  const Query q = Query::FromNames(dict, {"name", "missing", "weight"});
  EXPECT_EQ(q.attributes().Count(), 2u);
  EXPECT_EQ(q.projection().size(), 2u);
}

TEST(QueryTest, MatchesIsOrSemantics) {
  const Query q(Synopsis{1, 5});
  EXPECT_TRUE(q.Matches(Synopsis{5, 9}));
  EXPECT_TRUE(q.Matches(Synopsis{1}));
  EXPECT_FALSE(q.Matches(Synopsis{2, 3}));
  EXPECT_FALSE(q.Matches(Synopsis{}));
}

class ExecutorTest : public testing::Test {
 protected:
  // Two schema families partitioned by Cinderella.
  void SetUp() override {
    CinderellaConfig config;
    config.weight = 0.3;
    config.max_size = 100;
    partitioner_ = std::move(Cinderella::Create(config)).value();
    for (EntityId id = 0; id < 20; ++id) {
      ASSERT_TRUE(partitioner_->Insert(MakeRow(id, {0, 1, 2})).ok());
    }
    for (EntityId id = 20; id < 30; ++id) {
      ASSERT_TRUE(partitioner_->Insert(MakeRow(id, {10, 11})).ok());
    }
    ASSERT_EQ(partitioner_->catalog().partition_count(), 2u);
    capture_ = std::make_unique<CatalogCapture>(partitioner_->catalog());
  }

  std::unique_ptr<Cinderella> partitioner_;
  std::unique_ptr<CatalogCapture> capture_;
};

TEST_F(ExecutorTest, PrunesIrrelevantPartitions) {
  QueryExecutor executor(capture_->view());
  const QueryResult result = executor.Execute(Query(Synopsis{0}));
  EXPECT_EQ(result.metrics.partitions_total, 2u);
  EXPECT_EQ(result.metrics.partitions_scanned, 1u);
  EXPECT_EQ(result.metrics.partitions_pruned, 1u);
  EXPECT_EQ(result.metrics.rows_scanned, 20u);
  EXPECT_EQ(result.metrics.rows_matched, 20u);
  EXPECT_DOUBLE_EQ(result.selectivity, 20.0 / 30.0);
}

TEST_F(ExecutorTest, NoMatchScansNothing) {
  QueryExecutor executor(capture_->view());
  const QueryResult result = executor.Execute(Query(Synopsis{99}));
  EXPECT_EQ(result.metrics.partitions_scanned, 0u);
  EXPECT_EQ(result.metrics.rows_matched, 0u);
  EXPECT_DOUBLE_EQ(result.selectivity, 0.0);
  EXPECT_EQ(result.cells_materialized, 0u);
}

TEST_F(ExecutorTest, CrossFamilyQueryScansBoth) {
  QueryExecutor executor(capture_->view());
  const QueryResult result = executor.Execute(Query(Synopsis{0, 10}));
  EXPECT_EQ(result.metrics.partitions_scanned, 2u);
  EXPECT_EQ(result.metrics.rows_matched, 30u);
  EXPECT_DOUBLE_EQ(result.selectivity, 1.0);
}

TEST_F(ExecutorTest, MaterializesProjectedCells) {
  QueryExecutor executor(capture_->view());
  // Attr 0 and 1 both live on the 20 family-A rows.
  const QueryResult result = executor.Execute(Query(Synopsis{0, 1}));
  EXPECT_EQ(result.cells_materialized, 40u);
}

TEST_F(ExecutorTest, CountsCellsAndBytesOfScannedPartitions) {
  QueryExecutor executor(capture_->view());
  const QueryResult result = executor.Execute(Query(Synopsis{10}));
  // Family B: 10 rows x 2 attrs.
  EXPECT_EQ(result.metrics.cells_read, 20u);
  const uint64_t row_bytes = MakeRow(20, {10, 11}).byte_size();
  EXPECT_EQ(result.metrics.bytes_read, 10 * row_bytes);
}

TEST(ExecutorUniversalTest, UniversalTableScansEverything) {
  auto single = std::make_unique<SinglePartitioner>();
  for (EntityId id = 0; id < 30; ++id) {
    ASSERT_TRUE(
        single->Insert(MakeRow(id, {id < 20 ? AttributeId{0} : AttributeId{10}}))
            .ok());
  }
  const CatalogCapture capture(single->catalog());
  QueryExecutor executor(capture.view());
  const QueryResult result = executor.Execute(Query(Synopsis{0}));
  EXPECT_EQ(result.metrics.partitions_scanned, 1u);
  EXPECT_EQ(result.metrics.rows_scanned, 30u);  // No pruning possible.
  EXPECT_EQ(result.metrics.rows_matched, 20u);
}

TEST(CostModelTest, ChargesOverheadPerScannedPartition) {
  QueryResult a;
  a.metrics.bytes_read = 1000;
  a.metrics.partitions_scanned = 1;
  a.metrics.rows_matched = 10;
  QueryResult b = a;
  b.metrics.partitions_scanned = 5;
  const CostModel model{.per_partition_overhead_bytes = 100.0,
                        .per_row_projection_bytes = 1.0};
  EXPECT_DOUBLE_EQ(a.ModeledCost(model), 1000 + 100 + 10);
  EXPECT_DOUBLE_EQ(b.ModeledCost(model), 1000 + 500 + 10);
}

TEST(ExecutorEmptyTest, EmptyCatalog) {
  PartitionCatalog catalog;
  const CatalogCapture capture(catalog);
  QueryExecutor executor(capture.view());
  const QueryResult result = executor.Execute(Query(Synopsis{0}));
  EXPECT_EQ(result.metrics.partitions_total, 0u);
  EXPECT_DOUBLE_EQ(result.selectivity, 0.0);
}

}  // namespace
}  // namespace cinderella
