// Tests for the metadata-only selectivity estimator and EXPLAIN: exact
// bounds, single-attribute exactness, and estimate quality on generated
// data (property sweep against the real executor).

#include <memory>

#include <gtest/gtest.h>

#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "query/estimator.h"
#include "query/executor.h"
#include "workload/dbpedia_generator.h"
#include "workload/query_workload.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id, std::initializer_list<AttributeId> attrs) {
  Row row(id);
  for (AttributeId a : attrs) row.Set(a, Value(int64_t{1}));
  return row;
}

TEST(EstimatorTest, SingleAttributeIsExact) {
  CinderellaConfig config;
  config.weight = 0.5;
  config.max_size = 100;
  auto c = std::move(Cinderella::Create(config)).value();
  for (EntityId id = 0; id < 30; ++id) {
    ASSERT_TRUE(
        c->Insert(MakeRow(id, {id % 3 == 0 ? AttributeId{0} : AttributeId{1}}))
            .ok());
  }
  const Query query(Synopsis{0});
  const CatalogCapture capture(c->catalog());
  const SelectivityEstimate estimate =
      EstimateSelectivity(capture.view(), query);
  QueryExecutor executor(capture.view());
  const QueryResult actual = executor.Execute(query);
  EXPECT_EQ(estimate.rows_lower_bound, actual.metrics.rows_matched);
  EXPECT_EQ(estimate.rows_upper_bound, actual.metrics.rows_matched);
  EXPECT_DOUBLE_EQ(estimate.rows_estimate,
                   static_cast<double>(actual.metrics.rows_matched));
  EXPECT_EQ(estimate.table_entities, 30u);
}

TEST(EstimatorTest, PruningCountsMatchExecutor) {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 100;
  auto c = std::move(Cinderella::Create(config)).value();
  for (EntityId id = 0; id < 40; ++id) {
    const AttributeId base = static_cast<AttributeId>((id % 2) * 10);
    ASSERT_TRUE(c->Insert(MakeRow(id, {base, base + 1})).ok());
  }
  const Query query(Synopsis{10});
  const CatalogCapture capture(c->catalog());
  const SelectivityEstimate estimate =
      EstimateSelectivity(capture.view(), query);
  QueryExecutor executor(capture.view());
  const QueryResult actual = executor.Execute(query);
  EXPECT_EQ(estimate.partitions_scanned, actual.metrics.partitions_scanned);
  EXPECT_EQ(estimate.partitions_pruned, actual.metrics.partitions_pruned);
}

TEST(EstimatorTest, EmptyCatalog) {
  PartitionCatalog catalog;
  const CatalogCapture capture(catalog);
  const SelectivityEstimate estimate =
      EstimateSelectivity(capture.view(), Query(Synopsis{0}));
  EXPECT_EQ(estimate.table_entities, 0u);
  EXPECT_DOUBLE_EQ(estimate.selectivity_estimate(), 0.0);
}

TEST(EstimatorTest, BoundsAlwaysHoldOnGeneratedWorkload) {
  DbpediaConfig config;
  config.num_entities = 5000;
  config.seed = 11;
  AttributeDictionary dictionary;
  DbpediaGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();

  CinderellaConfig cc;
  cc.weight = 0.2;
  cc.max_size = 500;
  auto c = std::move(Cinderella::Create(cc)).value();
  for (const Row& row : rows) {
    ASSERT_TRUE(c->Insert(row).ok());
  }
  const CatalogCapture capture(c->catalog());
  QueryExecutor executor(capture.view());

  const auto workload = GenerateQueryWorkload(rows, 100, QueryWorkloadConfig{});
  double total_error = 0.0;
  for (const GeneratedQuery& q : workload) {
    const SelectivityEstimate estimate =
        EstimateSelectivity(capture.view(), q.query);
    const QueryResult actual = executor.Execute(q.query);
    const uint64_t matched = actual.metrics.rows_matched;
    EXPECT_LE(estimate.rows_lower_bound, matched) << q.query.ToString();
    EXPECT_GE(estimate.rows_upper_bound, matched) << q.query.ToString();
    EXPECT_GE(estimate.rows_estimate,
              static_cast<double>(estimate.rows_lower_bound) - 1e-6);
    EXPECT_LE(estimate.rows_estimate,
              static_cast<double>(estimate.rows_upper_bound) + 1e-6);
    total_error += std::abs(estimate.rows_estimate -
                            static_cast<double>(matched));
  }
  // The independence estimate should be decent on average (within 5% of
  // the table size across the workload).
  EXPECT_LT(total_error / workload.size(), 0.05 * rows.size());
}

TEST(GroupCardinalityTest, BoundsHoldAndPruningMatches) {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 100;
  auto c = std::move(Cinderella::Create(config)).value();
  // 40 entities: even ids carry attribute 0 (20 carriers), odd ids a
  // disjoint schema.
  for (EntityId id = 0; id < 40; ++id) {
    const AttributeId base = static_cast<AttributeId>((id % 2) * 10);
    ASSERT_TRUE(c->Insert(MakeRow(id, {base, base + 1})).ok());
  }
  const CatalogCapture capture(c->catalog());
  const GroupCardinalityEstimate estimate =
      EstimateGroupCardinality(capture.view(), /*attribute=*/0);
  EXPECT_EQ(estimate.table_entities, 40u);
  EXPECT_EQ(estimate.carrier_rows, 20u);  // Exactly the carriers.
  EXPECT_EQ(estimate.groups_upper_bound(), 20u);
  EXPECT_GT(estimate.partitions_carrying, 0u);
  EXPECT_GE(estimate.carrier_rows, estimate.max_partition_carriers);
}

TEST(GroupCardinalityTest, AbsentAttributeHasZeroBound) {
  CinderellaConfig config;
  config.weight = 0.5;
  config.max_size = 100;
  auto c = std::move(Cinderella::Create(config)).value();
  for (EntityId id = 0; id < 10; ++id) {
    ASSERT_TRUE(c->Insert(MakeRow(id, {1, 2})).ok());
  }
  const CatalogCapture capture(c->catalog());
  const GroupCardinalityEstimate estimate =
      EstimateGroupCardinality(capture.view(), /*attribute=*/99);
  EXPECT_EQ(estimate.carrier_rows, 0u);
  EXPECT_EQ(estimate.partitions_carrying, 0u);
  EXPECT_EQ(estimate.table_entities, 10u);
}

TEST(ExplainTest, RendersPlan) {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 100;
  auto c = std::move(Cinderella::Create(config)).value();
  for (EntityId id = 0; id < 20; ++id) {
    const AttributeId base = static_cast<AttributeId>((id % 2) * 10);
    ASSERT_TRUE(c->Insert(MakeRow(id, {base, base + 1})).ok());
  }
  const CatalogCapture capture(c->catalog());
  const std::string plan = ExplainQuery(capture.view(), Query(Synopsis{10}));
  EXPECT_NE(plan.find("scan 1 partitions, prune 1"), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("scan partition"), std::string::npos);
  EXPECT_NE(plan.find("selectivity"), std::string::npos);
}

TEST(ExplainTest, CapsPartitionListing) {
  CinderellaConfig config;
  config.weight = 0.0;  // One partition per distinct schema.
  config.max_size = 100;
  auto c = std::move(Cinderella::Create(config)).value();
  for (EntityId id = 0; id < 30; ++id) {
    // Every entity shares attr 0 but has a unique second attr.
    ASSERT_TRUE(
        c->Insert(MakeRow(id, {0, static_cast<AttributeId>(1 + id)})).ok());
  }
  const CatalogCapture capture(c->catalog());
  const std::string plan =
      ExplainQuery(capture.view(), Query(Synopsis{0}), /*max_partitions=*/5);
  EXPECT_NE(plan.find("... 25 more partitions"), std::string::npos) << plan;
}

}  // namespace
}  // namespace cinderella
