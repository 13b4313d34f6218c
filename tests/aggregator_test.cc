// Tests for the morsel-driven adaptive GROUP BY engine
// (query/aggregator.h): reference correctness on mixed-type data, the
// determinism contract (bit-identical results across all three
// strategies, thread counts, schedules, and snapshot sources, each checked
// against a brute-force reference), WHERE integration, shared-table
// overflow fallback, and the adaptive chooser's decisions. The
// cross-strategy property test also runs under TSan (tools/tier1.sh) to
// exercise the shared table's atomics.

#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "mvcc/versioned_table.h"
#include "query/aggregator.h"
#include "query/predicate.h"

namespace cinderella {
namespace {

constexpr AttributeId kGroup = 0;
constexpr AttributeId kValue = 1;

std::unique_ptr<Cinderella> MakePartitioner(uint64_t max_size = 64) {
  CinderellaConfig config;
  config.weight = 0.4;
  config.max_size = max_size;
  config.scan_threads = 1;
  return std::move(Cinderella::Create(config)).value();
}

/// Rows with a group key, an optional mixed-type value cell, and
/// clustered noise attributes so the catalog actually splits into many
/// partitions.
std::vector<Row> MakeRows(size_t count, uint64_t seed, int64_t groups) {
  std::mt19937_64 rng(seed);
  std::vector<Row> rows;
  rows.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    Row row(static_cast<EntityId>(i));
    const int64_t g = static_cast<int64_t>(rng() % groups);
    if (g % 7 == 3) {
      // snprintf instead of string concatenation: GCC 12's Release-mode
      // string inlining misreports the "g" + to_string(...) form as
      // -Werror=restrict.
      char buf[32];
      std::snprintf(buf, sizeof(buf), "g%lld", static_cast<long long>(g));
      row.Set(kGroup, Value(std::string(buf)));
    } else {
      row.Set(kGroup, Value(g));
    }
    switch (rng() % 4) {
      case 0:
        row.Set(kValue, Value(static_cast<int64_t>(rng() % 1000) - 500));
        break;
      case 1:
        row.Set(kValue,
                Value(static_cast<double>(rng() % 1000) / 3.0 - 100.0));
        break;
      case 2:
        row.Set(kValue, Value("not-a-number"));
        break;
      default:
        break;  // Missing value cell.
    }
    const AttributeId base = static_cast<AttributeId>(2 + (i % 5) * 6);
    row.Set(base, Value(int64_t{1}));
    row.Set(base + 1, Value(int64_t{1}));
    rows.push_back(std::move(row));
  }
  return rows;
}

struct ValueOrder {
  bool operator()(const Value& a, const Value& b) const {
    return ValueLess(a, b);
  }
};

/// Serial reference aggregation straight off the row set, mirroring the
/// documented semantics: rows participate when the group attribute is
/// present and WHERE matches; int64/double cells feed the value
/// aggregates (doubles truncated), strings and missing cells do not.
std::vector<GroupResult> Reference(const std::vector<Row>& rows,
                                   const AggregateSpec& spec) {
  std::map<Value, GroupResult, ValueOrder> groups;
  for (const Row& row : rows) {
    const RowView view(row);
    const Value* key = view.Get(spec.group_by);
    if (key == nullptr) continue;
    if (spec.where != nullptr && !spec.where->Matches(view)) continue;
    auto [it, inserted] = groups.try_emplace(*key);
    GroupResult& g = it->second;
    if (inserted) g.key = *key;
    ++g.count;
    if (spec.value == AggregateSpec::kNoValue) continue;
    const Value* cell = view.Get(spec.value);
    if (cell == nullptr || cell->is_string()) continue;
    const int64_t v = cell->is_int64()
                          ? cell->as_int64()
                          : static_cast<int64_t>(cell->as_double());
    ++g.value_count;
    g.sum += v;
    g.min = std::min(g.min, v);
    g.max = std::max(g.max, v);
  }
  std::vector<GroupResult> out;
  out.reserve(groups.size());
  for (auto& [key, g] : groups) out.push_back(g);
  return out;
}

void ExpectSameGroups(const std::vector<GroupResult>& expected,
                      const std::vector<GroupResult>& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(expected[i] == actual[i])
        << label << ": group " << i << " key "
        << actual[i].key.ToString();
  }
}

TEST(AggregatorTest, MatchesHandBuiltAggregates) {
  auto c = MakePartitioner();
  std::vector<Row> rows;
  auto add = [&](EntityId id, Value group, const Value* value) {
    Row row(id);
    row.Set(kGroup, std::move(group));
    if (value != nullptr) row.Set(kValue, *value);
    rows.push_back(row);
    ASSERT_TRUE(c->Insert(rows.back()).ok());
  };
  const Value v7(int64_t{7});
  const Value v3(int64_t{-3});
  const Value vd(2.9);  // Truncates to 2.
  const Value vs(std::string("text"));
  add(0, Value(int64_t{1}), &v7);
  add(1, Value(int64_t{1}), &v3);
  add(2, Value(int64_t{1}), nullptr);
  add(3, Value(int64_t{2}), &vd);
  add(4, Value(int64_t{2}), &vs);  // Counted, excluded from value aggs.
  add(5, Value(std::string("one")), &v7);

  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view());
  const AggregationResult result = aggregator.Aggregate(spec);
  ASSERT_EQ(result.groups.size(), 3u);

  // Canonical order: int64 keys first (1, 2), then the string key.
  EXPECT_EQ(result.groups[0].key, Value(int64_t{1}));
  EXPECT_EQ(result.groups[0].count, 3u);
  EXPECT_EQ(result.groups[0].value_count, 2u);
  EXPECT_EQ(result.groups[0].sum, 4);
  EXPECT_EQ(result.groups[0].min, -3);
  EXPECT_EQ(result.groups[0].max, 7);

  EXPECT_EQ(result.groups[1].key, Value(int64_t{2}));
  EXPECT_EQ(result.groups[1].count, 2u);
  EXPECT_EQ(result.groups[1].value_count, 1u);
  EXPECT_EQ(result.groups[1].sum, 2);

  EXPECT_EQ(result.groups[2].key, Value(std::string("one")));
  EXPECT_EQ(result.groups[2].count, 1u);
  EXPECT_EQ(result.groups[2].sum, 7);
}

// AVG is not a separate accumulator: GroupResult::avg() derives it from
// the exact integer SUM/COUNT pair, so wherever those are bit-identical
// (every strategy and thread count) the quotient is too.
TEST(AggregatorTest, AvgDerivesExactlyFromSumAndCount) {
  const std::vector<Row> rows = MakeRows(1200, /*seed=*/5, /*groups=*/11);
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;
  const CatalogCapture capture(c->catalog());
  Aggregator reference(capture.view());
  const AggregationResult base = reference.Aggregate(spec);
  ASSERT_FALSE(base.groups.empty());
  for (const GroupResult& g : base.groups) {
    if (g.value_count == 0) {
      EXPECT_EQ(g.avg(), 0.0);
    } else {
      EXPECT_EQ(g.avg(), static_cast<double>(g.sum) /
                             static_cast<double>(g.value_count));
    }
  }

  const AggregateStrategy strategies[] = {AggregateStrategy::kTwoPhase,
                                          AggregateStrategy::kRadix,
                                          AggregateStrategy::kSharedTable};
  for (const AggregateStrategy strategy : strategies) {
    AggregatorOptions options;
    options.scan_threads = 4;
    options.strategy = strategy;
    Aggregator aggregator(capture.view(), options);
    const AggregationResult result = aggregator.Aggregate(spec);
    ASSERT_EQ(result.groups.size(), base.groups.size());
    for (size_t i = 0; i < base.groups.size(); ++i) {
      // Exact double equality on purpose: the derivation contract is
      // bit-identity, not approximation.
      EXPECT_EQ(result.groups[i].avg(), base.groups[i].avg());
    }
  }
}

// The determinism contract, as a randomized property: every strategy,
// thread count, schedule, and snapshot source yields the byte-for-byte
// same groups as the brute-force reference over the inserted rows.
TEST(AggregatorTest, StrategiesThreadsAndSourcesAreBitIdentical) {
  const std::vector<Row> rows = MakeRows(3000, /*seed=*/17, /*groups=*/37);
  // Two snapshot sources of the same rows: a capture of a serially
  // loaded catalog, and a published view of a batch-loaded table.
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());
  const CatalogCapture capture(c->catalog());
  VersionedTable table(MakePartitioner());
  {
    std::vector<Row> copy = rows;
    ASSERT_TRUE(table.InsertBatch(std::move(copy)).ok());
  }
  const VersionedTable::Snapshot snapshot = table.snapshot();

  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;
  const std::vector<GroupResult> expected = Reference(rows, spec);
  ASSERT_FALSE(expected.empty());

  const AggregateStrategy strategies[] = {
      AggregateStrategy::kAdaptive, AggregateStrategy::kTwoPhase,
      AggregateStrategy::kRadix, AggregateStrategy::kSharedTable};
  for (const AggregateStrategy strategy : strategies) {
    for (const int threads : {1, 2, 8}) {
      for (const bool fixed : {false, true}) {
        AggregatorOptions options;
        options.scan_threads = threads;
        options.strategy = strategy;
        options.fixed_chunks = fixed;
        const std::string label =
            std::string(AggregateStrategyName(strategy)) + "/t" +
            std::to_string(threads) + (fixed ? "/fixed" : "/morsel");

        Aggregator captured(capture.view(), options);
        const AggregationResult from_capture = captured.Aggregate(spec);
        ExpectSameGroups(expected, from_capture.groups, label + "/capture");

        Aggregator pinned(snapshot.view(), options);
        const AggregationResult from_view = pinned.Aggregate(spec);
        ExpectSameGroups(expected, from_view.groups, label + "/view");

        // Participating-row count is part of the contract too.
        uint64_t participating = 0;
        for (const GroupResult& g : expected) participating += g.count;
        EXPECT_EQ(from_capture.metrics.rows_matched, participating) << label;
        EXPECT_EQ(from_view.metrics.rows_matched, participating) << label;
      }
    }
  }
}

TEST(AggregatorTest, WherePredicateFiltersRows) {
  const std::vector<Row> rows = MakeRows(1500, /*seed=*/23, /*groups=*/12);
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  const PredicatePtr where = Compare(kValue, CompareOp::kGt, Value(int64_t{0}));
  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;
  spec.where = where.get();
  const std::vector<GroupResult> expected = Reference(rows, spec);

  const CatalogCapture capture(c->catalog());
  for (const int threads : {1, 8}) {
    AggregatorOptions options;
    options.scan_threads = threads;
    Aggregator aggregator(capture.view(), options);
    const AggregationResult result = aggregator.Aggregate(spec);
    ExpectSameGroups(expected, result.groups,
                     "where/t" + std::to_string(threads));
  }
}

TEST(AggregatorTest, CountOnlyNeedsNoValueAttribute) {
  const std::vector<Row> rows = MakeRows(400, /*seed=*/5, /*groups=*/9);
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  AggregateSpec spec;
  spec.group_by = kGroup;  // value stays kNoValue.
  const std::vector<GroupResult> expected = Reference(rows, spec);
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view());
  const AggregationResult result = aggregator.Aggregate(spec);
  ExpectSameGroups(expected, result.groups, "count-only");
  for (const GroupResult& g : result.groups) {
    EXPECT_EQ(g.value_count, 0u);
    EXPECT_EQ(g.sum, 0);
  }
}

TEST(AggregatorTest, SharedTableOverflowFallsBackToTwoPhase) {
  const std::vector<Row> rows = MakeRows(2000, /*seed=*/31, /*groups=*/500);
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;
  const std::vector<GroupResult> expected = Reference(rows, spec);
  ASSERT_GT(expected.size(), 128u);

  AggregatorOptions options;
  options.scan_threads = 4;
  options.strategy = AggregateStrategy::kSharedTable;
  options.shared_table_capacity = 128;  // << distinct groups: must spill.
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view(), options);
  const AggregationResult result = aggregator.Aggregate(spec);
  EXPECT_TRUE(result.shared_table_overflow);
  EXPECT_EQ(result.strategy_used, AggregateStrategy::kTwoPhase);
  ExpectSameGroups(expected, result.groups, "overflow-fallback");
}

TEST(AggregatorTest, ChooserPicksSharedTableForFewGroups) {
  const std::vector<Row> rows = MakeRows(2000, /*seed=*/41, /*groups=*/10);
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;
  AggregatorOptions options;
  options.scan_threads = 4;
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view(), options);
  const AggregationResult result = aggregator.Aggregate(spec);
  EXPECT_EQ(result.strategy_used, AggregateStrategy::kSharedTable);
  EXPECT_GT(result.estimated_groups, 0u);
  EXPECT_FALSE(result.shared_table_overflow);
  ExpectSameGroups(Reference(rows, spec), result.groups, "chooser-shared");
}

TEST(AggregatorTest, ChooserPicksRadixForHugeCardinality) {
  // Near-unique keys; thresholds lowered so the test stays small.
  const std::vector<Row> rows = MakeRows(3000, /*seed=*/43, /*groups=*/2500);
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;
  AggregatorOptions options;
  options.scan_threads = 4;
  options.sample_rows = 512;
  options.shared_max_groups = 64;
  options.radix_min_groups = 500;
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view(), options);
  const AggregationResult result = aggregator.Aggregate(spec);
  EXPECT_EQ(result.strategy_used, AggregateStrategy::kRadix);
  ExpectSameGroups(Reference(rows, spec), result.groups, "chooser-radix");
}

TEST(AggregatorTest, ChooserAvoidsSharedTableUnderHeavyHitterSkew) {
  // >50% of rows share one key: every thread would serialize on that
  // slot's atomics, so the chooser must fall through to two-phase.
  std::vector<Row> rows;
  for (size_t i = 0; i < 1200; ++i) {
    Row row(static_cast<EntityId>(i));
    row.Set(kGroup, Value(int64_t(i % 3 != 0 ? 0 : 1 + (i % 16))));
    row.Set(kValue, Value(static_cast<int64_t>(i)));
    const AttributeId base = static_cast<AttributeId>(2 + (i % 4) * 6);
    row.Set(base, Value(int64_t{1}));
    rows.push_back(std::move(row));
  }
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  AggregateSpec spec;
  spec.group_by = kGroup;
  spec.value = kValue;
  AggregatorOptions options;
  options.scan_threads = 4;
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view(), options);
  const AggregationResult result = aggregator.Aggregate(spec);
  EXPECT_EQ(result.strategy_used, AggregateStrategy::kTwoPhase);
  ExpectSameGroups(Reference(rows, spec), result.groups, "chooser-skew");
}

TEST(AggregatorTest, SerialDegreeNeverPicksTheSharedTable) {
  const std::vector<Row> rows = MakeRows(300, /*seed=*/47, /*groups=*/5);
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  AggregateSpec spec;
  spec.group_by = kGroup;
  // 5 groups would qualify for the shared table at degree > 1, but the
  // shared table only exists to dodge contention — serially it is pure
  // overhead, so the chooser must fall back to two-phase.
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view());  // scan_threads = 1.
  const AggregationResult result = aggregator.Aggregate(spec);
  EXPECT_EQ(aggregator.scan_degree(), 1);
  EXPECT_EQ(result.strategy_used, AggregateStrategy::kTwoPhase);
}

TEST(AggregatorTest, SerialDegreeStillPicksRadixAtHugeCardinality) {
  // Radix's cache win is independent of threads; nearly-all-distinct
  // keys should route to it even at degree 1.
  const std::vector<Row> rows = MakeRows(2000, /*seed=*/53, /*groups=*/1900);
  auto c = MakePartitioner();
  for (const Row& row : rows) ASSERT_TRUE(c->Insert(row).ok());

  AggregateSpec spec;
  spec.group_by = kGroup;
  AggregatorOptions options;
  options.scan_threads = 1;
  options.sample_rows = 256;
  options.radix_min_groups = 500;
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view(), options);
  const AggregationResult result = aggregator.Aggregate(spec);
  EXPECT_EQ(result.strategy_used, AggregateStrategy::kRadix);
}

TEST(AggregatorTest, PrunesPartitionsWithoutTheGroupAttribute) {
  auto c = MakePartitioner(/*max_size=*/16);
  // Half the entities carry the group attribute, half a disjoint schema;
  // clustering puts them in different partitions, which must be pruned.
  for (size_t i = 0; i < 200; ++i) {
    Row row(static_cast<EntityId>(i));
    if (i % 2 == 0) {
      row.Set(kGroup, Value(int64_t((i / 2) % 4)));
      row.Set(kValue, Value(int64_t{1}));
    } else {
      row.Set(40, Value(int64_t{1}));
      row.Set(41, Value(int64_t{1}));
    }
    ASSERT_TRUE(c->Insert(std::move(row)).ok());
  }
  AggregateSpec spec;
  spec.group_by = kGroup;
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view());
  const AggregationResult result = aggregator.Aggregate(spec);
  EXPECT_GT(result.metrics.partitions_pruned, 0u);
  EXPECT_EQ(result.metrics.rows_matched, 100u);
  ASSERT_EQ(result.groups.size(), 4u);
}

TEST(AggregatorTest, EmptyCatalogYieldsNoGroups) {
  auto c = MakePartitioner();
  AggregateSpec spec;
  spec.group_by = kGroup;
  AggregatorOptions options;
  options.scan_threads = 4;
  const CatalogCapture capture(c->catalog());
  Aggregator aggregator(capture.view(), options);
  const AggregationResult result = aggregator.Aggregate(spec);
  EXPECT_TRUE(result.groups.empty());
  EXPECT_EQ(result.metrics.rows_matched, 0u);
}

}  // namespace
}  // namespace cinderella
