// Tests for value predicates: evaluation semantics on sparse rows,
// conservative pruning synopses, and integration with the executor
// (including a differential check against a brute-force scan).

#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "query/predicate.h"

namespace cinderella {
namespace {

Row MakeRow(EntityId id) {
  Row row(id);
  row.Set(0, Value(int64_t{100}));
  row.Set(1, Value(2.5));
  row.Set(2, Value("cinderella"));
  return row;
}

TEST(PredicateTest, IsNotNull) {
  const Row row = MakeRow(1);
  EXPECT_TRUE(IsNotNull(0)->Matches(row));
  EXPECT_FALSE(IsNotNull(9)->Matches(row));
}

TEST(PredicateTest, CompareIntegers) {
  const Row row = MakeRow(1);
  EXPECT_TRUE(Compare(0, CompareOp::kEq, Value(int64_t{100}))->Matches(row));
  EXPECT_FALSE(Compare(0, CompareOp::kNe, Value(int64_t{100}))->Matches(row));
  EXPECT_TRUE(Compare(0, CompareOp::kGt, Value(int64_t{99}))->Matches(row));
  EXPECT_TRUE(Compare(0, CompareOp::kGe, Value(int64_t{100}))->Matches(row));
  EXPECT_FALSE(Compare(0, CompareOp::kLt, Value(int64_t{100}))->Matches(row));
  EXPECT_TRUE(Compare(0, CompareOp::kLe, Value(int64_t{100}))->Matches(row));
}

TEST(PredicateTest, NumericCoercion) {
  const Row row = MakeRow(1);
  // int64 attribute compared with a double literal and vice versa.
  EXPECT_TRUE(Compare(0, CompareOp::kGt, Value(99.5))->Matches(row));
  EXPECT_TRUE(Compare(1, CompareOp::kEq, Value(2.5))->Matches(row));
  EXPECT_TRUE(Compare(1, CompareOp::kLt, Value(int64_t{3}))->Matches(row));
}

TEST(PredicateTest, StringComparisons) {
  const Row row = MakeRow(1);
  EXPECT_TRUE(Compare(2, CompareOp::kEq, Value("cinderella"))->Matches(row));
  EXPECT_TRUE(Compare(2, CompareOp::kLt, Value("grimm"))->Matches(row));
  // Number vs string: never comparable, never matches.
  EXPECT_FALSE(Compare(2, CompareOp::kEq, Value(int64_t{1}))->Matches(row));
  EXPECT_FALSE(Compare(0, CompareOp::kEq, Value("100"))->Matches(row));
}

TEST(PredicateTest, MissingAttributeNeverMatchesComparison) {
  const Row row = MakeRow(1);
  EXPECT_FALSE(Compare(9, CompareOp::kEq, Value(int64_t{1}))->Matches(row));
  EXPECT_FALSE(Compare(9, CompareOp::kNe, Value(int64_t{1}))->Matches(row));
}

TEST(PredicateTest, BooleanCombinators) {
  const Row row = MakeRow(1);
  auto make_true = [] { return IsNotNull(0); };
  auto make_false = [] { return IsNotNull(9); };

  std::vector<PredicatePtr> both;
  both.push_back(make_true());
  both.push_back(make_false());
  EXPECT_FALSE(And(std::move(both))->Matches(row));

  std::vector<PredicatePtr> either;
  either.push_back(make_true());
  either.push_back(make_false());
  EXPECT_TRUE(Or(std::move(either))->Matches(row));

  EXPECT_TRUE(Not(make_false())->Matches(row));
  EXPECT_FALSE(Not(make_true())->Matches(row));

  EXPECT_TRUE(And({})->Matches(row));   // Empty AND = TRUE.
  EXPECT_FALSE(Or({})->Matches(row));   // Empty OR = FALSE.
}

TEST(PredicateTest, PruningSynopses) {
  Synopsis s;
  EXPECT_TRUE(IsNotNull(3)->PruningSynopsis(&s));
  EXPECT_EQ(s, Synopsis{3});

  s.Clear();
  std::vector<PredicatePtr> disjunction;
  disjunction.push_back(IsNotNull(1));
  disjunction.push_back(Compare(2, CompareOp::kEq, Value(int64_t{5})));
  EXPECT_TRUE(Or(std::move(disjunction))->PruningSynopsis(&s));
  EXPECT_EQ(s, (Synopsis{1, 2}));

  // NOT is not prunable.
  s.Clear();
  EXPECT_FALSE(Not(IsNotNull(1))->PruningSynopsis(&s));

  // An OR containing a NOT is not prunable either.
  s.Clear();
  std::vector<PredicatePtr> with_not;
  with_not.push_back(IsNotNull(1));
  with_not.push_back(Not(IsNotNull(2)));
  EXPECT_FALSE(Or(std::move(with_not))->PruningSynopsis(&s));

  // An AND is prunable via any prunable child.
  s.Clear();
  std::vector<PredicatePtr> conjunction;
  conjunction.push_back(Not(IsNotNull(2)));
  conjunction.push_back(IsNotNull(4));
  EXPECT_TRUE(And(std::move(conjunction))->PruningSynopsis(&s));
  EXPECT_TRUE(s.Contains(4));
}

TEST(PredicateTest, ToStringRendering) {
  std::vector<PredicatePtr> children;
  children.push_back(IsNotNull(1));
  children.push_back(Compare(2, CompareOp::kGt, Value(int64_t{7})));
  EXPECT_EQ(And(std::move(children))->ToString(),
            "(attr1 IS NOT NULL AND attr2 > 7)");
  EXPECT_EQ(Not(IsNotNull(0))->ToString(), "NOT attr0 IS NOT NULL");
}

// -- executor integration ------------------------------------------------------

class PredicateExecutorTest : public testing::Test {
 protected:
  void SetUp() override {
    CinderellaConfig config;
    config.weight = 0.3;
    config.max_size = 50;
    partitioner_ = std::move(Cinderella::Create(config)).value();
    Rng rng(77);
    for (EntityId id = 0; id < 300; ++id) {
      Row row(id);
      const AttributeId base =
          static_cast<AttributeId>(rng.Uniform(3) * 10);
      for (AttributeId a = 0; a < 3; ++a) {
        row.Set(base + a, Value(static_cast<int64_t>(rng.Uniform(100))));
      }
      rows_.push_back(row);
      ASSERT_TRUE(partitioner_->Insert(std::move(row)).ok());
    }
    capture_ = std::make_unique<CatalogCapture>(partitioner_->catalog());
  }

  size_t BruteForceCount(const Predicate& predicate) const {
    size_t count = 0;
    for (const Row& row : rows_) count += predicate.Matches(row);
    return count;
  }

  std::unique_ptr<Cinderella> partitioner_;
  std::unique_ptr<CatalogCapture> capture_;
  std::vector<Row> rows_;
};

TEST_F(PredicateExecutorTest, PrunedScanMatchesBruteForce) {
  QueryExecutor executor(capture_->view());
  auto predicate = Compare(10, CompareOp::kLt, Value(int64_t{50}));
  const QueryResult result = executor.ExecutePredicate(*predicate);
  EXPECT_EQ(result.metrics.rows_matched, BruteForceCount(*predicate));
  // Partitions of the other two schema families were pruned.
  EXPECT_GT(result.metrics.partitions_pruned, 0u);
}

TEST_F(PredicateExecutorTest, NonPrunablePredicateScansEverything) {
  QueryExecutor executor(capture_->view());
  auto predicate = Not(IsNotNull(10));
  const QueryResult result = executor.ExecutePredicate(*predicate);
  EXPECT_EQ(result.metrics.partitions_pruned, 0u);
  EXPECT_EQ(result.metrics.rows_scanned, 300u);
  EXPECT_EQ(result.metrics.rows_matched, BruteForceCount(*predicate));
}

TEST_F(PredicateExecutorTest, ScanMatchesDeliversRows) {
  QueryExecutor executor(capture_->view());
  auto predicate = IsNotNull(20);
  std::vector<EntityId> seen;
  executor.ScanMatches(*predicate,
                       [&](const RowView& row) { seen.push_back(row.id()); });
  EXPECT_EQ(seen.size(), BruteForceCount(*predicate));
  for (EntityId id : seen) {
    EXPECT_TRUE(rows_[id].Has(20));
  }
}

TEST_F(PredicateExecutorTest, RandomDifferentialSweep) {
  QueryExecutor executor(capture_->view());
  Rng rng(99);
  for (int trial = 0; trial < 60; ++trial) {
    // Random two-clause predicate over random attributes.
    const AttributeId a = static_cast<AttributeId>(rng.Uniform(30));
    const AttributeId b = static_cast<AttributeId>(rng.Uniform(30));
    const auto op = static_cast<CompareOp>(rng.Uniform(6));
    const int64_t literal = static_cast<int64_t>(rng.Uniform(100));
    std::vector<PredicatePtr> clauses;
    clauses.push_back(Compare(a, op, Value(literal)));
    clauses.push_back(IsNotNull(b));
    PredicatePtr predicate = rng.Bernoulli(0.5)
                                 ? Or(std::move(clauses))
                                 : And(std::move(clauses));
    if (rng.Bernoulli(0.25)) predicate = Not(std::move(predicate));
    const QueryResult result = executor.ExecutePredicate(*predicate);
    EXPECT_EQ(result.metrics.rows_matched, BruteForceCount(*predicate))
        << predicate->ToString();
  }
}

}  // namespace
}  // namespace cinderella
