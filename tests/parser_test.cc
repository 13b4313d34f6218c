// Tests for the mini query language: lexing, parsing, binding, predicate
// semantics, and executor integration.

#include <memory>

#include <gtest/gtest.h>

#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "query/parser.h"

namespace cinderella {
namespace {

class ParserTest : public testing::Test {
 protected:
  void SetUp() override {
    name_ = dictionary_.GetOrCreate("name");
    weight_ = dictionary_.GetOrCreate("weight");
    screen_ = dictionary_.GetOrCreate("screen");
    odd_ = dictionary_.GetOrCreate("odd name");
  }

  Row MakeRow(EntityId id, int64_t weight, bool with_screen) {
    Row row(id);
    row.Set(name_, Value("entity"));
    row.Set(weight_, Value(weight));
    if (with_screen) row.Set(screen_, Value(3.5));
    return row;
  }

  AttributeDictionary dictionary_;
  AttributeId name_ = 0;
  AttributeId weight_ = 0;
  AttributeId screen_ = 0;
  AttributeId odd_ = 0;
};

TEST_F(ParserTest, ProjectionOnly) {
  auto statement = ParseSelect("SELECT name, weight", dictionary_);
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  EXPECT_EQ(statement->projection,
            (std::vector<AttributeId>{name_, weight_}));
  EXPECT_FALSE(statement->select_all);
  EXPECT_EQ(statement->where, nullptr);
}

TEST_F(ParserTest, SelectStar) {
  auto statement = ParseSelect("select *", dictionary_);
  ASSERT_TRUE(statement.ok());
  EXPECT_TRUE(statement->select_all);
}

TEST_F(ParserTest, PaperShapedQuery) {
  auto statement = ParseSelect(
      "SELECT name, weight WHERE name IS NOT NULL OR weight IS NOT NULL",
      dictionary_);
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  ASSERT_NE(statement->where, nullptr);
  Row with_name(1);
  with_name.Set(name_, Value("x"));
  Row with_neither(2);
  EXPECT_TRUE(statement->where->Matches(with_name));
  EXPECT_FALSE(statement->where->Matches(with_neither));
  // The paper-shaped OR is prunable.
  Synopsis pruning;
  EXPECT_TRUE(statement->where->PruningSynopsis(&pruning));
  EXPECT_EQ(pruning, Synopsis({name_, weight_}));
}

TEST_F(ParserTest, ComparisonsAndPrecedence) {
  // AND binds tighter than OR.
  auto statement = ParseSelect(
      "SELECT * WHERE weight > 100 AND screen <= 4.0 OR name = 'x'",
      dictionary_);
  ASSERT_TRUE(statement.ok());
  Row heavy_small(1);
  heavy_small.Set(weight_, Value(int64_t{200}));
  heavy_small.Set(screen_, Value(3.0));
  EXPECT_TRUE(statement->where->Matches(heavy_small));
  Row named(2);
  named.Set(name_, Value("x"));
  EXPECT_TRUE(statement->where->Matches(named));
  Row light(3);
  light.Set(weight_, Value(int64_t{50}));
  light.Set(screen_, Value(3.0));
  EXPECT_FALSE(statement->where->Matches(light));
}

TEST_F(ParserTest, ParenthesesOverridePrecedence) {
  auto statement = ParseSelect(
      "SELECT * WHERE weight > 100 AND (screen <= 4.0 OR name = 'x')",
      dictionary_);
  ASSERT_TRUE(statement.ok());
  Row named_light(1);
  named_light.Set(name_, Value("x"));
  named_light.Set(weight_, Value(int64_t{50}));
  EXPECT_FALSE(statement->where->Matches(named_light));  // weight fails.
}

TEST_F(ParserTest, IsNullAndNot) {
  auto statement =
      ParseSelect("SELECT * WHERE screen IS NULL AND NOT weight > 10",
                  dictionary_);
  ASSERT_TRUE(statement.ok());
  Row no_screen_light(1);
  no_screen_light.Set(weight_, Value(int64_t{5}));
  EXPECT_TRUE(statement->where->Matches(no_screen_light));
  Row with_screen(2);
  with_screen.Set(screen_, Value(1.0));
  with_screen.Set(weight_, Value(int64_t{5}));
  EXPECT_FALSE(statement->where->Matches(with_screen));
}

TEST_F(ParserTest, QuotedIdentifiersAndOperators) {
  auto statement = ParseSelect(
      "SELECT \"odd name\" WHERE \"odd name\" != 7 AND weight <> 3",
      dictionary_);
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  EXPECT_EQ(statement->projection, std::vector<AttributeId>{odd_});
}

TEST_F(ParserTest, NegativeAndDecimalLiterals) {
  auto statement =
      ParseSelect("SELECT * WHERE weight >= -5 AND screen < 10.25",
                  dictionary_);
  ASSERT_TRUE(statement.ok());
  Row row(1);
  row.Set(weight_, Value(int64_t{-2}));
  row.Set(screen_, Value(10.0));
  EXPECT_TRUE(statement->where->Matches(row));
}

TEST_F(ParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(ParseSelect("sElEcT * wHeRe name Is NoT nUlL", dictionary_)
                  .ok());
}

TEST_F(ParserTest, Errors) {
  EXPECT_FALSE(ParseSelect("", dictionary_).ok());
  EXPECT_FALSE(ParseSelect("FROM x", dictionary_).ok());
  EXPECT_FALSE(ParseSelect("SELECT", dictionary_).ok());
  EXPECT_FALSE(ParseSelect("SELECT unknown_attr", dictionary_).ok());
  EXPECT_FALSE(ParseSelect("SELECT * WHERE unknown > 1", dictionary_).ok());
  EXPECT_FALSE(ParseSelect("SELECT * WHERE weight >", dictionary_).ok());
  EXPECT_FALSE(ParseSelect("SELECT * WHERE weight > 1 extra", dictionary_)
                   .ok());
  EXPECT_FALSE(ParseSelect("SELECT * WHERE (weight > 1", dictionary_).ok());
  EXPECT_FALSE(ParseSelect("SELECT * WHERE weight IS 5", dictionary_).ok());
  EXPECT_FALSE(ParseSelect("SELECT * WHERE weight > 'unterminated",
                           dictionary_)
                   .ok());
  EXPECT_FALSE(ParseSelect("SELECT * WHERE weight ~ 5", dictionary_).ok());
}

TEST_F(ParserTest, ExecuteSelectEndToEnd) {
  CinderellaConfig config;
  config.weight = 0.5;
  config.max_size = 100;
  auto partitioner = std::move(Cinderella::Create(config)).value();
  for (EntityId id = 0; id < 30; ++id) {
    ASSERT_TRUE(partitioner
                    ->Insert(MakeRow(id, static_cast<int64_t>(id * 10),
                                     /*with_screen=*/id % 3 == 0))
                    .ok());
  }
  const CatalogCapture capture(partitioner->catalog());
  QueryExecutor executor(capture.view());

  auto filtered = ParseSelect("SELECT name WHERE weight >= 200 AND screen "
                              "IS NOT NULL",
                              dictionary_);
  ASSERT_TRUE(filtered.ok());
  const QueryResult r1 = executor.ExecuteSelect(*filtered);
  // ids 20..29 have weight >= 200; of those 21, 24, 27 have screens.
  EXPECT_EQ(r1.metrics.rows_matched, 3u);
  EXPECT_EQ(r1.cells_materialized, 3u);  // One "name" per match.

  auto everything = ParseSelect("SELECT *", dictionary_);
  ASSERT_TRUE(everything.ok());
  const QueryResult r2 = executor.ExecuteSelect(*everything);
  EXPECT_EQ(r2.metrics.rows_matched, 30u);
  EXPECT_EQ(r2.cells_materialized, 30u * 2 + 10u);  // name+weight+screens.
}

TEST_F(ParserTest, GroupByWithAggregates) {
  auto statement = ParseSelect(
      "SELECT name, COUNT(*), SUM(weight), MIN(weight), MAX(weight) "
      "WHERE weight > 0 GROUP BY name",
      dictionary_);
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  EXPECT_TRUE(statement->has_group_by);
  EXPECT_EQ(statement->group_by, name_);
  EXPECT_EQ(statement->projection, (std::vector<AttributeId>{name_}));
  ASSERT_EQ(statement->aggregates.size(), 4u);
  EXPECT_EQ(statement->aggregates[0].fn, AggregateFn::kCount);
  EXPECT_TRUE(statement->aggregates[0].count_all);
  EXPECT_EQ(statement->aggregates[1].fn, AggregateFn::kSum);
  EXPECT_EQ(statement->aggregates[1].attribute, weight_);
  EXPECT_EQ(statement->aggregates[2].fn, AggregateFn::kMin);
  EXPECT_EQ(statement->aggregates[3].fn, AggregateFn::kMax);
  ASSERT_NE(statement->where, nullptr);
}

TEST_F(ParserTest, AvgAggregate) {
  auto statement = ParseSelect(
      "SELECT name, AVG(weight), SUM(weight), COUNT(weight) GROUP BY name",
      dictionary_);
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  ASSERT_EQ(statement->aggregates.size(), 3u);
  EXPECT_EQ(statement->aggregates[0].fn, AggregateFn::kAvg);
  EXPECT_EQ(statement->aggregates[0].attribute, weight_);
  EXPECT_FALSE(statement->aggregates[0].count_all);
  // AVG(*) is meaningless and rejected like SUM(*).
  EXPECT_FALSE(ParseSelect("SELECT AVG(*) GROUP BY name", dictionary_).ok());
  // Like the other aggregate keywords, a bare "avg" stays an attribute.
  const AttributeId avg_attr = dictionary_.GetOrCreate("avg");
  auto bare = ParseSelect("SELECT avg", dictionary_);
  ASSERT_TRUE(bare.ok()) << bare.status().ToString();
  EXPECT_EQ(bare->projection, (std::vector<AttributeId>{avg_attr}));
}

TEST_F(ParserTest, CountOfAttribute) {
  auto statement =
      ParseSelect("SELECT COUNT(weight) GROUP BY name", dictionary_);
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  ASSERT_EQ(statement->aggregates.size(), 1u);
  EXPECT_EQ(statement->aggregates[0].fn, AggregateFn::kCount);
  EXPECT_FALSE(statement->aggregates[0].count_all);
  EXPECT_EQ(statement->aggregates[0].attribute, weight_);
}

TEST_F(ParserTest, AggregateKeywordsStayOrdinaryNamesWithoutParens) {
  // COUNT/SUM/MIN/MAX only become functions when followed by '('.
  const AttributeId count_attr = dictionary_.GetOrCreate("count");
  auto statement = ParseSelect("SELECT count", dictionary_);
  ASSERT_TRUE(statement.ok()) << statement.status().ToString();
  EXPECT_EQ(statement->projection, (std::vector<AttributeId>{count_attr}));
  EXPECT_TRUE(statement->aggregates.empty());
}

TEST_F(ParserTest, GroupByRejectsMalformedShapes) {
  // Aggregates need GROUP BY.
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*)", dictionary_).ok());
  // GROUP BY needs at least one aggregate.
  EXPECT_FALSE(ParseSelect("SELECT name GROUP BY name", dictionary_).ok());
  // Plain item must be the grouping attribute.
  EXPECT_FALSE(
      ParseSelect("SELECT weight, COUNT(*) GROUP BY name", dictionary_).ok());
  // One common value attribute across aggregates.
  EXPECT_FALSE(ParseSelect("SELECT SUM(weight), MIN(screen) GROUP BY name",
                           dictionary_)
                   .ok());
  // SELECT * cannot be grouped.
  EXPECT_FALSE(ParseSelect("SELECT * GROUP BY name", dictionary_).ok());
  // '*' only inside COUNT.
  EXPECT_FALSE(ParseSelect("SELECT SUM(*) GROUP BY name", dictionary_).ok());
  // Unknown grouping attribute.
  EXPECT_FALSE(
      ParseSelect("SELECT COUNT(*) GROUP BY nonexistent", dictionary_).ok());
  // Missing BY.
  EXPECT_FALSE(ParseSelect("SELECT COUNT(*) GROUP name", dictionary_).ok());
}

}  // namespace
}  // namespace cinderella
