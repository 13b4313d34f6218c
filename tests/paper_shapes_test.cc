// Regression gates for the paper's qualitative claims, run at reduced
// scale so they stay fast in CI. Each test encodes one "shape" the
// evaluation (Section V) reports; if a core change breaks a shape, the
// reproduction has regressed even when all unit tests still pass.
//
// Shapes are asserted on the deterministic cost counters (cells read,
// partitions scanned), never on wall time.

#include <memory>

#include <gtest/gtest.h>

#include "baseline/single_partitioner.h"
#include "core/cinderella.h"
#include "core/partitioning_stats.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "workload/dataset_stats.h"
#include "workload/dbpedia_generator.h"
#include "workload/query_workload.h"
#include "workload/tpch/tpch_generator.h"
#include "workload/tpch/tpch_queries.h"

namespace cinderella {
namespace {

class PaperShapesTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    DbpediaConfig config;
    config.num_entities = 10000;
    config.seed = 42;
    dictionary_ = new AttributeDictionary();
    DbpediaGenerator generator(config, dictionary_);
    rows_ = new std::vector<Row>(generator.Generate());
    workload_ = new std::vector<GeneratedQuery>(
        GenerateQueryWorkload(*rows_, 100, QueryWorkloadConfig{}));
  }
  static void TearDownTestSuite() {
    delete rows_;
    delete workload_;
    delete dictionary_;
    rows_ = nullptr;
    workload_ = nullptr;
    dictionary_ = nullptr;
  }

  static std::unique_ptr<Cinderella> Load(double weight, uint64_t max_size) {
    CinderellaConfig config;
    config.weight = weight;
    config.max_size = max_size;
    auto c = std::move(Cinderella::Create(config)).value();
    for (const Row& row : *rows_) {
      EXPECT_TRUE(c->Insert(row).ok());
    }
    return c;
  }

  // `GeneratedQuery::selectivity` is per attribute (matched cells over
  // rows × |q|), which lower-bounds the row-match fraction: a value s
  // admits queries touching up to |q|·s of the rows. The "selective"
  // band is therefore tighter than Figure 5's per-row 10% bucket.
  static constexpr double kSelectiveBand = 0.05;

  // Average cells read per query within a selectivity band.
  static double CellsRead(const PartitionCatalog& catalog, double lo,
                          double hi) {
    const CatalogCapture capture(catalog);
    QueryExecutor executor(capture.view());
    uint64_t cells = 0;
    size_t count = 0;
    for (const GeneratedQuery& q : *workload_) {
      if (q.selectivity < lo || q.selectivity >= hi) continue;
      cells += executor.Execute(q.query).metrics.cells_read;
      ++count;
    }
    EXPECT_GT(count, 0u) << "no queries in band " << lo << "-" << hi;
    return static_cast<double>(cells) / static_cast<double>(count);
  }

  static std::vector<Row>* rows_;
  static std::vector<GeneratedQuery>* workload_;
  static AttributeDictionary* dictionary_;
};

std::vector<Row>* PaperShapesTest::rows_ = nullptr;
std::vector<GeneratedQuery>* PaperShapesTest::workload_ = nullptr;
AttributeDictionary* PaperShapesTest::dictionary_ = nullptr;

// Figure 5's headline: selective queries read far less data under
// Cinderella than on the universal table.
TEST_F(PaperShapesTest, Fig5SelectiveQueriesSpeedUp) {
  auto cinderella = Load(0.5, 500);
  SinglePartitioner universal;
  for (const Row& row : *rows_) {
    ASSERT_TRUE(universal.Insert(row).ok());
  }
  const double partitioned =
      CellsRead(cinderella->catalog(), 0.0, kSelectiveBand);
  const double unpartitioned =
      CellsRead(universal.catalog(), 0.0, kSelectiveBand);
  EXPECT_LT(partitioned * 2.0, unpartitioned)
      << "expected >= 2x cell saving on selective queries";
}

// Figure 5's B-ordering on selective queries: smaller B reads less.
TEST_F(PaperShapesTest, Fig5SmallerLimitHelpsSelectiveQueries) {
  auto b_small = Load(0.5, 500);
  auto b_large = Load(0.5, 5000);
  EXPECT_LT(CellsRead(b_small->catalog(), 0.0, kSelectiveBand),
            CellsRead(b_large->catalog(), 0.0, kSelectiveBand));
}

// Figure 5's overhead side: smaller B needs more partitions united on
// unselective queries.
TEST_F(PaperShapesTest, Fig5SmallerLimitCostsUnselectiveQueries) {
  auto b_small = Load(0.5, 500);
  auto b_large = Load(0.5, 5000);
  auto united = [&](const PartitionCatalog& catalog) {
    const CatalogCapture capture(catalog);
    QueryExecutor executor(capture.view());
    uint64_t scans = 0;
    for (const GeneratedQuery& q : *workload_) {
      if (q.selectivity < 0.5) continue;
      scans += executor.Execute(q.query).metrics.partitions_scanned;
    }
    return scans;
  };
  EXPECT_GT(united(b_small->catalog()), 3 * united(b_large->catalog()));
}

// Figure 6: the lower weight wins on very selective queries.
TEST_F(PaperShapesTest, Fig6LowerWeightHelpsSelectiveQueries) {
  auto w_low = Load(0.2, 5000);
  auto w_high = Load(0.8, 5000);
  EXPECT_LT(CellsRead(w_low->catalog(), 0.0, kSelectiveBand),
            CellsRead(w_high->catalog(), 0.0, kSelectiveBand));
}

// Figure 7(a): partition count explodes below w = 0.2 and collapses at
// medium weights.
TEST_F(PaperShapesTest, Fig7PartitionCountExplosion) {
  const size_t at_0 = Load(0.0, 5000)->catalog().partition_count();
  const size_t at_02 = Load(0.2, 5000)->catalog().partition_count();
  const size_t at_05 = Load(0.5, 5000)->catalog().partition_count();
  EXPECT_GT(at_0, 20 * at_02);
  EXPECT_GT(at_02, at_05);
  EXPECT_LT(at_05, 20u);
}

// Figure 7(c)+(d): every partition carries far fewer attributes than the
// table, and medium weights keep partitions much denser than the raw set.
TEST_F(PaperShapesTest, Fig7AttributesAndSparsenessPerPartition) {
  auto c = Load(0.4, 5000);
  const PartitioningReport report = AnalyzePartitioning(c->catalog());
  EXPECT_LT(report.attributes_per_partition.max, 100.0);
  const DatasetDistribution d = ComputeDatasetDistribution(*rows_, 100);
  EXPECT_LT(report.sparseness_per_partition.median, d.sparseness);
}

// Figure 8: split frequency falls as B grows.
TEST_F(PaperShapesTest, Fig8SplitCountsFallWithB) {
  const uint64_t splits_500 = Load(0.5, 500)->stats().splits;
  const uint64_t splits_5000 = Load(0.5, 5000)->stats().splits;
  const uint64_t splits_50000 = Load(0.5, 50000)->stats().splits;
  EXPECT_GT(splits_500, splits_5000);
  EXPECT_GE(splits_5000, splits_50000);
  EXPECT_EQ(splits_50000, 0u);  // 10k entities never fill B=50000.
}

// Table I: on perfectly regular TPC-H data Cinderella recovers the table
// schema exactly, at every tested B.
TEST(PaperShapesTpchTest, TableISchemaRecovery) {
  TpchGeneratorConfig config;
  config.scale_factor = 0.002;
  AttributeDictionary dictionary;
  TpchGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();
  for (uint64_t max_size : {uint64_t{200}, uint64_t{2000}}) {
    CinderellaConfig cc;
    cc.weight = 0.5;
    cc.max_size = max_size;
    cc.use_synopsis_index = true;
    auto c = std::move(Cinderella::Create(cc)).value();
    for (const Row& row : rows) {
      ASSERT_TRUE(c->Insert(row).ok());
    }
    c->catalog().ForEachPartition([&](const Partition& partition) {
      TpchTable first = TpchTableOfEntity(
          partition.segment().rows().front().id());
      for (const Row& row : partition.segment().rows()) {
        EXPECT_EQ(TpchTableOfEntity(row.id()), first)
            << "mixed-table partition at B=" << max_size;
      }
    });
  }
}

// Table I: shuffled arrival order must not break schema recovery (the
// paper loads table by table; online means order-independence matters).
TEST(PaperShapesTpchTest, SchemaRecoveryIsOrderIndependent) {
  TpchGeneratorConfig config;
  config.scale_factor = 0.002;
  config.shuffle = true;
  AttributeDictionary dictionary;
  TpchGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();
  CinderellaConfig cc;
  cc.weight = 0.5;
  cc.max_size = 2000;
  cc.use_synopsis_index = true;
  auto c = std::move(Cinderella::Create(cc)).value();
  for (const Row& row : rows) {
    ASSERT_TRUE(c->Insert(row).ok());
  }
  c->catalog().ForEachPartition([&](const Partition& partition) {
    TpchTable first =
        TpchTableOfEntity(partition.segment().rows().front().id());
    for (const Row& row : partition.segment().rows()) {
      EXPECT_EQ(TpchTableOfEntity(row.id()), first);
    }
  });
}

}  // namespace
}  // namespace cinderella
