// Reproduces Table I: query execution time on regularly structured data
// (TPC-H). Four scenarios: standard TPC-H (ground-truth per-table
// partitioning, no union overhead) and Cinderella with partition size
// limits 500 / 2000 / 10000.
//
// Paper result (SF 0.5): standard 24.23s (100%); Cinderella 108.87% /
// 105.69% / 101.27% for B = 500 / 2000 / 10000 — "Cinderella finds only
// partitions which exactly fit the TPC-H schema in any of the three
// settings", and the overhead (the extra union operations) shrinks as B
// grows. We verify partition purity explicitly and report both measured
// scan time and the modeled cost including per-partition union overhead.
//
// Env knobs: CINDERELLA_TPCH_SF (default 0.02; paper: 0.5 — relative
// costs are SF-invariant since both bytes and partition counts scale
// linearly), CINDERELLA_SEED, CINDERELLA_QUERY_REPS.

#include <cstdio>
#include <memory>
#include <set>

#include "baseline/labeled_partitioner.h"
#include "bench/bench_common.h"
#include "common/env.h"
#include "common/table_printer.h"
#include "common/timer.h"
#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "workload/tpch/tpch_generator.h"
#include "workload/tpch/tpch_queries.h"

namespace cinderella {
namespace {

struct ScenarioResult {
  std::string name;
  size_t partitions = 0;
  double load_seconds = 0.0;
  double query_seconds = 0.0;
  double modeled_cost = 0.0;
  bool pure = true;  // Every partition holds rows of exactly one table.
};

bool CheckPurity(const PartitionCatalog& catalog) {
  bool pure = true;
  catalog.ForEachPartition([&](const Partition& partition) {
    std::set<TpchTable> tables;
    for (const Row& row : partition.segment().rows()) {
      tables.insert(TpchTableOfEntity(row.id()));
    }
    if (tables.size() > 1) pure = false;
  });
  return pure;
}

ScenarioResult RunScenario(Partitioner& partitioner, std::vector<Row> rows,
                           const std::vector<Query>& queries, int reps,
                           const CostModel& model, bool charge_overhead) {
  ScenarioResult result;
  result.name = partitioner.name();
  const auto load = bench::LoadRows(partitioner, std::move(rows));
  result.load_seconds = load.total_seconds;
  result.partitions = partitioner.catalog().partition_count();
  result.pure = CheckPurity(partitioner.catalog());

  const CatalogCapture capture(partitioner.catalog());
  QueryExecutor executor(capture.view());
  WallTimer timer;
  for (int r = 0; r < reps; ++r) {
    for (const Query& query : queries) {
      const QueryResult qr = executor.Execute(query);
      if (r == 0) {
        // The standard scenario scans native tables: no UNION-ALL rewrite,
        // so no per-partition overhead is charged.
        const CostModel effective =
            charge_overhead ? model
                            : CostModel{.per_partition_overhead_bytes = 0.0,
                                        .per_row_projection_bytes = 0.0};
        result.modeled_cost += qr.ModeledCost(effective);
      }
    }
  }
  result.query_seconds = timer.ElapsedSeconds() / reps;
  return result;
}

int Main() {
  TpchGeneratorConfig config;
  config.scale_factor = DoubleFromEnv("CINDERELLA_TPCH_SF", 0.02);
  config.seed = static_cast<uint64_t>(Int64FromEnv("CINDERELLA_SEED", 42));
  const int reps = static_cast<int>(Int64FromEnv("CINDERELLA_QUERY_REPS", 3));

  AttributeDictionary dictionary;
  TpchGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();
  std::printf("TPC-H SF %.3f: %zu rows total (paper uses SF 0.5)\n",
              config.scale_factor, rows.size());

  std::vector<Query> queries;
  for (const auto& footprint : TpchQueryFootprints()) {
    queries.push_back(MakeTpchQuery(footprint, dictionary));
  }

  const CostModel model;
  std::vector<ScenarioResult> results;

  {
    LabeledPartitioner standard(
        [](const Row& row) { return static_cast<size_t>(row.id() >> 40); },
        "standard-tpch");
    results.push_back(RunScenario(standard, bench::CopyRows(rows), queries,
                                  reps, model, /*charge_overhead=*/false));
  }
  for (uint64_t max_size :
       {uint64_t{500}, uint64_t{2000}, uint64_t{10000}}) {
    CinderellaConfig cc;
    cc.weight = 0.5;
    cc.max_size = max_size;
    cc.use_synopsis_index = true;
    auto partitioner = std::move(Cinderella::Create(cc)).value();
    results.push_back(RunScenario(*partitioner, bench::CopyRows(rows), queries,
                                  reps, model, /*charge_overhead=*/true));
  }

  bench::PrintHeader("Table I: query execution time on regular data (TPC-H)");
  TablePrinter table({"scenario", "partitions", "pure", "load s",
                      "22-query time s", "relative", "modeled cost MB",
                      "relative cost"});
  const double base_time = results[0].query_seconds;
  const double base_cost = results[0].modeled_cost;
  for (const ScenarioResult& r : results) {
    char rel_time[16];
    std::snprintf(rel_time, sizeof(rel_time), "%.2f%%",
                  100.0 * r.query_seconds / base_time);
    char rel_cost[16];
    std::snprintf(rel_cost, sizeof(rel_cost), "%.2f%%",
                  100.0 * r.modeled_cost / base_cost);
    table.AddRow({r.name, std::to_string(r.partitions),
                  r.pure ? "yes" : "NO",
                  TablePrinter::FormatDouble(r.load_seconds, 2),
                  TablePrinter::FormatDouble(r.query_seconds, 3), rel_time,
                  TablePrinter::FormatDouble(r.modeled_cost / 1e6, 1),
                  rel_cost});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\npaper (SF 0.5, PostgreSQL): 100%% / 108.87%% / 105.69%% / 101.27%%; "
      "all Cinderella partitions exactly fit the TPC-H schema.\n");
  return 0;
}

}  // namespace
}  // namespace cinderella

int main() { return cinderella::Main(); }
