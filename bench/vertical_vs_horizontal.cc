// Horizontal (Cinderella) vs the related-work vertical "hidden schema"
// partitioning ([18]) on the DBpedia data set.
//
// The two techniques optimize different dimensions: vertical column
// groups avoid reading unreferenced *attributes* (at a join cost per
// extra group), horizontal partitions avoid reading irrelevant *entities*
// (at a union cost per extra partition). The paper argues the vertical
// technique "is not directly applicable to our problem" (offline; needs a
// good k) — this bench puts numbers on the cost profiles.
//
// Metric: cells read per query (storage-format neutral) plus each
// scheme's reconstruction overhead (joins resp. united partitions).
//
// Env knobs: CINDERELLA_ENTITIES (default 20000), CINDERELLA_SEED,
// CINDERELLA_VERTICAL_K (default 12).

#include <cstdio>
#include <memory>

#include "baseline/vertical_partitioner.h"
#include "bench/bench_common.h"
#include "common/env.h"
#include "common/logging.h"
#include "common/table_printer.h"
#include "core/cinderella.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "workload/dbpedia_generator.h"
#include "workload/query_workload.h"

namespace cinderella {
namespace {

int Main() {
  DbpediaConfig config;
  config.num_entities =
      static_cast<size_t>(Int64FromEnv("CINDERELLA_ENTITIES", 20000));
  config.seed = static_cast<uint64_t>(Int64FromEnv("CINDERELLA_SEED", 42));
  const size_t k =
      static_cast<size_t>(Int64FromEnv("CINDERELLA_VERTICAL_K", 12));

  AttributeDictionary dictionary;
  DbpediaGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();
  const auto workload =
      GenerateQueryWorkload(rows, config.num_attributes, QueryWorkloadConfig{});

  uint64_t total_cells = 0;
  for (const Row& row : rows) total_cells += row.attribute_count();
  std::printf("data set: %zu entities, %llu cells; vertical k=%zu\n",
              rows.size(), static_cast<unsigned long long>(total_cells), k);

  CinderellaConfig cc;
  cc.weight = 0.2;
  cc.max_size = 500;
  cc.use_synopsis_index = true;
  auto horizontal = std::move(Cinderella::Create(cc)).value();
  bench::LoadRows(*horizontal, bench::CopyRows(rows));

  VerticalPartitioner vertical(VerticalConfig{.k = k});
  CINDERELLA_CHECK(vertical.Build(rows, config.num_attributes).ok());
  std::printf("horizontal: %zu partitions; vertical: %zu column groups\n",
              horizontal->catalog().partition_count(),
              vertical.groups().size());

  const CatalogCapture capture(horizontal->catalog());
  QueryExecutor executor(capture.view());
  bench::PrintHeader(
      "Cells read per query: horizontal pruning vs vertical column groups");
  TablePrinter table({"selectivity", "queries", "universal cells",
                      "horizontal cells", "h-partitions united",
                      "vertical cells", "v-joins"});
  for (double lo = 0.0; lo < 1.0; lo += 0.2) {
    const double hi = lo + 0.2;
    uint64_t horizontal_cells = 0;
    uint64_t united = 0;
    uint64_t vertical_cells = 0;
    uint64_t joins = 0;
    size_t count = 0;
    for (const GeneratedQuery& q : workload) {
      if (q.selectivity < lo || q.selectivity >= hi) continue;
      const QueryResult h = executor.Execute(q.query);
      horizontal_cells += h.metrics.cells_read;
      united += h.metrics.partitions_scanned;
      const auto v = vertical.CostOf(q.query.attributes());
      vertical_cells += v.cells_read;
      joins += v.joins_needed;
      ++count;
    }
    if (count == 0) continue;
    char label[32];
    std::snprintf(label, sizeof(label), "%.1f-%.1f", lo, hi);
    table.AddRow({label, std::to_string(count),
                  TablePrinter::FormatDouble(
                      static_cast<double>(total_cells), 0),
                  TablePrinter::FormatDouble(
                      static_cast<double>(horizontal_cells) / count, 0),
                  TablePrinter::FormatDouble(
                      static_cast<double>(united) / count, 1),
                  TablePrinter::FormatDouble(
                      static_cast<double>(vertical_cells) / count, 0),
                  TablePrinter::FormatDouble(
                      static_cast<double>(joins) / count, 1)});
  }
  std::fputs(table.ToString().c_str(), stdout);
  std::printf(
      "\nvertical groups avoid unreferenced attributes but read *all*\n"
      "entities' cells of touched groups and pay joins; horizontal\n"
      "partitions skip irrelevant entities. On long-tail queries the two\n"
      "are complementary — and only the horizontal scheme is maintainable\n"
      "online (the paper's argument against [18]).\n");
  return 0;
}

}  // namespace
}  // namespace cinderella

int main() { return cinderella::Main(); }
