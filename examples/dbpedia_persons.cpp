// DBpedia-persons scenario: loads the synthetic irregular person data set
// (Section V.B of the paper), runs the selective-query workload against
// Cinderella and the unpartitioned universal table, and prints the
// resulting speedups per selectivity band — a miniature of Figure 5.
//
//   $ ./build/examples/dbpedia_persons            # 20k entities
//   $ CINDERELLA_ENTITIES=100000 ./build/examples/dbpedia_persons

#include <cstdio>
#include <memory>

#include "baseline/single_partitioner.h"
#include "common/env.h"
#include "common/timer.h"
#include "core/cinderella.h"
#include "core/partitioning_stats.h"
#include "mvcc/partition_version.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "workload/dbpedia_generator.h"
#include "workload/query_workload.h"

using namespace cinderella;

namespace {

double RunWorkload(const CatalogView& view,
                   const std::vector<GeneratedQuery>& workload, double lo,
                   double hi) {
  QueryExecutor executor(view);
  WallTimer timer;
  size_t count = 0;
  for (const GeneratedQuery& q : workload) {
    if (q.selectivity < lo || q.selectivity >= hi) continue;
    executor.Execute(q.query);
    ++count;
  }
  return count > 0 ? timer.ElapsedMillis() / count : 0.0;
}

}  // namespace

int main() {
  DbpediaConfig config;
  config.num_entities =
      static_cast<size_t>(Int64FromEnv("CINDERELLA_ENTITIES", 20000));
  AttributeDictionary dictionary;
  DbpediaGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();
  const auto workload =
      GenerateQueryWorkload(rows, config.num_attributes, QueryWorkloadConfig{});
  std::printf("%zu person entities, %zu attributes, %zu workload queries\n",
              rows.size(), config.num_attributes, workload.size());

  CinderellaConfig cc;
  cc.weight = 0.2;  // The paper's sweet spot for this data set.
  cc.max_size = 500;
  auto cinderella = std::move(Cinderella::Create(cc)).value();
  WallTimer load_timer;
  for (Row row : rows) {
    if (!cinderella->Insert(std::move(row)).ok()) return 1;
  }
  std::printf("Cinderella load: %.2fs, %llu splits\n",
              load_timer.ElapsedSeconds(),
              static_cast<unsigned long long>(cinderella->stats().splits));
  std::printf("%s\n",
              AnalyzePartitioning(cinderella->catalog()).ToString().c_str());

  SinglePartitioner universal;
  for (Row row : rows) {
    if (!universal.Insert(std::move(row)).ok()) return 1;
  }

  // Cinderella is read through a published MVCC snapshot; the baseline,
  // which no VersionedTable publishes, through a capture of its catalog.
  VersionedTable versioned(cinderella.get(), nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  const CatalogCapture universal_capture(universal.catalog());

  std::printf("avg query time per selectivity band (ms):\n");
  std::printf("%-14s %12s %12s %8s\n", "selectivity", "cinderella",
              "universal", "speedup");
  for (double lo = 0.0; lo < 0.6; lo += 0.1) {
    const double c = RunWorkload(snapshot.view(), workload, lo, lo + 0.1);
    const double u =
        RunWorkload(universal_capture.view(), workload, lo, lo + 0.1);
    if (c == 0.0 && u == 0.0) continue;
    std::printf("%4.1f - %4.1f    %12.3f %12.3f %7.1fx\n", lo, lo + 0.1, c, u,
                c > 0 ? u / c : 0.0);
  }
  return 0;
}
