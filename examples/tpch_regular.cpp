// Regularly-structured data scenario (Section V.C): loading TPC-H rows
// into a Cinderella-partitioned universal table. On perfectly regular data
// Cinderella should recover the TPC-H table schema exactly — every
// partition holds rows of a single table — and add only union overhead.
//
//   $ ./build/examples/tpch_regular            # SF 0.01
//   $ CINDERELLA_TPCH_SF=0.1 ./build/examples/tpch_regular

#include <cstdio>
#include <map>
#include <memory>
#include <set>

#include "common/env.h"
#include "core/cinderella.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "workload/tpch/tpch_generator.h"
#include "workload/tpch/tpch_queries.h"

using namespace cinderella;

int main() {
  TpchGeneratorConfig config;
  config.scale_factor = DoubleFromEnv("CINDERELLA_TPCH_SF", 0.01);
  AttributeDictionary dictionary;
  TpchGenerator generator(config, &dictionary);
  const auto rows = generator.Generate();
  std::printf("TPC-H SF %.3f: %zu rows\n", config.scale_factor, rows.size());

  CinderellaConfig cc;
  cc.weight = 0.5;
  cc.max_size = 2000;
  cc.use_synopsis_index = true;
  auto cinderella = std::move(Cinderella::Create(cc)).value();
  for (Row row : rows) {
    if (!cinderella->Insert(std::move(row)).ok()) return 1;
  }

  // Verify schema recovery: each partition is pure (one table) and each
  // table's rows land in ceil(rows / B) partitions.
  std::map<TpchTable, size_t> partitions_per_table;
  bool pure = true;
  cinderella->catalog().ForEachPartition([&](const Partition& p) {
    std::set<TpchTable> tables;
    for (const Row& row : p.segment().rows()) {
      tables.insert(TpchTableOfEntity(row.id()));
    }
    if (tables.size() != 1) {
      pure = false;
      return;
    }
    ++partitions_per_table[*tables.begin()];
  });
  std::printf("partitions: %zu, schema recovered exactly: %s\n",
              cinderella->catalog().partition_count(), pure ? "yes" : "NO");
  for (const auto& [table, count] : partitions_per_table) {
    std::printf("  %-9s %6llu rows in %zu partitions\n", TpchTableName(table),
                static_cast<unsigned long long>(
                    TpchRowCount(table, config.scale_factor)),
                count);
  }

  // Run the 22 query footprints on a pinned snapshot and show partition
  // pruning per query.
  VersionedTable versioned(cinderella.get(), nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  QueryExecutor executor(snapshot.view());
  std::printf("\n22 TPC-H query footprints:\n");
  for (const auto& footprint : TpchQueryFootprints()) {
    const Query query = MakeTpchQuery(footprint, dictionary);
    const QueryResult r = executor.Execute(query);
    std::printf("  Q%-2d scans %3llu/%3llu partitions, %8llu rows\n",
                footprint.number,
                static_cast<unsigned long long>(r.metrics.partitions_scanned),
                static_cast<unsigned long long>(r.metrics.partitions_total),
                static_cast<unsigned long long>(r.metrics.rows_scanned));
  }
  return 0;
}
