// Quickstart: create a Cinderella-partitioned universal table, insert a
// few irregular entities, run a pruned query, and inspect the partitioning.
//
//   $ ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "core/cinderella.h"
#include "core/partitioning_stats.h"
#include "core/universal_table.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "query/query.h"

using namespace cinderella;

int main() {
  // 1. Configure the partitioner: weight balances homogeneity vs
  //    heterogeneity evidence; max_size caps partitions at 1000 entities.
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 1000;
  auto cinderella = Cinderella::Create(config);
  if (!cinderella.ok()) {
    std::fprintf(stderr, "config error: %s\n",
                 cinderella.status().ToString().c_str());
    return 1;
  }

  // 2. Wrap it in a universal table; attribute names are interned lazily.
  Cinderella* engine = cinderella->get();
  UniversalTable table(std::move(cinderella).value());

  // The electronics catalog from Figure 1 of the paper.
  table.Insert(1, {{"name", Value("Canon PowerShot S120")},
                   {"resolution", Value(12.1)},
                   {"aperture", Value(2.0)},
                   {"screen", Value(3.0)},
                   {"weight", Value(int64_t{198})}});
  table.Insert(2, {{"name", Value("Sony SLT-A99")},
                   {"resolution", Value(24.0)},
                   {"screen", Value(3.0)},
                   {"weight", Value(int64_t{733})}});
  table.Insert(3, {{"name", Value("Samsung Galaxy S4")},
                   {"resolution", Value(13.0)},
                   {"screen", Value(4.3)},
                   {"storage", Value("32GB")},
                   {"weight", Value(int64_t{133})}});
  table.Insert(4, {{"name", Value("WD4000FYYZ")},
                   {"storage", Value("4TB")},
                   {"rotation", Value(int64_t{7200})},
                   {"form factor", Value("3.5\"")}});
  table.Insert(5, {{"name", Value("LG 60LA7408")},
                   {"resolution", Value("Full HD")},
                   {"screen", Value(int64_t{40})},
                   {"tuner", Value("DVB-T/C/S")},
                   {"weight", Value(int64_t{9800})}});

  // 3. Query: all entities with an aperture or a rotation speed
  //    (SELECT aperture, rotation FROM t WHERE aperture IS NOT NULL OR
  //     rotation IS NOT NULL). Partitions without those attributes are
  //    pruned via their synopses before any data is touched. Queries run
  //    on a pinned MVCC snapshot that a VersionedTable publishes.
  const Query query =
      Query::FromNames(table.dictionary(), {"aperture", "rotation"});
  {
    VersionedTable versioned(engine, nullptr);
    const VersionedTable::Snapshot snapshot = versioned.snapshot();
    QueryExecutor executor(snapshot.view());
    const QueryResult result = executor.Execute(query);
    std::printf(
        "query {aperture, rotation}: %llu of %zu entities matched; "
        "%llu/%llu partitions scanned (%llu pruned)\n",
        static_cast<unsigned long long>(result.metrics.rows_matched),
        table.entity_count(),
        static_cast<unsigned long long>(result.metrics.partitions_scanned),
        static_cast<unsigned long long>(result.metrics.partitions_total),
        static_cast<unsigned long long>(result.metrics.partitions_pruned));
  }

  // 4. Modifications keep the partitioning adapted online.
  table.Update(3, {{"name", Value("Samsung Galaxy S4")},
                   {"storage", Value("64GB")},
                   {"rotation", Value(int64_t{5400})}});  // Becomes disk-like.
  table.Delete(2);

  // 5. Inspect what Cinderella built.
  std::printf("\n%s\n",
              AnalyzePartitioning(table.catalog()).ToString().c_str());
  table.catalog().ForEachPartition([&](const Partition& p) {
    std::printf("partition %u: %zu entities, attributes ", p.id(),
                p.entity_count());
    for (AttributeId a : p.attribute_synopsis().ToIds()) {
      std::printf("%s ", table.dictionary().Name(a).value().c_str());
    }
    std::printf("\n");
  });
  return 0;
}
