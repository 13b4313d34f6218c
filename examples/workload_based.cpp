// Workload-based partitioning (Section III): when a fixed query set W is
// known, entity synopses can list the *queries an entity is relevant to*
// instead of its attributes. Entities answering the same queries are then
// co-located even when their raw attribute sets differ — something the
// entity-based mode cannot see.
//
//   $ ./build/examples/workload_based

#include <cstdio>
#include <memory>
#include <vector>

#include "core/cinderella.h"
#include "core/efficiency.h"
#include "core/universal_table.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"

using namespace cinderella;

namespace {

// Entities come in four micro-schemas; the workload only distinguishes
// two groups: "media" queries (attrs 0 or 1) and "sensor" queries
// (attrs 10 or 11).
Row MakeEntity(EntityId id) {
  Row row(id);
  switch (id % 4) {
    case 0:  // Media, variant A.
      row.Set(0, Value(int64_t{1}));
      row.Set(5, Value(int64_t{1}));
      break;
    case 1:  // Media, variant B — no attribute shared with variant A!
      row.Set(1, Value(int64_t{1}));
      row.Set(6, Value(int64_t{1}));
      break;
    case 2:  // Sensor, variant A.
      row.Set(10, Value(int64_t{1}));
      row.Set(15, Value(int64_t{1}));
      break;
    default:  // Sensor, variant B.
      row.Set(11, Value(int64_t{1}));
      row.Set(16, Value(int64_t{1}));
      break;
  }
  return row;
}

size_t PartitionsScanned(Cinderella* partitioner, const Query& query) {
  VersionedTable versioned(partitioner, nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  QueryExecutor executor(snapshot.view());
  return executor.Execute(query).metrics.partitions_scanned;
}

}  // namespace

int main() {
  // The known workload: two query classes.
  const std::vector<Synopsis> workload{Synopsis{0, 1},    // Media query.
                                       Synopsis{10, 11}};  // Sensor query.

  // Entity-based Cinderella sees four schema families.
  CinderellaConfig entity_config;
  entity_config.weight = 0.3;
  entity_config.max_size = 1000;
  auto entity_based = std::move(Cinderella::Create(entity_config)).value();

  // Workload-based Cinderella sees only two relevance classes.
  CinderellaConfig workload_config = entity_config;
  workload_config.mode = SynopsisMode::kWorkloadBased;
  auto workload_based =
      std::move(Cinderella::Create(workload_config, workload)).value();

  for (EntityId id = 0; id < 1600; ++id) {
    if (!entity_based->Insert(MakeEntity(id)).ok()) return 1;
    if (!workload_based->Insert(MakeEntity(id)).ok()) return 1;
  }

  std::printf("entity-based:   %zu partitions\n",
              entity_based->catalog().partition_count());
  std::printf("workload-based: %zu partitions\n",
              workload_based->catalog().partition_count());

  const Query media(Synopsis{0, 1});
  const Query sensor(Synopsis{10, 11});
  std::printf("\npartitions scanned by the media query:  entity-based %zu, "
              "workload-based %zu\n",
              PartitionsScanned(entity_based.get(), media),
              PartitionsScanned(workload_based.get(), media));
  std::printf("partitions scanned by the sensor query: entity-based %zu, "
              "workload-based %zu\n",
              PartitionsScanned(entity_based.get(), sensor),
              PartitionsScanned(workload_based.get(), sensor));

  for (const auto& [label, partitioner] :
       std::vector<std::pair<const char*, Cinderella*>>{
           {"entity-based", entity_based.get()},
           {"workload-based", workload_based.get()}}) {
    const EfficiencyBreakdown eff = ComputeEfficiency(
        partitioner->catalog(), workload, SizeMeasure::kEntityCount);
    std::printf("Definition-1 efficiency (%s): %.3f\n", label,
                eff.efficiency);
  }
  return 0;
}
