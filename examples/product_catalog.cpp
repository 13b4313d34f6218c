// Product-catalog scenario (the paper's motivating example): an evolving
// electronics catalog where new product categories appear over time with
// new attribute combinations. Shows how Cinderella adapts the partitioning
// online as the catalog evolves, and compares query efficiency against the
// unpartitioned universal table.
//
//   $ ./build/examples/product_catalog

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/single_partitioner.h"
#include "common/random.h"
#include "core/cinderella.h"
#include "core/efficiency.h"
#include "core/universal_table.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"

using namespace cinderella;

namespace {

struct Category {
  const char* name;
  std::vector<const char*> attributes;
};

// Categories appear in waves: cameras and TVs first, then phones, then
// disks and GPS devices — the "quickly evolving variety" of the paper.
const Category kCategories[] = {
    {"camera", {"resolution", "aperture", "screen", "storage", "weight"}},
    {"tv", {"resolution", "screen", "tuner", "weight"}},
    {"phone", {"resolution", "screen", "storage", "weight", "network"}},
    {"disk", {"storage", "rotation", "form factor", "cache"}},
    {"gps", {"screen", "weight", "battery", "maps"}},
};

void Load(UniversalTable& table, Rng& rng, size_t count, size_t wave) {
  static EntityId next_id = 0;
  for (size_t i = 0; i < count; ++i) {
    // Within a wave, earlier categories keep arriving too.
    const size_t category = rng.Uniform(wave + 1);
    const Category& c = kCategories[category];
    std::vector<UniversalTable::NamedValue> values;
    values.emplace_back("name", Value(std::string(c.name) + "-" +
                                      std::to_string(next_id)));
    for (const char* attribute : c.attributes) {
      // Products instantiate most but not all of their category's attrs.
      if (rng.Bernoulli(0.85)) {
        values.emplace_back(attribute,
                            Value(static_cast<int64_t>(rng.Uniform(1000))));
      }
    }
    if (!table.Insert(next_id++, values).ok()) std::abort();
  }
}

void Report(const UniversalTable& table, Cinderella* engine,
            const char* label) {
  // The workload: one selective query per late category plus a broad one,
  // run on a pinned snapshot of the table.
  VersionedTable versioned(engine, nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  QueryExecutor executor(snapshot.view());
  std::printf("\n-- %s: %zu entities, %zu partitions --\n", label,
              table.entity_count(), table.catalog().partition_count());
  for (const auto& names :
       std::vector<std::vector<std::string>>{{"rotation"},
                                             {"battery", "maps"},
                                             {"tuner"},
                                             {"weight"}}) {
    const Query query = Query::FromNames(table.dictionary(), names);
    const QueryResult r = executor.Execute(query);
    std::string label_names;
    for (const auto& n : names) label_names += n + " ";
    std::printf(
        "  query {%s}: selectivity %.3f, scanned %llu/%llu partitions, "
        "rows read %llu (matched %llu)\n",
        label_names.c_str(), r.selectivity,
        static_cast<unsigned long long>(r.metrics.partitions_scanned),
        static_cast<unsigned long long>(r.metrics.partitions_total),
        static_cast<unsigned long long>(r.metrics.rows_scanned),
        static_cast<unsigned long long>(r.metrics.rows_matched));
  }
}

}  // namespace

int main() {
  CinderellaConfig config;
  config.weight = 0.2;
  config.max_size = 2000;
  std::unique_ptr<Cinderella> cinderella =
      std::move(Cinderella::Create(config)).value();
  Cinderella* engine = cinderella.get();
  UniversalTable table(std::move(cinderella));

  Rng rng(2014);
  // Wave 1: only cameras and TVs exist.
  Load(table, rng, 4000, 1);
  Report(table, engine, "after wave 1 (cameras, TVs)");

  // Wave 2: phones appear with a new attribute (network).
  Load(table, rng, 4000, 2);
  Report(table, engine, "after wave 2 (+phones)");

  // Wave 3: disks and GPS devices appear.
  Load(table, rng, 4000, 4);
  Report(table, engine, "after wave 3 (+disks, GPS)");

  // Compare end-state efficiency against the unpartitioned table.
  std::vector<Synopsis> workload;
  for (const auto& names : std::vector<std::vector<std::string>>{
           {"rotation"}, {"battery", "maps"}, {"tuner"}, {"aperture"}}) {
    workload.push_back(
        Query::FromNames(table.dictionary(), names).attributes());
  }
  const double partitioned =
      ComputeEfficiency(table.catalog(), workload, SizeMeasure::kEntityCount)
          .efficiency;
  std::printf("\nDefinition-1 efficiency for the selective workload: %.3f "
              "(unpartitioned universal table would be the workload's match "
              "fraction)\n",
              partitioned);
  return 0;
}
