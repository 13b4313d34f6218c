// Multi-tenancy scenario (one of the paper's motivating application
// areas): many tenants share one universal table, each with its own
// evolving attribute set on top of a few shared attributes. Shows
// Cinderella separating tenants physically without any tenant
// configuration, value predicates filtering within a tenant, and the
// durable table surviving a restart.
//
//   $ ./build/examples/multi_tenant

#include <cstdio>
#include <filesystem>
#include <memory>

#include "common/random.h"
#include "core/cinderella.h"
#include "io/durable_table.h"
#include "mvcc/partition_version.h"
#include "query/executor.h"
#include "query/predicate.h"

using namespace cinderella;

namespace {

constexpr size_t kTenants = 6;

// Tenant t's private attributes are named tenant<t>_field<k>; all tenants
// share "created" and "owner".
std::vector<UniversalTable::NamedValue> MakeRecord(size_t tenant,
                                                   Rng& rng) {
  std::vector<UniversalTable::NamedValue> values;
  values.emplace_back("created",
                      Value(static_cast<int64_t>(rng.Uniform(100000))));
  values.emplace_back("owner", Value(static_cast<int64_t>(tenant)));
  const size_t fields = 2 + rng.Uniform(4);
  for (size_t k = 0; k < fields; ++k) {
    char name[32];
    std::snprintf(name, sizeof(name), "tenant%zu_field%llu", tenant,
                  static_cast<unsigned long long>(rng.Uniform(8)));
    values.emplace_back(name,
                        Value(static_cast<int64_t>(rng.Uniform(1000))));
  }
  return values;
}

}  // namespace

int main() {
  const std::string dir = "/tmp/cinderella_multi_tenant";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  DurableTable::Options options;
  options.directory = dir;
  options.config.weight = 0.25;
  options.config.max_size = 2000;

  Rng rng(7);
  {
    auto opened = DurableTable::Open(options);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    auto& durable = *opened;
    EntityId next = 0;
    for (int round = 0; round < 900; ++round) {
      const size_t tenant = rng.Uniform(kTenants);
      if (!durable->Insert(next++, MakeRecord(tenant, rng)).ok()) return 1;
    }
    std::printf("loaded %zu records of %zu tenants into %zu partitions\n",
                durable->table().entity_count(), kTenants,
                durable->table().catalog().partition_count());
    if (!durable->Checkpoint().ok()) return 1;
    // A few post-checkpoint operations land in the journal only.
    for (int round = 0; round < 50; ++round) {
      if (!durable->Insert(next++, MakeRecord(0, rng)).ok()) return 1;
    }
  }  // "Process exits."

  // Restart: snapshot + journal reproduce table *and* partitioning.
  auto reopened = DurableTable::Open(options);
  if (!reopened.ok()) {
    std::fprintf(stderr, "%s\n", reopened.status().ToString().c_str());
    return 1;
  }
  auto& durable = *reopened;
  std::printf("recovered %zu records (%llu journal entries replayed)\n",
              durable->table().entity_count(),
              static_cast<unsigned long long>(durable->replayed_on_open()));

  // Tenant isolation: a tenant-3 query prunes other tenants' partitions.
  // Reads run on an immutable capture of the recovered table's catalog.
  UniversalTable& table = durable->table();
  const CatalogCapture capture(table.catalog());
  QueryExecutor executor(capture.view());
  const Query tenant3 = Query::FromNames(
      table.dictionary(),
      {"tenant3_field0", "tenant3_field1", "tenant3_field2",
       "tenant3_field3", "tenant3_field4", "tenant3_field5",
       "tenant3_field6", "tenant3_field7"});
  const QueryResult r = executor.Execute(tenant3);
  std::printf(
      "tenant-3 query: %llu rows, scanned %llu/%llu partitions (%llu "
      "pruned)\n",
      static_cast<unsigned long long>(r.metrics.rows_matched),
      static_cast<unsigned long long>(r.metrics.partitions_scanned),
      static_cast<unsigned long long>(r.metrics.partitions_total),
      static_cast<unsigned long long>(r.metrics.partitions_pruned));

  // Value predicate inside tenant 3: field0 > 500 on recent records.
  const auto field0 = table.dictionary().Find("tenant3_field0");
  const auto created = table.dictionary().Find("created");
  if (field0.has_value() && created.has_value()) {
    std::vector<PredicatePtr> clauses;
    clauses.push_back(Compare(*field0, CompareOp::kGt, Value(int64_t{500})));
    clauses.push_back(
        Compare(*created, CompareOp::kGe, Value(int64_t{50000})));
    const PredicatePtr predicate = And(std::move(clauses));
    const QueryResult pr = executor.ExecutePredicate(*predicate);
    std::printf("predicate %s: %llu rows, %llu partitions pruned\n",
                predicate->ToString().c_str(),
                static_cast<unsigned long long>(pr.metrics.rows_matched),
                static_cast<unsigned long long>(pr.metrics.partitions_pruned));
  }
  return 0;
}
