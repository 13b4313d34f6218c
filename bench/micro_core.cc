// Google-benchmark microbenchmarks for the hot paths of the library:
// synopsis set algebra, the Section IV rating, insert throughput as a
// function of catalog size (with and without the synopsis index), and the
// query executor's scan rate.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "core/rating.h"
#include "mvcc/versioned_table.h"
#include "query/executor.h"
#include "synopsis/synopsis.h"
#include "workload/dbpedia_generator.h"

namespace cinderella {
namespace {

Synopsis RandomSynopsis(Rng& rng, size_t universe, size_t count) {
  Synopsis s;
  for (size_t i = 0; i < count; ++i) {
    s.Add(static_cast<AttributeId>(rng.Uniform(universe)));
  }
  return s;
}

void BM_SynopsisIntersectCount(benchmark::State& state) {
  Rng rng(1);
  const Synopsis a = RandomSynopsis(rng, state.range(0), 10);
  const Synopsis b = RandomSynopsis(rng, state.range(0), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.IntersectCount(b));
  }
}
BENCHMARK(BM_SynopsisIntersectCount)->Arg(100)->Arg(1000)->Arg(10000);

void BM_SynopsisXorCount(benchmark::State& state) {
  Rng rng(2);
  const Synopsis a = RandomSynopsis(rng, state.range(0), 10);
  const Synopsis b = RandomSynopsis(rng, state.range(0), 10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.XorCount(b));
  }
}
BENCHMARK(BM_SynopsisXorCount)->Arg(100)->Arg(10000);

void BM_Rate(benchmark::State& state) {
  Rng rng(3);
  const Synopsis entity = RandomSynopsis(rng, 100, 8);
  const Synopsis partition = RandomSynopsis(rng, 100, 30);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Rate(entity, 1.0, partition, 4000.0, 0.5));
  }
}
BENCHMARK(BM_Rate);

// Insert throughput into a pre-populated table; range(0) = entities
// preloaded, range(1) = synopsis index on/off.
void BM_CinderellaInsert(benchmark::State& state) {
  DbpediaConfig config;
  config.num_entities = static_cast<size_t>(state.range(0));
  AttributeDictionary dictionary;
  DbpediaGenerator generator(config, &dictionary);
  auto rows = generator.Generate();

  CinderellaConfig cc;
  cc.weight = 0.3;
  cc.max_size = 500;
  cc.use_synopsis_index = state.range(1) != 0;
  auto partitioner = std::move(Cinderella::Create(cc)).value();
  for (Row& row : rows) {
    benchmark::DoNotOptimize(partitioner->Insert(std::move(row)));
  }

  // Steady-state: insert/delete a fresh entity per iteration.
  Rng rng(9);
  EntityId next = 1000000;
  for (auto _ : state) {
    Row row(next++);
    for (int i = 0; i < 8; ++i) {
      row.Set(static_cast<AttributeId>(rng.Uniform(100)),
              Value(int64_t{1}));
    }
    benchmark::DoNotOptimize(partitioner->Insert(std::move(row)));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CinderellaInsert)
    ->Args({5000, 0})
    ->Args({5000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1});

void BM_QueryExecutorScan(benchmark::State& state) {
  DbpediaConfig config;
  config.num_entities = 20000;
  AttributeDictionary dictionary;
  DbpediaGenerator generator(config, &dictionary);
  auto rows = generator.Generate();
  CinderellaConfig cc;
  cc.weight = 0.5;
  cc.max_size = 5000;
  cc.use_synopsis_index = true;
  auto partitioner = std::move(Cinderella::Create(cc)).value();
  for (Row& row : rows) {
    benchmark::DoNotOptimize(partitioner->Insert(std::move(row)));
  }
  VersionedTable versioned(partitioner.get(), nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  QueryExecutor executor(snapshot.view());
  const Query query(Synopsis{2, 3});  // Medium selectivity.
  uint64_t rows_scanned = 0;
  for (auto _ : state) {
    const QueryResult result = executor.Execute(query);
    rows_scanned += result.metrics.rows_scanned;
    benchmark::DoNotOptimize(result.metrics.rows_matched);
  }
  state.SetItemsProcessed(static_cast<int64_t>(rows_scanned));
}
BENCHMARK(BM_QueryExecutorScan);

}  // namespace
}  // namespace cinderella

BENCHMARK_MAIN();
