// Google-benchmark microbenchmarks for the persistence substrates: the
// slotted-page codec, the file-backed pager, the buffer-pool hit path,
// journal append throughput, snapshot save/load, and the tiered cold
// store at out-of-core scale (chains far exceeding the pool).

#include <cstdio>
#include <memory>
#include <sstream>

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "core/cinderella.h"
#include "core/snapshot.h"
#include "io/journal.h"
#include "pagestore/buffer_pool.h"
#include "pagestore/page_codec.h"
#include "pagestore/pager.h"
#include "storage/tiered_store.h"

namespace cinderella {
namespace {

Row SampleRow(EntityId id, Rng& rng) {
  Row row(id);
  for (int a = 0; a < 6; ++a) {
    row.Set(static_cast<AttributeId>(rng.Uniform(40)),
            Value(static_cast<int64_t>(rng.Uniform(100000))));
  }
  return row;
}

void BM_PageCodecAppend(benchmark::State& state) {
  PageCodec codec(8192);
  std::vector<uint8_t> page(8192);
  Rng rng(1);
  const Row row = SampleRow(1, rng);
  codec.InitPage(page.data());
  for (auto _ : state) {
    auto slot = codec.AppendRow(page.data(), row);
    if (!slot.has_value()) codec.InitPage(page.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageCodecAppend);

void BM_PageCodecReadRow(benchmark::State& state) {
  PageCodec codec(8192);
  std::vector<uint8_t> page(8192);
  codec.InitPage(page.data());
  Rng rng(2);
  uint16_t slots = 0;
  while (codec.AppendRow(page.data(), SampleRow(slots, rng)).has_value()) {
    ++slots;
  }
  uint16_t next = 0;
  for (auto _ : state) {
    auto row = codec.ReadRow(page.data(), next);
    benchmark::DoNotOptimize(row);
    next = static_cast<uint16_t>((next + 1) % slots);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageCodecReadRow);

void BM_PagerWriteRead(benchmark::State& state) {
  auto pager = Pager::Open("/tmp/bench_pager.db", 8192);
  if (!pager.ok()) {
    state.SkipWithError("cannot open pager file");
    return;
  }
  const PageId page = (*pager)->AllocatePage();
  std::vector<uint8_t> buffer(8192, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*pager)->WritePage(page, buffer.data()));
    benchmark::DoNotOptimize((*pager)->ReadPage(page, buffer.data()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 16384);
}
BENCHMARK(BM_PagerWriteRead);

void BM_BufferPoolHit(benchmark::State& state) {
  auto pager = Pager::Open("/tmp/bench_pool.db", 8192);
  if (!pager.ok()) {
    state.SkipWithError("cannot open pager file");
    return;
  }
  const PageId page = (*pager)->AllocatePage();
  const std::vector<uint8_t> zeros(8192, 0);
  if (!(*pager)->WritePage(page, zeros.data()).ok()) {
    state.SkipWithError("cannot write the page");
    return;
  }
  BufferPool pool(pager->get(), 4);
  for (auto _ : state) {
    auto handle = pool.Fetch(page);
    benchmark::DoNotOptimize(handle->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BufferPoolHit);

void BM_JournalAppend(benchmark::State& state) {
  auto writer = JournalWriter::Open("/tmp/bench_journal.log", true);
  if (!writer.ok()) {
    state.SkipWithError("cannot open journal");
    return;
  }
  Rng rng(3);
  const Row row = SampleRow(1, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize((*writer)->LogInsert(row));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JournalAppend);

void BM_SnapshotSaveLoad(benchmark::State& state) {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 500;
  auto c = std::move(Cinderella::Create(config)).value();
  AttributeDictionary dictionary;
  Rng rng(4);
  for (EntityId id = 0; id < static_cast<EntityId>(state.range(0)); ++id) {
    benchmark::DoNotOptimize(c->Insert(SampleRow(id, rng)));
  }
  for (auto _ : state) {
    std::stringstream buffer;
    benchmark::DoNotOptimize(SaveSnapshot(*c, dictionary, buffer));
    auto restored = LoadSnapshot(buffer);
    benchmark::DoNotOptimize(restored);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SnapshotSaveLoad)->Arg(1000)->Arg(10000);

// Out-of-core chain reads: state.range(0) chains of 64 rows each behind a
// 4-frame pool, so round-robin reads churn through evictions the way a
// cold scan over a spilled data set does.
void BM_TieredChainReadOutOfCore(benchmark::State& state) {
  TieredStoreOptions options;
  options.path = "/tmp/bench_tiered_chains.pages";
  options.page_size = 4096;
  options.pool_frames = 4;
  auto opened = TieredStore::Open(options);
  if (!opened.ok()) {
    state.SkipWithError("cannot open tiered store");
    return;
  }
  auto tier = std::move(opened).value();
  Rng rng(5);
  std::vector<std::shared_ptr<const ColdChain>> chains;
  EntityId next = 0;
  for (int64_t c = 0; c < state.range(0); ++c) {
    std::vector<Row> rows;
    rows.reserve(64);
    for (int i = 0; i < 64; ++i) rows.push_back(SampleRow(next++, rng));
    auto chain = tier->WriteChain(rows);
    if (!chain.ok()) {
      state.SkipWithError("chain write failed");
      return;
    }
    chains.push_back(std::move(chain).value());
  }
  size_t cursor = 0;
  uint64_t rows_read = 0;
  for (auto _ : state) {
    const auto& chain = chains[cursor];
    cursor = (cursor + 1) % chains.size();
    auto status = tier->ReadChain(*chain, [&](const Row& row) {
      benchmark::DoNotOptimize(row.id());
      ++rows_read;
    });
    benchmark::DoNotOptimize(status);
  }
  const TieredStoreStats stats = tier->stats();
  state.counters["pool_hit_rate"] = benchmark::Counter(
      stats.pool.hits + stats.pool.misses > 0
          ? static_cast<double>(stats.pool.hits) /
                static_cast<double>(stats.pool.hits + stats.pool.misses)
          : 0.0);
  state.counters["cold_pages"] =
      benchmark::Counter(static_cast<double>(stats.cold_pages));
  state.SetItemsProcessed(static_cast<int64_t>(rows_read));
}
BENCHMARK(BM_TieredChainReadOutOfCore)->Arg(8)->Arg(64);

// Full demote/promote round trip through the live engine: spill one
// partition to the cold tier, then fault it back hot.
void BM_SpillFaultRoundTrip(benchmark::State& state) {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 500;
  auto engine = std::move(Cinderella::Create(config)).value();
  Rng rng(6);
  for (EntityId id = 0; id < 512; ++id) {
    benchmark::DoNotOptimize(engine->Insert(SampleRow(id, rng)));
  }
  TieredStoreOptions options;
  options.path = "/tmp/bench_tiered_roundtrip.pages";
  options.page_size = 4096;
  options.pool_frames = 8;
  auto opened = TieredStore::Open(options);
  if (!opened.ok()) {
    state.SkipWithError("cannot open tiered store");
    return;
  }
  auto tier = std::move(opened).value();
  engine->set_cold_tier(tier.get());
  PartitionId victim = 0;
  size_t victim_rows = 0;
  engine->catalog().ForEachPartition([&](const Partition& partition) {
    const size_t rows = partition.Size(SizeMeasure::kEntityCount);
    if (rows > victim_rows) {
      victim_rows = rows;
      victim = partition.id();
    }
  });
  for (auto _ : state) {
    if (!engine->SpillPartition(victim).ok()) {
      state.SkipWithError("spill failed");
      return;
    }
    Partition* partition = engine->catalog().GetPartition(victim);
    if (partition == nullptr || !engine->EnsureHot(*partition).ok()) {
      state.SkipWithError("fault-in failed");
      return;
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(victim_rows));
}
BENCHMARK(BM_SpillFaultRoundTrip);

}  // namespace
}  // namespace cinderella

BENCHMARK_MAIN();
