#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <stdexcept>

#include "storage/value.h"
#include "workload/dbpedia_generator.h"

namespace perfbench {
namespace {

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

cinderella::CinderellaConfig PinnedConfig(double weight, uint64_t max_size) {
  cinderella::CinderellaConfig config;
  config.weight = weight;
  config.max_size = max_size;
  config.measure = cinderella::SizeMeasure::kEntityCount;
  config.mode = cinderella::SynopsisMode::kEntityBased;
  config.normalize_rating = true;
  config.starter_policy = cinderella::StarterPolicy::kMaxDiffHeuristic;
  config.use_synopsis_index = false;
  config.use_synopsis_tree = true;
  config.tree_fanout = 16;
  config.starter_seed = 42;
  config.scan_threads = 1;
  config.insert_shards = kInsertShards;
  config.scan_chunk = 4;
  config.dissolve_threshold = 0.0;
  return config;
}

std::vector<cinderella::Row> GenerateDbpedia(
    uint64_t seed, size_t base, size_t pool,
    cinderella::AttributeDictionary* dictionary) {
  cinderella::DbpediaConfig config;
  config.num_entities = base + pool;
  config.num_attributes = 100;
  config.num_types = 15;
  config.type_zipf_theta = 0.6;
  config.seed = kDbpediaSeed;
  cinderella::DbpediaGenerator generator(config, dictionary);
  std::vector<cinderella::Row> rows = generator.Generate();
  std::mt19937_64 rng(seed);
  std::shuffle(rows.begin() + static_cast<std::ptrdiff_t>(base), rows.end(),
               rng);
  const cinderella::AttributeId nationality =
      *dictionary->Find("nationality");
  for (size_t i = 0; i < rows.size(); ++i) {
    cinderella::Row& row = rows[i];
    row.set_id(static_cast<cinderella::EntityId>(i));
    if (const cinderella::Value* v = row.Get(nationality)) {
      row.Set(nationality, cinderella::Value(v->as_int64() % 40));
    }
  }
  return rows;
}

uint64_t RowHash(const cinderella::Row& row) {
  uint64_t h = Mix(row.id());
  for (const cinderella::Row::Cell& cell : row.cells()) {
    h = Mix(h ^ (static_cast<uint64_t>(cell.attribute) << 1));
    h = Mix(h ^ cinderella::ValueHash(cell.value));
  }
  return h;
}

void Require(const cinderella::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.ToString());
  }
}

void TraceSplit::Add(size_t key, bool traced_op, double ms) {
  (traced_op ? traced : plain).push_back(ms);
  auto it = pending_.find(key);
  if (it == pending_.end() || it->second.traced == traced_op) {
    pending_[key] = {traced_op, ms};
    return;
  }
  const double traced_ms = traced_op ? ms : it->second.ms;
  const double plain_ms = traced_op ? it->second.ms : ms;
  if (plain_ms > 0.0) ratios.push_back(traced_ms / plain_ms);
  pending_.erase(it);
}

RunResult RunWorkload(const Options& options, const Workload& workload) {
  RunResult result;
  const PassResult pass = workload.pass(
      options, options.trace, options.trace ? 1 : kSetupRepeats, result);
  PrintDistribution(workload.read_label, pass.reads);
  PrintDistribution(workload.write_label, pass.writes);
  const double peak = PeakRssMb();
  std::printf("memory: peak %.1f MB; %.1f MB (%.0f%%) resident before the "
              "engine was created (benchmark inputs and oracle, runtime), so "
              "the engine accounts for at most %.1f MB\n",
              peak, pass.client_rss_mb, 100.0 * Ratio(pass.client_rss_mb, peak),
              peak - pass.client_rss_mb);
  if (!options.trace) {
    result.Set("setup_s", pass.setup_s);
    result.Set("peak_rss_mb", peak);
    result.Set("efficiency", pass.efficiency);
    result.Set("write_rows_per_s", pass.write_rows_per_s);
    result.Set("write_p50_ms", pass.writes.p50);
    result.Set("write_tail_ms", pass.writes.tail);
    result.Set("reads_per_s", pass.reads_per_s);
    result.Set("read_p50_ms", pass.reads.p50);
    result.Set("read_tail_ms", pass.reads.tail);
    return result;
  }
  const TraceSplit& reads = pass.read_split;
  const TraceSplit& writes = pass.write_split;
  const double read_ratio = Median(reads.ratios);
  const double write_ratio = Median(writes.ratios);
  std::printf("tracing overhead (median ratio over pairs of one operation "
              "traced and untraced in adjacent rounds): read x%.4f (%zu "
              "pairs; p50 %.4f traced vs %.4f ms untraced), write x%.4f (%zu "
              "pairs; p50 %.4f vs %.4f ms)\n",
              read_ratio, reads.ratios.size(), Median(reads.traced),
              Median(reads.plain), write_ratio, writes.ratios.size(),
              Median(writes.traced), Median(writes.plain));
  for (const auto& [name, value] : pass.layers) result.Set(name, value);
  result.Set("trace.overhead_ratio",
             workload.overhead_on_writes ? write_ratio : read_ratio);
  return result;
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return Mix(seed * 0x100000001b3ULL + stream);
}

}  // namespace perfbench
