#include "query/aggregator.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>
#include <utility>

#include "mvcc/partition_version.h"
#include "query/estimator.h"
#include "query/scan_source.h"
#include "synopsis/synopsis.h"

namespace cinderella {
namespace {

struct ValueHasher {
  size_t operator()(const Value& v) const {
    return static_cast<size_t>(ValueHash(v));
  }
};

/// The integer accumulator every strategy shares. All operations are
/// commutative and associative (exact integer arithmetic), so any merge
/// order yields the same group row — the heart of the determinism
/// contract.
struct Accum {
  uint64_t count = 0;
  uint64_t value_count = 0;
  int64_t sum = 0;
  int64_t min = std::numeric_limits<int64_t>::max();
  int64_t max = std::numeric_limits<int64_t>::min();

  void AddValue(int64_t v) {
    ++value_count;
    sum += v;
    min = std::min(min, v);
    max = std::max(max, v);
  }

  void Merge(const Accum& o) {
    count += o.count;
    value_count += o.value_count;
    sum += o.sum;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }
};

using GroupMap = std::unordered_map<Value, Accum, ValueHasher>;

/// Numeric reading of a cell for the value aggregates: int64 as-is,
/// double truncated (exact integer accumulation at any merge order beats
/// float-add order sensitivity), strings excluded.
bool NumericCell(const Value& v, int64_t* out) {
  switch (v.type()) {
    case ValueType::kInt64:
      *out = v.as_int64();
      return true;
    case ValueType::kDouble:
      *out = static_cast<int64_t>(v.as_double());
      return true;
    case ValueType::kString:
      return false;
  }
  return false;
}

/// Group key of a participating row, or nullptr (no group attribute, or
/// WHERE mismatch).
const Value* ParticipatingKey(const RowView& row, const AggregateSpec& spec) {
  const Value* key = row.Get(spec.group_by);
  if (key == nullptr) return nullptr;
  if (spec.where != nullptr && !spec.where->Matches(row)) return nullptr;
  return key;
}

void AddRowValue(const RowView& row, const AggregateSpec& spec, Accum* accum) {
  ++accum->count;
  if (spec.value == AggregateSpec::kNoValue) return;
  const Value* cell = row.Get(spec.value);
  int64_t v;
  if (cell != nullptr && NumericCell(*cell, &v)) accum->AddValue(v);
}

/// Definition-1 pruning for an aggregation: a partition is scanned iff
/// its synopsis carries the group attribute and (when the WHERE clause
/// has a conservative pruning synopsis) intersects that too.
struct PruneSpec {
  Synopsis group;
  Synopsis where;
  bool where_prunable = false;

  bool Scans(const ScanSource& source) const {
    if (!source.synopsis.Intersects(group)) return false;
    if (where_prunable && !source.synopsis.Intersects(where)) return false;
    return true;
  }
};

/// Shared per-source metrics prologue; returns false when pruned.
/// `touches` (nullable — set only when a ScanObserver is attached)
/// receives the pruned touch entry; the scanned entry is recorded by
/// CloseSource after the row loop, when the matched delta is known.
bool OpenSource(const ScanSource& source, const PruneSpec& prune,
                ScanMetrics* metrics, std::vector<PartitionTouch>* touches) {
  ++metrics->partitions_total;
  if (!prune.Scans(source)) {
    ++metrics->partitions_pruned;
    if (touches != nullptr) {
      touches->push_back({source.partition, false, 0, 0});
    }
    return false;
  }
  ++metrics->partitions_scanned;
  metrics->rows_scanned += source.entities;
  metrics->cells_read += source.cells;
  metrics->bytes_read += source.bytes;
  return true;
}

void CloseSource(const ScanSource& source, uint64_t matched_before,
                 const ScanMetrics& metrics,
                 std::vector<PartitionTouch>* touches) {
  if (touches == nullptr) return;
  touches->push_back({source.partition, true, source.entities,
                      metrics.rows_matched - matched_before});
}

void EmitSorted(GroupMap map, std::vector<GroupResult>* groups) {
  groups->reserve(groups->size() + map.size());
  for (auto& [key, a] : map) {
    groups->push_back(
        GroupResult{key, a.count, a.value_count, a.sum, a.min, a.max});
  }
  std::sort(groups->begin(), groups->end(),
            [](const GroupResult& a, const GroupResult& b) {
              return ValueLess(a.key, b.key);
            });
}

/// Strategy 1 — two-phase: each chunk builds a thread-local hash table;
/// the calling thread merges them (merge order is irrelevant: exact
/// integer accumulators) and sorts once. Memory scales with
/// chunks x groups, so it loses to radix at huge group counts and to the
/// shared table at tiny ones, but it is the robust middle ground.
void RunTwoPhase(ThreadPool* pool, size_t morsel, bool fixed_chunks,
                 const std::vector<ScanSource>& sources,
                 const AggregateSpec& spec, const PruneSpec& prune,
                 AggregationResult* result,
                 std::vector<PartitionTouch>* touches) {
  struct Out {
    ScanMetrics metrics;
    GroupMap map;
    std::vector<PartitionTouch> touches;
  };
  const bool observe = touches != nullptr;
  GroupMap merged;
  ChunkedScan<Out>(pool, morsel, fixed_chunks, sources,
                   [&](const ScanSource& source, Out* out) {
                     std::vector<PartitionTouch>* out_touches =
                         observe ? &out->touches : nullptr;
                     if (!OpenSource(source, prune, &out->metrics,
                                     out_touches)) {
                       return;
                     }
                     const uint64_t before = out->metrics.rows_matched;
                     source.ForEachRow([&](const RowView& row) {
                       const Value* key = ParticipatingKey(row, spec);
                       if (key == nullptr) return;
                       ++out->metrics.rows_matched;
                       AddRowValue(row, spec, &out->map[*key]);
                     });
                     CloseSource(source, before, out->metrics, out_touches);
                   },
                   [&](Out out) {
                     MergeMetrics(out.metrics, &result->metrics);
                     if (observe) {
                       AppendChunk(std::move(out.touches), touches);
                     }
                     if (merged.empty()) {
                       merged = std::move(out.map);
                       return;
                     }
                     for (auto& [key, a] : out.map) merged[key].Merge(a);
                   });
  EmitSorted(std::move(merged), &result->groups);
}

// 64 radix buckets from the top hash bits (ValueHash avalanches, so the
// top bits are as uniform as the low ones and independent of the
// hash-table masks below, which use the low bits).
constexpr size_t kRadixBits = 6;
constexpr size_t kRadixBuckets = size_t{1} << kRadixBits;

size_t RadixBucket(uint64_t hash) { return hash >> (64 - kRadixBits); }

/// Strategy 2 — radix: pass 1 partitions (key, value) entries by group
/// hash into per-chunk per-bucket buffers (no hash table touched, pure
/// sequential writes); pass 2 aggregates each bucket in parallel —
/// buckets are disjoint key ranges, so no two threads ever share a table.
/// Scales to huge group counts where per-thread tables blow the cache.
void RunRadix(ThreadPool* pool, size_t morsel, bool fixed_chunks,
              const std::vector<ScanSource>& sources,
              const AggregateSpec& spec, const PruneSpec& prune,
              AggregationResult* result,
              std::vector<PartitionTouch>* touches) {
  struct Entry {
    Value key;
    uint64_t hash;
    int64_t value;
    bool has_value;
  };
  struct Out {
    ScanMetrics metrics;
    std::vector<std::vector<Entry>> buckets;
    std::vector<PartitionTouch> touches;
  };
  const bool observe = touches != nullptr;
  // buckets[b] = concatenation of every chunk's bucket b, in chunk order.
  std::vector<std::vector<Entry>> buckets(kRadixBuckets);
  ChunkedScan<Out>(pool, morsel, fixed_chunks, sources,
                   [&](const ScanSource& source, Out* out) {
                     std::vector<PartitionTouch>* out_touches =
                         observe ? &out->touches : nullptr;
                     if (!OpenSource(source, prune, &out->metrics,
                                     out_touches)) {
                       return;
                     }
                     const uint64_t before = out->metrics.rows_matched;
                     if (out->buckets.empty()) {
                       out->buckets.resize(kRadixBuckets);
                     }
                     source.ForEachRow([&](const RowView& row) {
                       const Value* key = ParticipatingKey(row, spec);
                       if (key == nullptr) return;
                       ++out->metrics.rows_matched;
                       Entry entry;
                       entry.key = *key;
                       entry.hash = ValueHash(*key);
                       entry.has_value = false;
                       if (spec.value != AggregateSpec::kNoValue) {
                         const Value* cell = row.Get(spec.value);
                         if (cell != nullptr &&
                             NumericCell(*cell, &entry.value)) {
                           entry.has_value = true;
                         }
                       }
                       out->buckets[RadixBucket(entry.hash)].push_back(
                           std::move(entry));
                     });
                     CloseSource(source, before, out->metrics, out_touches);
                   },
                   [&](Out out) {
                     MergeMetrics(out.metrics, &result->metrics);
                     if (observe) {
                       AppendChunk(std::move(out.touches), touches);
                     }
                     for (size_t b = 0; b < out.buckets.size(); ++b) {
                       std::vector<Entry>& chunk_bucket = out.buckets[b];
                       if (chunk_bucket.empty()) continue;
                       if (buckets[b].empty()) {
                         buckets[b] = std::move(chunk_bucket);
                         continue;
                       }
                       buckets[b].insert(
                           buckets[b].end(),
                           std::make_move_iterator(chunk_bucket.begin()),
                           std::make_move_iterator(chunk_bucket.end()));
                     }
                   });

  // Pass 2: per-bucket aggregation, one output slot per bucket.
  std::vector<std::vector<GroupResult>> bucket_groups(kRadixBuckets);
  const auto reduce_bucket = [&](size_t b) {
    if (buckets[b].empty()) return;
    GroupMap map;
    map.reserve(buckets[b].size() / 2 + 1);
    for (Entry& entry : buckets[b]) {
      Accum& a = map[std::move(entry.key)];
      ++a.count;
      if (entry.has_value) a.AddValue(entry.value);
    }
    EmitSorted(std::move(map), &bucket_groups[b]);
  };
  if (pool == nullptr) {
    for (size_t b = 0; b < kRadixBuckets; ++b) reduce_bucket(b);
  } else {
    pool->ParallelForDynamic(kRadixBuckets, 1,
                             [&](size_t begin, size_t end, size_t) {
                               for (size_t b = begin; b < end; ++b) {
                                 reduce_bucket(b);
                               }
                             });
  }
  size_t total = 0;
  for (const std::vector<GroupResult>& g : bucket_groups) total += g.size();
  result->groups.reserve(total);
  for (std::vector<GroupResult>& g : bucket_groups) {
    result->groups.insert(result->groups.end(),
                          std::make_move_iterator(g.begin()),
                          std::make_move_iterator(g.end()));
  }
  // Buckets are hash-ordered; one final sort restores the canonical
  // ValueLess order shared with the other strategies.
  std::sort(result->groups.begin(), result->groups.end(),
            [](const GroupResult& a, const GroupResult& b) {
              return ValueLess(a.key, b.key);
            });
}

/// One slot of the shared open-addressing table. `state` transitions
/// 0 (empty) -> 1 (claimed: key being written) -> 2 (ready); readers spin
/// through the brief claimed window. Accumulators are plain atomics:
/// fetch_add for the sums, CAS loops for min/max — all exact integer ops,
/// so the table's contents are independent of interleaving.
struct SharedSlot {
  std::atomic<uint32_t> state{0};
  Value key;
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> value_count{0};
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> min{std::numeric_limits<int64_t>::max()};
  std::atomic<int64_t> max{std::numeric_limits<int64_t>::min()};
};

void AtomicMin(std::atomic<int64_t>* target, int64_t v) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (v < cur &&
         !target->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<int64_t>* target, int64_t v) {
  int64_t cur = target->load(std::memory_order_relaxed);
  while (v > cur &&
         !target->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Linear-probe insert/accumulate. Returns false when the table is full
/// (caller falls back to two-phase).
bool SharedAccumulate(SharedSlot* slots, size_t mask, const RowView& row,
                      const Value& key, const AggregateSpec& spec) {
  const uint64_t hash = ValueHash(key);
  for (size_t probe = 0; probe <= mask; ++probe) {
    SharedSlot& slot = slots[(hash + probe) & mask];
    uint32_t state = slot.state.load(std::memory_order_acquire);
    if (state == 0) {
      uint32_t expected = 0;
      if (slot.state.compare_exchange_strong(expected, 1,
                                             std::memory_order_acq_rel)) {
        slot.key = key;
        slot.state.store(2, std::memory_order_release);
        state = 2;
      } else {
        state = expected;
      }
    }
    while (state == 1) state = slot.state.load(std::memory_order_acquire);
    if (!(slot.key == key)) continue;  // Probe on.
    slot.count.fetch_add(1, std::memory_order_relaxed);
    if (spec.value != AggregateSpec::kNoValue) {
      const Value* cell = row.Get(spec.value);
      int64_t v;
      if (cell != nullptr && NumericCell(*cell, &v)) {
        slot.value_count.fetch_add(1, std::memory_order_relaxed);
        slot.sum.fetch_add(v, std::memory_order_relaxed);
        AtomicMin(&slot.min, v);
        AtomicMax(&slot.max, v);
      }
    }
    return true;
  }
  return false;
}

size_t NextPowerOfTwo(uint64_t n) {
  size_t cap = 64;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Strategy 3 — shared table: all threads accumulate into one
/// fixed-capacity open-addressing table. With few groups the hot slots
/// stay cache-resident and no per-thread tables or merge pass exist at
/// all; with many groups (or one dominant key serializing on its slot)
/// it loses, which is why the chooser guards on both cardinality and
/// top-group share. Returns false on overflow — the caller reruns the
/// query with two-phase, whose result is identical by the determinism
/// contract.
bool RunShared(ThreadPool* pool, size_t morsel, bool fixed_chunks,
               const std::vector<ScanSource>& sources,
               const AggregateSpec& spec, const PruneSpec& prune,
               uint64_t estimated_groups, size_t capacity_override,
               AggregationResult* result,
               std::vector<PartitionTouch>* touches) {
  size_t capacity = capacity_override;
  if (capacity == 0) {
    // <= 50% load factor at the estimate; the chooser only sends small
    // cardinalities here, so this stays a few pages.
    capacity = NextPowerOfTwo(2 * std::max<uint64_t>(estimated_groups, 1));
  } else {
    capacity = NextPowerOfTwo(capacity);
  }
  const size_t mask = capacity - 1;
  std::unique_ptr<SharedSlot[]> slots(new SharedSlot[capacity]);
  std::atomic<bool> overflow{false};

  struct Out {
    ScanMetrics metrics;
    std::vector<PartitionTouch> touches;
  };
  const bool observe = touches != nullptr;
  ScanMetrics metrics;
  ChunkedScan<Out>(pool, morsel, fixed_chunks, sources,
                   [&](const ScanSource& source, Out* out) {
                     std::vector<PartitionTouch>* out_touches =
                         observe ? &out->touches : nullptr;
                     if (!OpenSource(source, prune, &out->metrics,
                                     out_touches)) {
                       return;
                     }
                     const uint64_t before = out->metrics.rows_matched;
                     if (overflow.load(std::memory_order_relaxed)) {
                       CloseSource(source, before, out->metrics, out_touches);
                       return;
                     }
                     source.ForEachRow([&](const RowView& row) {
                       const Value* key = ParticipatingKey(row, spec);
                       if (key == nullptr) return;
                       ++out->metrics.rows_matched;
                       if (overflow.load(std::memory_order_relaxed)) return;
                       if (!SharedAccumulate(slots.get(), mask, row, *key,
                                             spec)) {
                         overflow.store(true, std::memory_order_relaxed);
                       }
                     });
                     CloseSource(source, before, out->metrics, out_touches);
                   },
                   [&](Out out) {
                     MergeMetrics(out.metrics, &metrics);
                     if (observe) {
                       AppendChunk(std::move(out.touches), touches);
                     }
                   });
  if (overflow.load(std::memory_order_relaxed)) return false;

  result->metrics = metrics;
  GroupMap map;
  for (size_t i = 0; i < capacity; ++i) {
    SharedSlot& slot = slots[i];
    if (slot.state.load(std::memory_order_acquire) != 2) continue;
    Accum a;
    a.count = slot.count.load(std::memory_order_relaxed);
    a.value_count = slot.value_count.load(std::memory_order_relaxed);
    a.sum = slot.sum.load(std::memory_order_relaxed);
    a.min = slot.min.load(std::memory_order_relaxed);
    a.max = slot.max.load(std::memory_order_relaxed);
    map.emplace(std::move(slot.key), a);
  }
  EmitSorted(std::move(map), &result->groups);
  return true;
}

}  // namespace

const char* AggregateStrategyName(AggregateStrategy strategy) {
  switch (strategy) {
    case AggregateStrategy::kAdaptive:
      return "adaptive";
    case AggregateStrategy::kTwoPhase:
      return "two_phase";
    case AggregateStrategy::kRadix:
      return "radix";
    case AggregateStrategy::kSharedTable:
      return "shared_table";
  }
  return "unknown";
}

Aggregator::Aggregator(const CatalogView& view, AggregatorOptions options)
    : view_(&view),
      options_(options),
      degree_(ThreadPool::ResolveDegree(options.scan_threads)),
      morsel_(ThreadPool::ResolveScanChunk(options.morsel)) {}

ThreadPool* Aggregator::pool() {
  if (degree_ <= 1) return nullptr;
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(degree_);
  return pool_.get();
}

namespace {

/// Deterministic sample for the chooser: the first `sample_rows`
/// participating rows in partition order (every run, thread count, and
/// strategy sees the same sample, so the decision itself is
/// reproducible). Refines the synopsis upper bound with the Chao1
/// estimator: D-hat = d + f1^2 / (2 * f2), where d = distinct keys in
/// the sample and f1/f2 = keys seen exactly once/twice — singletons are
/// evidence of unseen keys, doubletons calibrate how much. (f2 = 0 uses
/// the bias-corrected d + f1*(f1-1)/2.) Clamped to the carrier-count
/// upper bound; exact when the sample covers every row.
struct SampleStats {
  uint64_t estimated_groups = 0;
  double top_share = 0.0;  // Heaviest sampled group / sample size.
  bool exact = false;
};

SampleStats SampleGroups(const std::vector<ScanSource>& sources,
                         const AggregateSpec& spec, const PruneSpec& prune,
                         size_t sample_rows, uint64_t upper_bound) {
  std::unordered_map<Value, uint64_t, ValueHasher> freq;
  size_t sampled = 0;
  bool truncated = false;
  for (const ScanSource& source : sources) {
    if (sampled >= sample_rows) {
      truncated = true;
      break;
    }
    if (!prune.Scans(source)) continue;
    source.ForEachRow([&](const RowView& row) {
      if (sampled >= sample_rows) {
        truncated = true;
        return;
      }
      const Value* key = ParticipatingKey(row, spec);
      if (key == nullptr) return;
      ++sampled;
      ++freq[*key];
    });
  }

  SampleStats stats;
  if (sampled == 0) {
    stats.exact = !truncated;
    return stats;
  }
  uint64_t singletons = 0;
  uint64_t doubletons = 0;
  uint64_t top = 0;
  for (const auto& [key, n] : freq) {
    if (n == 1) ++singletons;
    if (n == 2) ++doubletons;
    top = std::max(top, n);
  }
  stats.top_share =
      static_cast<double>(top) / static_cast<double>(sampled);
  if (!truncated) {
    stats.estimated_groups = freq.size();
    stats.exact = true;
    return stats;
  }
  const double f1 = static_cast<double>(singletons);
  const double unseen =
      doubletons > 0 ? f1 * f1 / (2.0 * static_cast<double>(doubletons))
                     : f1 * (f1 - 1.0) / 2.0;
  const double extrapolated = static_cast<double>(freq.size()) + unseen;
  stats.estimated_groups =
      std::min<uint64_t>(upper_bound, static_cast<uint64_t>(extrapolated));
  return stats;
}

/// The adaptive chooser: picks a strategy from the sample's group
/// estimate and heavy-hitter share at the operator's scan degree.
AggregateStrategy ChooseStrategy(const SampleStats& stats,
                                 const AggregatorOptions& options,
                                 int degree) {
  if (degree <= 1) {
    // Serial: the shared table buys nothing (no contention to avoid),
    // but radix still wins at huge cardinality — 64 disjoint buckets
    // keep each aggregation table cache-resident where one monolithic
    // table of every group thrashes.
    return stats.estimated_groups >= options.radix_min_groups
               ? AggregateStrategy::kRadix
               : AggregateStrategy::kTwoPhase;
  }

  // Few groups with no dominant key: the shared table's hot slots stay
  // cache-resident. A dominant key (>50% of the sample) would serialize
  // every thread on one slot's atomics, so it falls through.
  if (stats.estimated_groups <= options.shared_max_groups &&
      stats.top_share <= 0.5) {
    return AggregateStrategy::kSharedTable;
  }
  // Huge group counts: per-thread tables each grow to the full group
  // count and fall out of cache; radix buckets keep the working set
  // 1/64th of that.
  if (stats.estimated_groups >= options.radix_min_groups) {
    return AggregateStrategy::kRadix;
  }
  return AggregateStrategy::kTwoPhase;
}

}  // namespace

AggregationResult Aggregator::Aggregate(const AggregateSpec& spec) {
  AggregationResult result;
  PruneSpec prune;
  prune.group = Synopsis({spec.group_by});
  prune.where_prunable =
      spec.where != nullptr && spec.where->PruningSynopsis(&prune.where);
  std::vector<ScanSource> sources;
  AppendSources(*view_, &sources);

  AggregateStrategy strategy = options_.strategy;
  if (strategy == AggregateStrategy::kAdaptive) {
    // The sample reads the query's own sources: cold rows it fetches stay
    // parked in them for the scan below.
    const SampleStats stats = SampleGroups(
        sources, spec, prune, options_.sample_rows,
        EstimateGroupCardinality(*view_, spec.group_by).groups_upper_bound());
    result.estimated_groups = stats.estimated_groups;
    strategy = ChooseStrategy(stats, options_, degree_);
  }
  result.strategy_used = strategy;
  const bool observe = observer_ != nullptr;
  std::vector<PartitionTouch> touches;
  std::vector<PartitionTouch>* touches_out = observe ? &touches : nullptr;
  switch (strategy) {
    case AggregateStrategy::kTwoPhase:
      RunTwoPhase(pool(), morsel_, options_.fixed_chunks, sources, spec,
                  prune, &result, touches_out);
      break;
    case AggregateStrategy::kRadix:
      RunRadix(pool(), morsel_, options_.fixed_chunks, sources, spec, prune,
               &result, touches_out);
      break;
    case AggregateStrategy::kSharedTable: {
      const uint64_t estimate = result.estimated_groups > 0
                                    ? result.estimated_groups
                                    : options_.shared_max_groups;
      if (!RunShared(pool(), morsel_, options_.fixed_chunks, sources, spec,
                     prune, estimate, options_.shared_table_capacity,
                     &result, touches_out)) {
        // Overflow: the estimate undershot. Rerun with the strategy that
        // cannot overflow; the determinism contract makes the results
        // interchangeable. The overflow run's partial touches are dropped
        // so the observer sees exactly one touch list per query.
        touches.clear();
        const uint64_t estimated_groups = result.estimated_groups;
        result = AggregationResult();
        result.estimated_groups = estimated_groups;
        result.shared_table_overflow = true;
        result.strategy_used = AggregateStrategy::kTwoPhase;
        RunTwoPhase(pool(), morsel_, options_.fixed_chunks, sources, spec,
                    prune, &result, touches_out);
      }
      break;
    }
    case AggregateStrategy::kAdaptive:
      break;  // Unreachable: resolved above.
  }
  if (observe) {
    Synopsis query = prune.group;
    if (prune.where_prunable) query.UnionWith(prune.where);
    observer_->OnScan(query, touches);
  }
  return result;
}

}  // namespace cinderella
