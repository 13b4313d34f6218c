// dbpedia_serve: reads from MVCC snapshots with a small, steady stream of
// writes.
//
// Why it exists: it is the read workload — synopsis pruning, serial scans,
// GROUP BY, SELECT parsing and MVCC publication do the work, over a table
// that stays hot (no journal, no cold tier, no network). Rating per write
// is small, so a change that only affects ingest must leave its read
// metrics unchanged.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <optional>
#include <random>
#include <stdexcept>
#include <unordered_map>

#include "core/cinderella.h"
#include "core/efficiency.h"
#include "ingest/batch_inserter.h"
#include "mvcc/versioned_table.h"
#include "query/aggregator.h"
#include "query/executor.h"
#include "query/parser.h"
#include "workload/query_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cinderella::AggregateSpec;
using cinderella::AttributeDictionary;
using cinderella::Cinderella;
using cinderella::EntityId;
using cinderella::Mutation;
using cinderella::Row;
using cinderella::SelectStatement;
using cinderella::Status;
using cinderella::Synopsis;
using cinderella::VersionedTable;

constexpr size_t kBaseRows = 100000;
/// Read cycles per second of --seconds (reference host calibration).
constexpr double kCyclesPerSecond = 1.6;
/// One write batch after every kReadsPerWrite reads: 57 writes at 10 s,
/// so the write tail, the 11th slowest, sits at p82.5. The host slows for a
/// second or more at a time, and the tail follows how many writes fall in
/// such a phase: with 32-op batches after every 4 reads (p95.6) it spread
/// 0.27 over ten seeds, with 64-op batches after every 8 (p91) 0.28 and
/// 0.21.
constexpr size_t kReadsPerWrite = 16;
constexpr size_t kWriteOps = 128;
constexpr int kInsertPct = 70;
constexpr int kUpdatePct = 20;

/// Text SELECTs with value predicates (values are uniform in [0, 1e5);
/// nationality is folded to 40 codes).
const char* const kSelects[] = {
    "SELECT name, birthDate WHERE birthDate < 20000",
    "SELECT occupation WHERE occupation >= 50000 AND birthPlace IS NOT NULL",
    "SELECT * WHERE nationality = 7",
    "SELECT name WHERE deathDate > 90000 OR team < 1000",
};
/// GROUP BY on a low-cardinality key (40 codes) and a high-cardinality
/// one (uniform over 1e5 values), both with the adaptive strategy.
const char* const kGroupBys[] = {
    "SELECT nationality, COUNT(*), SUM(birthDate) GROUP BY nationality",
    "SELECT birthPlace, COUNT(*), SUM(deathDate) GROUP BY birthPlace",
};

enum class ReadKind { kQuery, kSelect, kGroupBy };
struct ReadSpec {
  ReadKind kind;
  size_t index;
};

/// What the oracle keeps of one live row: which reads it matches and its
/// GROUP BY keys and summed values, not the row itself.
struct RowFacts {
  std::array<uint64_t, 2> queries{};  // Bit q: matches V.B query q.
  uint8_t selects = 0;                // Bit s: matches kSelects[s].
  uint8_t has_key = 0;                // Bit g: has kGroupBys[g]'s key.
  std::array<int64_t, 2> key{};
  std::array<int64_t, 2> value{};     // 0 without the summed attribute.
};
constexpr size_t kMaxQueries = 128;
static_assert(std::size(kSelects) <= 8 && std::size(kGroupBys) <= 2);

/// The expected answer of every read over the benchmark's own record of
/// the current rows, kept current through the run's writes.
struct Oracle {
  std::unordered_map<EntityId, RowFacts> rows;
  std::vector<Synopsis> queries;
  std::vector<SelectStatement> selects;  // Parsed once, for the predicate.
  std::vector<SelectStatement> group_bys;
  std::vector<int64_t> query_counts;
  std::vector<int64_t> select_counts;
  struct Group {
    int64_t count = 0;
    int64_t sum = 0;
  };
  std::vector<std::unordered_map<int64_t, Group>> groups;

  RowFacts Facts(const Row& row) const {
    RowFacts facts;
    const Synopsis attributes = row.AttributeSynopsis();
    for (size_t q = 0; q < queries.size(); ++q) {
      if (attributes.Intersects(queries[q])) {
        facts.queries[q / 64] |= uint64_t{1} << (q % 64);
      }
    }
    for (size_t s = 0; s < selects.size(); ++s) {
      const auto* where = selects[s].where.get();
      if (where == nullptr || where->Matches(row)) facts.selects |= 1u << s;
    }
    for (size_t g = 0; g < group_bys.size(); ++g) {
      const cinderella::Value* key = row.Get(group_bys[g].group_by);
      if (key == nullptr) continue;
      facts.has_key |= 1u << g;
      facts.key[g] = key->as_int64();
      if (const cinderella::Value* v =
              row.Get(group_bys[g].aggregates.back().attribute)) {
        facts.value[g] = v->as_int64();
      }
    }
    return facts;
  }
  void Account(const RowFacts& facts, int sign) {
    for (size_t q = 0; q < queries.size(); ++q) {
      if ((facts.queries[q / 64] >> (q % 64)) & 1) query_counts[q] += sign;
    }
    for (size_t s = 0; s < selects.size(); ++s) {
      if ((facts.selects >> s) & 1) select_counts[s] += sign;
    }
    for (size_t g = 0; g < group_bys.size(); ++g) {
      if (((facts.has_key >> g) & 1) == 0) continue;
      Group& group = groups[g][facts.key[g]];
      group.count += sign;
      group.sum += sign * facts.value[g];
    }
  }
  void Insert(const Row& row) {
    const RowFacts facts = Facts(row);
    Account(facts, +1);
    rows[row.id()] = facts;
  }
  void Erase(EntityId id) {
    auto it = rows.find(id);
    Account(it->second, -1);
    rows.erase(it);
  }
};

struct State {
  AttributeDictionary dictionary;
  std::unique_ptr<Cinderella> engine;
  std::unique_ptr<cinderella::BatchInserter> pipeline;
  std::unique_ptr<VersionedTable> table;
  Oracle oracle;
  std::vector<cinderella::Query> queries;
  std::vector<ReadSpec> cycle;
  std::vector<Row> spare;  // Payloads for the run's inserts and updates.
  size_t next_spare = 0;
  EntityId next_id = kBaseRows;
  std::vector<EntityId> live;
  std::unordered_map<EntityId, size_t> live_at;
  std::mt19937_64 rng;
  size_t reads_since_write = 0;
  size_t writes = 0;
};

cinderella::AggregatorOptions PinnedAggregatorOptions(int threads) {
  cinderella::AggregatorOptions options;
  options.scan_threads = threads;
  options.morsel = 4;
  options.strategy = cinderella::AggregateStrategy::kAdaptive;
  options.fixed_chunks = false;
  options.sample_rows = 4096;
  options.shared_max_groups = 4096;
  options.radix_min_groups = 16384;
  options.shared_table_capacity = 0;
  return options;
}

size_t CycleCount(const Options& options) {
  return std::max<size_t>(
      1, static_cast<size_t>(options.seconds * kCyclesPerSecond + 0.5));
}

std::unique_ptr<State> Setup(const Options& options, Tracer& tracer,
                             double* client_rss_mb) {
  auto state = std::make_unique<State>();
  std::vector<Row> rows;
  // The timed cycles and the warm-up cycle; 70 reads bound one cycle.
  const size_t reads = (CycleCount(options) + 1) * 70;
  const size_t spare = (reads / kReadsPerWrite + 1) * kWriteOps;
  {
    ScopedSpan span(tracer, "workload.generate");
    rows = GenerateDbpedia(SubSeed(options.seed, 1), kBaseRows, spare,
                           &state->dictionary);
    state->spare.assign(std::make_move_iterator(rows.begin() + kBaseRows),
                        std::make_move_iterator(rows.end()));
    rows.resize(kBaseRows);
    cinderella::QueryWorkloadConfig qconfig;
    for (const auto& q :
         cinderella::GenerateQueryWorkload(rows, 100, qconfig)) {
      state->queries.push_back(q.query);
    }
  }
  if (state->queries.size() > kMaxQueries) {
    throw std::runtime_error("more V.B queries than the oracle tracks");
  }
  Oracle& oracle = state->oracle;
  for (const auto& q : state->queries) oracle.queries.push_back(q.attributes());
  for (const char* text : kSelects) {
    auto parsed = cinderella::ParseSelect(text, state->dictionary);
    Require(parsed.status(), text);
    oracle.selects.push_back(std::move(parsed).value());
  }
  for (const char* text : kGroupBys) {
    auto parsed = cinderella::ParseSelect(text, state->dictionary);
    Require(parsed.status(), text);
    oracle.group_bys.push_back(std::move(parsed).value());
  }
  oracle.query_counts.assign(oracle.queries.size(), 0);
  oracle.select_counts.assign(oracle.selects.size(), 0);
  oracle.groups.resize(oracle.group_bys.size());
  for (const Row& row : rows) {
    oracle.Insert(row);
    state->live_at[row.id()] = state->live.size();
    state->live.push_back(row.id());
  }
  if (client_rss_mb != nullptr) *client_rss_mb = CurrentRssMb();

  auto created = Cinderella::Create(PinnedConfig(0.2, 500));
  Require(created.status(), "create engine");
  state->engine = std::move(created).value();
  cinderella::BatchInserterOptions pipeline;
  pipeline.shards = kInsertShards;
  pipeline.window = kPipelineWindow;
  state->pipeline =
      cinderella::AttachBatchInserter(state->engine.get(), pipeline);
  {
    ScopedSpan span(tracer, "ingest.insert_batch");
    Require(state->engine->InsertBatch(std::move(rows)), "load base");
  }
  state->table = std::make_unique<VersionedTable>(state->engine.get(),
                                                  state->pipeline.get());

  for (size_t i = 0; i < state->queries.size(); ++i) {
    state->cycle.push_back({ReadKind::kQuery, i});
  }
  for (size_t i = 0; i < std::size(kSelects); ++i) {
    state->cycle.push_back({ReadKind::kSelect, i});
  }
  for (size_t i = 0; i < std::size(kGroupBys); ++i) {
    state->cycle.push_back({ReadKind::kGroupBy, i});
  }
  state->rng.seed(SubSeed(options.seed, 3));
  std::shuffle(state->cycle.begin(), state->cycle.end(), state->rng);
  return state;
}

/// Per-read scan counters and the observer's false-positive tally.
struct ScanTally : cinderella::ScanObserver {
  uint64_t scanned = 0;
  uint64_t false_positives = 0;
  void OnScan(const Synopsis&,
              const std::vector<cinderella::PartitionTouch>& touches) override {
    for (const auto& touch : touches) {
      if (!touch.scanned) continue;
      ++scanned;
      if (touch.rows_matched == 0) ++false_positives;
    }
  }
};

struct ReadTotals {
  uint64_t partitions_total = 0;
  uint64_t partitions_scanned = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  void Add(const cinderella::ScanMetrics& m) {
    partitions_total += m.partitions_total;
    partitions_scanned += m.partitions_scanned;
    rows_scanned += m.rows_scanned;
    rows_matched += m.rows_matched;
  }
};

/// Runs one read; returns false when the result disagrees with the oracle
/// (or the statement failed). `ms` receives the call's wall time.
bool Read(State& state, const ReadSpec& spec, int threads, Tracer& tracer,
          ScanTally* tally, ReadTotals* totals, double* ms) {
  const char* text = spec.kind == ReadKind::kSelect    ? kSelects[spec.index]
                     : spec.kind == ReadKind::kGroupBy ? kGroupBys[spec.index]
                                                       : nullptr;
  cinderella::StatusOr<SelectStatement> statement =
      Status::Internal("no statement");
  cinderella::AggregationResult grouped;
  cinderella::QueryResult scanned;
  const auto start = Clock::now();
  {
    ScopedSpan op(tracer, "op.read");
    std::optional<VersionedTable::Snapshot> snapshot;
    {
      ScopedSpan span(tracer, "mvcc.snapshot");
      snapshot.emplace(state.table->snapshot());
    }
    if (text != nullptr) {
      ScopedSpan span(tracer, "query.parse");
      statement = cinderella::ParseSelect(text, state.dictionary);
    }
    if (text != nullptr && !statement.ok()) {
      *ms = MillisBetween(start, Clock::now());
      return false;
    }
    if (spec.kind == ReadKind::kGroupBy) {
      AggregateSpec aggregate;
      aggregate.group_by = statement->group_by;
      aggregate.value = statement->aggregates.back().attribute;
      aggregate.where = statement->where.get();
      cinderella::Aggregator aggregator(snapshot->view(),
                                        PinnedAggregatorOptions(threads));
      aggregator.set_observer(tally);
      ScopedSpan span(tracer, "query.aggregate");
      grouped = aggregator.Aggregate(aggregate);
    } else {
      cinderella::QueryExecutor executor(snapshot->view(), threads, 4);
      executor.set_observer(tally);
      ScopedSpan span(tracer, "query.scan");
      scanned = spec.kind == ReadKind::kQuery
                    ? executor.Execute(state.queries[spec.index])
                    : executor.ExecuteSelect(*statement);
    }
  }
  *ms = MillisBetween(start, Clock::now());

  // Check against the oracle, outside the timed call.
  const Oracle& oracle = state.oracle;
  if (spec.kind == ReadKind::kGroupBy) {
    if (totals != nullptr) totals->Add(grouped.metrics);
    int64_t groups = 0, count = 0, sum = 0;
    for (const auto& [key, group] : oracle.groups[spec.index]) {
      if (group.count > 0) ++groups;
      count += group.count;
      sum += group.sum;
    }
    int64_t got_count = 0, got_sum = 0;
    for (const auto& group : grouped.groups) {
      got_count += static_cast<int64_t>(group.count);
      got_sum += group.sum;
    }
    return static_cast<int64_t>(grouped.groups.size()) == groups &&
           got_count == count && got_sum == sum;
  }
  if (totals != nullptr) totals->Add(scanned.metrics);
  const int64_t expected = spec.kind == ReadKind::kQuery
                               ? oracle.query_counts[spec.index]
                               : oracle.select_counts[spec.index];
  return static_cast<int64_t>(scanned.metrics.rows_matched) == expected;
}

/// Builds the next write batch from the seeded stream and applies it to
/// the oracle.
std::vector<Mutation> NextWrite(State& state) {
  std::vector<Mutation> ops;
  auto drop = [&](EntityId id) {
    const size_t i = state.live_at[id];
    state.live[i] = state.live.back();
    state.live_at[state.live[i]] = i;
    state.live.pop_back();
    state.live_at.erase(id);
  };
  for (size_t i = 0; i < kWriteOps; ++i) {
    const int roll = static_cast<int>(state.rng() % 100);
    if (roll < kInsertPct) {
      Row row = std::move(state.spare[state.next_spare++]);
      row.set_id(state.next_id++);
      state.live_at[row.id()] = state.live.size();
      state.live.push_back(row.id());
      state.oracle.Insert(row);
      ops.push_back(Mutation::Insert(std::move(row)));
    } else if (roll < kInsertPct + kUpdatePct) {
      const EntityId target = state.live[state.rng() % state.live.size()];
      Row row = std::move(state.spare[state.next_spare++]);
      row.set_id(target);
      state.oracle.Erase(target);
      state.oracle.Insert(row);
      ops.push_back(Mutation::Update(std::move(row)));
    } else {
      const EntityId target = state.live[state.rng() % state.live.size()];
      drop(target);
      state.oracle.Erase(target);
      ops.push_back(Mutation::Delete(target));
    }
  }
  return ops;
}

struct WriteCounters {
  uint64_t generation = 0;
  uint64_t blocks = 0;
  uint64_t nodes_copied = 0;
  uint64_t windows = 0;
  uint64_t rated = 0;
  uint64_t rechecks = 0;
  uint64_t updates = 0;
  uint64_t updates_moved = 0;
};

WriteCounters ReadCounters(const State& state) {
  WriteCounters c;
  c.generation = state.table->published_generation();
  const VersionedTable::MemoryStats memory = state.table->memory_stats();
  c.blocks = memory.arenas.blocks_allocated;
  c.nodes_copied = memory.tree.nodes_copied;
  const auto pipeline = state.pipeline->stats();
  const cinderella::CinderellaStats& core = state.engine->stats();
  c.windows = pipeline.windows;
  c.rated = pipeline.ratings + core.partitions_rated;
  c.rechecks = pipeline.reratings + pipeline.rescans;
  c.updates = core.updates;
  c.updates_moved = core.updates_moved;
  return c;
}

/// Read latency at 1, 2 and 4 scan threads over the final table (traced
/// run only, not gated): three read cycles per degree, no writes.
void ThreadSweep(State& state) {
  std::printf("scan-thread sweep (3 read cycles per degree, no writes):\n");
  std::printf("  %-8s %-14s %s\n", "threads", "read_p50_ms", "read_tail_ms");
  Tracer off(false);
  for (int threads : {1, 2, 4}) {
    std::vector<double> ms;
    for (int cycle = 0; cycle < 3; ++cycle) {
      for (const ReadSpec& spec : state.cycle) {
        double t = 0.0;
        Read(state, spec, threads, off, nullptr, nullptr, &t);
        ms.push_back(t);
      }
    }
    const Distribution d = Summarize(ms);
    std::printf("  %-8d %-14.4f %.4f (p%.1f of %zu)\n", threads, d.p50, d.tail,
                d.tail_percentile, d.count);
  }
}

/// What the timed phase records about its operations.
struct PhaseLog {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  double read_total_ms = 0.0;
  double write_total_ms = 0.0;
  uint64_t committed = 0;
  ScanTally tally;    // Traced reads only.
  ReadTotals totals;  // Traced reads only.
  TraceSplit read_split;
  TraceSplit write_split;
};

/// One read cycle: every read in the seeded order, with one write batch
/// after every kReadsPerWrite reads (the count carries across cycles).
/// Every result is checked; with a `log` the operations are counted as
/// attempted and their latencies recorded (the warm-up passes none).
void RunCycle(State& state, size_t cycle, Tracer& tracer, PhaseLog* log,
              RunResult& result) {
  for (size_t i = 0; i < state.cycle.size(); ++i) {
    const bool on = tracer.NextOp(TraceTurn(cycle, i));
    double ms = 0.0;
    const bool ok = Read(state, state.cycle[i], 1, tracer,
                         on ? &log->tally : nullptr,
                         on ? &log->totals : nullptr, &ms);
    if (log != nullptr) {
      ++result.attempted;
      log->read_ms.push_back(ms);
      log->read_total_ms += ms;
      log->read_split.Add(i, on, ms);
      if (!ok) ++result.failed;
    }
    if (!ok) result.Fail("read result disagrees with the oracle");
    if (++state.reads_since_write < kReadsPerWrite) continue;
    state.reads_since_write = 0;
    std::vector<Mutation> ops = NextWrite(state);
    const size_t n = ops.size();
    // Pairs of writes, traced first and untraced first in turn.
    const bool write_on =
        tracer.NextOp(TraceTurn(state.writes / 2, state.writes));
    ++state.writes;
    const auto start = Clock::now();
    Status status;
    size_t applied = 0;
    {
      ScopedSpan op(tracer, "op.write");
      ScopedSpan span(tracer, "mvcc.apply");
      status = state.table->ApplyMutations(std::move(ops), &applied);
    }
    const double wms = MillisBetween(start, Clock::now());
    if (log != nullptr) ++result.attempted;
    if (!status.ok() || applied != n) {
      if (log != nullptr) ++result.failed;
      result.Fail("write batch: " + status.ToString());
      continue;
    }
    if (log != nullptr) {
      log->write_ms.push_back(wms);
      log->write_total_ms += wms;
      log->write_split.Add(0, write_on, wms);
      log->committed += n;
    }
  }
}

PassResult RunPass(const Options& options, bool traced, int setups,
                   RunResult& result) {
  PassResult pass;
  Tracer tracer(traced);
  std::unique_ptr<State> state;
  std::vector<double> setup_s;
  for (int i = 0; i < setups; ++i) {
    state.reset();
    const auto start = Clock::now();
    state = Setup(options, tracer, i == 0 ? &pass.client_rss_mb : nullptr);
    // Warm-up: one untimed cycle of the timed loop, its writes included.
    Tracer off(false);
    RunCycle(*state, 0, off, nullptr, result);
    setup_s.push_back(MillisBetween(start, Clock::now()) / 1e3);
  }
  pass.setup_s = Median(setup_s);

  PhaseLog log;
  // Only writes move these counters, so the change over the phase is the
  // sum of the per-write changes.
  const WriteCounters first = ReadCounters(*state);
  const size_t cycles = CycleCount(options);
  for (size_t cycle = 0; cycle < cycles; ++cycle) {
    RunCycle(*state, cycle, tracer, &log, result);
  }
  const WriteCounters last = ReadCounters(*state);
  if (state->table->entity_count() != state->oracle.rows.size()) {
    result.Fail("entity count differs from the oracle");
  }
  const Status integrity = state->engine->VerifyIntegrity();
  if (!integrity.ok()) result.Fail("integrity: " + integrity.ToString());

  pass.reads = Summarize(log.read_ms);
  pass.writes = Summarize(log.write_ms);
  pass.reads_per_s =
      Ratio(static_cast<double>(log.read_ms.size()), log.read_total_ms / 1e3);
  pass.write_rows_per_s =
      Ratio(static_cast<double>(log.committed), log.write_total_ms / 1e3);
  {
    VersionedTable::Snapshot snapshot = state->table->snapshot();
    pass.efficiency =
        cinderella::ComputeEfficiency(snapshot.view(), state->oracle.queries,
                                      cinderella::SizeMeasure::kEntityCount)
            .efficiency;
  }

  if (traced) {
    const double writes = static_cast<double>(log.write_ms.size());
    const double rows = static_cast<double>(log.committed);
    auto d = [&](uint64_t WriteCounters::*field) {
      return static_cast<double>(last.*field - first.*field);
    };
    auto& L = pass.layers;
    L.push_back({"workload.generate_s",
                 Median(tracer.DurationsMs("workload.generate")) / 1e3});
    L.push_back({"core.ratings_per_row", Ratio(d(&WriteCounters::rated), rows)});
    L.push_back({"core.update_move_share",
                 Ratio(d(&WriteCounters::updates_moved),
                       d(&WriteCounters::updates))});
    L.push_back({"core.partitions",
                 static_cast<double>(state->table->partition_count())});
    L.push_back({"ingest.recheck_share",
                 Ratio(d(&WriteCounters::rechecks), rows)});
    L.push_back({"ingest.windows_per_batch",
                 Ratio(d(&WriteCounters::windows), writes)});
    L.push_back({"mvcc.snapshot_us",
                 Median(tracer.DurationsMs("mvcc.snapshot")) * 1e3});
    L.push_back({"mvcc.apply_ms", Median(tracer.DurationsMs("mvcc.apply"))});
    L.push_back({"mvcc.views_per_write",
                 Ratio(d(&WriteCounters::generation), writes)});
    L.push_back({"mvcc.arena_blocks", d(&WriteCounters::blocks)});
    L.push_back({"synopsis.tree_nodes_copied_per_view",
                 Ratio(d(&WriteCounters::nodes_copied),
                       d(&WriteCounters::generation))});
    L.push_back({"query.parse_us",
                 Median(tracer.DurationsMs("query.parse")) * 1e3});
    L.push_back({"query.scan_ms", Median(tracer.DurationsMs("query.scan"))});
    L.push_back({"query.aggregate_ms",
                 Median(tracer.DurationsMs("query.aggregate"))});
    L.push_back({"query.scanned_share",
                 Ratio(static_cast<double>(log.totals.partitions_scanned),
                       static_cast<double>(log.totals.partitions_total))});
    L.push_back({"query.rows_scanned_per_match",
                 Ratio(static_cast<double>(log.totals.rows_scanned),
                       static_cast<double>(log.totals.rows_matched))});
    L.push_back({"query.false_positive_share",
                 Ratio(static_cast<double>(log.tally.false_positives),
                       static_cast<double>(log.tally.scanned))});
    L.push_back({"trace.span_coverage", tracer.MedianCoverage()});
    std::printf("spans of the traced pass:\n");
    PrintSelfTimes(tracer);
    if (!tracer.WriteCsv(options.data_dir + "/spans-dbpedia_serve.csv")) {
      std::printf("note: span file not written\n");
    }
    ThreadSweep(*state);
  }
  pass.read_split = std::move(log.read_split);
  pass.write_split = std::move(log.write_split);
  return pass;
}

}  // namespace

RunResult RunDbpediaServe(const Options& options) {
  return RunWorkload(options, {RunPass, "read", "write (ApplyMutations)",
                               /*overhead_on_writes=*/false});
}

}  // namespace perfbench
