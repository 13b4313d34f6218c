// dbpedia_ingest: durable mixed writes on irregular data.
//
// Why it exists: it is the write workload — Algorithm-1 rating and splits,
// the sharded mutation pipeline, the journal with one fsync per batch, and
// spill/fault through a cold tier whose hot budget is 4x below the data.
// DBpedia has two near-universal attributes, so the synopsis tree cannot
// prune the rating here. No query runs: a change to query, mvcc or net
// must leave every metric of this workload unchanged.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <unordered_map>

#include "core/efficiency.h"
#include "io/durable_table.h"
#include "workload/query_workload.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using cinderella::AttributeDictionary;
using cinderella::Cinderella;
using cinderella::DurableTable;
using cinderella::EntityId;
using cinderella::Mutation;
using cinderella::Partition;
using cinderella::Row;
using cinderella::Status;

constexpr size_t kBaseRows = 100000;
/// Ops per ApplyMutations call.
constexpr size_t kBatchOps = 256;
/// Timed-phase ops per second of --seconds (reference host calibration).
constexpr size_t kOpsPerSecond = 3300;
/// Op mix, in percent: inserts of new entities, updates that replace an
/// entity's attribute set, deletes of base entities.
constexpr int kInsertPct = 80;
constexpr int kUpdatePct = 12;
/// Cold tier: the 100k-row base holds about 9 MiB of row bytes, so a
/// 2 MiB hot budget is 4-5x below the data; 64 frames of 8 KiB is a
/// 512 KiB buffer pool.
constexpr uint64_t kHotBudgetBytes = 2ull << 20;
constexpr size_t kPageSize = 8192;
constexpr size_t kPoolFrames = 64;
constexpr uint64_t kMinIdle = 2;

DurableTable::Options TableOptions(const std::string& dir, int shards) {
  DurableTable::Options options;
  options.directory = dir;
  options.config = PinnedConfig(0.2, 500);
  options.sync_every_op = false;
  options.group_commit_ops = 1;  // One fsync per batch call.
  options.ingest.shards = shards;
  options.ingest.window = kPipelineWindow;
  options.spill.page_size = kPageSize;
  options.spill.pool_frames = kPoolFrames;
  options.spill.budget_bytes = kHotBudgetBytes;
  options.spill.min_idle = kMinIdle;
  return options;
}

/// What one op does to the expected contents: the entity's row hash
/// becomes `hash`, or the entity is gone (`erase`).
struct Effect {
  EntityId id;
  uint64_t hash;
  bool erase;
};

/// The generated input of one run: the base, the timed op stream cut into
/// batches with each batch's effects, the expected contents (entity -> row
/// hash; the base's until the run applies the effects), and the Section
/// V.B query set of the base for EFFICIENCY.
struct Input {
  AttributeDictionary dictionary;
  std::vector<Row> base;
  std::vector<std::vector<Mutation>> batches;
  std::vector<std::vector<Effect>> effects;
  std::unordered_map<EntityId, uint64_t> expected;
  std::vector<cinderella::Synopsis> queries;
};

size_t StreamOps(const Options& options) {
  return std::max<size_t>(1, static_cast<size_t>(options.seconds) *
                                 kOpsPerSecond / kBatchOps) *
         kBatchOps;
}

std::unique_ptr<Input> Generate(const Options& options) {
  auto input = std::make_unique<Input>();
  const size_t ops = StreamOps(options);
  // Base rows followed by the stream's payloads: enough for the worst case
  // of every op being an insert or an update.
  std::vector<Row> rows = GenerateDbpedia(SubSeed(options.seed, 1), kBaseRows,
                                          ops, &input->dictionary);
  std::mt19937_64 rng(SubSeed(options.seed, 2));

  std::vector<EntityId> live;        // Every live entity.
  std::vector<EntityId> live_base;   // Live entities of the base.
  std::unordered_map<EntityId, size_t> live_at, base_at;
  auto add = [](std::vector<EntityId>& list,
                std::unordered_map<EntityId, size_t>& at, EntityId id) {
    at[id] = list.size();
    list.push_back(id);
  };
  auto remove = [](std::vector<EntityId>& list,
                   std::unordered_map<EntityId, size_t>& at, EntityId id) {
    const size_t i = at[id];
    list[i] = list.back();
    at[list[i]] = i;
    list.pop_back();
    at.erase(id);
  };
  for (size_t i = 0; i < kBaseRows; ++i) {
    input->expected[rows[i].id()] = RowHash(rows[i]);
    add(live, live_at, rows[i].id());
    add(live_base, base_at, rows[i].id());
  }
  size_t next_row = kBaseRows;
  std::vector<Mutation> batch;
  std::vector<Effect> effects;
  for (size_t op = 0; op < ops; ++op) {
    const int roll = static_cast<int>(rng() % 100);
    if (roll < kInsertPct) {
      Row& row = rows[next_row++];
      effects.push_back({row.id(), RowHash(row), false});
      add(live, live_at, row.id());
      batch.push_back(Mutation::Insert(std::move(row)));
    } else if (roll < kInsertPct + kUpdatePct) {
      const EntityId target = live[rng() % live.size()];
      Row row = std::move(rows[next_row++]);
      row.set_id(target);
      effects.push_back({target, RowHash(row), false});
      batch.push_back(Mutation::Update(std::move(row)));
    } else {
      const EntityId target = live_base[rng() % live_base.size()];
      remove(live_base, base_at, target);
      remove(live, live_at, target);
      effects.push_back({target, 0, true});
      batch.push_back(Mutation::Delete(target));
    }
    if (batch.size() == kBatchOps) {
      input->batches.push_back(std::move(batch));
      input->effects.push_back(std::move(effects));
      batch.clear();
      effects.clear();
    }
  }
  rows.resize(kBaseRows);  // The payloads moved into the stream.
  cinderella::QueryWorkloadConfig qconfig;
  for (const auto& q : cinderella::GenerateQueryWorkload(rows, 100, qconfig)) {
    input->queries.push_back(q.query.attributes());
  }
  input->base = std::move(rows);
  return input;
}

/// Engine counters read around every traced operation.
struct Counters {
  uint64_t rated = 0;  // Serial-path ratings + pipeline ratings.
  uint64_t reratings = 0;
  uint64_t rescans = 0;
  uint64_t windows = 0;
  uint64_t splits = 0;
  uint64_t redistributed = 0;
  uint64_t updates = 0;
  uint64_t updates_moved = 0;
  uint64_t spills = 0;
  uint64_t faults = 0;
  uint64_t syncs = 0;
  uint64_t journal_bytes = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;
  uint64_t pages_read = 0;
  uint64_t pages_written = 0;
  uint64_t partitions = 0;
};

/// The counters whose change over the write calls the traced run reports
/// (every field but the partition count, a level).
constexpr uint64_t Counters::*kDeltaFields[] = {
    &Counters::rated,         &Counters::reratings,    &Counters::rescans,
    &Counters::windows,       &Counters::splits,       &Counters::redistributed,
    &Counters::updates,       &Counters::updates_moved, &Counters::spills,
    &Counters::faults,        &Counters::syncs,        &Counters::journal_bytes,
    &Counters::pool_hits,     &Counters::pool_misses,  &Counters::pages_read,
    &Counters::pages_written,
};

Counters ReadCounters(const DurableTable& table, const std::string& dir) {
  Counters c;
  const cinderella::CinderellaStats& core = table.cinderella().stats();
  const auto pipeline = table.batch_inserter().stats();
  c.rated = core.partitions_rated + pipeline.ratings;
  c.reratings = pipeline.reratings;
  c.rescans = pipeline.rescans;
  c.windows = pipeline.windows;
  c.splits = core.splits;
  c.redistributed = core.entities_redistributed;
  c.updates = core.updates;
  c.updates_moved = core.updates_moved;
  c.spills = core.spills;
  c.faults = core.faults;
  c.syncs = table.journal_syncs();
  std::error_code ec;
  c.journal_bytes = fs::file_size(dir + "/journal.log", ec);
  if (table.tier() != nullptr) {
    const cinderella::TieredStoreStats tier = table.tier()->stats();
    c.pool_hits = tier.pool.hits;
    c.pool_misses = tier.pool.misses;
    c.pages_read = tier.pager_pages_read;
    c.pages_written = tier.pager_pages_written;
  }
  c.partitions = table.cinderella().catalog().partition_count();
  return c;
}

/// Setup of one run: input generation, a fresh durable table, the base
/// through InsertBatch, a checkpoint.
struct State {
  std::unique_ptr<Input> input;
  std::string dir;
  std::unique_ptr<DurableTable> table;
};

std::unique_ptr<State> Setup(const Options& options, const std::string& dir,
                             Tracer& tracer, double* client_rss_mb) {
  auto state = std::make_unique<State>();
  state->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    ScopedSpan span(tracer, "workload.generate");
    state->input = Generate(options);
  }
  if (client_rss_mb != nullptr) *client_rss_mb = CurrentRssMb();
  auto opened = DurableTable::Open(TableOptions(dir, kInsertShards));
  Require(opened.status(), "open durable table");
  state->table = std::move(opened).value();
  // Same attribute ids in the table's dictionary as in the generator's,
  // so the journal and snapshot carry the names.
  for (size_t id = 0; id < state->input->dictionary.size(); ++id) {
    state->table->table().dictionary().GetOrCreate(
        *state->input->dictionary.Name(static_cast<cinderella::AttributeId>(id)));
  }
  {
    ScopedSpan span(tracer, "io.insert_batch");
    Require(state->table->InsertBatch(std::move(state->input->base)),
            "preload base");
  }
  {
    ScopedSpan span(tracer, "io.checkpoint");
    Require(state->table->Checkpoint(), "checkpoint");
  }
  return state;
}

/// Read calls per pass of the read-back. A single partition is either hot
/// (a few microseconds) or cold (a page-chain read, ten times longer), so
/// per-partition latency is bimodal and its median jumps with the cold
/// share. One read covers every fourth partition (8-12 ms at 2200
/// partitions), so the four reads of a pass see the same mix of old and
/// new, hot and cold partitions; reads of consecutive quarters differed
/// in cost and their median fell between them, and reads of 64
/// partitions (about 1 ms) swung twice as much from run to run as the
/// 50 ms write batches did.
constexpr size_t kReadsPerPass = 4;
/// One read-back pass after every kBatchesPerPass write batches, so reads
/// are spread over the whole timed phase as the writes are. The host's
/// speed drifts over seconds: run as one 3 s block after the stream, the
/// read median spread 0.17-0.36 over ten seeds while the write median,
/// taken over 7 s, spread 0.09-0.11.
constexpr size_t kBatchesPerPass = 2;

/// Rows of every partition, read back through the engine (hot segment or
/// cold page chain), in kReadsPerPass timed reads of every
/// kReadsPerPass-th partition.
struct ReadBack {
  std::vector<double> latencies_ms;
  double read_ms = 0.0;
  uint64_t checksum = 0;       // Sum of row hashes.
  uint64_t rows = 0;
  uint64_t mismatched = 0;     // Rows absent from or differing from the oracle.
  uint64_t failed_reads = 0;   // Reads with a mismatch or read error.
  uint64_t grouping = 0;       // Sum of per-partition entity-set hashes.
};

ReadBack ReadAll(const Cinderella& engine,
                 const std::unordered_map<EntityId, uint64_t>& expected,
                 Tracer& tracer, size_t round, TraceSplit* split) {
  ReadBack out;
  std::vector<const Partition*> partitions;
  engine.catalog().ForEachPartition(
      [&](const Partition& partition) { partitions.push_back(&partition); });
  // The client keeps (id, row hash) per row it reads, in buffers sized
  // before the timed call, so a read allocates nothing on the client side.
  std::vector<std::vector<std::pair<EntityId, uint64_t>>> read(
      partitions.size() / kReadsPerPass + 1);
  std::vector<EntityId> ids;
  for (size_t g = 0; g < kReadsPerPass; ++g) {
    // Partitions g, g + kReadsPerPass, g + 2 * kReadsPerPass, ...
    const size_t count =
        (partitions.size() + kReadsPerPass - 1 - g) / kReadsPerPass;
    auto partition = [&](size_t i) -> const Partition& {
      return *partitions[g + i * kReadsPerPass];
    };
    for (size_t i = 0; i < read.size(); ++i) {
      read[i].clear();
      if (i < count) read[i].reserve(partition(i).entity_count());
    }
    Status status;
    const bool on = tracer.NextOp(TraceTurn(round, g));
    const auto start = Clock::now();
    {
      ScopedSpan op(tracer, "op.read");
      for (size_t i = 0; i < count && status.ok(); ++i) {
        ScopedSpan span(tracer, "storage.read");
        status = engine.ForEachRowOf(partition(i), [&](const Row& row) {
          read[i].emplace_back(row.id(), RowHash(row));
        });
      }
    }
    const double ms = MillisBetween(start, Clock::now());
    out.latencies_ms.push_back(ms);
    if (split != nullptr) split->Add(g, on, ms);
    out.read_ms += ms;
    bool bad = !status.ok();
    for (size_t i = 0; i < count; ++i) {
      ids.clear();
      for (const auto& [id, h] : read[i]) {
        out.checksum += h;
        ++out.rows;
        ids.push_back(id);
        auto it = expected.find(id);
        if (it == expected.end() || it->second != h) {
          ++out.mismatched;
          bad = true;
        }
      }
      // The grouping is the set of entity sets; partition ids may be
      // renumbered by a snapshot restore, so they are left out.
      std::sort(ids.begin(), ids.end());
      uint64_t g = ids.size();
      for (EntityId id : ids) g = SubSeed(g, id);
      out.grouping += g;
    }
    if (bad) ++out.failed_reads;
  }
  return out;
}

/// Write-throughput sweep over insert shard counts (traced run only, not
/// gated): each point reopens a copy of the checkpointed base and applies
/// the first quarter of the stream.
void ShardSweep(const std::string& source, const std::string& root,
                const std::vector<std::vector<Mutation>>& prefix) {
  std::printf("shard sweep (first %zu batches on a reopened copy of the "
              "checkpointed base; restored tables resolve scan_threads "
              "from the host):\n",
              prefix.size());
  std::printf("  %-8s %-18s %s\n", "shards", "write_rows_per_s",
              "write_p50_ms");
  for (int shards : {1, 2, 4}) {
    const std::string dir = root + "/sweep-" + std::to_string(shards);
    fs::remove_all(dir);
    fs::copy(source, dir, fs::copy_options::recursive);
    auto opened = DurableTable::Open(TableOptions(dir, shards));
    Require(opened.status(), "open sweep copy");
    std::unique_ptr<DurableTable> table = std::move(opened).value();
    std::vector<double> ms;
    double total_ms = 0.0;
    size_t rows = 0;
    for (const auto& batch : prefix) {
      std::vector<Mutation> ops = batch;
      rows += ops.size();
      const auto start = Clock::now();
      Require(table->ApplyMutations(std::move(ops)), "sweep batch");
      ms.push_back(MillisBetween(start, Clock::now()));
      total_ms += ms.back();
    }
    std::printf("  %-8d %-18.1f %.3f\n", shards,
                Ratio(static_cast<double>(rows), total_ms / 1e3), Median(ms));
    table.reset();
    fs::remove_all(dir);
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
    state = Setup(options, options.data_dir + "/ingest-" + std::to_string(i),
                  tracer, i == 0 ? &pass.client_rss_mb : nullptr);
    setup_s.push_back(MillisBetween(start, Clock::now()) / 1e3);
    if (i + 1 < setups) {
      const std::string dir = state->dir;
      state.reset();
      fs::remove_all(dir);
    }
  }
  pass.setup_s = Median(setup_s);
  DurableTable& table = *state->table;
  Input& input = *state->input;

  // The traced run keeps a copy of the checkpointed base and of the first
  // quarter of the stream for the shard sweep.
  const std::string sweep_source = options.data_dir + "/sweep-source";
  std::vector<std::vector<Mutation>> sweep_prefix;
  if (traced) {
    fs::remove_all(sweep_source);
    fs::copy(state->dir, sweep_source, fs::copy_options::recursive);
    sweep_prefix.assign(input.batches.begin(),
                        input.batches.begin() +
                            static_cast<std::ptrdiff_t>(
                                std::max<size_t>(1, input.batches.size() / 4)));
  }

  // Timed phase: one client, each call sent after the previous returned.
  // After every kBatchesPerPass write batches the whole table is read back
  // (kReadsPerPass timed reads) and every row checked against the stream.
  std::vector<double> write_ms, read_ms;
  double write_total_ms = 0.0, read_total_ms = 0.0;
  uint64_t committed = 0;
  uint64_t expected_checksum = 0;
  for (const auto& [id, h] : input.expected) expected_checksum += h;
  ReadBack back;
  size_t read_passes = 0;
  // Traced: counters are read around every write call and the changes
  // summed, so the read-back's buffer-pool traffic is not counted as the
  // writes'.
  Counters written, before;
  double candidate_denominator = 0.0;  // Sum of rows x live partitions.
  for (size_t b = 0; b < input.batches.size(); ++b) {
    std::vector<Mutation>& batch = input.batches[b];
    const size_t n = batch.size();
    if (traced) before = ReadCounters(table, state->dir);
    // Pairs of batches, traced first and untraced first in turn.
    const bool on = tracer.NextOp(TraceTurn(b / 2, b));
    const auto start = Clock::now();
    Status status;
    {
      ScopedSpan op(tracer, "op.write");
      ScopedSpan span(tracer, "io.apply");
      status = table.ApplyMutations(std::move(batch));
    }
    const double ms = MillisBetween(start, Clock::now());
    ++result.attempted;
    if (!status.ok()) {
      ++result.failed;
      result.Fail("write batch: " + status.ToString());
      continue;
    }
    if (traced) {
      const Counters after = ReadCounters(table, state->dir);
      for (uint64_t Counters::*field : kDeltaFields) {
        written.*field += after.*field - before.*field;
      }
    }
    candidate_denominator +=
        static_cast<double>(n) * static_cast<double>(before.partitions);
    write_ms.push_back(ms);
    pass.write_split.Add(0, on, ms);
    write_total_ms += ms;
    committed += n;
    for (const Effect& effect : input.effects[b]) {
      auto it = input.expected.find(effect.id);
      if (it != input.expected.end()) expected_checksum -= it->second;
      if (effect.erase) {
        input.expected.erase(effect.id);
      } else {
        input.expected[effect.id] = effect.hash;
        expected_checksum += effect.hash;
      }
    }
    if ((b + 1) % kBatchesPerPass != 0 && b + 1 != input.batches.size()) {
      continue;
    }
    back = ReadAll(table.cinderella(), input.expected, tracer, read_passes++,
                   &pass.read_split);
    result.attempted += back.latencies_ms.size();
    result.failed += back.failed_reads;
    read_ms.insert(read_ms.end(), back.latencies_ms.begin(),
                   back.latencies_ms.end());
    read_total_ms += back.read_ms;
    if (back.mismatched > 0) {
      result.Fail(std::to_string(back.mismatched) +
                  " rows differ from the stream");
    }
    if (back.rows != input.expected.size()) {
      result.Fail("read back " + std::to_string(back.rows) +
                  " rows, expected " + std::to_string(input.expected.size()));
    }
    if (back.checksum != expected_checksum) result.Fail("content checksum");
  }
  input.batches.clear();
  const uint64_t partitions = table.cinderella().catalog().partition_count();
  if (table.table().entity_count() != input.expected.size()) {
    result.Fail("entity count " + std::to_string(table.table().entity_count()) +
                " != expected " + std::to_string(input.expected.size()));
  }
  const Status integrity = table.cinderella().VerifyIntegrity();
  if (!integrity.ok()) result.Fail("integrity: " + integrity.ToString());

  pass.writes = Summarize(write_ms);
  pass.reads = Summarize(read_ms);
  pass.write_rows_per_s =
      Ratio(static_cast<double>(committed), write_total_ms / 1e3);
  pass.reads_per_s =
      Ratio(static_cast<double>(read_ms.size()), read_total_ms / 1e3);

  // Definition-1 EFFICIENCY over the Section V.B query set of the base.
  pass.efficiency =
      cinderella::ComputeEfficiency(table.cinderella().catalog(), input.queries,
                                    cinderella::SizeMeasure::kEntityCount)
          .efficiency;

  if (traced) {
    const double rows = static_cast<double>(committed);
    const double krows = rows / 1000.0;
    const double batches = static_cast<double>(write_ms.size());
    auto d = [&](uint64_t Counters::*field) {
      return static_cast<double>(written.*field);
    };
    auto& L = pass.layers;
    L.push_back({"core.ratings_per_row", Ratio(d(&Counters::rated), rows)});
    L.push_back({"synopsis.candidate_share",
                 Ratio(d(&Counters::rated), candidate_denominator)});
    L.push_back({"core.splits_per_krow", Ratio(d(&Counters::splits), krows)});
    L.push_back({"core.rows_per_split",
                 Ratio(d(&Counters::redistributed), d(&Counters::splits))});
    L.push_back({"core.update_move_share",
                 Ratio(d(&Counters::updates_moved), d(&Counters::updates))});
    L.push_back({"core.partitions", static_cast<double>(partitions)});
    L.push_back({"ingest.recheck_share",
                 Ratio(d(&Counters::reratings) + d(&Counters::rescans), rows)});
    L.push_back({"ingest.windows_per_batch",
                 Ratio(d(&Counters::windows), batches)});
    L.push_back({"io.apply_ms", Median(tracer.DurationsMs("io.apply"))});
    L.push_back({"io.fsyncs_per_batch", Ratio(d(&Counters::syncs), batches)});
    L.push_back({"io.journal_bytes_per_row",
                 Ratio(d(&Counters::journal_bytes), rows)});
    L.push_back({"io.checkpoint_s",
                 Median(tracer.DurationsMs("io.checkpoint")) / 1e3});
    L.push_back({"storage.spills_per_krow", Ratio(d(&Counters::spills), krows)});
    L.push_back({"storage.faults_per_krow", Ratio(d(&Counters::faults), krows)});
    L.push_back({"storage.read_us",
                 Median(tracer.DurationsMs("storage.read")) * 1e3});
    const uint64_t cold_bytes = table.tier()->stats().cold_bytes;
    const uint64_t hot_bytes = table.tier_controller()->HotBytes();
    std::printf("tier: hot budget %.2f MiB, data %.2f MiB (%.2f hot + %.2f "
                "cold) after the stream\n",
                static_cast<double>(kHotBudgetBytes) / 1048576.0,
                static_cast<double>(hot_bytes + cold_bytes) / 1048576.0,
                static_cast<double>(hot_bytes) / 1048576.0,
                static_cast<double>(cold_bytes) / 1048576.0);
    L.push_back({"storage.cold_share",
                 Ratio(static_cast<double>(cold_bytes),
                       static_cast<double>(cold_bytes + hot_bytes))});
    L.push_back({"pagestore.pages_written_per_krow",
                 Ratio(d(&Counters::pages_written), krows)});
    L.push_back({"pagestore.pages_read_per_krow",
                 Ratio(d(&Counters::pages_read), krows)});
    L.push_back({"pagestore.pool_hit_rate",
                 Ratio(d(&Counters::pool_hits),
                       d(&Counters::pool_hits) + d(&Counters::pool_misses))});
    L.push_back({"workload.generate_s",
                 Median(tracer.DurationsMs("workload.generate")) / 1e3});
    L.push_back({"trace.span_coverage", tracer.MedianCoverage()});

    // Durability: close, reopen from snapshot + journal, and compare rows
    // and partition grouping with what the closed table held.
    const std::string dir = state->dir;
    state->table.reset();
    const auto start = Clock::now();
    auto reopened = DurableTable::Open(TableOptions(dir, kInsertShards));
    const double recover_s = MillisBetween(start, Clock::now()) / 1e3;
    Require(reopened.status(), "reopen");
    std::unique_ptr<DurableTable> recovered = std::move(reopened).value();
    Tracer off(false);
    ReadBack again = ReadAll(recovered->cinderella(), input.expected, off, 0,
                             nullptr);
    const bool same_rows = again.checksum == back.checksum &&
                           again.mismatched == 0 && again.rows == back.rows;
    const bool same_grouping =
        again.grouping == back.grouping &&
        recovered->cinderella().catalog().partition_count() == partitions;
    std::printf("durability: reopened in %.3f s after %llu replayed journal "
                "entries; rows %s, partition grouping %s (%zu vs %llu "
                "partitions)\n",
                recover_s,
                static_cast<unsigned long long>(recovered->replayed_on_open()),
                same_rows ? "identical" : "DIFFER",
                same_grouping ? "identical" : "DIFFER",
                recovered->cinderella().catalog().partition_count(),
                static_cast<unsigned long long>(partitions));
    // Lost or changed rows are wrong output. A different grouping of the
    // same rows is a placement-fidelity defect: it is reported here and
    // by io.recover_grouping_match, and does not make the run incorrect.
    if (!same_rows) result.Fail("recovered rows differ from the closed table");
    if (!same_grouping) {
      std::printf("DEFECT: recovery from the checkpoint + journal regroups "
                  "the rows (snapshots do not persist split starters)\n");
    }
    L.push_back({"io.recover_s", recover_s});
    L.push_back({"io.recover_grouping_match", same_grouping ? 1.0 : 0.0});
    recovered.reset();

    std::printf("spans of the traced pass:\n");
    PrintSelfTimes(tracer);
    if (!tracer.WriteCsv(options.data_dir + "/spans-dbpedia_ingest.csv")) {
      std::printf("note: span file not written\n");
    }
    ShardSweep(sweep_source, options.data_dir, sweep_prefix);
    fs::remove_all(sweep_source);
    fs::remove_all(dir);
  } else {
    const std::string dir = state->dir;
    state.reset();
    fs::remove_all(dir);
  }
  return pass;
}

}  // namespace

RunResult RunDbpediaIngest(const Options& options) {
  return RunWorkload(options, {RunPass, "read (every 4th partition)",
                               "write (ApplyMutations)",
                               /*overhead_on_writes=*/true});
}

}  // namespace perfbench
