// Command-line front end to the library: generate synthetic data, load a
// CSV into a Cinderella-partitioned table, inspect the partitioning, run
// attribute queries, and save/restore snapshots.
//
//   cinderella_cli generate  --entities 10000 [--seed 42] --out data.csv
//   cinderella_cli partition --in data.csv [--weight 0.3] [--max-size 5000]
//                            [--dissolve 0.2] --snapshot table.snap
//   cinderella_cli load      --in data.csv [--batch 1024] [--shards N]
//                            [--weight 0.3] [--max-size 5000]
//                            [--probe a,b,c] [--tune] --snapshot t.snap
//   cinderella_cli stats     --snapshot table.snap [--nodes N]
//   cinderella_cli query     --snapshot table.snap --attrs name,weight
//   cinderella_cli serve     --snapshot table.snap [--port P]
//   cinderella_cli cluster   --snapshot table.snap --nodes N --attrs a,b
//   cinderella_cli export    --snapshot table.snap --out data.csv

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/timer.h"
#include "core/cinderella.h"
#include "core/partitioning_stats.h"
#include "core/snapshot.h"
#include "core/universal_table.h"
#include "ingest/batch_inserter.h"
#include "io/csv.h"
#include "mvcc/versioned_table.h"
#include "net/coordinator.h"
#include "net/loopback_cluster.h"
#include "net/node_server.h"
#include "query/aggregator.h"
#include "query/estimator.h"
#include "query/executor.h"
#include "query/parser.h"
#include "storage/tiered_store.h"
#include "tuner/reorganizer.h"
#include "tuner/workload_tracker.h"
#include "workload/dbpedia_generator.h"

namespace cinderella {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = flags.find(name);
    return it != flags.end() ? it->second : fallback;
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = flags.find(name);
    return it != flags.end() ? std::atof(it->second.c_str()) : fallback;
  }
  int64_t GetInt(const std::string& name, int64_t fallback) const {
    auto it = flags.find(name);
    return it != flags.end() ? std::atoll(it->second.c_str()) : fallback;
  }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: cinderella_cli <command> [--flag value ...]\n"
      "  generate  --entities N [--seed S] --out FILE.csv\n"
      "  partition --in FILE.csv [--weight W] [--max-size B]\n"
      "            [--dissolve T] [--index] --snapshot FILE.snap\n"
      "  load      --in FILE.csv [--batch ROWS] [--shards N] [--weight W]\n"
      "            [--max-size B] [--dissolve T] [--index]\n"
      "            [--probe a,b,c]   (serve lock-free snapshot queries\n"
      "            on these attributes while the load runs)\n"
      "            [--tune]   (run the background reorganizer during the\n"
      "            load; probe traffic feeds its workload tracker, knobs\n"
      "            come from CINDERELLA_TUNER_* env vars)\n"
      "            [--ops COLUMN]   (mixed op stream: the named CSV\n"
      "            column selects insert/update/delete per record)\n"
      "            CINDERELLA_SPILL_BUDGET_BYTES>0 attaches a cold page\n"
      "            tier; committed windows spill idle partitions to it\n"
      "            --snapshot FILE.snap   (bulk load via the batched\n"
      "            mutation pipeline; placements match `partition`)\n"
      "  stats     --snapshot FILE.snap [--nodes N]   (with --nodes,\n"
      "            also boot N loopback node servers and print the\n"
      "            per-node stats the coordinator fetches over TCP;\n"
      "            with CINDERELLA_SPILL_BUDGET_BYTES set, demote the\n"
      "            idle tail to a cold page tier and report residency\n"
      "            and buffer-pool hit rate)\n"
      "  query     --snapshot FILE.snap --attrs a,b,c\n"
      "  serve     --snapshot FILE.snap [--port P] [--threads N]\n"
      "            [--duration-ms T]   (host the table as one node\n"
      "            server on loopback TCP; with T=0, serve until stdin\n"
      "            closes; CINDERELLA_NET_* env vars supply defaults)\n"
      "  cluster   --snapshot FILE.snap --nodes N --attrs a,b,c\n"
      "            [--policy schema|rr|least] [--no-prune]\n"
      "            (shard the table over N real node servers, run one\n"
      "            scatter/gather query, print per-node outcomes)\n"
      "  sql       --snapshot FILE.snap --query \"SELECT a WHERE b > 5\"\n"
      "            GROUP BY form: --query \"SELECT type, COUNT(*),\n"
      "            SUM(price) GROUP BY type\" [--limit N]\n"
      "            [--strategy adaptive|two_phase|radix|shared_table]\n"
      "  explain   --snapshot FILE.snap --attrs a,b,c\n"
      "  export    --snapshot FILE.snap --out FILE.csv\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Generate(const Args& args) {
  const std::string out = args.Get("out");
  if (out.empty()) return Usage();
  DbpediaConfig config;
  config.num_entities = static_cast<size_t>(args.GetInt("entities", 10000));
  config.seed = static_cast<uint64_t>(args.GetInt("seed", 42));

  // Stage the rows in an unlimited single-partition table for export.
  CinderellaConfig cc;
  cc.weight = 1.0;
  cc.max_size = config.num_entities + 1;
  UniversalTable table(std::move(Cinderella::Create(cc)).value());
  DbpediaGenerator generator(config, &table.dictionary());
  for (Row& row : generator.Generate()) {
    const Status status = table.InsertRow(std::move(row));
    if (!status.ok()) return Fail(status);
  }
  const Status status = ExportCsvToFile(table, out);
  if (!status.ok()) return Fail(status);
  std::printf("wrote %zu entities x %zu attributes to %s\n",
              config.num_entities, config.num_attributes, out.c_str());
  return 0;
}

int PartitionCommand(const Args& args) {
  const std::string in = args.Get("in");
  const std::string snapshot = args.Get("snapshot");
  if (in.empty() || snapshot.empty()) return Usage();

  CinderellaConfig config;
  config.weight = args.GetDouble("weight", 0.3);
  config.max_size = static_cast<uint64_t>(args.GetInt("max-size", 5000));
  config.dissolve_threshold = args.GetDouble("dissolve", 0.0);
  config.use_synopsis_index = args.flags.count("index") > 0;
  auto created = Cinderella::Create(config);
  if (!created.ok()) return Fail(created.status());
  UniversalTable table(std::move(created).value());

  WallTimer timer;
  Status status = ImportCsvFromFile(in, &table);
  if (!status.ok()) return Fail(status);
  const auto& cinderella =
      static_cast<const Cinderella&>(table.partitioner());
  std::printf("loaded %zu entities in %.2fs: %zu partitions, %llu splits\n",
              table.entity_count(), timer.ElapsedSeconds(),
              table.catalog().partition_count(),
              static_cast<unsigned long long>(cinderella.stats().splits));
  status = SaveSnapshotToFile(cinderella, table.dictionary(), snapshot);
  if (!status.ok()) return Fail(status);
  std::printf("snapshot written to %s\n", snapshot.c_str());
  return 0;
}

// Bulk load through the batched ingest pipeline (src/ingest): rows are
// accumulated into batches, rated window-at-a-time against the sharded
// catalog mirror, and committed with placements identical to `partition`.
// --shards 0 (the default) resolves CINDERELLA_INSERT_SHARDS, then the
// hardware concurrency, mirroring how scan_threads is resolved.
int Load(const Args& args) {
  const std::string in = args.Get("in");
  const std::string snapshot = args.Get("snapshot");
  if (in.empty() || snapshot.empty()) return Usage();

  CinderellaConfig config;
  config.weight = args.GetDouble("weight", 0.3);
  config.max_size = static_cast<uint64_t>(args.GetInt("max-size", 5000));
  config.dissolve_threshold = args.GetDouble("dissolve", 0.0);
  config.use_synopsis_index = args.flags.count("index") > 0;
  config.insert_shards = static_cast<int>(args.GetInt("shards", 0));
  auto created = Cinderella::Create(config);
  if (!created.ok()) return Fail(created.status());
  Cinderella* cinderella = created->get();
  UniversalTable table(std::move(created).value());
  const std::unique_ptr<BatchInserter> engine =
      AttachBatchInserter(cinderella);

  // --probe a,b,c: serve snapshot queries on those attributes from a
  // second thread while the load runs — the MVCC read path end to end.
  // The probe attributes are interned and the Query built *before* the
  // import starts: the dictionary grows concurrently with the load and
  // is not safe to read from another thread mid-import. Pre-interning
  // shifts attribute-id assignment relative to a probe-less load, so the
  // snapshot is not byte-comparable to `partition` output; the
  // *placements* are unaffected (every rating cardinality and tie-break
  // is attribute-id-permutation-invariant).
  const std::string probe = args.Get("probe");
  // --tune: run the workload-driven background reorganizer during the
  // load. The probe executors feed the tracker (set_observer), so the
  // daemon sees real per-partition traffic; without --probe it still
  // consolidates cold under-filled partitions. Knobs resolve from the
  // CINDERELLA_TUNER_* environment (README "Tuner knobs").
  const bool tune = args.flags.count("tune") > 0;
  std::unique_ptr<VersionedTable> versioned;
  WorkloadTracker tracker;
  std::unique_ptr<Reorganizer> reorganizer;
  std::thread probe_thread;
  std::atomic<bool> load_done{false};
  std::atomic<uint64_t> probe_queries{0};
  std::atomic<uint64_t> probe_matched{0};
  if (!probe.empty() || tune) {
    versioned = std::make_unique<VersionedTable>(cinderella, engine.get());
  }
  if (!probe.empty()) {
    std::vector<std::string> names;
    std::stringstream ss(probe);
    std::string name;
    while (std::getline(ss, name, ',')) {
      if (!name.empty()) names.push_back(name);
    }
    for (const std::string& attr : names) {
      table.dictionary().GetOrCreate(attr);
    }
    const Query probe_query = Query::FromNames(table.dictionary(), names);
    probe_thread = std::thread([&, probe_query, tune] {
      while (!load_done.load(std::memory_order_acquire)) {
        {
          const VersionedTable::Snapshot snapshot = versioned->snapshot();
          QueryExecutor executor(snapshot.view());
          if (tune) executor.set_observer(&tracker);
          probe_matched.store(
              executor.Execute(probe_query).metrics.rows_matched,
              std::memory_order_relaxed);
          probe_queries.fetch_add(1, std::memory_order_relaxed);
        }
        // Yield between snapshots so the probe samples the load instead
        // of competing with it for every cycle.
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  if (tune) {
    reorganizer = std::make_unique<Reorganizer>(versioned.get(), &tracker,
                                                ReorganizerOptions::FromEnv());
    reorganizer->Start();
  }

  // Tiered storage (opt-in via CINDERELLA_SPILL_BUDGET_BYTES): attach a
  // cold tier backed by <snapshot>.pages and run the spill policy at
  // every committed ingest window — the window commit is the spill
  // boundary, so the MVCC publication closing the window already
  // reflects the demotions. With --tune, probe traffic ranks partitions
  // by activity and the reorganizer's evict-idle plans nominate
  // partitions; the demotion itself always runs at the next boundary,
  // under the same serialization as every other catalog mutation.
  std::unique_ptr<TieredStore> tier;
  std::unique_ptr<TierController> tier_controller;
  std::mutex spill_request_mu;
  std::vector<PartitionId> spill_requests;
  {
    TieredStoreOptions tier_options;
    tier_options.path = snapshot + ".pages";
    tier_options = TieredStoreOptions::FromEnv(std::move(tier_options));
    if (tier_options.budget_bytes > 0) {
      auto opened = TieredStore::Open(tier_options);
      if (!opened.ok()) return Fail(opened.status());
      tier = std::move(opened).value();
      cinderella->set_cold_tier(tier.get());
      tier_controller = std::make_unique<TierController>(
          cinderella, TierControllerOptions{tier_options.budget_bytes,
                                            tier_options.min_idle});
      if (tune) {
        tier_controller->set_activity_probe(
            [&tracker](PartitionId id) { return tracker.ActivityOf(id); });
      }
      engine->set_spill_hook([&] {
        std::vector<PartitionId> forced;
        {
          std::lock_guard<std::mutex> lock(spill_request_mu);
          forced.swap(spill_requests);
        }
        if (!forced.empty()) (void)tier_controller->SpillPartitions(forced);
        (void)tier_controller->EvaluateAndSpill();
      });
      if (reorganizer != nullptr) {
        reorganizer->set_spill_hook(
            [&](const std::vector<PartitionId>& ids) {
              std::lock_guard<std::mutex> lock(spill_request_mu);
              spill_requests.insert(spill_requests.end(), ids.begin(),
                                    ids.end());
              return ids.size();
            });
      }
    }
  }

  CsvOptions csv;
  csv.batch_rows = static_cast<size_t>(args.GetInt("batch", 1024));
  if (csv.batch_rows == 0) csv.batch_rows = 1;
  // --ops COLUMN routes the file through the unified mutation pipeline as
  // a mixed insert/update/delete stream.
  csv.op_column = args.Get("ops");
  WallTimer timer;
  Status status = ImportCsvFromFile(in, &table, csv);
  const double load_seconds = timer.ElapsedSeconds();
  if (probe_thread.joinable()) {
    load_done.store(true, std::memory_order_release);
    probe_thread.join();
  }
  if (reorganizer != nullptr) reorganizer->Stop();
  if (tier != nullptr) engine->set_spill_hook(nullptr);
  if (!status.ok()) return Fail(status);
  const BatchInserter::Stats ingest = engine->stats();
  std::printf(
      "loaded %zu entities in %.2fs: %zu partitions, %llu splits\n"
      "ingest: %llu batches, %llu windows, %llu ratings "
      "(%llu re-rated, %llu rescanned)\n",
      table.entity_count(), load_seconds,
      table.catalog().partition_count(),
      static_cast<unsigned long long>(cinderella->stats().splits),
      static_cast<unsigned long long>(ingest.batches),
      static_cast<unsigned long long>(ingest.windows),
      static_cast<unsigned long long>(ingest.ratings),
      static_cast<unsigned long long>(ingest.reratings),
      static_cast<unsigned long long>(ingest.rescans));
  if (ingest.updates > 0 || ingest.deletes > 0) {
    std::printf("ops: %llu updates (%llu moved), %llu deletes\n",
                static_cast<unsigned long long>(ingest.updates),
                static_cast<unsigned long long>(
                    cinderella->stats().updates_moved),
                static_cast<unsigned long long>(ingest.deletes));
  }
  if (versioned != nullptr) {
    std::printf(
        "probe '%s': %llu snapshot queries during the load "
        "(%.0f/s, never blocked), final generation %llu, "
        "last result %llu rows\n",
        probe.c_str(),
        static_cast<unsigned long long>(probe_queries.load()),
        static_cast<double>(probe_queries.load()) / load_seconds,
        static_cast<unsigned long long>(versioned->published_generation()),
        static_cast<unsigned long long>(probe_matched.load()));
  }
  if (reorganizer != nullptr) {
    const TunerStats tuner = reorganizer->stats();
    std::printf(
        "tuner: %llu ticks, %llu plans considered, %llu applied "
        "(%llu splits, %llu merges, %llu evictions)\n"
        "tuner: %llu rows moved, %llu plans deferred by budget, "
        "%llu cooldown skips\n"
        "tuner: EFFICIENCY %.3f at generation %llu, tracking %zu "
        "partitions / %.0f decayed queries\n",
        static_cast<unsigned long long>(tuner.ticks),
        static_cast<unsigned long long>(tuner.plans_considered),
        static_cast<unsigned long long>(tuner.plans_applied),
        static_cast<unsigned long long>(tuner.splits_applied),
        static_cast<unsigned long long>(tuner.merges_applied),
        static_cast<unsigned long long>(tuner.evictions_applied),
        static_cast<unsigned long long>(tuner.rows_moved),
        static_cast<unsigned long long>(tuner.plans_deferred_budget),
        static_cast<unsigned long long>(tuner.plans_skipped_cooldown),
        tuner.last_efficiency,
        static_cast<unsigned long long>(tuner.last_generation),
        tuner.tracked_partitions, tuner.tracked_queries);
    if (tuner.spills_applied > 0) {
      std::printf("tuner: %llu partitions nominated for demotion\n",
                  static_cast<unsigned long long>(tuner.spills_applied));
    }
  }
  if (tier != nullptr) {
    const TieredStoreStats ts = tier->stats();
    const CinderellaStats& cs = cinderella->stats();
    const uint64_t probes = ts.pool.hits + ts.pool.misses;
    std::printf(
        "tier: %llu cold chains (%llu entities, %.2f MiB, %llu pages) "
        "after %llu spills / %llu faults; hot %.2f MiB vs budget %.2f MiB\n"
        "tier: buffer pool %llu hits / %llu misses (%.1f%% hit rate), "
        "%llu evictions\n",
        static_cast<unsigned long long>(ts.chains),
        static_cast<unsigned long long>(ts.cold_entities),
        static_cast<double>(ts.cold_bytes) / (1024.0 * 1024.0),
        static_cast<unsigned long long>(ts.cold_pages),
        static_cast<unsigned long long>(cs.spills),
        static_cast<unsigned long long>(cs.faults),
        static_cast<double>(tier_controller->HotBytes()) / (1024.0 * 1024.0),
        static_cast<double>(tier->options().budget_bytes) / (1024.0 * 1024.0),
        static_cast<unsigned long long>(ts.pool.hits),
        static_cast<unsigned long long>(ts.pool.misses),
        probes > 0 ? 100.0 * static_cast<double>(ts.pool.hits) /
                         static_cast<double>(probes)
                   : 0.0,
        static_cast<unsigned long long>(ts.pool.evictions));
  }
  status = SaveSnapshotToFile(*cinderella, table.dictionary(), snapshot);
  if (!status.ok()) return Fail(status);
  std::printf("snapshot written to %s\n", snapshot.c_str());
  return 0;
}

StatusOr<RestoredSnapshot> OpenSnapshot(const Args& args) {
  const std::string snapshot = args.Get("snapshot");
  if (snapshot.empty()) {
    return Status::InvalidArgument("--snapshot is required");
  }
  return LoadSnapshotFromFile(snapshot);
}

/// Copies every live row out of a catalog (to shard a restored table
/// across loopback nodes).
std::vector<Row> CollectRows(const PartitionCatalog& catalog) {
  std::vector<Row> rows;
  catalog.ForEachPartition([&](const Partition& partition) {
    for (const Row& row : partition.segment().rows()) rows.push_back(row);
  });
  return rows;
}

PlacementPolicy ParsePolicy(const std::string& name) {
  if (name == "rr" || name == "round-robin") {
    return PlacementPolicy::kRoundRobin;
  }
  if (name == "least" || name == "least-loaded") {
    return PlacementPolicy::kLeastLoaded;
  }
  return PlacementPolicy::kSchemaAware;
}

/// Prints one per-node stats table by round-tripping kStatsRequest frames
/// through the coordinator — the same wire path a remote operator uses.
int PrintNodeStats(net::Coordinator& coordinator) {
  std::printf("per-node stats (over loopback TCP):\n");
  std::printf("  %-5s %-6s %-10s %-10s %-10s %-12s %-8s\n", "node", "port",
              "generation", "partitions", "entities", "bytes", "served");
  for (size_t n = 0; n < coordinator.num_nodes(); ++n) {
    StatusOr<net::NodeStatsMsg> stats = coordinator.FetchStats(n);
    if (!stats.ok()) return Fail(stats.status());
    std::printf("  %-5zu %-6u %-10llu %-10llu %-10llu %-12llu %-8llu\n", n,
                coordinator.endpoints()[n].port,
                static_cast<unsigned long long>(stats->generation),
                static_cast<unsigned long long>(stats->partitions),
                static_cast<unsigned long long>(stats->entities),
                static_cast<unsigned long long>(stats->bytes),
                static_cast<unsigned long long>(stats->queries_served));
  }
  return 0;
}

int Stats(const Args& args) {
  auto restored = OpenSnapshot(args);
  if (!restored.ok()) return Fail(restored.status());
  Cinderella& c = *restored->partitioner;
  std::printf("%s\n", c.name().c_str());
  std::printf("%s", AnalyzePartitioning(c.catalog()).ToString().c_str());

  // Cold tier (opt-in via CINDERELLA_SPILL_BUDGET_BYTES): demote the
  // restored table's idle tail to a page tier beside the snapshot, run
  // one full hybrid scan through it, and report residency plus
  // buffer-pool behavior. The spilled partitions are faulted back hot
  // before the tier closes (below), so the remaining sections see the
  // table exactly as an all-hot restore would.
  std::unique_ptr<TieredStore> tier;
  {
    TieredStoreOptions tier_options;
    tier_options.path = args.Get("snapshot") + ".pages";
    tier_options = TieredStoreOptions::FromEnv(std::move(tier_options));
    if (tier_options.budget_bytes > 0) {
      auto opened = TieredStore::Open(tier_options);
      if (!opened.ok()) return Fail(opened.status());
      tier = std::move(opened).value();
      c.set_cold_tier(tier.get());
      TierController controller(
          &c, TierControllerOptions{tier_options.budget_bytes, 0});
      const StatusOr<size_t> spilled = controller.EvaluateAndSpill();
      if (!spilled.ok()) return Fail(spilled.status());
      // One match-all predicate scan over a published snapshot: hot
      // versions read their packed rows, cold ones fetch their chains
      // through the buffer pool.
      QueryResult scanned;
      {
        VersionedTable versioned(&c, nullptr);
        const VersionedTable::Snapshot snapshot = versioned.snapshot();
        QueryExecutor executor(snapshot.view(), 0);
        scanned = executor.ExecutePredicate(*And(std::vector<PredicatePtr>{}));
      }
      const TieredStoreStats ts = tier->stats();
      const uint64_t probes = ts.pool.hits + ts.pool.misses;
      std::printf("cold tier (budget %.2f MiB):\n",
                  static_cast<double>(tier_options.budget_bytes) /
                      (1024.0 * 1024.0));
      std::printf("  %zu partitions spilled: %llu chains, %llu entities, "
                  "%.2f MiB in %llu pages; hot %.2f MiB\n",
                  *spilled, static_cast<unsigned long long>(ts.chains),
                  static_cast<unsigned long long>(ts.cold_entities),
                  static_cast<double>(ts.cold_bytes) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(ts.cold_pages),
                  static_cast<double>(controller.HotBytes()) /
                      (1024.0 * 1024.0));
      std::printf("  full hybrid scan: %llu rows; buffer pool %llu hits / "
                  "%llu misses (%.1f%% hit rate), %llu evictions\n",
                  static_cast<unsigned long long>(
                      scanned.metrics.rows_scanned),
                  static_cast<unsigned long long>(ts.pool.hits),
                  static_cast<unsigned long long>(ts.pool.misses),
                  probes > 0 ? 100.0 * static_cast<double>(ts.pool.hits) /
                                   static_cast<double>(probes)
                             : 0.0,
                  static_cast<unsigned long long>(ts.pool.evictions));
    }
  }

  // Snapshot memory footprint: publish one MVCC view of the restored
  // table and report what the read engine holds for it — how many
  // immutable versions the current generation references, the buffer
  // bytes they pack, and what unreclaimed versions hold in total
  // (mvcc/partition_version.h, DESIGN.md §10).
  {
    VersionedTable versioned(&c, nullptr);
    const VersionedTable::MemoryStats m = versioned.memory_stats();
    std::printf("mvcc snapshot footprint:\n");
    std::printf("  generation          %llu\n",
                static_cast<unsigned long long>(m.generation));
    std::printf("  live versions       %zu (%.2f MiB view bytes)\n",
                m.live_versions,
                static_cast<double>(m.view_bytes) / (1024.0 * 1024.0));
    std::printf("  tier residency      %zu hot / %zu cold versions "
                "(%.2f MiB in %llu cold pages)\n",
                m.hot_versions, m.cold_versions,
                static_cast<double>(m.cold_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(m.cold_pages));
    std::printf("  held bytes          %.2f MiB (current and retired "
                "versions)\n",
                static_cast<double>(m.held_bytes) / (1024.0 * 1024.0));
    std::printf("  buffers allocated   %llu\n",
                static_cast<unsigned long long>(m.arenas.blocks_allocated));
    std::printf("  retired awaiting gc %zu (reclaimed %llu)\n",
                m.retired_objects,
                static_cast<unsigned long long>(m.reclaimed_objects));
    if (m.tree.enabled) {
      std::printf("  query synopsis tree depth %zu, fanout %zu, %zu internal "
                  "nodes over %llu leaves\n",
                  m.tree.depth, m.tree.fanout, m.tree.internal_nodes,
                  static_cast<unsigned long long>(m.tree.live_leaves));
      std::printf("  query tree maint.   %llu upserts (%llu fast-merged, "
                  "%llu re-ORed nodes), %llu removes, %llu collapses, "
                  "%llu COW copies\n",
                  static_cast<unsigned long long>(m.tree.upserts),
                  static_cast<unsigned long long>(m.tree.fast_merges),
                  static_cast<unsigned long long>(m.tree.node_reors),
                  static_cast<unsigned long long>(m.tree.removes),
                  static_cast<unsigned long long>(m.tree.collapses),
                  static_cast<unsigned long long>(m.tree.nodes_copied));
    }
  }
  if (args.flags.count("verify") > 0) {
    const Status integrity = c.VerifyIntegrity();
    std::printf("integrity: %s\n", integrity.ToString().c_str());
    if (!integrity.ok()) return 1;
  }

  // Fault everything back hot before the tier closes: the loopback
  // sharding below copies rows out of live segments.
  if (tier != nullptr) {
    std::vector<PartitionId> cold_ids;
    c.catalog().ForEachPartition([&](const Partition& partition) {
      if (partition.cold()) cold_ids.push_back(partition.id());
    });
    for (const PartitionId id : cold_ids) {
      Partition* partition = c.catalog().GetPartition(id);
      if (partition == nullptr) continue;
      const Status hot = c.EnsureHot(*partition);
      if (!hot.ok()) return Fail(hot);
    }
    c.set_cold_tier(nullptr);
  }

  // --nodes N: shard the restored table over N real loopback node
  // servers and print what each reports over the wire.
  const int64_t nodes = args.GetInt("nodes", 0);
  if (nodes > 0) {
    net::LoopbackClusterOptions options = net::LoopbackClusterOptions::FromEnv();
    options.nodes = static_cast<size_t>(nodes);
    options.config = c.config();
    net::LoopbackCluster cluster(std::move(options));
    const Status status = cluster.Load(CollectRows(c.catalog()));
    if (!status.ok()) return Fail(status);
    return PrintNodeStats(cluster.coordinator());
  }
  return 0;
}

int Serve(const Args& args) {
  auto restored = OpenSnapshot(args);
  if (!restored.ok()) return Fail(restored.status());
  Cinderella& c = *restored->partitioner;
  VersionedTable table(&c, nullptr);

  net::NodeServerOptions options = net::NodeServerOptions::FromEnv();
  options.port = static_cast<uint16_t>(args.GetInt("port", options.port));
  const int64_t threads = args.GetInt("threads", 0);
  if (threads > 0) options.threads = static_cast<int>(threads);
  net::NodeServer server(&table, options);
  Status status = server.Start();
  if (!status.ok()) return Fail(status);

  std::printf("serving %zu partitions on 127.0.0.1:%u\n",
              c.catalog().partition_count(),
              static_cast<unsigned>(server.port()));
  std::fflush(stdout);

  const int64_t duration_ms = args.GetInt("duration-ms", 0);
  if (duration_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  } else {
    // Serve until stdin closes (Ctrl-D, or the driving pipe ends).
    while (std::getchar() != EOF) {
    }
  }
  server.Stop();
  const net::NodeServer::Stats stats = server.stats();
  std::printf(
      "served %llu queries (%llu rows shipped) over %llu connections, "
      "%llu bad frames rejected\n",
      static_cast<unsigned long long>(stats.queries_served),
      static_cast<unsigned long long>(stats.rows_shipped),
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.frames_rejected));
  return 0;
}

int ClusterCommand(const Args& args) {
  auto restored = OpenSnapshot(args);
  if (!restored.ok()) return Fail(restored.status());
  const std::string attrs = args.Get("attrs");
  if (attrs.empty()) return Usage();
  std::vector<std::string> names;
  std::stringstream ss(attrs);
  std::string name;
  while (std::getline(ss, name, ',')) {
    if (!name.empty()) names.push_back(name);
  }
  const Query query = Query::FromNames(*restored->dictionary, names);

  Cinderella& c = *restored->partitioner;
  net::LoopbackClusterOptions options = net::LoopbackClusterOptions::FromEnv();
  options.nodes = static_cast<size_t>(args.GetInt("nodes", 2));
  options.policy = ParsePolicy(args.Get("policy", "schema"));
  options.config = c.config();
  if (args.flags.count("no-prune") > 0) options.coordinator.prune = false;
  net::LoopbackCluster cluster(std::move(options));
  const Status status = cluster.Load(CollectRows(c.catalog()));
  if (!status.ok()) return Fail(status);

  const net::GatherResult result = cluster.coordinator().Execute(query);
  std::printf(
      "%s: %llu rows gathered in %.3f ms from %llu/%llu nodes "
      "(%llu pruned by digest, %llu failed)\n",
      result.complete ? "complete" : "PARTIAL",
      static_cast<unsigned long long>(result.rows.size()), result.wall_ms,
      static_cast<unsigned long long>(result.nodes_contacted),
      static_cast<unsigned long long>(result.nodes_total),
      static_cast<unsigned long long>(result.nodes_pruned),
      static_cast<unsigned long long>(result.nodes_failed));
  std::printf(
      "scanned %llu/%llu partitions (%llu pruned node-side), "
      "%llu cells shipped, slowest node %.3f ms\n",
      static_cast<unsigned long long>(result.partitions_scanned),
      static_cast<unsigned long long>(result.partitions_total),
      static_cast<unsigned long long>(result.partitions_pruned),
      static_cast<unsigned long long>(result.cells_shipped),
      result.max_node_ms);
  for (const net::NodeOutcome& outcome : result.nodes) {
    std::printf("  node %zu: %s, %llu rows, %d attempt(s), %.3f ms%s%s\n",
                outcome.node,
                outcome.pruned ? "pruned" : (outcome.ok ? "ok" : "FAILED"),
                static_cast<unsigned long long>(outcome.rows),
                outcome.attempts, outcome.wall_ms,
                outcome.error.empty() ? "" : " — ",
                outcome.error.c_str());
  }
  return PrintNodeStats(cluster.coordinator());
}

int QueryCommand(const Args& args) {
  auto restored = OpenSnapshot(args);
  if (!restored.ok()) return Fail(restored.status());
  const std::string attrs = args.Get("attrs");
  if (attrs.empty()) return Usage();
  std::vector<std::string> names;
  std::stringstream ss(attrs);
  std::string name;
  while (std::getline(ss, name, ',')) {
    if (!name.empty()) names.push_back(name);
  }
  const Query query = Query::FromNames(*restored->dictionary, names);
  VersionedTable versioned(restored->partitioner.get(), nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  // Degree 0: honor CINDERELLA_SCAN_THREADS / the hardware, like inserts.
  QueryExecutor executor(snapshot.view(), 0);
  WallTimer timer;
  const QueryResult result = executor.Execute(query);
  std::printf(
      "matched %llu rows (selectivity %.4f) in %.3f ms; scanned %llu/%llu "
      "partitions (%llu pruned), %llu cells read\n",
      static_cast<unsigned long long>(result.metrics.rows_matched),
      result.selectivity, timer.ElapsedMillis(),
      static_cast<unsigned long long>(result.metrics.partitions_scanned),
      static_cast<unsigned long long>(result.metrics.partitions_total),
      static_cast<unsigned long long>(result.metrics.partitions_pruned),
      static_cast<unsigned long long>(result.metrics.cells_read));
  return 0;
}

int Explain(const Args& args) {
  auto restored = OpenSnapshot(args);
  if (!restored.ok()) return Fail(restored.status());
  const std::string attrs = args.Get("attrs");
  if (attrs.empty()) return Usage();
  std::vector<std::string> names;
  std::stringstream ss(attrs);
  std::string name;
  while (std::getline(ss, name, ',')) {
    if (!name.empty()) names.push_back(name);
  }
  const Query query = Query::FromNames(*restored->dictionary, names);
  VersionedTable versioned(restored->partitioner.get(), nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  std::fputs(ExplainQuery(snapshot.view(), query).c_str(), stdout);
  return 0;
}

/// Renders one aggregate column of a group row, in SELECT-list order.
std::string AggregateColumn(const AggregateItem& item,
                            const GroupResult& group) {
  switch (item.fn) {
    case AggregateFn::kCount:
      return std::to_string(item.count_all ? group.count
                                           : group.value_count);
    case AggregateFn::kSum:
      return std::to_string(group.sum);
    case AggregateFn::kMin:
      return group.value_count > 0 ? std::to_string(group.min) : "null";
    case AggregateFn::kMax:
      return group.value_count > 0 ? std::to_string(group.max) : "null";
    case AggregateFn::kAvg: {
      if (group.value_count == 0) return "null";
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.6g", group.avg());
      return buf;
    }
  }
  return "";
}

int SqlGroupBy(const Args& args, const CatalogView& view,
               const SelectStatement& statement) {
  AggregatorOptions options;
  options.scan_threads = 0;  // CINDERELLA_SCAN_THREADS / hardware.
  const std::string strategy = args.Get("strategy", "adaptive");
  if (strategy == "two_phase") {
    options.strategy = AggregateStrategy::kTwoPhase;
  } else if (strategy == "radix") {
    options.strategy = AggregateStrategy::kRadix;
  } else if (strategy == "shared_table") {
    options.strategy = AggregateStrategy::kSharedTable;
  } else if (strategy != "adaptive") {
    std::fprintf(stderr, "error: unknown --strategy '%s'\n",
                 strategy.c_str());
    return 2;
  }
  AggregateSpec spec;
  spec.group_by = statement.group_by;
  spec.where = statement.where.get();
  for (const AggregateItem& item : statement.aggregates) {
    if (!item.count_all) spec.value = item.attribute;
  }
  Aggregator aggregator(view, options);
  WallTimer timer;
  const AggregationResult result = aggregator.Aggregate(spec);
  const double elapsed_ms = timer.ElapsedMillis();
  const size_t limit =
      static_cast<size_t>(args.GetInt("limit", 20));
  size_t printed = 0;
  for (const GroupResult& group : result.groups) {
    if (printed >= limit) break;
    ++printed;
    std::string line = group.key.ToString();
    for (const AggregateItem& item : statement.aggregates) {
      line += "  ";
      line += AggregateColumn(item, group);
    }
    std::printf("%s\n", line.c_str());
  }
  if (printed < result.groups.size()) {
    std::printf("... %zu more groups\n", result.groups.size() - printed);
  }
  std::printf(
      "%zu groups from %llu rows in %.3f ms; strategy %s (estimated %llu "
      "groups%s); scanned %llu/%llu partitions (%llu pruned)\n",
      result.groups.size(),
      static_cast<unsigned long long>(result.metrics.rows_matched),
      elapsed_ms, AggregateStrategyName(result.strategy_used),
      static_cast<unsigned long long>(result.estimated_groups),
      result.shared_table_overflow ? ", shared table overflowed" : "",
      static_cast<unsigned long long>(result.metrics.partitions_scanned),
      static_cast<unsigned long long>(result.metrics.partitions_total),
      static_cast<unsigned long long>(result.metrics.partitions_pruned));
  return 0;
}

int Sql(const Args& args) {
  auto restored = OpenSnapshot(args);
  if (!restored.ok()) return Fail(restored.status());
  const std::string text = args.Get("query");
  if (text.empty()) return Usage();
  auto statement = ParseSelect(text, *restored->dictionary);
  if (!statement.ok()) return Fail(statement.status());
  VersionedTable versioned(restored->partitioner.get(), nullptr);
  const VersionedTable::Snapshot snapshot = versioned.snapshot();
  if (statement->has_group_by) {
    return SqlGroupBy(args, snapshot.view(), *statement);
  }
  QueryExecutor executor(snapshot.view(), 0);
  WallTimer timer;
  const QueryResult result = executor.ExecuteSelect(*statement);
  std::printf(
      "matched %llu rows in %.3f ms; %llu cells materialized; scanned "
      "%llu/%llu partitions (%llu pruned)\n",
      static_cast<unsigned long long>(result.metrics.rows_matched),
      timer.ElapsedMillis(),
      static_cast<unsigned long long>(result.cells_materialized),
      static_cast<unsigned long long>(result.metrics.partitions_scanned),
      static_cast<unsigned long long>(result.metrics.partitions_total),
      static_cast<unsigned long long>(result.metrics.partitions_pruned));
  return 0;
}

int Export(const Args& args) {
  auto restored = OpenSnapshot(args);
  if (!restored.ok()) return Fail(restored.status());
  const std::string out = args.Get("out");
  if (out.empty()) return Usage();
  UniversalTable table(std::move(restored->partitioner),
                       std::move(*restored->dictionary));
  const Status status = ExportCsvToFile(table, out);
  if (!status.ok()) return Fail(status);
  std::printf("exported %zu entities to %s\n", table.entity_count(),
              out.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return Usage();
    flag = flag.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.flags[flag] = argv[++i];
    } else {
      args.flags[flag] = "true";  // Boolean flag (e.g. --index).
    }
  }
  if (args.command == "generate") return Generate(args);
  if (args.command == "partition") return PartitionCommand(args);
  if (args.command == "load") return Load(args);
  if (args.command == "stats") return Stats(args);
  if (args.command == "query") return QueryCommand(args);
  if (args.command == "serve") return Serve(args);
  if (args.command == "cluster") return ClusterCommand(args);
  if (args.command == "sql") return Sql(args);
  if (args.command == "explain") return Explain(args);
  if (args.command == "export") return Export(args);
  return Usage();
}

}  // namespace
}  // namespace cinderella

int main(int argc, char** argv) { return cinderella::Main(argc, argv); }
