// tpch_scatter: the Table I query footprints over real loopback sockets,
// with the TPC-H refresh functions between passes.
//
// Why it exists: it is the only workload that runs the wire codec, the
// node servers, the coordinator's prune/scatter/merge and placement, and
// its setup is the ingest of regular data with disjoint schemas, where the
// synopsis tree prunes almost everything (the TPC-H ingest guard). Its
// writes are the TPC-H refresh functions; a change to the durable journal
// or the cold tier must leave it unchanged.
//
// The writes are TPC-H's two refresh functions at this scale factor. RF1
// ("new sales") inserts SF x 1500 new ORDERS rows, each with RANDOM(1, 7)
// new LINEITEM rows; RF2 ("old sales") deletes SF x 1500 loaded orders
// with their lineitems. Consecutive power tests run RF1, Q1..Q22, RF2,
// RF1, Q1..Q22, RF2, ..., so one RF2 and the next RF1 sit between two
// passes over the queries. The specification lets a refresh function run
// as several transactions as long as each keeps an order together with
// its lineitems; here each function runs as kRefreshOrders /
// kOrdersPerTransaction transactions, and transaction k of RF2 and
// transaction k of RF1 are applied together: delete kOrdersPerTransaction
// old orders with their lineitems, insert as many new orders with theirs.
// That is one write operation. (Run apart, RF1's inserts land in a few
// open partitions and take a tenth of the time of RF2's scattered
// deletes, and the write median would fall between the two. One order
// per operation, about 1 ms, let a host slowdown move the write tail,
// the 11th slowest of 150, by 2.3x.)
#include <algorithm>
#include <cstdio>
#include <memory>
#include <random>
#include <stdexcept>

#include "core/efficiency.h"
#include "ingest/mutation_pipeline.h"
#include "net/loopback_cluster.h"
#include "workload/tpch/tpch_generator.h"
#include "workload/tpch/tpch_queries.h"
#include "workloads.h"

namespace perfbench {
namespace {

using cinderella::AttributeDictionary;
using cinderella::AttributeId;
using cinderella::EntityId;
using cinderella::Mutation;
using cinderella::Row;
using cinderella::Status;
using cinderella::Synopsis;
using cinderella::TpchTable;
using cinderella::net::GatherResult;
using cinderella::net::LoopbackCluster;

constexpr double kScaleFactor = 0.02;
constexpr size_t kNodes = 2;
/// Passes over the 22 footprints per second of --seconds (reference host
/// calibration).
constexpr double kPassesPerSecond = 0.45;
/// Orders inserted by RF1 and deleted by RF2: SF x 1500.
constexpr size_t kRefreshOrders = 30;
static_assert(kRefreshOrders == static_cast<size_t>(kScaleFactor * 1500 + 0.5));
/// Orders deleted and inserted per write operation.
constexpr size_t kOrdersPerTransaction = 3;
static_assert(kRefreshOrders % kOrdersPerTransaction == 0);
/// The generator makes 6,000,000 x SF lineitems for 1,500,000 x SF
/// orders and no foreign keys, so loaded order o owns lineitems 4o..4o+3.
constexpr uint64_t kLineitemsPerOrder = 4;

cinderella::net::LoopbackClusterOptions ClusterOptions() {
  cinderella::net::LoopbackClusterOptions options;
  options.nodes = kNodes;
  options.policy = cinderella::PlacementPolicy::kSchemaAware;
  options.config = PinnedConfig(0.5, 2000);
  options.server.port = 0;
  options.server.threads = 1;
  options.server.poll_ms = 50;
  options.server.batch_rows = 256;
  options.server.io_timeout_ms = 5000;
  options.coordinator.timeout_ms = 10000;
  options.coordinator.retries = 2;
  options.coordinator.backoff_ms = 20;
  options.coordinator.prune = true;
  options.port_base = 0;
  return options;
}

/// One refresh transaction: its mutations per node and the change it makes
/// to every query's expected row count.
struct Transaction {
  std::vector<std::vector<Mutation>> per_node;
  std::vector<int64_t> delta;
  size_t rows = 0;
};

struct State {
  AttributeDictionary dictionary;
  std::unique_ptr<LoopbackCluster> cluster;
  std::vector<cinderella::Query> queries;
  std::vector<Synopsis> synopses;
  std::vector<int64_t> counts;  // Rows each query matches right now.
  /// The refresh before each pass; [0] precedes the warm-up pass.
  std::vector<std::vector<Transaction>> refreshes;
  uint64_t load_rows = 0;
  uint64_t load_rated = 0;
};

size_t PassCount(const Options& options) {
  return std::max<size_t>(
      1, static_cast<size_t>(options.seconds * kPassesPerSecond + 0.5));
}

std::vector<AttributeId> Columns(const AttributeDictionary& dictionary,
                                 TpchTable table) {
  std::vector<AttributeId> columns;
  for (const std::string& name : cinderella::TpchColumns(table)) {
    columns.push_back(*dictionary.Find(name));
  }
  return columns;
}

/// Node holding most of one table's loaded rows: where RF1 sends that
/// table's new rows. Every partition holds one table (disjoint schemas).
size_t HomeOfTable(LoopbackCluster& cluster, AttributeId column) {
  std::vector<uint64_t> rows(kNodes, 0);
  for (size_t n = 0; n < kNodes; ++n) {
    cluster.node_table(n).partitioner().catalog().ForEachPartition(
        [&](const cinderella::Partition& partition) {
          if (partition.attribute_synopsis().Contains(column)) {
            rows[n] += partition.entity_count();
          }
        });
  }
  return static_cast<size_t>(std::max_element(rows.begin(), rows.end()) -
                             rows.begin());
}

/// Adds one row to a transaction: its mutation on `node` and its effect
/// (`sign`) on every query's count.
void AddRow(State& state, Transaction& txn, size_t node, Mutation mutation,
            const Row& row, int sign) {
  const Synopsis attributes = row.AttributeSynopsis();
  for (size_t q = 0; q < state.synopses.size(); ++q) {
    if (attributes.Intersects(state.synopses[q])) txn.delta[q] += sign;
  }
  txn.per_node[node].push_back(std::move(mutation));
  ++txn.rows;
}

/// Builds the refreshes before passes 0..passes: RF1 rows drawn like the
/// generator's, RF2 orders drawn from the load without repetition.
void BuildRefreshes(State& state, const std::vector<Row>& rows,
                    size_t passes, uint64_t seed) {
  LoopbackCluster& cluster = *state.cluster;
  const std::vector<AttributeId> order_columns =
      Columns(state.dictionary, TpchTable::kOrders);
  const std::vector<AttributeId> item_columns =
      Columns(state.dictionary, TpchTable::kLineitem);
  const size_t order_home = HomeOfTable(cluster, order_columns.front());
  const size_t item_home = HomeOfTable(cluster, item_columns.front());
  const uint64_t orders =
      cinderella::TpchRowCount(TpchTable::kOrders, kScaleFactor);
  const uint64_t items =
      cinderella::TpchRowCount(TpchTable::kLineitem, kScaleFactor);
  if (items != orders * kLineitemsPerOrder) {
    throw std::runtime_error("lineitems are not 4 per order");
  }
  // Rows are in dbgen table order, so a table's ordinal o sits at its
  // first row's index + o.
  size_t first_order = rows.size(), first_item = rows.size();
  for (size_t i = 0; i < rows.size(); ++i) {
    const TpchTable table = cinderella::TpchTableOfEntity(rows[i].id());
    if (table == TpchTable::kOrders && first_order == rows.size()) {
      first_order = i;
    }
    if (table == TpchTable::kLineitem && first_item == rows.size()) {
      first_item = i;
    }
  }

  std::mt19937_64 rng(SubSeed(seed, 2));
  std::vector<uint64_t> doomed(orders);  // RF2 victims, in deletion order.
  for (uint64_t o = 0; o < orders; ++o) doomed[o] = o;
  std::shuffle(doomed.begin(), doomed.end(), rng);
  size_t next_doomed = 0;
  uint64_t next_order = orders, next_item = items;
  auto home_of = [&](EntityId id) {
    for (size_t n = 0; n < kNodes; ++n) {
      if (cluster.node_table(n).Get(id).ok()) return n;
    }
    throw std::runtime_error("refresh row not placed");
  };
  auto new_row = [&](TpchTable table, uint64_t ordinal,
                     const std::vector<AttributeId>& columns) {
    Row row(cinderella::TpchEntityId(table, ordinal));
    for (AttributeId column : columns) {
      row.Set(column, cinderella::Value(static_cast<int64_t>(rng() % 1000000)));
    }
    return row;
  };
  auto empty_txn = [&] {
    Transaction txn;
    txn.per_node.resize(kNodes);
    txn.delta.assign(state.synopses.size(), 0);
    return txn;
  };

  for (size_t p = 0; p <= passes; ++p) {
    std::vector<Transaction> refresh;
    for (size_t t = 0; t < kRefreshOrders / kOrdersPerTransaction; ++t) {
      Transaction txn = empty_txn();
      for (size_t k = 0; k < kOrdersPerTransaction; ++k) {
        // RF2: one loaded order and its lineitems.
        const uint64_t victim = doomed[next_doomed++];
        const Row& old_order = rows[first_order + victim];
        AddRow(state, txn, home_of(old_order.id()),
               Mutation::Delete(old_order.id()), old_order, -1);
        for (uint64_t l = 0; l < kLineitemsPerOrder; ++l) {
          const Row& old_item =
              rows[first_item + victim * kLineitemsPerOrder + l];
          AddRow(state, txn, home_of(old_item.id()),
                 Mutation::Delete(old_item.id()), old_item, -1);
        }
      }
      for (size_t k = 0; k < kOrdersPerTransaction; ++k) {
        // RF1: one new order and RANDOM(1, 7) new lineitems.
        Row order = new_row(TpchTable::kOrders, next_order++, order_columns);
        AddRow(state, txn, order_home, Mutation::Insert(order), order, +1);
        const uint64_t lineitems = 1 + rng() % 7;
        for (uint64_t l = 0; l < lineitems; ++l) {
          Row item = new_row(TpchTable::kLineitem, next_item++, item_columns);
          AddRow(state, txn, item_home, Mutation::Insert(item), item, +1);
        }
      }
      refresh.push_back(std::move(txn));
    }
    state.refreshes.push_back(std::move(refresh));
  }
}

std::unique_ptr<State> Setup(const Options& options, Tracer& tracer,
                             double* client_rss_mb) {
  auto state = std::make_unique<State>();
  std::vector<Row> rows;
  {
    ScopedSpan span(tracer, "workload.generate");
    cinderella::TpchGeneratorConfig config;
    config.scale_factor = kScaleFactor;
    config.seed = SubSeed(options.seed, 1);
    config.shuffle = false;  // dbgen table order.
    cinderella::TpchGenerator generator(config, &state->dictionary);
    rows = generator.Generate();
  }
  for (const auto& footprint : cinderella::TpchQueryFootprints()) {
    state->queries.push_back(
        cinderella::MakeTpchQuery(footprint, state->dictionary));
    state->synopses.push_back(state->queries.back().attributes());
  }
  state->counts.assign(state->queries.size(), 0);
  for (const Row& row : rows) {
    const Synopsis attributes = row.AttributeSynopsis();
    for (size_t q = 0; q < state->synopses.size(); ++q) {
      if (attributes.Intersects(state->synopses[q])) ++state->counts[q];
    }
  }
  state->load_rows = rows.size();
  if (client_rss_mb != nullptr) *client_rss_mb = CurrentRssMb();

  state->cluster = std::make_unique<LoopbackCluster>(ClusterOptions());
  {
    ScopedSpan span(tracer, "net.load");
    Require(state->cluster->Load(rows), "cluster load");
  }
  for (size_t n = 0; n < kNodes; ++n) {
    const auto& engine = state->cluster->node_table(n).partitioner();
    state->load_rated += engine.stats().partitions_rated;
    if (const auto* pipeline = dynamic_cast<const cinderella::MutationPipeline*>(
            engine.batch_engine())) {
      state->load_rated += pipeline->stats().ratings;
    }
  }
  BuildRefreshes(*state, rows, PassCount(options), options.seed);
  return state;
}

/// One gather; false when it is incomplete or its row count disagrees
/// with the oracle.
bool Gather(State& state, size_t q, Tracer& tracer, GatherResult* out,
            double* ms) {
  const auto start = Clock::now();
  {
    ScopedSpan op(tracer, "op.read");
    ScopedSpan span(tracer, "net.gather");
    *out = state.cluster->coordinator().Execute(state.queries[q]);
  }
  *ms = MillisBetween(start, Clock::now());
  return out->complete &&
         static_cast<int64_t>(out->rows.size()) == state.counts[q];
}

/// Applies one refresh transaction, one ApplyMutations call per node it
/// touches, and moves the oracle's counts on success.
Status Apply(State& state, Transaction txn, Tracer& tracer, double* ms) {
  const auto start = Clock::now();
  Status status;
  {
    ScopedSpan op(tracer, "op.write");
    for (size_t n = 0; n < kNodes && status.ok(); ++n) {
      if (txn.per_node[n].empty()) continue;
      const size_t count = txn.per_node[n].size();
      size_t applied = 0;
      {
        ScopedSpan span(tracer, "mvcc.apply");
        status = state.cluster->node_table(n).ApplyMutations(
            std::move(txn.per_node[n]), &applied);
      }
      if (status.ok() && applied != count) {
        status = Status::Internal("partial refresh");
      }
    }
  }
  *ms = MillisBetween(start, Clock::now());
  if (status.ok()) {
    for (size_t q = 0; q < state.counts.size(); ++q) {
      state.counts[q] += txn.delta[q];
    }
  }
  return status;
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
    // Warm-up: one untimed pass, its refresh included.
    Tracer off(false);
    double ms = 0.0;
    for (Transaction& txn : state->refreshes[0]) {
      Require(Apply(*state, std::move(txn), off, &ms), "warm-up refresh");
    }
    for (size_t q = 0; q < state->queries.size(); ++q) {
      GatherResult gathered;
      if (!Gather(*state, q, off, &gathered, &ms)) {
        result.Fail("warm-up gather disagrees with the oracle");
      }
    }
    setup_s.push_back(MillisBetween(start, Clock::now()) / 1e3);
  }
  pass.setup_s = Median(setup_s);

  std::vector<double> read_ms, write_ms, slowest_ms, coordinator_ms;
  double read_total_ms = 0.0, write_total_ms = 0.0;
  uint64_t committed = 0;
  uint64_t cells = 0, nodes_pruned = 0, nodes_total = 0, retries = 0;
  uint64_t straggler_rows = 0, matched = 0;
  uint64_t partitions_total = 0, partitions_scanned = 0, rows_scanned = 0;
  const size_t passes = PassCount(options);
  for (size_t p = 1; p <= passes; ++p) {
    std::vector<Transaction>& refresh = state->refreshes[p];
    for (size_t t = 0; t < refresh.size(); ++t) {
      const bool on = tracer.NextOp(TraceTurn(p, t));
      double ms = 0.0;
      const size_t rows = refresh[t].rows;
      const Status status = Apply(*state, std::move(refresh[t]), tracer, &ms);
      ++result.attempted;
      if (!status.ok()) {
        ++result.failed;
        result.Fail("refresh: " + status.ToString());
        continue;
      }
      write_ms.push_back(ms);
      pass.write_split.Add(t, on, ms);
      write_total_ms += ms;
      committed += rows;
    }
    for (size_t q = 0; q < state->queries.size(); ++q) {
      const bool on = tracer.NextOp(TraceTurn(p, q));
      GatherResult gathered;
      double ms = 0.0;
      const bool ok = Gather(*state, q, tracer, &gathered, &ms);
      ++result.attempted;
      read_ms.push_back(ms);
      pass.read_split.Add(q, on, ms);
      read_total_ms += ms;
      if (!ok) {
        ++result.failed;
        result.Fail("gather " + std::to_string(q + 1) +
                    (gathered.complete ? " row count differs from the oracle"
                                       : " incomplete"));
      }
      slowest_ms.push_back(gathered.max_node_ms);
      coordinator_ms.push_back(ms - gathered.max_node_ms);
      cells += gathered.cells_shipped;
      nodes_pruned += gathered.nodes_pruned;
      nodes_total += gathered.nodes_total;
      for (const auto& node : gathered.nodes) {
        if (!node.pruned && node.attempts > 0) retries += node.attempts - 1;
      }
      straggler_rows += gathered.max_node_rows;
      matched += gathered.rows_matched;
      partitions_total += gathered.partitions_total;
      partitions_scanned += gathered.partitions_scanned;
      rows_scanned += gathered.rows_scanned;
    }
  }
  pass.reads = Summarize(read_ms);
  pass.writes = Summarize(write_ms);
  pass.reads_per_s =
      Ratio(static_cast<double>(read_ms.size()), read_total_ms / 1e3);
  pass.write_rows_per_s =
      Ratio(static_cast<double>(committed), write_total_ms / 1e3);
  double relevant = 0.0, read = 0.0;
  uint64_t partitions = 0;
  for (size_t n = 0; n < kNodes; ++n) {
    cinderella::VersionedTable& table = state->cluster->node_table(n);
    const cinderella::VersionedTable::Snapshot snapshot = table.snapshot();
    const auto e = cinderella::ComputeEfficiency(
        snapshot.view(), state->synopses, cinderella::SizeMeasure::kEntityCount);
    relevant += e.relevant;
    read += e.read;
    partitions += snapshot.view().partition_count();
    const Status integrity = table.partitioner().VerifyIntegrity();
    if (!integrity.ok()) result.Fail("node integrity: " + integrity.ToString());
  }
  pass.efficiency = Ratio(relevant, read);

  if (traced) {
    const double gathers = static_cast<double>(read_ms.size());
    auto& L = pass.layers;
    L.push_back({"workload.generate_s",
                 Median(tracer.DurationsMs("workload.generate")) / 1e3});
    L.push_back({"core.ratings_per_row",
                 Ratio(static_cast<double>(state->load_rated),
                       static_cast<double>(state->load_rows))});
    L.push_back({"synopsis.candidate_share",
                 Ratio(static_cast<double>(state->load_rated),
                       static_cast<double>(state->load_rows) *
                           static_cast<double>(partitions))});
    L.push_back({"core.partitions", static_cast<double>(partitions)});
    L.push_back({"mvcc.apply_ms", Median(tracer.DurationsMs("mvcc.apply"))});
    L.push_back({"query.scanned_share",
                 Ratio(static_cast<double>(partitions_scanned),
                       static_cast<double>(partitions_total))});
    L.push_back({"query.rows_scanned_per_match",
                 Ratio(static_cast<double>(rows_scanned),
                       static_cast<double>(matched))});
    L.push_back({"net.gather_ms", Median(tracer.DurationsMs("net.gather"))});
    L.push_back({"net.slowest_node_ms", Median(slowest_ms)});
    L.push_back({"net.coordinator_ms", Median(coordinator_ms)});
    L.push_back({"net.cells_shipped_per_query",
                 Ratio(static_cast<double>(cells), gathers)});
    L.push_back({"net.nodes_pruned_share",
                 Ratio(static_cast<double>(nodes_pruned),
                       static_cast<double>(nodes_total))});
    L.push_back({"net.retries", static_cast<double>(retries)});
    L.push_back({"distributed.straggler_row_share",
                 Ratio(static_cast<double>(straggler_rows),
                       static_cast<double>(matched))});
    L.push_back({"trace.span_coverage", tracer.MedianCoverage()});
    std::printf("spans of the traced pass:\n");
    PrintSelfTimes(tracer);
    if (!tracer.WriteCsv(options.data_dir + "/spans-tpch_scatter.csv")) {
      std::printf("note: span file not written\n");
    }
  }
  return pass;
}

}  // namespace

RunResult RunTpchScatter(const Options& options) {
  return RunWorkload(options, {RunPass, "read (gather)",
                               "write (refresh transaction)",
                               /*overhead_on_writes=*/false});
}

}  // namespace perfbench
