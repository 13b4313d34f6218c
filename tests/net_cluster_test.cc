// End-to-end tests of the networked scale-out path: a coordinator plus
// real NodeServers on loopback TCP must produce results bit-identical to
// single-node execution, prune whole nodes via synopsis digests, survive
// a killed node with a timely partial result, and serve per-node stats.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cinderella.h"
#include "mvcc/versioned_table.h"
#include "net/loopback_cluster.h"
#include "net/node_server.h"
#include "net/socket.h"
#include "query/executor.h"

namespace cinderella {
namespace net {
namespace {

Row MakeRow(EntityId id, std::initializer_list<AttributeId> attrs) {
  Row row(id);
  int64_t v = static_cast<int64_t>(id);
  for (AttributeId a : attrs) row.Set(a, Value(v++));
  return row;
}

/// Four attribute families of 30 rows each; family f instantiates
/// attributes {f*10, f*10+1, f*10+2}.
std::vector<Row> FamilyRows() {
  std::vector<Row> rows;
  EntityId next = 0;
  for (AttributeId family = 0; family < 4; ++family) {
    const AttributeId base = family * 10;
    for (int i = 0; i < 30; ++i) {
      rows.push_back(MakeRow(next++, {base, base + 1, base + 2}));
    }
  }
  return rows;
}

CinderellaConfig SmallPartitions() {
  CinderellaConfig config;
  config.weight = 0.3;
  config.max_size = 20;  // Force several partitions per family.
  return config;
}

/// Single-node reference: the same rows through one partitioner, gathered,
/// projected onto the query and sorted by entity id — the distributed
/// result must match this bit-for-bit.
std::vector<Row> ReferenceRows(const std::vector<Row>& rows,
                               const CinderellaConfig& config,
                               const Query& query) {
  auto partitioner = std::move(Cinderella::Create(config)).value();
  VersionedTable table(std::move(partitioner));
  EXPECT_TRUE(table.InsertBatch(rows).ok());
  const VersionedTable::Snapshot snapshot = table.snapshot();
  QueryExecutor executor(snapshot.view());
  std::vector<RowView> views;
  executor.ExecuteGather(query, &views);
  std::vector<Row> gathered;
  for (const RowView& view : views) {
    Row projected(view.id());
    for (const AttributeId attribute : query.projection()) {
      const Value* value = view.Get(attribute);
      if (value != nullptr) projected.Set(attribute, *value);
    }
    gathered.push_back(std::move(projected));
  }
  std::sort(gathered.begin(), gathered.end(),
            [](const Row& a, const Row& b) { return a.id() < b.id(); });
  return gathered;
}

void ExpectBitIdentical(const std::vector<Row>& actual,
                        const std::vector<Row>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].id(), expected[i].id());
    ASSERT_EQ(actual[i].cells().size(), expected[i].cells().size());
    for (size_t c = 0; c < expected[i].cells().size(); ++c) {
      EXPECT_EQ(actual[i].cells()[c].attribute,
                expected[i].cells()[c].attribute);
      EXPECT_TRUE(actual[i].cells()[c].value == expected[i].cells()[c].value);
    }
  }
}

LoopbackClusterOptions FastFailOptions(size_t nodes) {
  LoopbackClusterOptions options;
  options.nodes = nodes;
  options.policy = PlacementPolicy::kSchemaAware;
  options.config = SmallPartitions();
  options.coordinator.timeout_ms = 2000;
  options.coordinator.retries = 1;
  options.coordinator.backoff_ms = 10;
  return options;
}

TEST(NetClusterTest, TwoNodeQueryBitIdenticalToSingleNode) {
  const std::vector<Row> rows = FamilyRows();
  LoopbackCluster cluster(FastFailOptions(2));
  ASSERT_TRUE(cluster.Load(rows).ok());

  const Query query(Synopsis{0, 1, 20});  // Families 0 and 2.
  GatherResult result = cluster.coordinator().Execute(query);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.nodes_failed, 0u);
  EXPECT_EQ(result.rows_matched, 60u);
  EXPECT_EQ(result.rows.size(), 60u);

  ExpectBitIdentical(result.rows,
                     ReferenceRows(rows, SmallPartitions(), query));
}

TEST(NetClusterTest, FourNodeQueryBitIdenticalAcrossPolicies) {
  const std::vector<Row> rows = FamilyRows();
  const Query query(Synopsis{11, 31});  // Families 1 and 3.
  const std::vector<Row> reference =
      ReferenceRows(rows, SmallPartitions(), query);

  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kSchemaAware}) {
    LoopbackClusterOptions options = FastFailOptions(4);
    options.policy = policy;
    LoopbackCluster cluster(options);
    ASSERT_TRUE(cluster.Load(rows).ok());
    GatherResult result = cluster.coordinator().Execute(query);
    EXPECT_TRUE(result.complete);
    ExpectBitIdentical(result.rows, reference);
  }
}

TEST(NetClusterTest, SynopsisDigestsPruneWholeNodes) {
  const std::vector<Row> rows = FamilyRows();
  // Schema-aware placement over as many nodes as families co-locates each
  // family, so a single-family query should skip most nodes entirely.
  LoopbackCluster cluster(FastFailOptions(4));
  ASSERT_TRUE(cluster.Load(rows).ok());

  const Query query(Synopsis{0});  // Family 0 only.
  GatherResult result = cluster.coordinator().Execute(query);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.rows_matched, 30u);
  EXPECT_GE(result.nodes_pruned, 1u);
  EXPECT_LT(result.nodes_contacted, result.nodes_total);
  EXPECT_EQ(result.nodes_contacted + result.nodes_pruned,
            result.nodes_total);
  // Pruned nodes were never asked, yet the result is still exact.
  ExpectBitIdentical(result.rows,
                     ReferenceRows(rows, SmallPartitions(), query));
}

TEST(NetClusterTest, QueryForUnknownAttributePrunesEverything) {
  LoopbackCluster cluster(FastFailOptions(2));
  ASSERT_TRUE(cluster.Load(FamilyRows()).ok());

  const Query query(Synopsis{999});  // Nobody instantiates this.
  GatherResult result = cluster.coordinator().Execute(query);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.nodes_pruned, 2u);
  EXPECT_EQ(result.nodes_contacted, 0u);
  EXPECT_TRUE(result.rows.empty());
}

TEST(NetClusterTest, KilledNodeYieldsTimelyPartialResult) {
  const std::vector<Row> rows = FamilyRows();
  LoopbackClusterOptions options = FastFailOptions(2);
  options.coordinator.timeout_ms = 500;
  options.coordinator.retries = 1;
  LoopbackCluster cluster(options);
  ASSERT_TRUE(cluster.Load(rows).ok());

  ASSERT_TRUE(cluster.StopNode(1).ok());

  const Query query(Synopsis{0, 10, 20, 30});  // Touches every family.
  const auto start = std::chrono::steady_clock::now();
  GatherResult result = cluster.coordinator().Execute(query);
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();

  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.nodes_failed, 1u);
  // The live node's rows still arrive.
  EXPECT_GT(result.rows.size(), 0u);
  EXPECT_LT(result.rows.size(), rows.size());
  // Fast failure, not a hang: one connect (refused) + one retry with a
  // 10 ms backoff stays far under five seconds.
  EXPECT_LT(wall_ms, 5000.0);
  // The outcome names the dead node.
  bool found_failure = false;
  for (const NodeOutcome& outcome : result.nodes) {
    if (!outcome.ok) {
      found_failure = true;
      EXPECT_EQ(outcome.node, 1u);
      EXPECT_GE(outcome.attempts, 2);
      EXPECT_FALSE(outcome.error.empty());
    }
  }
  EXPECT_TRUE(found_failure);
}

// A server that takes over a stopped node's port is not that node: its
// answers carry another instance id, so the gather counts the node as
// failed and merges none of the other server's rows.
TEST(NetClusterTest, ServerOnAStoppedNodesPortIsNotMerged) {
  const std::vector<Row> rows = FamilyRows();
  LoopbackCluster cluster(FastFailOptions(2));
  ASSERT_TRUE(cluster.Load(rows).ok());
  const uint16_t port = cluster.coordinator().endpoints()[1].port;
  ASSERT_TRUE(cluster.StopNode(1).ok());

  // It hosts rows that match the query, under ids the cluster never
  // loaded.
  VersionedTable other_table(
      std::move(Cinderella::Create(SmallPartitions())).value());
  std::vector<Row> other_rows;
  for (EntityId id = 1000; id < 1010; ++id) {
    other_rows.push_back(MakeRow(id, {0, 10, 20, 30}));
  }
  ASSERT_TRUE(other_table.InsertBatch(other_rows).ok());
  NodeServerOptions server_options;
  server_options.port = port;
  server_options.threads = 1;
  NodeServer other(&other_table, server_options);
  ASSERT_TRUE(other.Start().ok());

  const Query query(Synopsis{0, 10, 20, 30});
  GatherResult result = cluster.coordinator().Execute(query);
  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.nodes_failed, 1u);
  EXPECT_GT(result.rows.size(), 0u);
  for (const Row& row : result.rows) EXPECT_LT(row.id(), 1000u);
  ASSERT_EQ(result.nodes.size(), 2u);
  EXPECT_TRUE(result.nodes[0].ok);
  EXPECT_FALSE(result.nodes[1].ok);
  EXPECT_NE(result.nodes[1].error.find("instance"), std::string::npos)
      << result.nodes[1].error;
  EXPECT_FALSE(cluster.coordinator().FetchStats(1).ok());
}

/// A scripted node on a raw listener: it answers one digest request as
/// server instance `instance_id`, then one query with two row batches
/// whose ids descend (5001, then 5000), then its query-done frame.
void ServeDescendingResponse(Socket* listener, uint64_t instance_id) {
  constexpr int kTimeoutMs = 5000;
  StatusOr<Socket> digest_conn = listener->Accept(kTimeoutMs);
  ASSERT_TRUE(digest_conn.ok()) << digest_conn.status().ToString();
  Frame frame;
  ASSERT_TRUE(ReadFrame(&*digest_conn, &frame, kTimeoutMs).ok());
  ASSERT_EQ(frame.type, FrameType::kSynopsisRequest);
  SynopsisDigestMsg digest;
  digest.instance_id = instance_id;
  digest.generation = 1;
  digest.partitions = 1;
  digest.entities = 2;
  digest.union_words = Synopsis{0, 10, 20, 30}.words();
  std::string out;
  BeginFrame(&out);
  EncodeSynopsisDigest(digest, &out);
  ASSERT_TRUE(WriteFrame(&*digest_conn, FrameType::kSynopsisResponse, &out,
                         kTimeoutMs)
                  .ok());

  StatusOr<Socket> query_conn = listener->Accept(kTimeoutMs);
  ASSERT_TRUE(query_conn.ok()) << query_conn.status().ToString();
  ASSERT_TRUE(ReadFrame(&*query_conn, &frame, kTimeoutMs).ok());
  ASSERT_EQ(frame.type, FrameType::kQueryRequest);
  QueryRequestMsg request;
  ASSERT_TRUE(DecodeQueryRequest(frame.payload, &request).ok());
  const std::vector<AttributeId> projection = {0};
  uint32_t sequence = 0;
  for (const EntityId id : {EntityId{5001}, EntityId{5000}}) {
    const Row row = MakeRow(id, {0});
    const std::vector<RowView> batch = {RowView(row)};
    BeginFrame(&out);
    EncodeRowBatch(request.request_id, sequence++, batch, projection, &out);
    ASSERT_TRUE(
        WriteFrame(&*query_conn, FrameType::kRowBatch, &out, kTimeoutMs).ok());
  }
  QueryDoneMsg done;
  done.request_id = request.request_id;
  done.instance_id = instance_id;
  done.batches = sequence;
  done.rows_matched = 2;
  BeginFrame(&out);
  EncodeQueryDone(done, &out);
  // The coordinator may already have hung up on the second batch.
  (void)WriteFrame(&*query_conn, FrameType::kQueryDone, &out, kTimeoutMs);
}

// Rows of one response must ascend by entity id: the coordinator merges
// per-node streams instead of sorting. A node that breaks that contract
// fails as corrupt after one attempt, and none of its rows are merged,
// while the live node's rows still arrive.
TEST(NetClusterTest, NodeWithDescendingRowIdsFailsWithoutRetry) {
  const std::vector<Row> rows = FamilyRows();
  LoopbackCluster cluster(FastFailOptions(1));
  ASSERT_TRUE(cluster.Load(rows).ok());

  StatusOr<Socket> listener = Socket::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Endpoint scripted;
  scripted.port = listener->local_port();
  std::thread node(ServeDescendingResponse, &*listener, 0x5eed5eedULL);

  CoordinatorOptions options;
  options.timeout_ms = 2000;
  options.retries = 2;
  options.backoff_ms = 10;
  Coordinator coordinator({cluster.coordinator().endpoints()[0], scripted},
                          options);
  ASSERT_TRUE(coordinator.RefreshDigests().ok());
  const Query query(Synopsis{0, 10, 20, 30});
  const GatherResult result = coordinator.Execute(query);
  node.join();

  EXPECT_FALSE(result.complete);
  EXPECT_EQ(result.nodes_failed, 1u);
  ASSERT_EQ(result.nodes.size(), 2u);
  EXPECT_TRUE(result.nodes[0].ok);
  EXPECT_FALSE(result.nodes[1].ok);
  EXPECT_EQ(result.nodes[1].attempts, 1);
  EXPECT_NE(result.nodes[1].error.find("InvalidArgument"), std::string::npos)
      << result.nodes[1].error;
  EXPECT_EQ(result.rows.size(), rows.size());
  for (const Row& row : result.rows) EXPECT_LT(row.id(), 5000u);
  ExpectBitIdentical(result.rows,
                     ReferenceRows(rows, SmallPartitions(), query));
}

TEST(NetClusterTest, NodeStatsSumToTable) {
  const std::vector<Row> rows = FamilyRows();
  LoopbackCluster cluster(FastFailOptions(3));
  ASSERT_TRUE(cluster.Load(rows).ok());

  // Serve one query so service counters move.
  const Query query(Synopsis{0, 10, 20, 30});
  GatherResult result = cluster.coordinator().Execute(query);
  EXPECT_TRUE(result.complete);

  uint64_t entities = 0;
  uint64_t partitions = 0;
  uint64_t bytes = 0;
  uint64_t shipped = 0;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    StatusOr<NodeStatsMsg> stats = cluster.coordinator().FetchStats(n);
    ASSERT_TRUE(stats.ok());
    entities += stats->entities;
    partitions += stats->partitions;
    bytes += stats->bytes;
    shipped += stats->rows_shipped;
    EXPECT_GT(stats->generation, 0u);
  }
  EXPECT_EQ(entities, rows.size());
  EXPECT_GT(partitions, 0u);
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(shipped, rows.size());  // The query matched every row.
}

TEST(NetClusterTest, PingAndDigestGenerations) {
  LoopbackCluster cluster(FastFailOptions(2));
  ASSERT_TRUE(cluster.Load(FamilyRows()).ok());
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    EXPECT_TRUE(cluster.coordinator().Ping(n).ok());
    EXPECT_GT(cluster.coordinator().digest_generation(n), 0u);
  }
  ASSERT_TRUE(cluster.StopNode(0).ok());
  EXPECT_FALSE(cluster.coordinator().Ping(0).ok());
}

TEST(NetClusterTest, DigestsRefreshAfterWrites) {
  LoopbackCluster cluster(FastFailOptions(2));
  ASSERT_TRUE(cluster.Load(FamilyRows()).ok());
  Coordinator& coordinator = cluster.coordinator();

  // A brand-new attribute appears on node 0 after the cached digests.
  ASSERT_TRUE(
      cluster.node_table(0).Insert(MakeRow(10000, {500})).ok());
  const uint64_t before = coordinator.digest_generation(0);
  ASSERT_TRUE(coordinator.RefreshDigests().ok());
  EXPECT_GT(coordinator.digest_generation(0), before);

  // With the fresh digest, the new attribute's query reaches its node.
  GatherResult result = coordinator.Execute(Query(Synopsis{500}));
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.rows.size(), 1u);
  EXPECT_EQ(result.rows[0].id(), 10000u);
}

}  // namespace
}  // namespace net
}  // namespace cinderella
