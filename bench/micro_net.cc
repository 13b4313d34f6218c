// Microbench for the networked scatter/gather path (src/net): real
// NodeServers on loopback TCP behind a pruning Coordinator.
//
// Five questions, one JSON:
//  - Fan-out vs placement policy: how many nodes does a selective
//    single-family query contact under round-robin / least-loaded /
//    schema-aware placement? (Schema-aware co-location should keep it
//    near 1; hash-style round-robin fans out.)
//  - Pruned vs unpruned dispatch: the same queries through a coordinator
//    that ignores its synopsis digests — every dispatch then contacts
//    every node, which is exactly the round-trip cost Definition 1 saves.
//  - Node scaling: wall latency of a broad (all-families) query on 1, 2,
//    and 4 loopback nodes — real sockets, real serialization, so this
//    includes the coordinator's scatter/gather overhead.
//  - Straggler share: the slowest node's share of each gather's wall
//    time, and the busiest node's share of the shipped rows.
//  - Wire codec: MB/s to encode one 256-row batch from row views into a
//    sealed frame and to check and decode it again, and the frame
//    checksum's GB/s on the CRC32C path this host runs and on the table
//    path.
//
// Emits BENCH_net.json in the working directory plus a table on stdout.
//
// Knobs: CINDERELLA_BENCH_ENTITIES (default 4000),
//        CINDERELLA_BENCH_NET_FAMILIES (default 8),
//        CINDERELLA_BENCH_NET_REPS (default 5),
//        CINDERELLA_BENCH_MAX_SIZE (default 100).

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/crc32c.h"
#include "common/env.h"
#include "common/timer.h"
#include "net/loopback_cluster.h"
#include "net/protocol.h"
#include "query/query.h"

namespace cinderella {
namespace {

std::vector<Row> FamilyRows(size_t entities, size_t families) {
  std::vector<Row> rows;
  rows.reserve(entities);
  for (EntityId id = 0; id < entities; ++id) {
    const AttributeId base =
        static_cast<AttributeId>((id % families) * 10);
    Row row(id);
    row.Set(base, Value(static_cast<int64_t>(id)));
    row.Set(base + 1, Value(static_cast<int64_t>(id) * 3));
    row.Set(base + 2, Value(static_cast<int64_t>(id % 97)));
    rows.push_back(std::move(row));
  }
  return rows;
}

const char* PolicyName(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kRoundRobin:
      return "round_robin";
    case PlacementPolicy::kLeastLoaded:
      return "least_loaded";
    case PlacementPolicy::kSchemaAware:
      return "schema_aware";
  }
  return "?";
}

struct FanoutPoint {
  std::string policy;
  double avg_nodes_contacted = 0.0;
  double avg_nodes_pruned = 0.0;
  double avg_wall_ms = 0.0;
};

struct CodecPoint {
  size_t batch_bytes = 0;
  double encode_mb_per_s = 0.0;
  double decode_mb_per_s = 0.0;
  const char* crc32c_path = "";
  double crc32c_gb_per_s = 0.0;
  double crc32c_table_gb_per_s = 0.0;
};

/// One 256-row batch shaped like a Table I footprint: eight cells per row
/// (integers, doubles, short and longer strings), five of them projected.
/// Encode = BeginFrame + EncodeRowBatch + SealFrame; decode =
/// ParseFrameHeader + CheckFramePayload + DecodeRowBatch, i.e. a node's and
/// the coordinator's per-batch CPU without the socket. False when a decoded
/// batch does not match what was encoded.
bool MeasureCodec(int reps, CodecPoint* point) {
  std::vector<Row> rows;
  for (EntityId id = 0; id < 256; ++id) {
    Row row(id);
    for (AttributeId a = 0; a < 8; ++a) {
      const int64_t v = static_cast<int64_t>(id * 8 + a);
      if (a % 4 == 0) row.Set(a, Value(v));
      if (a % 4 == 1) row.Set(a, Value(static_cast<double>(v) / 7.0));
      if (a % 4 == 2) row.Set(a, Value("item-" + std::to_string(v)));
      if (a % 4 == 3) row.Set(a, Value(std::string(24, 'a' + a)));
    }
    rows.push_back(std::move(row));
  }
  const std::vector<RowView> views(rows.begin(), rows.end());
  const std::vector<AttributeId> projection = {0, 1, 2, 3, 6};
  const int iterations = 200 * reps;

  std::string frame;
  uint64_t cells = 0;
  WallTimer timer;
  for (int i = 0; i < iterations; ++i) {
    net::BeginFrame(&frame);
    cells += net::EncodeRowBatch(1, 0, views, projection, &frame);
    net::SealFrame(net::FrameType::kRowBatch, &frame);
  }
  const double encode_s = timer.ElapsedSeconds();
  point->batch_bytes = frame.size();

  net::RowBatchMsg batch;
  bool ok = cells == static_cast<uint64_t>(iterations) * 256 * 5;
  timer.Restart();
  for (int i = 0; i < iterations && ok; ++i) {
    net::FrameHeader header;
    const std::string_view payload =
        std::string_view(frame).substr(net::kFrameHeaderBytes);
    ok = net::ParseFrameHeader(frame, &header).ok() &&
         net::CheckFramePayload(header, payload).ok() &&
         net::DecodeRowBatch(payload, &batch).ok();
  }
  const double decode_s = timer.ElapsedSeconds();
  ok = ok && batch.rows.size() == rows.size() &&
       batch.rows.back().attribute_count() == projection.size();
  const double mb = static_cast<double>(frame.size()) * iterations / 1e6;
  point->encode_mb_per_s = mb / encode_s;
  point->decode_mb_per_s = mb / decode_s;

  // Checksum throughput over 1 MiB, 64 passes per path.
  std::string buffer(1u << 20, '\0');
  for (size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<char>(i * 131 + (i >> 9));
  }
  const int passes = 32 * reps;
  const double gb = static_cast<double>(buffer.size()) * passes / 1e9;
  uint32_t sink = 0;
  timer.Restart();
  for (int i = 0; i < passes; ++i) sink ^= Crc32c(buffer);
  point->crc32c_gb_per_s = gb / timer.ElapsedSeconds();
  timer.Restart();
  for (int i = 0; i < passes; ++i) sink ^= Crc32cTable(buffer);
  point->crc32c_table_gb_per_s = gb / timer.ElapsedSeconds();
  point->crc32c_path = Crc32cHardwareAvailable() ? "sse4.2" : "table";
  // An even number of passes per path XORs every value out twice.
  return ok && sink == 0;
}

struct ScalingPoint {
  size_t nodes = 0;
  double avg_wall_ms = 0.0;
  double avg_max_node_ms = 0.0;
  double straggler_time_share = 0.0;  // max_node_ms / wall_ms.
  double straggler_row_share = 0.0;   // max_node_rows / rows_matched.
};

}  // namespace
}  // namespace cinderella

int main() {
  using namespace cinderella;
  using namespace cinderella::net;

  const size_t entities = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_ENTITIES", 4000));
  const size_t families = static_cast<size_t>(
      Int64FromEnv("CINDERELLA_BENCH_NET_FAMILIES", 8));
  const int reps =
      static_cast<int>(Int64FromEnv("CINDERELLA_BENCH_NET_REPS", 5));
  const uint64_t max_size = static_cast<uint64_t>(
      Int64FromEnv("CINDERELLA_BENCH_MAX_SIZE", 100));

  const std::vector<Row> rows = FamilyRows(entities, families);

  auto base_options = [&](size_t nodes, PlacementPolicy policy) {
    LoopbackClusterOptions options;
    options.nodes = nodes;
    options.policy = policy;
    options.config.weight = 0.3;
    options.config.max_size = max_size;
    options.coordinator.timeout_ms = 10000;
    options.coordinator.retries = 1;
    return options;
  };

  auto selective_queries = [&] {
    std::vector<Query> queries;
    for (size_t f = 0; f < families; ++f) {
      queries.emplace_back(
          Synopsis{static_cast<AttributeId>(f * 10),
                   static_cast<AttributeId>(f * 10 + 1)});
    }
    return queries;
  }();
  Synopsis broad;
  for (size_t f = 0; f < families; ++f) {
    broad.Add(static_cast<AttributeId>(f * 10));
  }
  const Query broad_query(broad);

  // -- Fan-out vs placement policy (4 nodes, pruned dispatch) ---------------
  bench::PrintHeader("net: fan-out vs placement policy (4 nodes)");
  std::vector<FanoutPoint> fanout;
  double unpruned_contacted = 0.0;
  double unpruned_wall_ms = 0.0;
  for (const PlacementPolicy policy :
       {PlacementPolicy::kRoundRobin, PlacementPolicy::kLeastLoaded,
        PlacementPolicy::kSchemaAware}) {
    LoopbackCluster cluster(base_options(4, policy));
    if (!cluster.Load(rows).ok()) {
      std::fprintf(stderr, "cluster load failed\n");
      return 1;
    }
    FanoutPoint point;
    point.policy = PolicyName(policy);
    size_t samples = 0;
    for (int rep = 0; rep < reps; ++rep) {
      for (const Query& query : selective_queries) {
        const GatherResult result = cluster.coordinator().Execute(query);
        if (!result.complete) {
          std::fprintf(stderr, "incomplete gather\n");
          return 1;
        }
        point.avg_nodes_contacted +=
            static_cast<double>(result.nodes_contacted);
        point.avg_nodes_pruned += static_cast<double>(result.nodes_pruned);
        point.avg_wall_ms += result.wall_ms;
        ++samples;
      }
    }
    point.avg_nodes_contacted /= static_cast<double>(samples);
    point.avg_nodes_pruned /= static_cast<double>(samples);
    point.avg_wall_ms /= static_cast<double>(samples);
    std::printf("  %-13s contacted %.2f / 4 nodes, pruned %.2f, %.3f ms\n",
                point.policy.c_str(), point.avg_nodes_contacted,
                point.avg_nodes_pruned, point.avg_wall_ms);
    fanout.push_back(point);

    // Unpruned dispatch on the schema-aware cluster: same endpoints, a
    // coordinator that never consults digests.
    if (policy == PlacementPolicy::kSchemaAware) {
      CoordinatorOptions blind = CoordinatorOptions();
      blind.timeout_ms = 10000;
      blind.prune = false;
      Coordinator unpruned(cluster.coordinator().endpoints(), blind);
      size_t blind_samples = 0;
      for (int rep = 0; rep < reps; ++rep) {
        for (const Query& query : selective_queries) {
          const GatherResult result = unpruned.Execute(query);
          unpruned_contacted += static_cast<double>(result.nodes_contacted);
          unpruned_wall_ms += result.wall_ms;
          ++blind_samples;
        }
      }
      unpruned_contacted /= static_cast<double>(blind_samples);
      unpruned_wall_ms /= static_cast<double>(blind_samples);
      std::printf("  %-13s contacted %.2f / 4 nodes (no digests), %.3f ms\n",
                  "unpruned", unpruned_contacted, unpruned_wall_ms);
    }
  }

  // -- Node scaling + straggler share (broad query) -------------------------
  bench::PrintHeader("net: broad-query latency vs node count");
  std::vector<ScalingPoint> scaling;
  for (const size_t nodes : {size_t{1}, size_t{2}, size_t{4}}) {
    LoopbackCluster cluster(
        base_options(nodes, PlacementPolicy::kSchemaAware));
    if (!cluster.Load(rows).ok()) {
      std::fprintf(stderr, "cluster load failed\n");
      return 1;
    }
    ScalingPoint point;
    point.nodes = nodes;
    double row_share = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      const GatherResult result = cluster.coordinator().Execute(broad_query);
      if (!result.complete || result.rows_matched == 0) {
        std::fprintf(stderr, "broad gather failed\n");
        return 1;
      }
      point.avg_wall_ms += result.wall_ms;
      point.avg_max_node_ms += result.max_node_ms;
      point.straggler_time_share +=
          result.wall_ms > 0.0 ? result.max_node_ms / result.wall_ms : 0.0;
      row_share += static_cast<double>(result.max_node_rows) /
                   static_cast<double>(result.rows_matched);
    }
    point.avg_wall_ms /= reps;
    point.avg_max_node_ms /= reps;
    point.straggler_time_share /= reps;
    point.straggler_row_share = row_share / reps;
    std::printf(
        "  %zu node(s): %.3f ms wall, %.3f ms slowest node "
        "(%.0f%% of wall), busiest ships %.0f%% of rows\n",
        nodes, point.avg_wall_ms, point.avg_max_node_ms,
        100.0 * point.straggler_time_share,
        100.0 * point.straggler_row_share);
    scaling.push_back(point);
  }

  // -- Wire codec -----------------------------------------------------------
  bench::PrintHeader("net: wire codec (one 256-row batch) and frame checksum");
  CodecPoint codec;
  if (!MeasureCodec(reps, &codec)) {
    std::fprintf(stderr, "wire codec round trip failed\n");
    return 1;
  }
  std::printf(
      "  batch %zu B: encode %.0f MB/s, decode %.0f MB/s\n"
      "  crc32c (%s path) %.2f GB/s, table path %.2f GB/s\n",
      codec.batch_bytes, codec.encode_mb_per_s, codec.decode_mb_per_s,
      codec.crc32c_path, codec.crc32c_gb_per_s, codec.crc32c_table_gb_per_s);

  // -- JSON -----------------------------------------------------------------
  FILE* json = std::fopen("BENCH_net.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_net.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"micro_net\",\n");
  std::fprintf(json, "  \"entities\": %zu,\n", entities);
  std::fprintf(json, "  \"families\": %zu,\n", families);
  std::fprintf(json, "  \"reps\": %d,\n", reps);
  bench::WriteHostMetadata(json);
  std::fprintf(json, "  \"fanout\": [");
  for (size_t i = 0; i < fanout.size(); ++i) {
    std::fprintf(json,
                 "%s\n    {\"policy\": \"%s\", \"nodes_contacted\": %.3f, "
                 "\"nodes_pruned\": %.3f, \"wall_ms\": %.4f}",
                 i == 0 ? "" : ",", fanout[i].policy.c_str(),
                 fanout[i].avg_nodes_contacted, fanout[i].avg_nodes_pruned,
                 fanout[i].avg_wall_ms);
  }
  std::fprintf(json, "\n  ],\n");
  std::fprintf(json,
               "  \"unpruned\": {\"nodes_contacted\": %.3f, "
               "\"wall_ms\": %.4f},\n",
               unpruned_contacted, unpruned_wall_ms);
  std::fprintf(json, "  \"scaling\": [");
  for (size_t i = 0; i < scaling.size(); ++i) {
    std::fprintf(json,
                 "%s\n    {\"nodes\": %zu, \"wall_ms\": %.4f, "
                 "\"max_node_ms\": %.4f, \"straggler_time_share\": %.4f, "
                 "\"straggler_row_share\": %.4f}",
                 i == 0 ? "" : ",", scaling[i].nodes, scaling[i].avg_wall_ms,
                 scaling[i].avg_max_node_ms, scaling[i].straggler_time_share,
                 scaling[i].straggler_row_share);
  }
  std::fprintf(json, "\n  ],\n");
  std::fprintf(json,
               "  \"wire_codec\": {\"batch_rows\": 256, \"batch_bytes\": %zu, "
               "\"encode_mb_per_s\": %.1f, \"decode_mb_per_s\": %.1f, "
               "\"crc32c_path\": \"%s\", \"crc32c_gb_per_s\": %.3f, "
               "\"crc32c_table_gb_per_s\": %.3f}\n}\n",
               codec.batch_bytes, codec.encode_mb_per_s,
               codec.decode_mb_per_s, codec.crc32c_path,
               codec.crc32c_gb_per_s, codec.crc32c_table_gb_per_s);
  std::fclose(json);
  std::printf("\nwrote BENCH_net.json\n");
  return 0;
}
