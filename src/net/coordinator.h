#ifndef CINDERELLA_NET_COORDINATOR_H_
#define CINDERELLA_NET_COORDINATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/protocol.h"
#include "net/socket.h"
#include "query/query.h"
#include "synopsis/synopsis.h"

namespace cinderella {
namespace net {

/// Address of one node server.
struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct CoordinatorOptions {
  /// Per-request deadline (connect + send + whole streamed response);
  /// resolved from CINDERELLA_NET_TIMEOUT_MS by FromEnv.
  int timeout_ms = 2000;
  /// Additional attempts after the first, on Unavailable/DeadlineExceeded
  /// only; resolved from CINDERELLA_NET_RETRIES by FromEnv.
  int retries = 2;
  /// Base retry backoff; doubles per attempt.
  int backoff_ms = 20;
  /// Skip nodes whose cached synopsis digest cannot intersect the query
  /// (Definition 1 lifted to nodes). Nodes without a cached digest are
  /// always contacted.
  bool prune = true;

  /// Defaults with timeout and retries resolved from the environment.
  static CoordinatorOptions FromEnv();
};

/// What happened to one node during a scatter.
struct NodeOutcome {
  size_t node = 0;
  bool pruned = false;   // Skipped via the cached digest; never contacted.
  bool ok = false;       // Response complete (vacuously true when pruned).
  int attempts = 0;
  uint64_t rows = 0;     // Rows this node shipped.
  double wall_ms = 0.0;  // Time from first attempt to outcome.
  std::string error;     // Final error when !ok.
};

/// Merged result of one scatter/gather execution.
struct GatherResult {
  /// Matched rows from every responding node, each projected onto the
  /// query, in ascending entity id order: every node ships its rows
  /// ascending and the coordinator merges the streams. Entity ids are
  /// globally unique, so this order (with each row's cells ascending by
  /// attribute id) makes the result bit-identical to a single-node
  /// ExecuteGather projected and sorted the same way, independent of node
  /// count, placement, and arrival order.
  std::vector<Row> rows;
  /// False when any non-pruned node failed all attempts; `rows` then holds
  /// the partial result from the nodes that did respond.
  bool complete = true;

  uint64_t nodes_total = 0;
  uint64_t nodes_contacted = 0;
  uint64_t nodes_pruned = 0;
  uint64_t nodes_failed = 0;

  // Sums of the per-node measured counters (responding nodes only).
  uint64_t partitions_total = 0;
  uint64_t partitions_scanned = 0;
  uint64_t partitions_pruned = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t cells_shipped = 0;

  /// Rows shipped by the busiest node — the straggler share of the
  /// gather.
  uint64_t max_node_rows = 0;
  double wall_ms = 0.0;      // Whole scatter+gather.
  double max_node_ms = 0.0;  // Slowest node's response time.

  std::vector<NodeOutcome> nodes;
};

/// The scatter/gather query coordinator over loopback node servers.
///
/// Execute() prunes nodes via cached synopsis digests, scatters the query
/// concurrently to the survivors, retries transient failures (connection
/// refused, deadline) with bounded exponential backoff, and gathers the
/// streamed row batches into one deterministically merged result. A node
/// that stays down after the retry budget marks the result incomplete
/// rather than failing it — the caller gets every row the live nodes
/// produced plus per-node outcomes saying exactly what is missing.
///
/// Thread-safe for concurrent Execute() calls (each opens its own
/// connections); RefreshDigests must not race Execute.
class Coordinator {
 public:
  explicit Coordinator(std::vector<Endpoint> nodes,
                       CoordinatorOptions options = CoordinatorOptions());

  /// Fetches and caches every node's synopsis digest and records the
  /// server instance id it came from. A node that cannot be reached keeps
  /// its previous digest (or stays unpruned); the first error is returned
  /// but the refresh still visits every node.
  Status RefreshDigests();

  /// Scatter/gather execution of an attribute-set query. A node whose
  /// response carries another instance id than the one RefreshDigests
  /// recorded for it (another server now holds its port) counts as
  /// failed, and none of its rows are merged. So does a node whose row
  /// ids do not ascend strictly (InvalidArgument, not retried).
  GatherResult Execute(const Query& query);

  /// One node's stats frame (the CLI's per-node section); fails the same
  /// way on an instance id mismatch.
  StatusOr<NodeStatsMsg> FetchStats(size_t node) const;

  /// Round-trip liveness probe.
  Status Ping(size_t node) const;

  size_t num_nodes() const { return nodes_.size(); }
  const std::vector<Endpoint>& endpoints() const { return nodes_; }

  /// The cached digest generation for `node`; 0 when none is cached.
  uint64_t digest_generation(size_t node) const;

 private:
  struct Digest {
    bool valid = false;
    Synopsis synopsis;
    uint64_t generation = 0;
    uint64_t instance_id = 0;
  };

  struct NodeResponse {
    Status status = Status::OK();
    int attempts = 0;
    double wall_ms = 0.0;
    std::vector<Row> rows;
    QueryDoneMsg done;
  };

  /// One query attempt against node `node`: connect, send, drain the
  /// streamed response, check the answering instance.
  Status QueryOnce(size_t node, const QueryRequestMsg& request,
                   std::vector<Row>* rows, QueryDoneMsg* done) const;

  /// Full per-node client: attempts with backoff, fills `*response`.
  void QueryNode(size_t node, const QueryRequestMsg& request,
                 NodeResponse* response) const;

  /// Unavailable when `instance_id` is not the one recorded for `node`
  /// (no check before its first digest).
  Status CheckInstance(size_t node, uint64_t instance_id) const;

  std::vector<Endpoint> nodes_;
  CoordinatorOptions options_;
  std::vector<Digest> digests_;
  uint64_t next_request_id_ = 1;
};

}  // namespace net
}  // namespace cinderella

#endif  // CINDERELLA_NET_COORDINATOR_H_
