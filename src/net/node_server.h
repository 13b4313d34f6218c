#ifndef CINDERELLA_NET_NODE_SERVER_H_
#define CINDERELLA_NET_NODE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "mvcc/versioned_table.h"
#include "net/protocol.h"
#include "net/socket.h"

namespace cinderella {
namespace net {

struct NodeServerOptions {
  /// Listening port on 127.0.0.1; 0 asks the kernel for an ephemeral port
  /// (read it back via NodeServer::port()).
  uint16_t port = 0;
  /// Worker threads serving connections; 0 resolves from
  /// CINDERELLA_NET_SERVER_THREADS (default 2).
  int threads = 0;
  /// Granularity of the stop-flag checks in the accept and idle-connection
  /// poll loops.
  int poll_ms = 50;
  /// Rows per kRowBatch frame of a streamed query response.
  size_t batch_rows = 256;
  /// Per-frame send/receive deadline once a request is in flight.
  int io_timeout_ms = 5000;

  /// Defaults with the thread count resolved from the environment.
  static NodeServerOptions FromEnv();
};

/// One shard of the cluster: hosts a VersionedTable and serves the wire
/// protocol (net/frame.h) on a loopback TCP port.
///
/// Every query request pins an MVCC snapshot, runs the same
/// synopsis-pruned scan as a local QueryExecutor (ExecuteGather), sorts
/// the matched views by entity id, and streams their projections back as
/// kRowBatch frames encoded straight from the snapshot into one reused
/// frame buffer, terminated by a kQueryDone carrying the node's measured
/// scan counters — so concurrent writers republishing views never block
/// or tear a response. A response holds one view per match plus that
/// buffer.
/// kSynopsisRequest serves the node's pruning digest (the snapshot's
/// union synopsis plus its generation), kStatsRequest the per-node load
/// and service counters behind `cinderella_cli stats`.
///
/// Threading: one acceptor thread feeds a bounded crew of worker threads
/// through a connection queue; each worker serves one connection at a
/// time (multiple requests per connection are fine). Stop() is prompt —
/// every blocking wait polls the stop flag at poll_ms granularity — and
/// idempotent. The table must outlive the server.
class NodeServer {
 public:
  /// Monotonic service counters, readable while serving.
  struct Stats {
    uint64_t connections_accepted = 0;
    uint64_t queries_served = 0;
    uint64_t rows_shipped = 0;
    uint64_t frames_rejected = 0;  // Corrupt or unexpected frames.
  };

  explicit NodeServer(const VersionedTable* table,
                      NodeServerOptions options = NodeServerOptions::FromEnv());
  ~NodeServer();

  NodeServer(const NodeServer&) = delete;
  NodeServer& operator=(const NodeServer&) = delete;

  /// Binds, listens, and spawns the acceptor and workers, and draws a
  /// fresh random instance id. Fails (without leaking threads) when the
  /// port is taken.
  Status Start();

  /// Stops accepting, drains the workers, closes the listener. Safe to
  /// call twice; the destructor calls it.
  void Stop();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// The bound port (valid after Start()).
  uint16_t port() const { return port_; }

  Stats stats() const;

 private:
  void AcceptLoop();
  void WorkerLoop();

  /// Serves frames on one connection until the peer hangs up, the stream
  /// corrupts, or the server stops.
  void ServeConnection(Socket conn);

  /// Dispatches one validated frame; a non-OK return ends the connection.
  Status HandleFrame(Socket* conn, const Frame& frame);

  Status HandleQuery(Socket* conn, const Frame& frame);
  Status HandleSynopsis(Socket* conn);
  Status HandleStats(Socket* conn);

  /// Ships a kError frame carrying `status` (best effort).
  void SendError(Socket* conn, const Status& status);

  const VersionedTable* table_;
  NodeServerOptions options_;

  Socket listener_;
  uint16_t port_ = 0;
  // Nonzero random id drawn by Start(), sent with every digest, query-done
  // and stats frame so a coordinator can tell this server from any other
  // that later serves the same port.
  uint64_t instance_id_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::thread acceptor_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Socket> pending_;

  std::atomic<uint64_t> connections_accepted_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> rows_shipped_{0};
  std::atomic<uint64_t> frames_rejected_{0};
};

}  // namespace net
}  // namespace cinderella

#endif  // CINDERELLA_NET_NODE_SERVER_H_
