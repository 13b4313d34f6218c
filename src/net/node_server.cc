#include "net/node_server.h"

#include <algorithm>
#include <random>
#include <span>
#include <utility>

#include "common/env.h"
#include "query/executor.h"
#include "query/query.h"

namespace cinderella {
namespace net {

NodeServerOptions NodeServerOptions::FromEnv() {
  NodeServerOptions options;
  options.threads = static_cast<int>(
      Int64FromEnv("CINDERELLA_NET_SERVER_THREADS", 0));
  return options;
}

NodeServer::NodeServer(const VersionedTable* table, NodeServerOptions options)
    : table_(table), options_(options) {
  if (options_.threads <= 0) {
    const int64_t env =
        Int64FromEnv("CINDERELLA_NET_SERVER_THREADS", 2);
    options_.threads = env > 0 ? static_cast<int>(env) : 2;
  }
  if (options_.poll_ms <= 0) options_.poll_ms = 50;
  if (options_.batch_rows == 0) options_.batch_rows = 256;
}

NodeServer::~NodeServer() { Stop(); }

Status NodeServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("server already running");
  }
  StatusOr<Socket> listener = Socket::Listen(options_.port);
  CINDERELLA_RETURN_IF_ERROR(listener.status());
  listener_ = std::move(*listener);
  port_ = listener_.local_port();
  std::random_device entropy;
  do {
    instance_id_ = (static_cast<uint64_t>(entropy()) << 32) ^ entropy();
  } while (instance_id_ == 0);
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  acceptor_ = std::thread(&NodeServer::AcceptLoop, this);
  workers_.reserve(static_cast<size_t>(options_.threads));
  for (int i = 0; i < options_.threads; ++i) {
    workers_.emplace_back(&NodeServer::WorkerLoop, this);
  }
  return Status::OK();
}

void NodeServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  queue_cv_.notify_all();
  if (acceptor_.joinable()) acceptor_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  listener_.Close();
  std::lock_guard<std::mutex> lock(queue_mu_);
  pending_.clear();
}

NodeServer::Stats NodeServer::stats() const {
  Stats stats;
  stats.connections_accepted =
      connections_accepted_.load(std::memory_order_relaxed);
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.rows_shipped = rows_shipped_.load(std::memory_order_relaxed);
  stats.frames_rejected = frames_rejected_.load(std::memory_order_relaxed);
  return stats;
}

void NodeServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    StatusOr<Socket> conn = listener_.Accept(options_.poll_ms);
    if (!conn.ok()) continue;  // Timeout (the stop check) or a torn accept.
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_.push_back(std::move(*conn));
    }
    queue_cv_.notify_one();
  }
}

void NodeServer::WorkerLoop() {
  while (true) {
    Socket conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) || !pending_.empty();
      });
      if (stop_.load(std::memory_order_acquire)) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeConnection(std::move(conn));
  }
}

void NodeServer::ServeConnection(Socket conn) {
  while (!stop_.load(std::memory_order_acquire)) {
    StatusOr<bool> readable = conn.WaitReadable(options_.poll_ms);
    if (!readable.ok()) return;
    if (!*readable) continue;  // Idle; re-check the stop flag.
    Frame frame;
    const Status read = ReadFrame(&conn, &frame, options_.io_timeout_ms);
    if (!read.ok()) {
      if (read.code() == StatusCode::kInvalidArgument) {
        // Corrupt stream: report and drop the connection (framing is
        // unrecoverable once bytes are torn).
        frames_rejected_.fetch_add(1, std::memory_order_relaxed);
        SendError(&conn, read);
      }
      return;  // Peer hung up, timed out mid-frame, or corrupted.
    }
    if (!HandleFrame(&conn, frame).ok()) return;
  }
}

Status NodeServer::HandleFrame(Socket* conn, const Frame& frame) {
  switch (frame.type) {
    case FrameType::kPing: {
      std::string pong;
      BeginFrame(&pong);
      return WriteFrame(conn, FrameType::kPong, &pong, options_.io_timeout_ms);
    }
    case FrameType::kQueryRequest:
      return HandleQuery(conn, frame);
    case FrameType::kSynopsisRequest:
      return HandleSynopsis(conn);
    case FrameType::kStatsRequest:
      return HandleStats(conn);
    default: {
      frames_rejected_.fetch_add(1, std::memory_order_relaxed);
      const Status status = Status::InvalidArgument(
          "unexpected frame type " +
          std::to_string(static_cast<int>(frame.type)));
      SendError(conn, status);
      return status;
    }
  }
}

Status NodeServer::HandleQuery(Socket* conn, const Frame& frame) {
  QueryRequestMsg request;
  const Status decoded = DecodeQueryRequest(frame.payload, &request);
  if (!decoded.ok()) {
    frames_rejected_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, decoded);
    return decoded;
  }

  // Pin one generation for the whole response: the scan and the counters
  // come from a single consistent view no matter how many publications
  // race past while rows stream out. The matches are views into that
  // snapshot (or into cold rows the executor keeps), so both live until
  // the last frame is sent.
  const VersionedTable::Snapshot snapshot = table_->snapshot();
  QueryExecutor executor(snapshot.view());
  const Query query(Synopsis::FromIds(request.attributes));
  std::vector<RowView> rows;
  const QueryResult result = executor.ExecuteGather(query, &rows);
  // Entity ids are unique within a node, so ascending id order is total:
  // the coordinator merges such streams instead of sorting their union.
  std::sort(rows.begin(), rows.end(), [](const RowView& a, const RowView& b) {
    return a.id() < b.id();
  });

  // Each batch is encoded straight from the views into one reused frame
  // buffer and sent whole.
  const std::span<const RowView> matches(rows);
  std::string frame_buffer;
  uint32_t batches = 0;
  uint64_t cells = 0;
  for (size_t begin = 0; begin < matches.size();
       begin += options_.batch_rows) {
    const size_t count = std::min(options_.batch_rows, matches.size() - begin);
    BeginFrame(&frame_buffer);
    cells += EncodeRowBatch(request.request_id, batches++,
                            matches.subspan(begin, count), query.projection(),
                            &frame_buffer);
    CINDERELLA_RETURN_IF_ERROR(WriteFrame(conn, FrameType::kRowBatch,
                                          &frame_buffer,
                                          options_.io_timeout_ms));
  }

  QueryDoneMsg done;
  done.request_id = request.request_id;
  done.instance_id = instance_id_;
  done.batches = batches;
  done.partitions_total = result.metrics.partitions_total;
  done.partitions_scanned = result.metrics.partitions_scanned;
  done.partitions_pruned = result.metrics.partitions_pruned;
  done.rows_scanned = result.metrics.rows_scanned;
  done.rows_matched = result.metrics.rows_matched;
  done.cells_shipped = cells;
  BeginFrame(&frame_buffer);
  EncodeQueryDone(done, &frame_buffer);
  CINDERELLA_RETURN_IF_ERROR(WriteFrame(conn, FrameType::kQueryDone,
                                        &frame_buffer,
                                        options_.io_timeout_ms));
  queries_served_.fetch_add(1, std::memory_order_relaxed);
  rows_shipped_.fetch_add(result.metrics.rows_matched,
                          std::memory_order_relaxed);
  return Status::OK();
}

Status NodeServer::HandleSynopsis(Socket* conn) {
  const VersionedTable::Snapshot snapshot = table_->snapshot();
  const CatalogView& view = snapshot.view();
  SynopsisDigestMsg digest;
  digest.instance_id = instance_id_;
  digest.generation = view.generation();
  digest.partitions = view.partition_count();
  digest.entities = view.entity_count();
  digest.union_words = view.UnionSynopsis().words();
  std::string frame;
  BeginFrame(&frame);
  EncodeSynopsisDigest(digest, &frame);
  return WriteFrame(conn, FrameType::kSynopsisResponse, &frame,
                    options_.io_timeout_ms);
}

Status NodeServer::HandleStats(Socket* conn) {
  const VersionedTable::Snapshot snapshot = table_->snapshot();
  const CatalogView& view = snapshot.view();
  NodeStatsMsg stats;
  stats.instance_id = instance_id_;
  stats.generation = view.generation();
  stats.partitions = view.partition_count();
  stats.entities = view.entity_count();
  stats.bytes = view.byte_size();
  stats.queries_served = queries_served_.load(std::memory_order_relaxed);
  stats.rows_shipped = rows_shipped_.load(std::memory_order_relaxed);
  std::string frame;
  BeginFrame(&frame);
  EncodeNodeStats(stats, &frame);
  return WriteFrame(conn, FrameType::kStatsResponse, &frame,
                    options_.io_timeout_ms);
}

void NodeServer::SendError(Socket* conn, const Status& status) {
  std::string frame;
  BeginFrame(&frame);
  EncodeError(status, &frame);
  (void)WriteFrame(conn, FrameType::kError, &frame, options_.io_timeout_ms);
}

}  // namespace net
}  // namespace cinderella
