#include "net/coordinator.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <utility>

#include "common/env.h"

namespace cinderella {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Transient failures worth a retry: the node may be restarting
/// (Unavailable) or momentarily overloaded (DeadlineExceeded). Anything
/// else — a corrupt stream, a server-side error — fails immediately.
bool Retryable(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Merges id-ascending row streams into one id-ascending vector, moving
/// every row once. Equal ids, which distinct nodes never ship, would come
/// out in stream order.
std::vector<Row> MergeById(const std::vector<std::vector<Row>*>& streams) {
  if (streams.size() == 1) return std::move(*streams[0]);
  size_t total = 0;
  for (const std::vector<Row>* stream : streams) total += stream->size();
  std::vector<Row> merged;
  merged.reserve(total);
  std::vector<size_t> next(streams.size(), 0);
  while (merged.size() < total) {
    size_t pick = streams.size();
    for (size_t s = 0; s < streams.size(); ++s) {
      if (next[s] == streams[s]->size()) continue;
      if (pick == streams.size() ||
          (*streams[s])[next[s]].id() < (*streams[pick])[next[pick]].id()) {
        pick = s;
      }
    }
    merged.push_back(std::move((*streams[pick])[next[pick]++]));
  }
  return merged;
}

}  // namespace

CoordinatorOptions CoordinatorOptions::FromEnv() {
  CoordinatorOptions options;
  options.timeout_ms = static_cast<int>(
      Int64FromEnv("CINDERELLA_NET_TIMEOUT_MS", options.timeout_ms));
  options.retries = static_cast<int>(
      Int64FromEnv("CINDERELLA_NET_RETRIES", options.retries));
  return options;
}

Coordinator::Coordinator(std::vector<Endpoint> nodes,
                         CoordinatorOptions options)
    : nodes_(std::move(nodes)), options_(options), digests_(nodes_.size()) {
  if (options_.timeout_ms <= 0) options_.timeout_ms = 2000;
  if (options_.retries < 0) options_.retries = 0;
  if (options_.backoff_ms < 0) options_.backoff_ms = 0;
}

Status Coordinator::RefreshDigests() {
  Status first_error = Status::OK();
  for (size_t n = 0; n < nodes_.size(); ++n) {
    StatusOr<Socket> conn = Socket::Connect(nodes_[n].host, nodes_[n].port,
                                            options_.timeout_ms);
    Status status = conn.status();
    Frame frame;
    if (status.ok()) {
      std::string request;
      BeginFrame(&request);
      status = WriteFrame(&*conn, FrameType::kSynopsisRequest, &request,
                          options_.timeout_ms);
    }
    if (status.ok()) {
      status = ReadFrame(&*conn, &frame, options_.timeout_ms);
    }
    if (status.ok() && frame.type != FrameType::kSynopsisResponse) {
      status = Status::InvalidArgument("unexpected digest response frame");
    }
    SynopsisDigestMsg digest;
    if (status.ok()) {
      status = DecodeSynopsisDigest(frame.payload, &digest);
    }
    if (!status.ok()) {
      if (first_error.ok()) first_error = status;
      continue;  // Keep any previously cached digest for this node.
    }
    Digest& cached = digests_[n];
    cached.valid = true;
    cached.generation = digest.generation;
    cached.instance_id = digest.instance_id;
    cached.synopsis.Clear();
    cached.synopsis.UnionWithWords(digest.union_words.data(),
                                   digest.union_words.size());
  }
  return first_error;
}

Status Coordinator::CheckInstance(size_t node, uint64_t instance_id) const {
  const Digest& digest = digests_[node];
  if (!digest.valid || digest.instance_id == instance_id) return Status::OK();
  // Unavailable like a refused connection: the node this coordinator
  // recorded is not the one listening at its address.
  return Status::Unavailable(
      "node " + std::to_string(node) + " answered as server instance " +
      std::to_string(instance_id) + ", not the recorded instance " +
      std::to_string(digest.instance_id) +
      " (another server holds its port)");
}

Status Coordinator::QueryOnce(size_t node, const QueryRequestMsg& request,
                              std::vector<Row>* rows,
                              QueryDoneMsg* done) const {
  rows->clear();
  const Endpoint& endpoint = nodes_[node];
  StatusOr<Socket> conn =
      Socket::Connect(endpoint.host, endpoint.port, options_.timeout_ms);
  CINDERELLA_RETURN_IF_ERROR(conn.status());
  std::string out;
  BeginFrame(&out);
  EncodeQueryRequest(request, &out);
  CINDERELLA_RETURN_IF_ERROR(WriteFrame(&*conn, FrameType::kQueryRequest,
                                        &out, options_.timeout_ms));
  uint32_t expected_sequence = 0;
  Frame frame;
  RowBatchMsg batch;
  while (true) {
    CINDERELLA_RETURN_IF_ERROR(ReadFrame(&*conn, &frame,
                                         options_.timeout_ms));
    switch (frame.type) {
      case FrameType::kRowBatch: {
        CINDERELLA_RETURN_IF_ERROR(DecodeRowBatch(frame.payload, &batch));
        if (batch.request_id != request.request_id) {
          return Status::InvalidArgument("row batch for wrong request");
        }
        if (batch.sequence != expected_sequence) {
          return Status::InvalidArgument("row batch out of sequence");
        }
        ++expected_sequence;
        for (Row& row : batch.rows) {
          // The merge relies on each response ascending; a node that
          // breaks the wire contract is corrupt, not slow.
          if (!rows->empty() && row.id() <= rows->back().id()) {
            return Status::InvalidArgument(
                "node " + std::to_string(node) +
                " sent row ids that do not ascend (" +
                std::to_string(row.id()) + " after " +
                std::to_string(rows->back().id()) + ")");
          }
          rows->push_back(std::move(row));
        }
        break;
      }
      case FrameType::kQueryDone: {
        CINDERELLA_RETURN_IF_ERROR(DecodeQueryDone(frame.payload, done));
        if (done->request_id != request.request_id) {
          return Status::InvalidArgument("query done for wrong request");
        }
        if (done->batches != expected_sequence) {
          return Status::InvalidArgument("dropped row batch in response");
        }
        return CheckInstance(node, done->instance_id);
      }
      case FrameType::kError: {
        ErrorMsg error;
        CINDERELLA_RETURN_IF_ERROR(DecodeError(frame.payload, &error));
        return ErrorToStatus(error);
      }
      default:
        return Status::InvalidArgument("unexpected frame in query response");
    }
  }
}

void Coordinator::QueryNode(size_t node, const QueryRequestMsg& request,
                            NodeResponse* response) const {
  const auto start = Clock::now();
  int backoff = options_.backoff_ms;
  for (int attempt = 0; attempt <= options_.retries; ++attempt) {
    response->attempts = attempt + 1;
    response->status =
        QueryOnce(node, request, &response->rows, &response->done);
    if (response->status.ok() || !Retryable(response->status)) break;
    if (attempt < options_.retries && backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
      backoff *= 2;
    }
  }
  response->wall_ms = MsSince(start);
}

GatherResult Coordinator::Execute(const Query& query) {
  const auto start = Clock::now();
  GatherResult result;
  result.nodes_total = nodes_.size();
  result.nodes.resize(nodes_.size());

  QueryRequestMsg request;
  request.request_id = next_request_id_++;
  request.attributes = query.attributes().ToIds();

  // Per-node pruning: a node whose cached union synopsis misses the query
  // cannot host a matching row (Definition 1 over the union of its
  // partition synopses), so it is never contacted.
  std::vector<size_t> contacted;
  for (size_t n = 0; n < nodes_.size(); ++n) {
    NodeOutcome& outcome = result.nodes[n];
    outcome.node = n;
    if (options_.prune && digests_[n].valid &&
        !digests_[n].synopsis.Intersects(query.attributes())) {
      outcome.pruned = true;
      outcome.ok = true;
      ++result.nodes_pruned;
      continue;
    }
    contacted.push_back(n);
  }
  result.nodes_contacted = contacted.size();

  // Scatter: one client thread per contacted node.
  std::vector<NodeResponse> responses(contacted.size());
  std::vector<std::thread> clients;
  clients.reserve(contacted.size());
  for (size_t i = 0; i < contacted.size(); ++i) {
    clients.emplace_back(&Coordinator::QueryNode, this, contacted[i],
                         std::cref(request), &responses[i]);
  }
  for (std::thread& client : clients) client.join();

  // Gather: sum the counters and merge the id-ascending row streams of
  // the nodes that answered in full.
  std::vector<std::vector<Row>*> streams;
  for (size_t i = 0; i < contacted.size(); ++i) {
    NodeResponse& response = responses[i];
    NodeOutcome& outcome = result.nodes[contacted[i]];
    outcome.attempts = response.attempts;
    outcome.wall_ms = response.wall_ms;
    result.max_node_ms = std::max(result.max_node_ms, response.wall_ms);
    if (!response.status.ok()) {
      outcome.ok = false;
      outcome.error = response.status.ToString();
      ++result.nodes_failed;
      result.complete = false;
      continue;
    }
    outcome.ok = true;
    outcome.rows = response.done.rows_matched;
    result.partitions_total += response.done.partitions_total;
    result.partitions_scanned += response.done.partitions_scanned;
    result.partitions_pruned += response.done.partitions_pruned;
    result.rows_scanned += response.done.rows_scanned;
    result.rows_matched += response.done.rows_matched;
    result.cells_shipped += response.done.cells_shipped;
    result.max_node_rows =
        std::max(result.max_node_rows, response.done.rows_matched);
    streams.push_back(&response.rows);
  }
  if (!streams.empty()) result.rows = MergeById(streams);
  result.wall_ms = MsSince(start);
  return result;
}

StatusOr<NodeStatsMsg> Coordinator::FetchStats(size_t node) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  StatusOr<Socket> conn = Socket::Connect(nodes_[node].host,
                                          nodes_[node].port,
                                          options_.timeout_ms);
  CINDERELLA_RETURN_IF_ERROR(conn.status());
  std::string request;
  BeginFrame(&request);
  CINDERELLA_RETURN_IF_ERROR(WriteFrame(&*conn, FrameType::kStatsRequest,
                                        &request, options_.timeout_ms));
  Frame frame;
  CINDERELLA_RETURN_IF_ERROR(ReadFrame(&*conn, &frame, options_.timeout_ms));
  if (frame.type == FrameType::kError) {
    ErrorMsg error;
    CINDERELLA_RETURN_IF_ERROR(DecodeError(frame.payload, &error));
    return ErrorToStatus(error);
  }
  if (frame.type != FrameType::kStatsResponse) {
    return Status::InvalidArgument("unexpected stats response frame");
  }
  NodeStatsMsg stats;
  CINDERELLA_RETURN_IF_ERROR(DecodeNodeStats(frame.payload, &stats));
  CINDERELLA_RETURN_IF_ERROR(CheckInstance(node, stats.instance_id));
  return stats;
}

Status Coordinator::Ping(size_t node) const {
  if (node >= nodes_.size()) {
    return Status::InvalidArgument("node index out of range");
  }
  StatusOr<Socket> conn = Socket::Connect(nodes_[node].host,
                                          nodes_[node].port,
                                          options_.timeout_ms);
  CINDERELLA_RETURN_IF_ERROR(conn.status());
  std::string ping;
  BeginFrame(&ping);
  CINDERELLA_RETURN_IF_ERROR(
      WriteFrame(&*conn, FrameType::kPing, &ping, options_.timeout_ms));
  Frame frame;
  CINDERELLA_RETURN_IF_ERROR(ReadFrame(&*conn, &frame, options_.timeout_ms));
  if (frame.type != FrameType::kPong) {
    return Status::InvalidArgument("unexpected ping response frame");
  }
  return Status::OK();
}

uint64_t Coordinator::digest_generation(size_t node) const {
  if (node >= digests_.size() || !digests_[node].valid) return 0;
  return digests_[node].generation;
}

}  // namespace net
}  // namespace cinderella
