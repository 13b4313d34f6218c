#ifndef CINDERELLA_NET_PROTOCOL_H_
#define CINDERELLA_NET_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/frame.h"
#include "storage/row.h"
#include "synopsis/synopsis.h"

namespace cinderella {
namespace net {

/// Payload serializers for every frame type (net/frame.h). Encoding is
/// little-endian host order (the snapshot format's convention); every
/// decoder is bounds-checked through WireReader and returns
/// InvalidArgument — never crashes or over-reads — on torn or corrupt
/// payloads, which the frame fuzz tests exercise byte by byte.

/// kQueryRequest: an attribute-set query (the paper's workload shape).
/// Attribute ids are the coordinator's dictionary ids; nodes host rows
/// that carry the same ids, so no name resolution happens server-side.
struct QueryRequestMsg {
  uint64_t request_id = 0;
  std::vector<AttributeId> attributes;
};

/// kRowBatch: one slice of a query's matched rows. The rows of one
/// response ascend strictly by entity id across all its batches, and each
/// row's cells ascend strictly by attribute id. `sequence` numbers the
/// batches of one response 0,1,2,... so a gather can detect a dropped
/// batch.
struct RowBatchMsg {
  uint64_t request_id = 0;
  uint32_t sequence = 0;
  std::vector<Row> rows;
};

/// kQueryDone: terminates a query response with the node's measured scan
/// counters and the number of row batches that preceded it.
/// `instance_id` is the answering server's (see SynopsisDigestMsg); the
/// coordinator merges no row of a response whose id differs from the one
/// it recorded for that node.
struct QueryDoneMsg {
  uint64_t request_id = 0;
  uint64_t instance_id = 0;
  uint32_t batches = 0;
  uint64_t partitions_total = 0;
  uint64_t partitions_scanned = 0;
  uint64_t partitions_pruned = 0;
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t cells_shipped = 0;
};

/// kSynopsisResponse: the node's pruning digest — the union synopsis of
/// every partition it hosts at `generation`, plus per-partition count.
/// The coordinator caches this and skips contacting the node entirely
/// when a query's synopsis misses the union (Definition 1 lifted to
/// nodes). `instance_id` is the random id the NodeServer drew when it
/// started: a server restarted on the same port, or another server handed
/// the port, answers with a different id.
struct SynopsisDigestMsg {
  uint64_t instance_id = 0;
  uint64_t generation = 0;
  uint64_t partitions = 0;
  uint64_t entities = 0;
  std::vector<uint64_t> union_words;
};

/// kStatsResponse: static load and service counters of one node, the
/// per-node section of `cinderella_cli stats`, from the server instance
/// `instance_id`.
struct NodeStatsMsg {
  uint64_t instance_id = 0;
  uint64_t generation = 0;
  uint64_t partitions = 0;
  uint64_t entities = 0;
  uint64_t bytes = 0;
  uint64_t queries_served = 0;
  uint64_t rows_shipped = 0;
};

/// kError: a Status shipped back to the client.
struct ErrorMsg {
  uint8_t code = 0;  // StatusCode cast.
  std::string message;
};

// Encoders append one message's payload to `*out`, normally a frame begun
// by BeginFrame (net/frame.h), so a message is written once, in place.
// Decoders size every reservation by the payload bytes left, never by a
// count field alone.

void EncodeQueryRequest(const QueryRequestMsg& msg, std::string* out);
Status DecodeQueryRequest(std::string_view payload, QueryRequestMsg* msg);

/// Appends the kRowBatch payload of `rows`, each projected onto
/// `attributes` (strictly ascending ids): a row ships the cells of those
/// attributes it has, in attribute order. The row layout is the journal's
/// row payload: u64 id, u32 cell count, then per cell u32 attribute, u8
/// type tag and the value. Returns the number of cells written.
uint64_t EncodeRowBatch(uint64_t request_id, uint32_t sequence,
                        std::span<const RowView> rows,
                        std::span<const AttributeId> attributes,
                        std::string* out);
/// Fills `*msg` (rows cleared first). A row whose attribute ids do not
/// ascend strictly is corrupt.
Status DecodeRowBatch(std::string_view payload, RowBatchMsg* msg);

void EncodeQueryDone(const QueryDoneMsg& msg, std::string* out);
Status DecodeQueryDone(std::string_view payload, QueryDoneMsg* msg);

void EncodeSynopsisDigest(const SynopsisDigestMsg& msg, std::string* out);
Status DecodeSynopsisDigest(std::string_view payload, SynopsisDigestMsg* msg);

void EncodeNodeStats(const NodeStatsMsg& msg, std::string* out);
Status DecodeNodeStats(std::string_view payload, NodeStatsMsg* msg);

void EncodeError(const Status& status, std::string* out);
Status DecodeError(std::string_view payload, ErrorMsg* msg);

/// Reconstructs the Status an ErrorMsg carries.
Status ErrorToStatus(const ErrorMsg& msg);

}  // namespace net
}  // namespace cinderella

#endif  // CINDERELLA_NET_PROTOCOL_H_
