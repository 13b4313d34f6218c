// Wire-codec robustness tests: every message round-trips bit-exactly,
// and a frame truncated at *any* byte, torn, bit-flipped, or carrying a
// bad magic/version/type/checksum must yield a clean Status (or a
// need-more-bytes signal) — never a crash or an over-read.

#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/random.h"
#include "net/frame.h"
#include "net/protocol.h"

namespace cinderella {
namespace net {
namespace {

/// A whole frame around `payload`, built the way every sender builds one.
std::string Framed(FrameType type, std::string_view payload) {
  std::string frame;
  BeginFrame(&frame);
  frame.append(payload);
  SealFrame(type, &frame);
  return frame;
}

/// The payload `encode` appends to an empty buffer.
template <typename Msg>
std::string Encoded(const Msg& msg, void (*encode)(const Msg&, std::string*)) {
  std::string out;
  encode(msg, &out);
  return out;
}

/// Every attribute MakeRow can draw.
std::vector<AttributeId> AllAttributes() {
  std::vector<AttributeId> attributes(30);
  std::iota(attributes.begin(), attributes.end(), AttributeId{0});
  return attributes;
}

/// The kRowBatch payload of `msg`'s rows with every cell shipped.
std::string EncodedBatch(const RowBatchMsg& msg) {
  const std::vector<RowView> views(msg.rows.begin(), msg.rows.end());
  std::string out;
  EncodeRowBatch(msg.request_id, msg.sequence, views, AllAttributes(), &out);
  return out;
}

Row MakeRow(EntityId id, Rng& rng) {
  Row row(id);
  const int attrs = 1 + static_cast<int>(rng.Uniform(5));
  for (int a = 0; a < attrs; ++a) {
    const AttributeId attribute = static_cast<AttributeId>(rng.Uniform(30));
    switch (rng.Uniform(3)) {
      case 0:
        row.Set(attribute, Value(static_cast<int64_t>(rng.Uniform(100000))));
        break;
      case 1:
        row.Set(attribute, Value(rng.UniformDouble()));
        break;
      default:
        row.Set(attribute, Value(std::string(rng.Uniform(20), 'y')));
        break;
    }
  }
  return row;
}

TEST(NetFrameTest, FrameRoundTrip) {
  const std::string payload = "hello, shard";
  const std::string encoded = Framed(FrameType::kQueryRequest, payload);
  EXPECT_EQ(encoded.size(), kFrameHeaderBytes + payload.size());

  Frame frame;
  size_t consumed = 0;
  StatusOr<bool> decoded = DecodeFrame(encoded, &frame, &consumed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded);
  EXPECT_EQ(consumed, encoded.size());
  EXPECT_EQ(frame.type, FrameType::kQueryRequest);
  EXPECT_EQ(frame.payload, payload);
}

TEST(NetFrameTest, EmptyPayloadFrame) {
  const std::string encoded = Framed(FrameType::kPing, "");
  Frame frame;
  size_t consumed = 0;
  StatusOr<bool> decoded = DecodeFrame(encoded, &frame, &consumed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(*decoded);
  EXPECT_EQ(frame.type, FrameType::kPing);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(NetFrameTest, TruncationAtEveryByteNeverCrashes) {
  const std::string encoded =
      Framed(FrameType::kRowBatch, std::string(100, 'z'));
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    Frame frame;
    size_t consumed = 0;
    StatusOr<bool> decoded =
        DecodeFrame(std::string_view(encoded.data(), cut), &frame, &consumed);
    // A valid prefix is always "need more bytes", never an error and
    // never a phantom complete frame.
    ASSERT_TRUE(decoded.ok()) << "cut at " << cut << ": "
                              << decoded.status().ToString();
    EXPECT_FALSE(*decoded) << "cut at " << cut;
    EXPECT_EQ(consumed, 0u);
  }
}

TEST(NetFrameTest, BadMagicRejectedEvenOnShortBuffers) {
  std::string encoded = Framed(FrameType::kPing, "");
  encoded[0] = 'X';
  for (size_t cut = 1; cut <= encoded.size(); ++cut) {
    Frame frame;
    size_t consumed = 0;
    StatusOr<bool> decoded =
        DecodeFrame(std::string_view(encoded.data(), cut), &frame, &consumed);
    EXPECT_FALSE(decoded.ok()) << "cut at " << cut;
  }
}

TEST(NetFrameTest, BadVersionRejected) {
  std::string encoded = Framed(FrameType::kPing, "");
  encoded[4] = static_cast<char>(kWireVersion + 1);
  Frame frame;
  size_t consumed = 0;
  EXPECT_FALSE(DecodeFrame(encoded, &frame, &consumed).ok());
}

TEST(NetFrameTest, BadTypeRejected) {
  for (const uint8_t type : {uint8_t{0}, uint8_t{kMaxFrameType + 1},
                             uint8_t{255}}) {
    std::string encoded = Framed(FrameType::kPing, "");
    encoded[5] = static_cast<char>(type);
    Frame frame;
    size_t consumed = 0;
    EXPECT_FALSE(DecodeFrame(encoded, &frame, &consumed).ok())
        << "type " << static_cast<int>(type);
  }
}

TEST(NetFrameTest, NonzeroReservedRejected) {
  std::string encoded = Framed(FrameType::kPing, "");
  encoded[6] = 1;
  Frame frame;
  size_t consumed = 0;
  EXPECT_FALSE(DecodeFrame(encoded, &frame, &consumed).ok());
}

TEST(NetFrameTest, OversizedLengthRejectedWithoutAllocating) {
  std::string encoded = Framed(FrameType::kRowBatch, "abc");
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(encoded.data() + 8, &huge, sizeof(huge));
  Frame frame;
  size_t consumed = 0;
  EXPECT_FALSE(DecodeFrame(encoded, &frame, &consumed).ok());
}

TEST(NetFrameTest, CorruptedChecksumRejected) {
  std::string encoded = Framed(FrameType::kQueryDone, "payload bytes");
  encoded[encoded.size() - 1] ^= 0x40;  // Flip a payload bit.
  Frame frame;
  size_t consumed = 0;
  StatusOr<bool> decoded = DecodeFrame(encoded, &frame, &consumed);
  EXPECT_FALSE(decoded.ok());
}

TEST(NetFrameTest, HeaderBitFlipsNeverCrash) {
  const std::string pristine =
      Framed(FrameType::kSynopsisResponse, std::string(64, 'q'));
  for (size_t byte = 0; byte < kFrameHeaderBytes; ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = pristine;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      Frame frame;
      size_t consumed = 0;
      // Any outcome but a crash/over-read is acceptable; a flip that
      // decodes must at least still checksum-match.
      StatusOr<bool> decoded = DecodeFrame(corrupted, &frame, &consumed);
      if (decoded.ok() && *decoded) {
        EXPECT_EQ(Crc32c(frame.payload),
                  Crc32c(std::string(64, 'q')));
      }
    }
  }
}

// CRC32C detects every single-bit error, so no flip of a row batch's
// payload can pass the frame check (FNV-1a, the version-2 checksum, never
// promised that).
TEST(NetFrameTest, EverySingleBitFlipOfARowBatchPayloadIsRejected) {
  Rng rng(17);
  RowBatchMsg batch;
  batch.request_id = 21;
  for (EntityId id = 0; id < 40; ++id) batch.rows.push_back(MakeRow(id, rng));
  const std::string pristine = Framed(FrameType::kRowBatch, EncodedBatch(batch));
  for (size_t byte = kFrameHeaderBytes; byte < pristine.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string corrupted = pristine;
      corrupted[byte] ^= static_cast<char>(1 << bit);
      Frame frame;
      size_t consumed = 0;
      const StatusOr<bool> decoded = DecodeFrame(corrupted, &frame, &consumed);
      ASSERT_FALSE(decoded.ok()) << "byte " << byte << " bit " << bit;
      EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(NetProtocolTest, QueryRequestRoundTrip) {
  QueryRequestMsg msg;
  msg.request_id = 42;
  msg.attributes = {3, 1, 4, 159};
  QueryRequestMsg out;
  ASSERT_TRUE(DecodeQueryRequest(Encoded(msg, EncodeQueryRequest), &out).ok());
  EXPECT_EQ(out.request_id, 42u);
  EXPECT_EQ(out.attributes, msg.attributes);
}

TEST(NetProtocolTest, RowBatchRoundTripBitExact) {
  Rng rng(7);
  RowBatchMsg msg;
  msg.request_id = 9;
  msg.sequence = 3;
  for (EntityId id = 0; id < 50; ++id) msg.rows.push_back(MakeRow(id, rng));

  RowBatchMsg out;
  ASSERT_TRUE(DecodeRowBatch(EncodedBatch(msg), &out).ok());
  EXPECT_EQ(out.request_id, 9u);
  EXPECT_EQ(out.sequence, 3u);
  ASSERT_EQ(out.rows.size(), msg.rows.size());
  for (size_t i = 0; i < msg.rows.size(); ++i) {
    EXPECT_EQ(out.rows[i].id(), msg.rows[i].id());
    ASSERT_EQ(out.rows[i].attribute_count(), msg.rows[i].attribute_count());
    for (size_t c = 0; c < msg.rows[i].cells().size(); ++c) {
      EXPECT_EQ(out.rows[i].cells()[c].attribute,
                msg.rows[i].cells()[c].attribute);
      EXPECT_TRUE(out.rows[i].cells()[c].value == msg.rows[i].cells()[c].value);
    }
  }
}

TEST(NetProtocolTest, QueryDoneRoundTrip) {
  QueryDoneMsg msg;
  msg.request_id = 5;
  msg.instance_id = 0x0123456789abcdefULL;
  msg.batches = 2;
  msg.partitions_total = 10;
  msg.partitions_scanned = 4;
  msg.partitions_pruned = 6;
  msg.rows_scanned = 1000;
  msg.rows_matched = 321;
  msg.cells_shipped = 642;
  QueryDoneMsg out;
  ASSERT_TRUE(DecodeQueryDone(Encoded(msg, EncodeQueryDone), &out).ok());
  EXPECT_EQ(out.request_id, 5u);
  EXPECT_EQ(out.instance_id, 0x0123456789abcdefULL);
  EXPECT_EQ(out.batches, 2u);
  EXPECT_EQ(out.partitions_pruned, 6u);
  EXPECT_EQ(out.rows_matched, 321u);
  EXPECT_EQ(out.cells_shipped, 642u);
}

TEST(NetProtocolTest, SynopsisDigestRoundTrip) {
  SynopsisDigestMsg msg;
  msg.instance_id = 0xfedcba9876543210ULL;
  msg.generation = 17;
  msg.partitions = 8;
  msg.entities = 4000;
  msg.union_words = {0xdeadbeefULL, 0x0, 0xffffULL};
  SynopsisDigestMsg out;
  ASSERT_TRUE(
      DecodeSynopsisDigest(Encoded(msg, EncodeSynopsisDigest), &out).ok());
  EXPECT_EQ(out.instance_id, 0xfedcba9876543210ULL);
  EXPECT_EQ(out.generation, 17u);
  EXPECT_EQ(out.union_words, msg.union_words);
}

TEST(NetProtocolTest, NodeStatsRoundTrip) {
  NodeStatsMsg msg;
  msg.instance_id = 0x1122334455667788ULL;
  msg.generation = 3;
  msg.partitions = 12;
  msg.entities = 999;
  msg.bytes = 123456;
  msg.queries_served = 7;
  msg.rows_shipped = 888;
  NodeStatsMsg out;
  ASSERT_TRUE(DecodeNodeStats(Encoded(msg, EncodeNodeStats), &out).ok());
  EXPECT_EQ(out.instance_id, 0x1122334455667788ULL);
  EXPECT_EQ(out.generation, 3u);
  EXPECT_EQ(out.bytes, 123456u);
  EXPECT_EQ(out.rows_shipped, 888u);
}

TEST(NetProtocolTest, ErrorRoundTrip) {
  const Status original = Status::Unavailable("node 3 is down");
  ErrorMsg msg;
  ASSERT_TRUE(DecodeError(Encoded(original, EncodeError), &msg).ok());
  const Status restored = ErrorToStatus(msg);
  EXPECT_EQ(restored.code(), StatusCode::kUnavailable);
  EXPECT_EQ(restored.message(), "node 3 is down");
}

TEST(NetProtocolTest, PayloadTruncationAtEveryByteFailsCleanly) {
  Rng rng(11);
  RowBatchMsg batch;
  batch.request_id = 1;
  for (EntityId id = 0; id < 10; ++id) batch.rows.push_back(MakeRow(id, rng));
  QueryRequestMsg query;
  query.request_id = 2;
  query.attributes = {1, 2, 3};
  SynopsisDigestMsg digest;
  digest.instance_id = 99;
  digest.union_words = {1, 2, 3};
  QueryDoneMsg done;
  done.request_id = 2;
  done.instance_id = 98;
  NodeStatsMsg stats;
  stats.instance_id = 97;

  // Each decoder must reject every strict prefix of its own payload
  // outright (the trailing done() check means a torn payload can never
  // half-succeed); other decoders applied to the same torn bytes must
  // merely never crash or over-read.
  const auto fuzz_one = [](const std::string& payload, const auto& decode) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view torn(payload.data(), cut);
      EXPECT_FALSE(decode(torn)) << "cut at " << cut;
      RowBatchMsg b;
      QueryRequestMsg q;
      QueryDoneMsg d;
      SynopsisDigestMsg s;
      NodeStatsMsg n;
      ErrorMsg e;
      (void)DecodeRowBatch(torn, &b);
      (void)DecodeQueryRequest(torn, &q);
      (void)DecodeQueryDone(torn, &d);
      (void)DecodeSynopsisDigest(torn, &s);
      (void)DecodeNodeStats(torn, &n);
      (void)DecodeError(torn, &e);
    }
  };
  fuzz_one(EncodedBatch(batch), [](std::string_view torn) {
    RowBatchMsg out;
    return DecodeRowBatch(torn, &out).ok();
  });
  fuzz_one(Encoded(query, EncodeQueryRequest), [](std::string_view torn) {
    QueryRequestMsg out;
    return DecodeQueryRequest(torn, &out).ok();
  });
  fuzz_one(Encoded(done, EncodeQueryDone), [](std::string_view torn) {
    QueryDoneMsg out;
    return DecodeQueryDone(torn, &out).ok();
  });
  fuzz_one(Encoded(digest, EncodeSynopsisDigest), [](std::string_view torn) {
    SynopsisDigestMsg out;
    return DecodeSynopsisDigest(torn, &out).ok();
  });
  fuzz_one(Encoded(stats, EncodeNodeStats), [](std::string_view torn) {
    NodeStatsMsg out;
    return DecodeNodeStats(torn, &out).ok();
  });
  fuzz_one(Encoded(Status::Internal("boom"), EncodeError),
           [](std::string_view torn) {
             ErrorMsg out;
             return DecodeError(torn, &out).ok();
           });
}

TEST(NetProtocolTest, RandomBitFlipsNeverCrashDecoders) {
  Rng rng(13);
  RowBatchMsg batch;
  batch.request_id = 77;
  for (EntityId id = 0; id < 20; ++id) batch.rows.push_back(MakeRow(id, rng));
  const std::string pristine = EncodedBatch(batch);

  for (int trial = 0; trial < 500; ++trial) {
    std::string corrupted = pristine;
    const size_t flips = 1 + rng.Uniform(4);
    for (size_t f = 0; f < flips; ++f) {
      const size_t pos = rng.Uniform(corrupted.size());
      corrupted[pos] ^= static_cast<char>(1 << rng.Uniform(8));
    }
    RowBatchMsg out;
    // OK or clean error — the assertion is simply "no crash, no
    // over-read" under ASan/UBSan.
    (void)DecodeRowBatch(corrupted, &out);
  }
}

// Every single-bit flip of a payload that carries a server instance id
// decodes cleanly or fails cleanly, and a flip inside the id field
// decodes to another id, which the coordinator then refuses.
TEST(NetProtocolTest, InstanceIdBitFlipsNeverCrashAndChangeTheId) {
  constexpr uint64_t kInstance = 0x0f1e2d3c4b5a6978ULL;
  QueryDoneMsg done;
  done.request_id = 3;
  done.instance_id = kInstance;
  SynopsisDigestMsg digest;
  digest.instance_id = kInstance;
  digest.union_words = {7, 8};
  NodeStatsMsg stats;
  stats.instance_id = kInstance;

  // Byte offset of the id in each payload: after the request id in
  // kQueryDone, first in the other two.
  const auto flip_each_bit = [&](const std::string& pristine,
                                 size_t id_offset, const auto& decode_id) {
    for (size_t byte = 0; byte < pristine.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupted = pristine;
        corrupted[byte] ^= static_cast<char>(1 << bit);
        uint64_t id = 0;
        const bool ok = decode_id(corrupted, &id);
        if (byte >= id_offset && byte < id_offset + sizeof(uint64_t)) {
          ASSERT_TRUE(ok) << "byte " << byte << " bit " << bit;
          EXPECT_NE(id, kInstance) << "byte " << byte << " bit " << bit;
        }
      }
    }
  };
  flip_each_bit(Encoded(done, EncodeQueryDone), sizeof(uint64_t),
                [](std::string_view bytes, uint64_t* id) {
                  QueryDoneMsg out;
                  const bool ok = DecodeQueryDone(bytes, &out).ok();
                  *id = out.instance_id;
                  return ok;
                });
  flip_each_bit(Encoded(digest, EncodeSynopsisDigest), 0,
                [](std::string_view bytes, uint64_t* id) {
                  SynopsisDigestMsg out;
                  const bool ok = DecodeSynopsisDigest(bytes, &out).ok();
                  *id = out.instance_id;
                  return ok;
                });
  flip_each_bit(Encoded(stats, EncodeNodeStats), 0,
                [](std::string_view bytes, uint64_t* id) {
                  NodeStatsMsg out;
                  const bool ok = DecodeNodeStats(bytes, &out).ok();
                  *id = out.instance_id;
                  return ok;
                });
}

// A node ships each matched row projected onto the query: only the
// queried cells the row has, in attribute order, counted in the return.
TEST(NetProtocolTest, RowBatchShipsOnlyTheProjectedCells) {
  Row wide(7);
  for (AttributeId a = 0; a < 10; ++a) wide.Set(a, Value(int64_t{a} * 10));
  Row narrow(9);
  narrow.Set(4, Value(std::string("four")));
  const std::vector<RowView> views = {RowView(wide), RowView(narrow)};
  const std::vector<AttributeId> projection = {1, 4, 8, 12};
  std::string payload;
  EXPECT_EQ(EncodeRowBatch(3, 0, views, projection, &payload), 4u);

  RowBatchMsg out;
  ASSERT_TRUE(DecodeRowBatch(payload, &out).ok());
  ASSERT_EQ(out.rows.size(), 2u);
  EXPECT_EQ(out.rows[0].id(), 7u);
  ASSERT_EQ(out.rows[0].attribute_count(), 3u);
  EXPECT_EQ(out.rows[0].cells()[0].attribute, 1u);
  EXPECT_EQ(out.rows[0].cells()[1].attribute, 4u);
  EXPECT_EQ(out.rows[0].cells()[2].attribute, 8u);
  EXPECT_TRUE(out.rows[0].cells()[2].value == Value(int64_t{80}));
  EXPECT_EQ(out.rows[1].id(), 9u);
  ASSERT_EQ(out.rows[1].attribute_count(), 1u);
  EXPECT_TRUE(out.rows[1].cells()[0].value == Value(std::string("four")));
}

// Cells reach a decoded row in wire order, so the decoder itself enforces
// the ascending attribute order a Row relies on.
TEST(NetProtocolTest, RowWithRepeatedOrDescendingAttributeIsCorrupt) {
  const auto payload_with = [](AttributeId first, AttributeId second) {
    std::string out;
    WirePod<uint64_t>(&out, 1);  // Request id.
    WirePod<uint32_t>(&out, 0);  // Sequence.
    WirePod<uint32_t>(&out, 1);  // Rows.
    WirePod<uint64_t>(&out, 42);  // Entity id.
    WirePod<uint32_t>(&out, 2);   // Cells.
    for (const AttributeId attribute : {first, second}) {
      WirePod<uint32_t>(&out, attribute);
      WirePod<uint8_t>(&out, static_cast<uint8_t>(ValueType::kInt64));
      WirePod<int64_t>(&out, 5);
    }
    return out;
  };
  RowBatchMsg out;
  EXPECT_TRUE(DecodeRowBatch(payload_with(3, 4), &out).ok());
  const Status repeated = DecodeRowBatch(payload_with(4, 4), &out);
  EXPECT_EQ(repeated.code(), StatusCode::kInvalidArgument);
  const Status descending = DecodeRowBatch(payload_with(4, 3), &out);
  EXPECT_EQ(descending.code(), StatusCode::kInvalidArgument);
}

// A count field that announces far more elements than the payload holds
// fails as corrupt without reserving for the announced count: rows take
// at least 12 bytes, attribute ids 4, synopsis words 8.
TEST(NetProtocolTest, RowBatchReservesNoMoreRowsThanThePayloadHolds) {
  std::string payload;
  WirePod<uint64_t>(&payload, 1);                 // Request id.
  WirePod<uint32_t>(&payload, 0);                 // Sequence.
  WirePod<uint32_t>(&payload, (1u << 20) - 1);    // Announced rows.
  WirePod<uint32_t>(&payload, 0);                 // Four bytes of "rows".
  ASSERT_EQ(payload.size(), 20u);
  RowBatchMsg out;
  EXPECT_EQ(DecodeRowBatch(payload, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_LE(out.rows.capacity(), 4u / 12u);
}

TEST(NetProtocolTest, QueryRequestReservesNoMoreIdsThanThePayloadHolds) {
  std::string payload;
  WirePod<uint64_t>(&payload, 1);               // Request id.
  WirePod<uint32_t>(&payload, (1u << 20) - 1);  // Announced attributes.
  for (AttributeId a = 0; a < 3; ++a) WirePod<uint32_t>(&payload, a);
  QueryRequestMsg out;
  EXPECT_EQ(DecodeQueryRequest(payload, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_LE(out.attributes.capacity(), 12u / 4u);
}

TEST(NetProtocolTest, SynopsisDigestReservesNoMoreWordsThanThePayloadHolds) {
  std::string payload;
  for (int field = 0; field < 4; ++field) WirePod<uint64_t>(&payload, 1);
  WirePod<uint32_t>(&payload, (1u << 20) - 1);  // Announced words.
  WirePod<uint64_t>(&payload, 0xff);
  WirePod<uint64_t>(&payload, 0xf0);
  SynopsisDigestMsg out;
  EXPECT_EQ(DecodeSynopsisDigest(payload, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_LE(out.union_words.capacity(), 16u / 8u);
}

}  // namespace
}  // namespace net
}  // namespace cinderella
