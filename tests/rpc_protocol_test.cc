// Wire-protocol tests: round-trips for every opcode, incremental decoding,
// and the corruption matrix the decoder must survive — truncation at every
// byte boundary, a flipped byte at every offset, and inflated length
// fields. The invariant throughout: the decoder never crashes, never reads
// past the bytes it was given, and never yields a frame from a damaged
// buffer.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "rpc/protocol.h"

namespace directload::rpc {
namespace {

Frame SampleRequest(Opcode op) {
  Frame frame;
  frame.op = op;
  frame.request_id = 0x1122334455667788ull;
  frame.version = 42;
  frame.key = "url:example.com/index";
  switch (op) {
    case Opcode::kPut:
      frame.value = std::string(300, 'v');  // Length needs a 2-byte varint.
      frame.dedup = true;
      break;
    case Opcode::kGet:
      frame.latest = true;
      break;
    case Opcode::kBulkSlice:
      frame.key.clear();  // Bulk frames carry everything in the value field.
      frame.value = std::string(512, 's');
      break;
    default:
      break;
  }
  return frame;
}

std::string Encode(const Frame& frame) {
  std::string wire;
  EncodeFrame(frame, &wire);
  return wire;
}

void ExpectSameFrame(const Frame& a, const Frame& b) {
  EXPECT_EQ(a.op, b.op);
  EXPECT_EQ(a.response, b.response);
  EXPECT_EQ(a.dedup, b.dedup);
  EXPECT_EQ(a.latest, b.latest);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.request_id, b.request_id);
  EXPECT_EQ(a.version, b.version);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.value, b.value);
}

const Opcode kAllOpcodes[] = {
    Opcode::kGet,       Opcode::kPut,       Opcode::kDel,
    Opcode::kStats,     Opcode::kPing,      Opcode::kBulkBegin,
    Opcode::kBulkSlice, Opcode::kBulkCommit, Opcode::kBulkAbort};

TEST(RpcProtocolTest, RoundTripsEveryOpcode) {
  for (Opcode op : kAllOpcodes) {
    Frame in = SampleRequest(op);
    FrameDecoder decoder;
    const std::string wire = Encode(in);
    decoder.Append(wire.data(), wire.size());
    Frame out;
    Result<bool> got = decoder.Next(&out);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(*got);
    ExpectSameFrame(in, out);
    EXPECT_EQ(decoder.buffered_bytes(), 0u);
  }
}

TEST(RpcProtocolTest, RoundTripsResponses) {
  for (Opcode op : kAllOpcodes) {
    Frame response = MakeResponse(SampleRequest(op), Status::OK(), "payload");
    FrameDecoder decoder;
    const std::string wire = Encode(response);
    decoder.Append(wire.data(), wire.size());
    Frame out;
    Result<bool> got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    EXPECT_TRUE(out.response);
    EXPECT_EQ(out.status, StatusCode::kOk);
    EXPECT_EQ(out.value, "payload");
    EXPECT_EQ(out.request_id, SampleRequest(op).request_id);
  }
}

std::string Unhex(const std::string& hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return out;
}

// The exact bytes of a request and a response frame, as the encoder wrote
// them when it still built each body in a separate buffer. Any drift in
// layout, length patching or checksum placement fails here.
TEST(RpcProtocolTest, EncodesGoldenBytes) {
  const std::string golden_request =
      Unhex("444c5031" "58010000"            // magic, body length 344
            "02020000"                       // kPut, kFlagDedup, kOk, 0
            "8877665544332211"               // request id
            "2a00000000000000" "15") +       // version 42, key length 21
      "url:example.com/index" + Unhex("ac02") + std::string(300, 'v') +
      Unhex("6da7e3db");                     // masked CRC32C of the body
  const std::string golden_response =
      Unhex("444c5031" "21000000"            // magic, body length 33
            "01010100"                       // kGet, response, kNotFound, 0
            "8877665544332211" "2a00000000000000" "00" "0b") +
      "no such key" + Unhex("1474db8c");
  Frame response;
  response.op = Opcode::kGet;
  response.response = true;
  response.status = StatusCode::kNotFound;
  response.request_id = 0x1122334455667788ull;
  response.version = 42;
  response.value = "no such key";

  std::string wire;
  EncodeFrame(SampleRequest(Opcode::kPut), &wire);
  EXPECT_EQ(wire, golden_request);
  // Appending behind a frame already in the buffer, as the writer batches.
  EncodeFrame(response, &wire);
  EXPECT_EQ(wire, golden_request + golden_response);
}

TEST(RpcProtocolTest, ErrorResponseCarriesCodeAndMessage) {
  Frame response = MakeResponse(SampleRequest(Opcode::kGet),
                                Status::NotFound("no such key"));
  FrameDecoder decoder;
  const std::string wire = Encode(response);
  decoder.Append(wire.data(), wire.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  EXPECT_EQ(out.status, StatusCode::kNotFound);
  EXPECT_EQ(out.value, "no such key");
}

TEST(RpcProtocolTest, DecodesByteByByte) {
  // The worst fragmentation a stream can produce: one byte per Append.
  Frame in = SampleRequest(Opcode::kPut);
  const std::string wire = Encode(in);
  FrameDecoder decoder;
  Frame out;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    decoder.Append(&wire[i], 1);
    Result<bool> got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    ASSERT_FALSE(*got) << "frame completed " << (wire.size() - 1 - i)
                       << " bytes early";
  }
  decoder.Append(&wire[wire.size() - 1], 1);
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);
  ExpectSameFrame(in, out);
}

TEST(RpcProtocolTest, DecodesPipelinedFrames) {
  std::string wire;
  std::vector<Frame> frames;
  for (Opcode op : kAllOpcodes) {
    frames.push_back(SampleRequest(op));
    EncodeFrame(frames.back(), &wire);
  }
  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  for (const Frame& expected : frames) {
    Frame out;
    Result<bool> got = decoder.Next(&out);
    ASSERT_TRUE(got.ok());
    ASSERT_TRUE(*got);
    ExpectSameFrame(expected, out);
  }
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
}

// ---------------------------------------------------------------------------
// Corruption matrix
// ---------------------------------------------------------------------------

TEST(RpcProtocolTest, TruncationAtEveryBoundaryNeverYieldsAFrame) {
  for (Opcode op : kAllOpcodes) {
    const std::string wire = Encode(SampleRequest(op));
    for (size_t cut = 0; cut < wire.size(); ++cut) {
      FrameDecoder decoder;
      decoder.Append(wire.data(), cut);
      Frame out;
      Result<bool> got = decoder.Next(&out);
      // A strict prefix of a valid frame is never an error — the decoder
      // just waits for the rest — and never a frame.
      ASSERT_TRUE(got.ok()) << "cut at " << cut << ": "
                            << got.status().ToString();
      ASSERT_FALSE(*got) << "frame accepted from a " << cut << "-byte prefix";
    }
  }
}

TEST(RpcProtocolTest, FlippedByteAtEveryOffsetIsRejected) {
  for (Opcode op : kAllOpcodes) {
    const std::string wire = Encode(SampleRequest(op));
    for (size_t i = 0; i < wire.size(); ++i) {
      std::string damaged = wire;
      damaged[i] = static_cast<char>(damaged[i] ^ 0x5A);
      FrameDecoder decoder;
      decoder.Append(damaged.data(), damaged.size());
      Frame out;
      Result<bool> got = decoder.Next(&out);
      if (!got.ok()) {
        // Rejected: header damage is kProtocol, payload damage kCorruption.
        ASSERT_TRUE(got.status().IsProtocol() || got.status().IsCorruption())
            << "offset " << i << ": " << got.status().ToString();
        // The error must be sticky: the stream is unframeable from here on.
        Result<bool> again = decoder.Next(&out);
        ASSERT_FALSE(again.ok());
        ASSERT_EQ(again.status().code(), got.status().code());
        continue;
      }
      // The only acceptable non-error outcome is "need more bytes" (a flip
      // in the length field can inflate the frame past the buffer). It must
      // never be a completed frame.
      ASSERT_FALSE(*got) << "offset " << i
                         << ": decoder accepted a damaged frame";
    }
  }
}

TEST(RpcProtocolTest, InflatedLengthBeyondMaximumIsProtocolError) {
  const std::string wire = Encode(SampleRequest(Opcode::kPut));
  std::string damaged = wire;
  EncodeFixed32(&damaged[4], static_cast<uint32_t>(kMaxBodyBytes) + 1);
  FrameDecoder decoder;
  decoder.Append(damaged.data(), damaged.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsProtocol()) << got.status().ToString();
}

TEST(RpcProtocolTest, BulkSizedFramesRequireTheNegotiatedBound) {
  // A slice frame whose body sits in (kMaxBodyBytes, kMaxBulkBodyBytes] is a
  // protocol error on a fresh connection — the tight bound is the remote-OOM
  // defense — and decodes only once the peer has negotiated the bulk bound
  // (the server raises it when it acks kBulkBegin).
  Frame in;
  in.op = Opcode::kBulkSlice;
  in.request_id = 7;
  in.version = 3;
  in.value = std::string(kMaxBodyBytes + 1024, 's');
  const std::string wire = Encode(in);

  FrameDecoder strict;
  strict.Append(wire.data(), wire.size());
  Frame out;
  Result<bool> got = strict.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsProtocol()) << got.status().ToString();

  FrameDecoder negotiated;
  negotiated.set_max_body_bytes(kMaxBulkBodyBytes);
  negotiated.Append(wire.data(), wire.size());
  got = negotiated.Next(&out);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  ExpectSameFrame(in, out);

  // The negotiated ceiling is still a ceiling: a body one past
  // kMaxBulkBodyBytes is rejected even on a bulk connection.
  std::string inflated = wire;
  EncodeFixed32(&inflated[4], static_cast<uint32_t>(kMaxBulkBodyBytes) + 1);
  FrameDecoder ceiling;
  ceiling.set_max_body_bytes(kMaxBulkBodyBytes);
  ceiling.Append(inflated.data(), inflated.size());
  got = ceiling.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsProtocol()) << got.status().ToString();
}

TEST(RpcProtocolTest, InflatedLengthWithinBoundsFailsTheChecksum) {
  // Inflate the declared body by 8 bytes and pad the wire accordingly: the
  // decoder now checksums the wrong span and must reject the frame as
  // corrupt rather than trust the length field.
  const std::string wire = Encode(SampleRequest(Opcode::kGet));
  std::string damaged = wire;
  const uint32_t body_len = DecodeFixed32(&damaged[4]);
  EncodeFixed32(&damaged[4], body_len + 8);
  damaged.append(8, '\0');
  FrameDecoder decoder;
  decoder.Append(damaged.data(), damaged.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsCorruption()) << got.status().ToString();
}

TEST(RpcProtocolTest, InflatedLengthNeverOverReads) {
  // Length claims more than the buffer holds: the decoder must wait, not
  // read past the bytes it was given.
  const std::string wire = Encode(SampleRequest(Opcode::kGet));
  std::string damaged = wire;
  const uint32_t body_len = DecodeFixed32(&damaged[4]);
  EncodeFixed32(&damaged[4], body_len + 1000);
  FrameDecoder decoder;
  decoder.Append(damaged.data(), damaged.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(*got);
}

TEST(RpcProtocolTest, BadMagicIsProtocolError) {
  const std::string wire = Encode(SampleRequest(Opcode::kPing));
  std::string damaged = wire;
  damaged[0] = 'X';
  FrameDecoder decoder;
  decoder.Append(damaged.data(), damaged.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsProtocol());
}

TEST(RpcProtocolTest, UnknownOpcodeFlagsOrStatusAreProtocolErrors) {
  struct Damage {
    size_t body_offset;
    char value;
  };
  // Repair the CRC after each body edit so the corruption check passes and
  // the *semantic* validation is what rejects the frame.
  const Damage damages[] = {
      {0, 99},                      // Unknown opcode.
      {1, 0x70},                    // Unknown flag bits.
      {2, 120},                     // Unknown status code.
      {3, 1},                       // Non-zero reserved byte.
  };
  for (const Damage& damage : damages) {
    std::string wire = Encode(SampleRequest(Opcode::kPing));
    const uint32_t body_len = DecodeFixed32(&wire[4]);
    wire[kHeaderBytes + damage.body_offset] = damage.value;
    const uint32_t crc =
        crc32c::Value(wire.data() + kHeaderBytes, body_len);
    EncodeFixed32(&wire[kHeaderBytes + body_len], crc32c::Mask(crc));
    FrameDecoder decoder;
    decoder.Append(wire.data(), wire.size());
    Frame out;
    Result<bool> got = decoder.Next(&out);
    ASSERT_FALSE(got.ok()) << "body offset " << damage.body_offset;
    EXPECT_TRUE(got.status().IsProtocol()) << got.status().ToString();
  }
}

TEST(RpcProtocolTest, OversizedInnerKeyLengthIsProtocolError) {
  // A key length claiming more bytes than the body holds must be caught by
  // the body parser (the CRC is valid — the sender really built this).
  Frame frame = SampleRequest(Opcode::kGet);
  std::string body;
  body.push_back(static_cast<char>(frame.op));
  body.push_back(static_cast<char>(kFlagLatest));
  body.push_back('\0');
  body.push_back('\0');
  PutFixed64(&body, frame.request_id);
  PutFixed64(&body, frame.version);
  PutVarint32(&body, 1000);  // Key length far beyond the body.
  body.append("short", 5);
  std::string wire;
  PutFixed32(&wire, kFrameMagic);
  PutFixed32(&wire, static_cast<uint32_t>(body.size()));
  wire += body;
  PutFixed32(&wire, crc32c::Mask(crc32c::Value(body.data(), body.size())));

  FrameDecoder decoder;
  decoder.Append(wire.data(), wire.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsProtocol()) << got.status().ToString();
}

TEST(RpcProtocolTest, GarbageAfterValidFrameErrorsOnTheGarbage) {
  const std::string wire = Encode(SampleRequest(Opcode::kPut));
  std::string stream = wire + "this is not a frame header at all";
  FrameDecoder decoder;
  decoder.Append(stream.data(), stream.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(*got);  // The valid frame decodes.
  got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());  // The garbage does not.
  EXPECT_TRUE(got.status().IsProtocol());
}

// ---------------------------------------------------------------------------
// kWriteBatch payload codecs.
// ---------------------------------------------------------------------------

std::vector<BatchOp> SampleBatchOps() {
  std::vector<BatchOp> ops(3);
  ops[0].version = 7;
  ops[0].key = "url:a";
  ops[0].value = std::string(300, 'v');  // Length needs a 2-byte varint.
  ops[1].is_del = true;
  ops[1].version = 7;
  ops[1].key = "url:b";
  ops[2].dedup = true;
  ops[2].version = 8;
  ops[2].key = "url:a";
  return ops;
}

TEST(RpcProtocolTest, BatchOpsRoundTrip) {
  const std::vector<BatchOp> in = SampleBatchOps();
  std::string wire;
  EncodeBatchOps(in, &wire);
  std::vector<BatchOp> out;
  ASSERT_TRUE(DecodeBatchOps(Slice(wire), &out).ok());
  ASSERT_EQ(out.size(), in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i].is_del, in[i].is_del) << i;
    EXPECT_EQ(out[i].dedup, in[i].dedup) << i;
    EXPECT_EQ(out[i].version, in[i].version) << i;
    EXPECT_EQ(out[i].key, in[i].key) << i;
    EXPECT_EQ(out[i].value, in[i].value) << i;
  }
}

TEST(RpcProtocolTest, BatchOpsTruncationAtEveryBoundaryIsProtocolError) {
  std::string wire;
  EncodeBatchOps(SampleBatchOps(), &wire);
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<BatchOp> out;
    Status s = DecodeBatchOps(Slice(wire.data(), cut), &out);
    EXPECT_TRUE(s.IsProtocol()) << "cut at " << cut << ": " << s.ToString();
  }
}

TEST(RpcProtocolTest, BatchOpsRejectUnknownKindFlagAndTrailingBytes) {
  std::vector<BatchOp> one(1);
  one[0].version = 1;
  one[0].key = "k";
  one[0].value = "v";
  std::string wire;
  EncodeBatchOps(one, &wire);
  std::vector<BatchOp> out;

  std::string bad_kind = wire;
  bad_kind[1] = 2;  // Byte 0 is the varint count; byte 1 the first op's kind.
  EXPECT_TRUE(DecodeBatchOps(Slice(bad_kind), &out).IsProtocol());

  std::string bad_flags = wire;
  bad_flags[2] = static_cast<char>(0x80);  // Undefined flag bit.
  EXPECT_TRUE(DecodeBatchOps(Slice(bad_flags), &out).IsProtocol());

  std::string trailing = wire + "x";
  EXPECT_TRUE(DecodeBatchOps(Slice(trailing), &out).IsProtocol());
}

TEST(RpcProtocolTest, HugeBatchCountsAreRejectedBeforeAllocation) {
  // An attacker-controlled count near 2^32 with a tiny payload must fail as
  // a protocol error up front — not reserve() gigabytes and die in OOM.
  std::string ops_wire;
  PutVarint32(&ops_wire, 0xFFFFFFFFu);
  std::vector<BatchOp> ops;
  EXPECT_TRUE(DecodeBatchOps(Slice(ops_wire), &ops).IsProtocol());

  std::string status_wire;
  PutVarint32(&status_wire, 0xFFFFFFFFu);
  std::vector<Status> statuses;
  EXPECT_TRUE(DecodeBatchStatuses(Slice(status_wire), &statuses).IsProtocol());

  // A count merely one past what the payload could hold is also rejected.
  std::vector<BatchOp> one(1);
  one[0].version = 1;
  one[0].key = "k";
  one[0].value = "v";
  std::string wire;
  EncodeBatchOps(one, &wire);
  std::string inflated;
  PutVarint32(&inflated, 2);
  inflated.append(wire.begin() + 1, wire.end());  // Keep the single op.
  EXPECT_TRUE(DecodeBatchOps(Slice(inflated), &ops).IsProtocol());
}

TEST(RpcProtocolTest, BatchStatusesRoundTripIncludingMessages) {
  std::vector<Status> in;
  in.push_back(Status::OK());
  in.push_back(Status::NotFound("no pair (k, 7)"));
  in.push_back(Status::InvalidArgument("empty key"));
  std::string wire;
  EncodeBatchStatuses(in, &wire);
  std::vector<Status> out;
  ASSERT_TRUE(DecodeBatchStatuses(Slice(wire), &out).ok());
  ASSERT_EQ(out.size(), in.size());
  EXPECT_TRUE(out[0].ok());
  EXPECT_TRUE(out[1].IsNotFound());
  EXPECT_EQ(out[1].message(), "no pair (k, 7)");
  EXPECT_TRUE(out[2].IsInvalidArgument());
  EXPECT_EQ(out[2].message(), "empty key");

  for (size_t cut = 0; cut < wire.size(); ++cut) {
    std::vector<Status> partial;
    EXPECT_TRUE(DecodeBatchStatuses(Slice(wire.data(), cut), &partial)
                    .IsProtocol())
        << "cut at " << cut;
  }
}

TEST(RpcProtocolTest, WriteBatchOpcodeRoundTripsAsAFrame) {
  Frame in;
  in.op = Opcode::kWriteBatch;
  in.request_id = 99;
  EncodeBatchOps(SampleBatchOps(), &in.value);
  FrameDecoder decoder;
  const std::string wire = Encode(in);
  decoder.Append(wire.data(), wire.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(*got);
  ExpectSameFrame(in, out);
}

TEST(RpcProtocolTest, HeartbeatInfoRoundTrips) {
  HeartbeatInfo in;
  in.serving = true;
  in.degraded = true;
  in.live_entries = 0x1122334455667788ull;
  std::string wire;
  EncodeHeartbeatInfo(in, &wire);
  HeartbeatInfo out;
  ASSERT_TRUE(DecodeHeartbeatInfo(Slice(wire), &out).ok());
  EXPECT_EQ(out.serving, in.serving);
  EXPECT_EQ(out.degraded, in.degraded);
  EXPECT_EQ(out.live_entries, in.live_entries);

  // Exactly-sized payload: both truncation and trailing bytes are protocol
  // errors, as is any undefined flag bit.
  HeartbeatInfo sink;
  EXPECT_TRUE(
      DecodeHeartbeatInfo(Slice(wire.data(), wire.size() - 1), &sink)
          .IsProtocol());
  EXPECT_TRUE(DecodeHeartbeatInfo(Slice(wire + "x"), &sink).IsProtocol());
  std::string bad_flags = wire;
  bad_flags[0] = static_cast<char>(0x80);
  EXPECT_TRUE(DecodeHeartbeatInfo(Slice(bad_flags), &sink).IsProtocol());
}

TEST(RpcProtocolTest, RepairScanRequestRoundTrips) {
  RepairScanRequest in;
  in.cursor.shard = 3;
  in.cursor.version = 41;
  in.cursor.key = std::string("cur\0sor", 7);  // Arbitrary bytes survive.
  in.cursor.resume = true;
  in.max_pairs = 777;
  in.keys_only = true;
  std::string wire;
  EncodeRepairScanRequest(in, &wire);
  RepairScanRequest out;
  ASSERT_TRUE(DecodeRepairScanRequest(Slice(wire), &out).ok());
  EXPECT_EQ(out.cursor.shard, in.cursor.shard);
  EXPECT_EQ(out.cursor.version, in.cursor.version);
  EXPECT_EQ(out.cursor.key, in.cursor.key);
  EXPECT_EQ(out.cursor.resume, in.cursor.resume);
  EXPECT_EQ(out.max_pairs, in.max_pairs);
  EXPECT_EQ(out.keys_only, in.keys_only);

  RepairScanRequest sink;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_TRUE(
        DecodeRepairScanRequest(Slice(wire.data(), cut), &sink).IsProtocol())
        << "cut at " << cut;
  }
  EXPECT_TRUE(DecodeRepairScanRequest(Slice(wire + "x"), &sink).IsProtocol());
}

TEST(RpcProtocolTest, RepairPageRoundTripsWithAndWithoutCursor) {
  RepairPage in;
  for (int i = 0; i < 3; ++i) {
    RepairPair pair;
    pair.key = "k" + std::to_string(i);
    pair.version = 10 + i;
    pair.value = i == 1 ? std::string() : "v" + std::to_string(i);
    in.pairs.push_back(pair);
  }
  in.done = false;
  in.next.shard = 1;
  in.next.version = 12;
  in.next.key = "k2";
  in.next.resume = true;
  std::string wire;
  EncodeRepairPage(in, &wire);
  RepairPage out;
  ASSERT_TRUE(DecodeRepairPage(Slice(wire), &out).ok());
  ASSERT_EQ(out.pairs.size(), in.pairs.size());
  for (size_t i = 0; i < in.pairs.size(); ++i) {
    EXPECT_EQ(out.pairs[i].key, in.pairs[i].key) << i;
    EXPECT_EQ(out.pairs[i].version, in.pairs[i].version) << i;
    EXPECT_EQ(out.pairs[i].value, in.pairs[i].value) << i;
  }
  EXPECT_FALSE(out.done);
  EXPECT_EQ(out.next.shard, in.next.shard);
  EXPECT_EQ(out.next.version, in.next.version);
  EXPECT_EQ(out.next.key, in.next.key);
  EXPECT_TRUE(out.next.resume);

  // Terminal page: done flag set, no trailing cursor on the wire.
  RepairPage last;
  last.done = true;
  std::string last_wire;
  EncodeRepairPage(last, &last_wire);
  RepairPage last_out;
  ASSERT_TRUE(DecodeRepairPage(Slice(last_wire), &last_out).ok());
  EXPECT_TRUE(last_out.done);
  EXPECT_TRUE(last_out.pairs.empty());

  RepairPage sink;
  for (size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_TRUE(DecodeRepairPage(Slice(wire.data(), cut), &sink).IsProtocol())
        << "cut at " << cut;
  }
  EXPECT_TRUE(DecodeRepairPage(Slice(wire + "x"), &sink).IsProtocol());
}

TEST(RpcProtocolTest, HugeRepairPairCountsAreRejectedBeforeAllocation) {
  // flags byte + an absurd pair count over a tiny payload: the decoder must
  // bound the count against the remaining bytes before reserving.
  std::string wire;
  wire.push_back(0);  // flags: not done... but then a cursor is expected;
  PutVarint32(&wire, 0x0fffffff);
  RepairPage sink;
  Status s = DecodeRepairPage(Slice(wire), &sink);
  EXPECT_TRUE(s.IsProtocol()) << s.ToString();
}

TEST(RpcProtocolTest, NewOpcodesAreValidAndBoundIsEnforced) {
  // kHeartbeat and kRepairScan decode as frames; one past the highest
  // opcode is still rejected at the frame layer.
  for (Opcode op : {Opcode::kHeartbeat, Opcode::kRepairScan}) {
    Frame in = SampleRequest(op);
    FrameDecoder decoder;
    const std::string wire = Encode(in);
    decoder.Append(wire.data(), wire.size());
    Frame out;
    Result<bool> got = decoder.Next(&out);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(*got);
    EXPECT_EQ(out.op, op);
  }

  // Re-encode with the enum flipped one past the valid range: the CRC is
  // computed over the patched body, so the failure is the opcode check, not
  // a checksum mismatch.
  Frame in = SampleRequest(Opcode::kRepairScan);
  in.op = static_cast<Opcode>(static_cast<uint8_t>(Opcode::kRepairScan) + 1);
  std::string bad_wire = Encode(in);
  FrameDecoder decoder;
  decoder.Append(bad_wire.data(), bad_wire.size());
  Frame out;
  Result<bool> got = decoder.Next(&out);
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(got.status().IsProtocol()) << got.status().ToString();
}

}  // namespace
}  // namespace directload::rpc
