// RpcClient reconnect/backoff behavior: the capped-exponential schedule and
// its jitter bounds (pinned via BackoffDelayMs, no sleeping), the seeded
// determinism chaos schedules rely on, the wall-clock retry budget against
// a connection-refused target, and reconnect-and-resend across a server
// restart on the same port. Also, against a raw socket peer that reads
// requests and writes response bytes when the test says so: the pipelined
// receive with its own deadline, the wait on several clients, and the
// request exchange every call runs on (resend after a hang-up, responses
// to other ids skipped, the deadline leaving the stream intact).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "mint/cluster.h"
#include "rpc/client.h"
#include "rpc/socket.h"
#include "server/kv_server.h"

namespace directload::rpc {
namespace {

using Clock = std::chrono::steady_clock;

double ElapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A loopback port with nothing listening: bind an ephemeral listener, read
/// its port, close it. Connects are then refused instantly, which keeps the
/// retry-budget measurements about the budget rather than connect timeouts.
uint16_t ClosedPort() {
  Result<Socket> listener = Listen("127.0.0.1", 0, 1);
  EXPECT_TRUE(listener.ok());
  Result<uint16_t> port = LocalPort(*listener);
  EXPECT_TRUE(port.ok());
  return *port;  // Listener closes here.
}

TEST(RpcClientBackoffTest, ScheduleDoublesFromInitialAndClampsAtCap) {
  RpcClient::Options options;
  options.backoff_initial_ms = 5;
  options.backoff_max_ms = 200;
  RpcClient client("127.0.0.1", 1, options);

  // Base for attempt k is min(initial << (k-1), cap); the jittered delay
  // lands in [base - base/2, base].
  int expected_base = 5;
  for (int attempt = 1; attempt <= 12; ++attempt) {
    const int delay = client.BackoffDelayMs(attempt);
    EXPECT_GE(delay, expected_base - expected_base / 2)
        << "attempt " << attempt;
    EXPECT_LE(delay, expected_base) << "attempt " << attempt;
    if (expected_base < 200) expected_base = std::min(200, expected_base * 2);
  }

  // Deep attempts stay clamped at the cap.
  for (int attempt = 13; attempt <= 40; ++attempt) {
    const int delay = client.BackoffDelayMs(attempt);
    EXPECT_GE(delay, 100);
    EXPECT_LE(delay, 200);
  }
}

TEST(RpcClientBackoffTest, JitterIsDeterministicPerSeed) {
  RpcClient::Options options;
  options.backoff_seed = 42;
  RpcClient a("127.0.0.1", 1, options);
  RpcClient b("127.0.0.1", 1, options);
  std::vector<int> seq_a, seq_b;
  for (int attempt = 1; attempt <= 16; ++attempt) {
    seq_a.push_back(a.BackoffDelayMs(attempt));
    seq_b.push_back(b.BackoffDelayMs(attempt));
  }
  // Same seed, same schedule — the property chaos replays depend on.
  EXPECT_EQ(seq_a, seq_b);

  options.backoff_seed = 43;
  RpcClient c("127.0.0.1", 1, options);
  std::vector<int> seq_c;
  for (int attempt = 1; attempt <= 16; ++attempt) {
    seq_c.push_back(c.BackoffDelayMs(attempt));
  }
  // A different seed draws a different jitter stream. (Equality of every
  // one of 16 jittered draws across seeds would be astronomically
  // unlikely, not merely flaky.)
  EXPECT_NE(seq_a, seq_c);
}

TEST(RpcClientBackoffTest, RetryBudgetBoundsWallClock) {
  RpcClient::Options options;
  options.connect_timeout_ms = 250;
  options.max_reconnects = 1000;  // The budget, not the count, must stop it.
  options.backoff_initial_ms = 40;
  options.backoff_max_ms = 40;
  options.retry_budget_ms = 150;
  RpcClient client("127.0.0.1", ClosedPort(), options);

  const Clock::time_point start = Clock::now();
  const Status s = client.Ping();
  const double elapsed_ms = ElapsedMs(start);

  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  // At least one jittered backoff (>= 20ms) was slept before the budget
  // cut the loop off; well under the 1000-reconnect worst case.
  EXPECT_GE(elapsed_ms, 20.0);
  EXPECT_LE(elapsed_ms, 2000.0);
}

TEST(RpcClientBackoffTest, NoReconnectsFailsFast) {
  RpcClient::Options options;
  options.connect_timeout_ms = 250;
  options.max_reconnects = 0;  // Probe configuration: a retry IS a miss.
  RpcClient client("127.0.0.1", ClosedPort(), options);

  const Clock::time_point start = Clock::now();
  EXPECT_TRUE(client.Ping().IsUnavailable());
  // No backoff sleeps at all: one refused connect and out.
  EXPECT_LE(ElapsedMs(start), 1000.0);
}

TEST(RpcClientReconnectTest, ReconnectsAcrossServerRestartOnSamePort) {
  mint::MintOptions mint_options;
  mint_options.num_groups = 1;
  mint_options.nodes_per_group = 1;
  mint_options.replicas = 1;
  mint_options.parallel_reads = false;
  mint_options.engine.aof.segment_bytes = 4 << 20;
  mint::MintCluster cluster(mint_options);
  ASSERT_TRUE(cluster.Start().ok());

  auto server = std::make_unique<server::KvServer>(&cluster,
                                                   server::KvServerOptions());
  ASSERT_TRUE(server->Start().ok());
  const uint16_t port = server->port();

  RpcClient client("127.0.0.1", port);
  ASSERT_TRUE(client.Put("k", 1, "v1").ok());

  // Bounce the server on the same port; the established connection dies.
  server->Shutdown();
  server.reset();
  server::KvServerOptions restart_options;
  restart_options.port = port;
  server = std::make_unique<server::KvServer>(&cluster, restart_options);
  ASSERT_TRUE(server->Start().ok());

  // The same client object must reconnect-and-resend transparently: every
  // operation is idempotent, so replaying across the new connection is
  // safe, and the default options allow reconnects.
  Result<std::string> read = client.Get("k", 1);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, "v1");
  EXPECT_TRUE(client.Put("k", 2, "v2").ok());
  server->Shutdown();
}

/// A client connected to a raw socket peer the test writes through.
struct RawPeer {
  Socket listener;
  Socket server;
  std::unique_ptr<RpcClient> client;
};

RawPeer ConnectRaw(RpcClient::Options options = RpcClient::Options()) {
  RawPeer peer;
  Result<Socket> listener = Listen("127.0.0.1", 0, 4);
  EXPECT_TRUE(listener.ok());
  Result<uint16_t> port = LocalPort(*listener);
  EXPECT_TRUE(port.ok());
  peer.listener = std::move(listener).value();
  peer.client = std::make_unique<RpcClient>("127.0.0.1", *port, options);
  EXPECT_TRUE(peer.client->Connect().ok());
  Result<Socket> server = AcceptOne(peer.listener, 2000);
  EXPECT_TRUE(server.ok());
  peer.server = std::move(server).value();
  return peer;
}

std::string PongFrame(uint64_t request_id) {
  Frame response;
  response.op = Opcode::kPing;
  response.response = true;
  response.request_id = request_id;
  response.value = "pong" + std::to_string(request_id);
  std::string wire;
  EncodeFrame(response, &wire);
  return wire;
}

TEST(RpcClientPipelineTest, FrameSplitAcrossATimeoutArrivesWhole) {
  RawPeer peer = ConnectRaw();
  RpcClient& client = *peer.client;
  const std::vector<RpcClient*> clients = {&client};

  // Nothing sent yet: the wait and a zero-timeout receive both time out.
  EXPECT_TRUE(RpcClient::WaitReadable(clients, 0).empty());
  EXPECT_TRUE(client.Receive(0).status().IsTimedOut());

  const std::string wire = PongFrame(7);
  const size_t half = wire.size() / 2;
  ASSERT_TRUE(peer.server.SendAll(Slice(wire.data(), half), 1000).ok());
  EXPECT_EQ(RpcClient::WaitReadable(clients, 1000),
            std::vector<size_t>{0});
  Result<Frame> early = client.Receive(50);
  ASSERT_FALSE(early.ok());
  EXPECT_TRUE(early.status().IsTimedOut()) << early.status().ToString();
  // Half a frame buffered is nothing to wake for.
  EXPECT_TRUE(RpcClient::WaitReadable(clients, 20).empty());

  ASSERT_TRUE(peer.server
                  .SendAll(Slice(wire.data() + half, wire.size() - half),
                           1000)
                  .ok());
  Result<Frame> whole = client.Receive(1000);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->request_id, 7u);
  EXPECT_EQ(whole->value, "pong7");
}

TEST(RpcClientPipelineTest, WaitReadableSeesBufferedFramesAndClosedPeers) {
  RawPeer a = ConnectRaw();
  RawPeer b = ConnectRaw();
  const std::vector<RpcClient*> clients = {a.client.get(), b.client.get()};

  // Two answers in one write: the first receive buffers both.
  ASSERT_TRUE(a.server.SendAll(PongFrame(1) + PongFrame(2), 1000).ok());
  Result<Frame> first = a.client->Receive(1000);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->request_id, 1u);
  // No new bytes, but a whole frame is waiting.
  EXPECT_EQ(RpcClient::WaitReadable(clients, 0), std::vector<size_t>{0});
  Result<Frame> second = a.client->Receive(0);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->request_id, 2u);
  EXPECT_TRUE(RpcClient::WaitReadable(clients, 0).empty());

  // A peer that hangs up wakes the waiter, and the receive reports it.
  b.server.Close();
  EXPECT_EQ(RpcClient::WaitReadable(clients, 1000), std::vector<size_t>{1});
  Result<Frame> closed = b.client->Receive(0);
  ASSERT_FALSE(closed.ok());
  EXPECT_TRUE(closed.status().IsUnavailable()) << closed.status().ToString();
}

/// Reads one whole request frame off the peer's side of a connection.
Frame ReadRequest(Socket* server) {
  FrameDecoder decoder;
  Frame frame;
  char buf[4096];
  while (true) {
    Result<bool> got = decoder.Next(&frame);
    if (!got.ok() || *got) {
      EXPECT_TRUE(got.ok()) << got.status().ToString();
      return frame;
    }
    Result<size_t> n = server->RecvSome(buf, sizeof(buf), 2000);
    if (!n.ok() || *n == 0) {
      ADD_FAILURE() << "no whole request arrived";
      return frame;
    }
    decoder.Append(buf, *n);
  }
}

Frame PingRequest() {
  Frame request;
  request.op = Opcode::kPing;
  request.value = "ping";
  return request;
}

/// Drives `x` on the calling thread until it ends.
Result<Frame> Finish(RpcClient::Exchange* x) {
  while (!x->done()) RpcClient::Exchange::Await({x}, Clock::time_point::max());
  return x->TakeResponse();
}

TEST(RpcClientExchangeTest, HungUpConnectionIsRedialedAndResentOnce) {
  RawPeer peer = ConnectRaw();
  peer.server.Close();  // The peer hangs up on the idle connection.

  RpcClient::Exchange x(peer.client.get(), PingRequest());
  // Drive the exchange until its re-dial reaches the listener.
  Socket redialed;
  for (int i = 0; i < 200 && !redialed.valid(); ++i) {
    RpcClient::Exchange::Await({&x},
                               Clock::now() + std::chrono::milliseconds(10));
    Result<Socket> accepted = AcceptOne(peer.listener, 0);
    if (accepted.ok()) redialed = std::move(accepted).value();
  }
  ASSERT_TRUE(redialed.valid()) << "the exchange never dialed again";
  ASSERT_FALSE(x.done());

  const Frame resent = ReadRequest(&redialed);
  EXPECT_EQ(resent.op, Opcode::kPing);
  ASSERT_TRUE(redialed.SendAll(PongFrame(resent.request_id), 1000).ok());
  Result<Frame> response = Finish(&x);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, resent.request_id);
  EXPECT_EQ(response->value, "pong" + std::to_string(resent.request_id));

  // Resent once: no second request on the new connection, no third dial.
  char byte;
  EXPECT_TRUE(redialed.RecvSome(&byte, 1, 50).status().IsTimedOut());
  EXPECT_TRUE(AcceptOne(peer.listener, 50).status().IsTimedOut());
}

TEST(RpcClientExchangeTest, ResponseToAnotherRequestIdIsSkipped) {
  RawPeer peer = ConnectRaw();
  RpcClient::Exchange x(peer.client.get(), PingRequest());
  const Frame request = ReadRequest(&peer.server);

  // An abandoned request's late answer arrives ahead of this one's.
  const uint64_t stale_id = request.request_id + 100;
  ASSERT_TRUE(peer.server
                  .SendAll(PongFrame(stale_id) +
                               PongFrame(request.request_id),
                           1000)
                  .ok());
  Result<Frame> response = Finish(&x);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, request.request_id);
  EXPECT_EQ(response->value, "pong" + std::to_string(request.request_id));
}

TEST(RpcClientExchangeTest, DeadlineTimesOutAndLeavesTheStreamIntact) {
  RpcClient::Options options;
  options.request_timeout_ms = 50;
  RawPeer peer = ConnectRaw(options);
  RpcClient::Exchange x(peer.client.get(), PingRequest());
  const Frame request = ReadRequest(&peer.server);

  const std::string wire = PongFrame(request.request_id);
  const size_t half = wire.size() / 2;
  ASSERT_TRUE(peer.server.SendAll(Slice(wire.data(), half), 1000).ok());
  Result<Frame> expired = Finish(&x);
  ASSERT_FALSE(expired.ok());
  EXPECT_TRUE(expired.status().IsTimedOut()) << expired.status().ToString();

  // The half frame stayed buffered: the rest completes it.
  ASSERT_TRUE(peer.server
                  .SendAll(Slice(wire.data() + half, wire.size() - half),
                           1000)
                  .ok());
  Result<Frame> whole = peer.client->Receive(1000);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_EQ(whole->request_id, request.request_id);
  EXPECT_EQ(whole->value, "pong" + std::to_string(request.request_id));
}

}  // namespace
}  // namespace directload::rpc
