// End-to-end serving tests over real localhost sockets: a KvServer hosting
// a small mint::MintCluster, driven by RpcClients on real threads. Covers
// the full request surface, pipelining (deep, and from a client that never
// reads), concurrent clients, a client dying mid-frame, admission
// rejections, accepting again after descriptor exhaustion, the
// protocol-corruption matrix at the socket level, idle timeouts, and the
// graceful-drain guarantee: every acknowledged PUT is readable after the
// server is restarted on the same cluster.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/coding.h"
#include "common/failpoint.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/socket.h"
#include "server/kv_server.h"

namespace directload::server {
namespace {

mint::MintOptions SmallClusterOptions() {
  mint::MintOptions options;
  // A compact topology keeps each test fast: two groups of one node each,
  // no replication fan-out, sequential replica reads (no thread per read —
  // the serving layer supplies the real-thread concurrency here).
  options.num_groups = 2;
  options.nodes_per_group = 1;
  options.replicas = 1;
  options.parallel_reads = false;
  options.engine.aof.segment_bytes = 4 << 20;
  return options;
}

class ServerSmokeTest : public ::testing::Test {
 protected:
  void StartCluster() {
    cluster_ = std::make_unique<mint::MintCluster>(SmallClusterOptions());
    ASSERT_TRUE(cluster_->Start().ok());
  }

  void StartServer(KvServerOptions options = KvServerOptions()) {
    server_ = std::make_unique<KvServer>(cluster_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  rpc::RpcClient MakeClient() {
    return rpc::RpcClient("127.0.0.1", server_->port());
  }

  std::unique_ptr<mint::MintCluster> cluster_;
  std::unique_ptr<KvServer> server_;
};

TEST_F(ServerSmokeTest, FullRequestSurface) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();

  EXPECT_TRUE(client.Ping().ok());
  EXPECT_TRUE(client.Put("url:a", 1, "hello").ok());
  EXPECT_TRUE(client.Put("url:a", 2, "world").ok());

  Result<std::string> got = client.Get("url:a", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "hello");

  got = client.GetLatest("url:a");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "world");

  // Deduplicated put: the value is resolved by traceback to version 2.
  EXPECT_TRUE(client.Put("url:a", 3, "", /*dedup=*/true).ok());
  got = client.Get("url:a", 3);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "world");

  EXPECT_TRUE(client.Del("url:a", 1).ok());
  EXPECT_TRUE(client.Get("url:a", 1).status().IsNotFound());
  EXPECT_TRUE(client.Get("url:missing", 1).status().IsNotFound());

  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("server:"), std::string::npos);
  EXPECT_NE(stats->find("cluster:"), std::string::npos);

  server_->Shutdown();
  EXPECT_GE(server_->counters().requests_served.load(), 9u);
}

// The stats endpoint reads every node's engine, so it must hold each
// node's lifecycle lock: FailNode frees the engine under the exclusive hold.
TEST_F(ServerSmokeTest, StatsSurvivesNodeCrashAndRecovery) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Put("url:a", 1, "hello").ok());

  std::atomic<bool> done{false};
  std::thread chaos([&] {
    for (int i = 0; i < 200; ++i) {
      EXPECT_TRUE(cluster_->FailNode(0).ok());
      Result<double> recovered = cluster_->RecoverNode(0);
      EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
    }
    done.store(true, std::memory_order_release);
  });
  int calls = 0;
  int failures = 0;
  do {
    Result<std::string> stats = client.Stats();
    if (!stats.ok() || stats->find("cache:") == std::string::npos) {
      ++failures;
    }
    ++calls;
  } while (!done.load(std::memory_order_acquire));
  chaos.join();
  EXPECT_EQ(failures, 0);
  EXPECT_GT(calls, 0);
}

TEST_F(ServerSmokeTest, WriteBatchRoundTripWithPerOpStatuses) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();

  std::vector<rpc::BatchOp> ops(4);
  ops[0].key = "wb:a";
  ops[0].version = 1;
  ops[0].value = "alpha";
  ops[1].key = "wb:b";
  ops[1].version = 1;
  ops[1].value = "beta";
  ops[2].key = "wb:a";
  ops[2].version = 2;
  ops[2].dedup = true;  // Resolves through version 1 by traceback.
  ops[3].key = "wb:missing";
  ops[3].version = 1;
  ops[3].is_del = true;  // Fails alone: nothing to delete.

  std::vector<Status> statuses;
  Status overall = client.WriteBatch(ops, &statuses);
  EXPECT_TRUE(overall.IsNotFound()) << overall.ToString();
  ASSERT_EQ(statuses.size(), ops.size());
  EXPECT_TRUE(statuses[0].ok());
  EXPECT_TRUE(statuses[1].ok());
  EXPECT_TRUE(statuses[2].ok());
  EXPECT_TRUE(statuses[3].IsNotFound());

  Result<std::string> got = client.Get("wb:a", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "alpha");
  got = client.Get("wb:b", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "beta");
  got = client.Get("wb:a", 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "alpha");

  // A malformed batch payload is rejected at the frame level, before any
  // op executes.
  ASSERT_TRUE(client.Connect().ok());
  rpc::Frame raw;
  raw.op = rpc::Opcode::kWriteBatch;
  raw.request_id = client.NextRequestId();
  raw.value = "not a batch payload";
  ASSERT_TRUE(client.Send(raw).ok());
  Result<rpc::Frame> response = client.Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, StatusCode::kProtocol);

  // An empty batch is answered client-side without a round trip.
  std::vector<Status> empty_statuses;
  EXPECT_TRUE(client.WriteBatch({}, &empty_statuses).ok());
  EXPECT_TRUE(empty_statuses.empty());
}

TEST_F(ServerSmokeTest, SingleOpWritesAreBatchedOpportunistically) {
  StartCluster();
  // One worker: pipelined single-op PUTs that arrive in one read execute
  // as one batched run.
  KvServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  // A burst usually reaches the server in one read, but the kernel could
  // in principle hand it over a frame at a time — so repeat bursts until
  // the counter proves a run actually grouped (converges immediately in
  // practice).
  constexpr int kDepth = 16;
  int sent = 0;
  int bursts = 0;
  for (; bursts < 50 && server_->counters().writes_batched.load() == 0;
       ++bursts) {
    for (int i = 0; i < kDepth; ++i, ++sent) {
      rpc::Frame request;
      request.op = rpc::Opcode::kPut;
      request.request_id = client.NextRequestId();
      request.version = 1;
      request.key = "ob:k" + std::to_string(sent);
      request.value = "v" + std::to_string(sent);
      ASSERT_TRUE(client.Send(request).ok());
    }
    for (int i = 0; i < kDepth; ++i) {
      Result<rpc::Frame> response = client.Receive();
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(response->status, StatusCode::kOk);
    }
  }
  EXPECT_GT(server_->counters().writes_batched.load(), 0u)
      << "no burst ever grouped after " << bursts << " tries";

  // Every write is individually readable regardless of how it was grouped.
  for (int i = 0; i < sent; ++i) {
    Result<std::string> got = client.Get("ob:k" + std::to_string(i), 1);
    ASSERT_TRUE(got.ok()) << "ob:k" << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

TEST_F(ServerSmokeTest, ConcurrentClients) {
  StartCluster();
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 40;
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rpc::RpcClient client("127.0.0.1", server_->port());
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key =
            "t" + std::to_string(t) + ":k" + std::to_string(i);
        const std::string value = "v" + std::to_string(t * 1000 + i);
        if (!client.Put(key, 1, value).ok()) {
          failures.fetch_add(1);
          continue;
        }
        Result<std::string> got = client.Get(key, 1);
        if (!got.ok() || *got != value) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  server_->Shutdown();
  EXPECT_EQ(server_->counters().requests_served.load(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread * 2);
}

TEST_F(ServerSmokeTest, PipelinedRequestsMatchByRequestId) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());

  constexpr int kDepth = 16;
  std::map<uint64_t, std::string> expected_value;  // id -> key
  for (int i = 0; i < kDepth; ++i) {
    rpc::Frame request;
    request.op = rpc::Opcode::kPut;
    request.request_id = client.NextRequestId();
    request.version = 1;
    request.key = "pipe:k" + std::to_string(i);
    request.value = "pv" + std::to_string(i);
    expected_value[request.request_id] = request.value;
    ASSERT_TRUE(client.Send(request).ok());
  }
  // All kDepth responses arrive, each naming its request.
  std::map<uint64_t, StatusCode> results;
  for (int i = 0; i < kDepth; ++i) {
    Result<rpc::Frame> response = client.Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    results[response->request_id] = response->status;
  }
  ASSERT_EQ(results.size(), expected_value.size());
  for (const auto& [id, status] : results) {
    EXPECT_TRUE(expected_value.count(id)) << "unknown response id " << id;
    EXPECT_EQ(status, StatusCode::kOk);
  }
  // The writes really happened.
  for (int i = 0; i < kDepth; ++i) {
    Result<std::string> got = client.Get("pipe:k" + std::to_string(i), 1);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, "pv" + std::to_string(i));
  }
}

/// Encodes `count` pipelined single-op PUTs of `prefix`<i> -> "v"<i>.
std::string EncodePuts(const std::string& prefix, int count) {
  std::string wire;
  for (int i = 0; i < count; ++i) {
    rpc::Frame request;
    request.op = rpc::Opcode::kPut;
    request.request_id = static_cast<uint64_t>(i) + 1;
    request.version = 1;
    request.key = prefix + std::to_string(i);
    request.value = "v" + std::to_string(i);
    rpc::EncodeFrame(request, &wire);
  }
  return wire;
}

TEST_F(ServerSmokeTest, DeepPipelineOnOneWorkerIsFullyApplied) {
  StartCluster();
  // One worker and no request queue: the burst waits in the socket
  // buffers (TCP flow control) instead of being rejected, and each read
  // executes its run of decoded PUTs as one batch.
  KvServerOptions options;
  options.num_workers = 1;
  StartServer(options);
  Result<rpc::Socket> raw = rpc::ConnectTo("127.0.0.1", server_->port(), 1000);
  ASSERT_TRUE(raw.ok());

  constexpr int kBurst = 4096;
  const std::string wire = EncodePuts("deep:k", kBurst);
  // Send from another thread: the responses flow back while the burst is
  // still going out, and neither direction may wait on the other.
  std::thread sender([&] { EXPECT_TRUE(raw->SendAll(wire, 10'000).ok()); });
  rpc::FrameDecoder decoder;
  std::vector<bool> answered(kBurst + 1, false);
  int ok = 0;
  char buf[16 * 1024];
  for (int received = 0; received < kBurst;) {
    Result<size_t> n = raw->RecvSome(buf, sizeof(buf), 10'000);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u) << "server closed the connection mid-burst";
    decoder.Append(buf, *n);
    rpc::Frame response;
    for (Result<bool> got = decoder.Next(&response); got.ok() && *got;
         got = decoder.Next(&response), ++received) {
      ASSERT_GE(response.request_id, 1u);
      ASSERT_LE(response.request_id, static_cast<uint64_t>(kBurst));
      EXPECT_FALSE(answered[response.request_id]) << "answered twice";
      answered[response.request_id] = true;
      if (response.status == StatusCode::kOk) ++ok;
    }
  }
  sender.join();
  EXPECT_EQ(ok, kBurst);
  EXPECT_GT(server_->counters().writes_batched.load(), 0u);
  EXPECT_EQ(server_->counters().requests_rejected_busy.load(), 0u);

  rpc::RpcClient client = MakeClient();
  for (int i = 0; i < kBurst; ++i) {
    Result<std::string> got = client.Get("deep:k" + std::to_string(i), 1);
    ASSERT_TRUE(got.ok()) << "deep:k" << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

TEST_F(ServerSmokeTest, PipelinerThatNeverReadsDoesNotStallOthers) {
  StartCluster();
  KvServerOptions options;
  options.num_workers = 2;
  StartServer(options);
  rpc::RpcClient::Options client_options;
  // Well inside the server's write deadline: a worker stuck behind the
  // pipeliner's unread responses would show up as a timeout here.
  client_options.request_timeout_ms = 2000;
  rpc::RpcClient reader("127.0.0.1", server_->port(), client_options);
  ASSERT_TRUE(reader.Put("steady", 1, "answer").ok());

  Result<rpc::Socket> flood = rpc::ConnectTo("127.0.0.1", server_->port(),
                                             1000);
  ASSERT_TRUE(flood.ok());
  const std::string wire = EncodePuts("flood:k", 4096);
  std::thread sender([&] { EXPECT_TRUE(flood->SendAll(wire, 10'000).ok()); });
  for (int i = 0; i < 50; ++i) {
    Result<std::string> got = reader.Get("steady", 1);
    ASSERT_TRUE(got.ok()) << "read " << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "answer");
  }
  sender.join();
  // The flood was applied, although its client never read an answer.
  Result<std::string> last = reader.Get("flood:k4095", 1);
  for (int spins = 0; spins < 200 && !last.ok(); ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    last = reader.Get("flood:k4095", 1);
  }
  ASSERT_TRUE(last.ok()) << last.status().ToString();
  EXPECT_EQ(server_->counters().response_send_failures.load(), 0u);
  flood->Close();
}

TEST_F(ServerSmokeTest, AdmissionFailpointAnswersBusyAndAppliesNothing) {
  if (!failpoint::kCompiledIn) {
    GTEST_SKIP() << "failpoint sites compiled out";
  }
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Connect().ok());
  auto& registry = failpoint::Registry::Instance();
  ASSERT_TRUE(registry.Activate("server_enqueue", "return(busy)").ok());
  rpc::Frame request;
  request.op = rpc::Opcode::kPut;
  request.request_id = client.NextRequestId();
  request.version = 1;
  request.key = "rejected";
  request.value = "never-applied";
  ASSERT_TRUE(client.Send(request).ok());
  Result<rpc::Frame> response = client.Receive();
  registry.Deactivate("server_enqueue");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->request_id, request.request_id);
  EXPECT_EQ(response->status, StatusCode::kBusy);
  EXPECT_EQ(server_->counters().requests_rejected_busy.load(), 1u);
  EXPECT_TRUE(client.Get("rejected", 1).status().IsNotFound());
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_NE(stats->find("busy_rejected=1 "), std::string::npos) << *stats;
}

TEST_F(ServerSmokeTest, AcceptSurvivesDescriptorExhaustion) {
  StartCluster();
  StartServer();
  // Created before the limit drops; connect() allocates no descriptor.
  rpc::Socket starved(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(starved.valid());
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  // With the soft limit at the lowest free descriptor number, no new
  // descriptor can be allocated: the server's accept fails with EMFILE.
  const int lowest_free = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(lowest_free);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  const int connected =
      ::connect(starved.fd(), reinterpret_cast<sockaddr*>(&addr),
                sizeof(addr));
  const int connect_errno = errno;
  rpc::Frame ping;
  ping.op = rpc::Opcode::kPing;
  ping.request_id = 1;
  ping.value = "starved";
  std::string wire;
  rpc::EncodeFrame(ping, &wire);
  const Status sent = starved.SendAll(wire, 1000);
  // The kernel completed the handshake, but nothing can accept it.
  char buf[256];
  Result<size_t> early = starved.RecvSome(buf, sizeof(buf), 300);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ASSERT_EQ(connected, 0) << std::strerror(connect_errno);
  ASSERT_TRUE(sent.ok()) << sent.ToString();
  EXPECT_TRUE(early.status().IsTimedOut())
      << "answered while no descriptor was available";

  // Descriptors are back: the server accepts again — the waiting
  // connection first, then new clients.
  rpc::FrameDecoder decoder;
  rpc::Frame response;
  bool answered = false;
  while (!answered) {
    Result<size_t> n = starved.RecvSome(buf, sizeof(buf), 5000);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    ASSERT_GT(*n, 0u);
    decoder.Append(buf, *n);
    Result<bool> got = decoder.Next(&response);
    ASSERT_TRUE(got.ok());
    answered = *got;
  }
  EXPECT_EQ(response.value, "starved");
  rpc::RpcClient client = MakeClient();
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(ServerSmokeTest, SurvivesClientsDyingMidFrame) {
  StartCluster();
  StartServer();
  {
    // A client that connects, sends half a valid frame, and vanishes.
    Result<rpc::Socket> half = rpc::ConnectTo("127.0.0.1", server_->port(),
                                              1000);
    ASSERT_TRUE(half.ok());
    rpc::Frame request;
    request.op = rpc::Opcode::kPut;
    request.key = "doomed";
    request.value = std::string(1000, 'x');
    std::string wire;
    rpc::EncodeFrame(request, &wire);
    ASSERT_TRUE(
        half->SendAll(Slice(wire.data(), wire.size() / 2), 1000).ok());
  }  // Socket closes here, mid-frame.
  {
    // A client that sends pure garbage.
    Result<rpc::Socket> garbage = rpc::ConnectTo("127.0.0.1",
                                                 server_->port(), 1000);
    ASSERT_TRUE(garbage.ok());
    ASSERT_TRUE(garbage->SendAll("complete nonsense bytes", 1000).ok());
  }
  // The server keeps serving everyone else.
  rpc::RpcClient client = MakeClient();
  EXPECT_TRUE(client.Put("alive", 1, "yes").ok());
  Result<std::string> got = client.Get("alive", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "yes");
}

TEST_F(ServerSmokeTest, CorruptFramesGetErrorResponseAndTeardown) {
  StartCluster();
  StartServer();

  struct Case {
    const char* name;
    StatusCode expected;
    std::string (*damage)(std::string wire);
  };
  const Case cases[] = {
      {"bad magic", StatusCode::kProtocol,
       [](std::string wire) {
         wire[0] = 'X';
         return wire;
       }},
      {"flipped payload byte", StatusCode::kCorruption,
       [](std::string wire) {
         wire[wire.size() / 2] ^= 0x5A;
         return wire;
       }},
      {"oversized length", StatusCode::kProtocol,
       [](std::string wire) {
         EncodeFixed32(&wire[4],
                       static_cast<uint32_t>(rpc::kMaxBodyBytes) + 1);
         return wire;
       }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Result<rpc::Socket> raw =
        rpc::ConnectTo("127.0.0.1", server_->port(), 1000);
    ASSERT_TRUE(raw.ok());
    rpc::Frame request;
    request.op = rpc::Opcode::kPut;
    request.request_id = 7;
    request.version = 1;
    request.key = "corrupt";
    request.value = "never-applied";
    std::string wire;
    rpc::EncodeFrame(request, &wire);
    ASSERT_TRUE(raw->SendAll(c.damage(wire), 1000).ok());

    // The server answers with an error frame naming the cause, then closes.
    rpc::FrameDecoder decoder;
    rpc::Frame response;
    bool got_response = false, closed = false;
    char buf[4096];
    for (int spins = 0; spins < 100 && !closed; ++spins) {
      Result<size_t> n = raw->RecvSome(buf, sizeof(buf), 100);
      if (!n.ok()) {
        if (n.status().IsTimedOut()) continue;
        closed = true;
        break;
      }
      if (*n == 0) {
        closed = true;
        break;
      }
      decoder.Append(buf, *n);
      Result<bool> next = decoder.Next(&response);
      ASSERT_TRUE(next.ok());
      if (*next) got_response = true;
    }
    ASSERT_TRUE(got_response) << "no error frame before teardown";
    EXPECT_TRUE(closed) << "connection not torn down";
    EXPECT_TRUE(response.response);
    EXPECT_EQ(response.status, c.expected);
    // The damaged PUT was never applied.
    rpc::RpcClient client = MakeClient();
    EXPECT_TRUE(client.Get("corrupt", 1).status().IsNotFound());
  }
  EXPECT_GE(server_->counters().stream_errors.load(), 3u);
}

TEST_F(ServerSmokeTest, IdleConnectionsAreClosed) {
  StartCluster();
  KvServerOptions options;
  options.idle_timeout_ms = 150;
  StartServer(options);

  Result<rpc::Socket> idle = rpc::ConnectTo("127.0.0.1", server_->port(),
                                            1000);
  ASSERT_TRUE(idle.ok());
  // The server closes the connection once the idle window lapses; the read
  // observes EOF (or a reset, depending on timing).
  char buf[64];
  bool closed = false;
  for (int spins = 0; spins < 100 && !closed; ++spins) {
    Result<size_t> n = idle->RecvSome(buf, sizeof(buf), 100);
    if (n.ok() && *n == 0) closed = true;
    if (!n.ok() && !n.status().IsTimedOut()) closed = true;
  }
  EXPECT_TRUE(closed);
  server_->Shutdown();
  EXPECT_GE(server_->counters().connections_idle_closed.load(), 1u);
}

TEST_F(ServerSmokeTest, GracefulDrainLosesNoAcknowledgedWrite) {
  StartCluster();
  StartServer();

  constexpr int kWriters = 4;
  std::atomic<bool> stop{false};
  std::vector<std::vector<std::pair<std::string, std::string>>> acked(
      kWriters);

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      rpc::RpcClient::Options client_options;
      client_options.max_reconnects = 0;  // A drained server stays down.
      rpc::RpcClient client("127.0.0.1", server_->port(), client_options);
      for (int i = 0; !stop.load(); ++i) {
        const std::string key =
            "drain:t" + std::to_string(t) + ":k" + std::to_string(i);
        const std::string value = "dv" + std::to_string(i);
        if (client.Put(key, 1, value).ok()) {
          // Acknowledged: the drain contract says this write is durable in
          // the cluster no matter when the shutdown lands.
          acked[t].emplace_back(key, value);
        }
      }
    });
  }
  // Let the writers get going, then drain mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server_->Shutdown();
  stop.store(true);
  for (std::thread& t : writers) t.join();

  size_t total_acked = 0;
  for (const auto& per_thread : acked) total_acked += per_thread.size();
  ASSERT_GT(total_acked, 0u) << "no write was acknowledged before the drain";

  // Restart serving on the SAME cluster: every acknowledged put must be
  // there.
  server_ = std::make_unique<KvServer>(cluster_.get(), KvServerOptions());
  ASSERT_TRUE(server_->Start().ok());
  rpc::RpcClient reader = MakeClient();
  for (const auto& per_thread : acked) {
    for (const auto& [key, value] : per_thread) {
      Result<std::string> got = reader.Get(key, 1);
      ASSERT_TRUE(got.ok()) << "acknowledged write lost: " << key << " ("
                            << got.status().ToString() << ")";
      EXPECT_EQ(*got, value);
    }
  }
}

TEST_F(ServerSmokeTest, ServerRestartsOnSamePort) {
  StartCluster();
  StartServer();
  rpc::RpcClient client = MakeClient();
  ASSERT_TRUE(client.Put("restart:a", 1, "before").ok());
  const uint16_t port = server_->port();
  server_->Shutdown();

  KvServerOptions options;
  options.port = port;
  server_ = std::make_unique<KvServer>(cluster_.get(), options);
  ASSERT_TRUE(server_->Start().ok());
  EXPECT_EQ(server_->port(), port);
  // The client's bounded reconnect picks the new server up transparently.
  Result<std::string> got = client.Get("restart:a", 1);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, "before");
}

}  // namespace
}  // namespace directload::server
