// An interactive shell over a QinDB instance on a simulated SSD — handy for
// poking at the engine's versioned semantics. Reads commands from stdin:
//
//   put <key> <version> <value>     complete pair
//   dedup <key> <version>           value-less (deduplicated) pair
//   get <key> <version>             exact-version read (with traceback)
//   latest <key>                    newest live version
//   del <key> <version>             lazy delete
//   dropver <version>               delete a whole version
//   scan [start]                    ordered scan of newest live pairs
//   gc                              force the lazy GC
//   checkpoint                      write a checkpoint
//   stats                           engine + device counters
//   quit
//
// Run it with a here-doc for scripted demos:
//   build/examples/qindb_shell <<'EOF'
//   put url:a 1 hello
//   dedup url:a 2
//   get url:a 2
//   EOF
//
// Two networked modes expose the same store over the RPC front end:
//
//   qindb_shell --serve 7000 [cache_mb] host a small mint cluster behind a
//                                       KvServer on port 7000 (optionally
//                                       with a block-cache budget); stdin
//                                       accepts 'stats' and 'quit'
//   qindb_shell --connect host:7000     remote shell over RpcClient:
//                                       put/dedup/get/latest/del/stats/ping

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/sim_clock.h"
#include "qindb/qindb.h"
#include "rpc/client.h"
#include "server/kv_server.h"
#include "ssd/env.h"

using namespace directload;

namespace {

void PrintStats(qindb::QinDb* db, ssd::SsdEnv* env, SimClock* clock) {
  const qindb::QinDbStats& s = db->stats();
  std::printf("ops:    puts=%llu (dedup=%llu) gets=%llu (traceback=%llu) "
              "dels=%llu\n",
              (unsigned long long)s.puts, (unsigned long long)s.dedup_puts,
              (unsigned long long)s.gets,
              (unsigned long long)s.traceback_gets,
              (unsigned long long)s.dels);
  std::printf("gc:     invocations=%llu deferrals=%llu segments_reclaimed=%llu "
              "bytes_rewritten=%llu\n",
              (unsigned long long)s.gc_invocations,
              (unsigned long long)s.gc_deferrals,
              (unsigned long long)db->gc_stats().segments_reclaimed,
              (unsigned long long)db->gc_stats().bytes_rewritten);
  std::printf("index:  %zu live entries, ~%zu KiB memtable\n",
              db->memtable()->live_count(),
              db->memtable()->ApproximateMemoryUsage() / 1024);
  std::printf("device: %.1f KiB on disk, WA=%.2fx, %.2f ms simulated\n",
              (double)db->DiskBytes() / 1024.0,
              env->stats().write_amplification(),
              (double)clock->NowMicros() / 1000.0);
  const qindb::EngineCacheTotals c = db->CacheTotals();
  std::printf("cache:  hits=%llu misses=%llu charged=%llu KiB\n",
              (unsigned long long)c.cache_hits,
              (unsigned long long)c.cache_misses,
              (unsigned long long)(c.cache_charged_bytes / 1024));
}

// Hosts a small mint cluster behind a KvServer so remote shells and the
// load generator have something to talk to. Blocks on stdin; 'quit' (or
// EOF) drains in-flight requests before exiting so every acked write is
// applied.
int RunServeMode(uint16_t port, int cache_mb) {
  mint::MintOptions options;
  options.num_groups = 2;
  options.nodes_per_group = 1;
  options.replicas = 1;
  options.parallel_reads = false;
  options.engine.aof.segment_bytes = 8 << 20;
  options.engine.cache_bytes = static_cast<uint64_t>(cache_mb) << 20;
  mint::MintCluster cluster(options);
  Status s = cluster.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "cluster start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  server::KvServerOptions server_options;
  server_options.port = port;
  server::KvServer kv_server(&cluster, server_options);
  s = kv_server.Start();
  if (!s.ok()) {
    std::fprintf(stderr, "server start failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("serving on 127.0.0.1:%u — 'quit' to drain and exit\n",
              kv_server.port());
  std::string line;
  while (std::printf("serve> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "stats") {
      const server::KvServer::Counters& c = kv_server.counters();
      std::printf("accepted=%llu served=%llu busy=%llu idle_closed=%llu "
                  "stream_errors=%llu\n",
                  (unsigned long long)c.connections_accepted.load(),
                  (unsigned long long)c.requests_served.load(),
                  (unsigned long long)c.requests_rejected_busy.load(),
                  (unsigned long long)c.connections_idle_closed.load(),
                  (unsigned long long)c.stream_errors.load());
    } else {
      std::printf("serve mode commands: stats | quit\n");
    }
  }
  std::printf("draining...\n");
  kv_server.Shutdown();
  return 0;
}

// Command loop over an RpcClient — the networked subset of the local shell.
int RunConnectMode(const std::string& host, uint16_t port) {
  rpc::RpcClient client(host, port);
  Status s = client.Connect();
  if (!s.ok()) {
    std::fprintf(stderr, "connect to %s:%u failed: %s\n", host.c_str(), port,
                 s.ToString().c_str());
    return 1;
  }
  std::printf("connected to %s:%u — 'help' for commands\n", host.c_str(),
              port);
  std::string line;
  while (std::printf("remote> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "help") {
      std::printf("put|dedup|get|latest|del|stats|ping|quit\n");
    } else if (cmd == "put") {
      std::string key, value;
      uint64_t version = 0;
      if (!(in >> key >> version) || !std::getline(in, value)) {
        std::printf("usage: put <key> <version> <value>\n");
        continue;
      }
      if (!value.empty() && value[0] == ' ') value.erase(0, 1);
      std::printf("%s\n",
                  client.Put(key, version, value).ToString().c_str());
    } else if (cmd == "dedup") {
      std::string key;
      uint64_t version = 0;
      if (!(in >> key >> version)) {
        std::printf("usage: dedup <key> <version>\n");
        continue;
      }
      std::printf("%s\n",
                  client.Put(key, version, Slice(), true).ToString().c_str());
    } else if (cmd == "get") {
      std::string key;
      uint64_t version = 0;
      if (!(in >> key >> version)) {
        std::printf("usage: get <key> <version>\n");
        continue;
      }
      Result<std::string> got = client.Get(key, version);
      std::printf("%s\n", got.ok() ? got->c_str()
                                   : got.status().ToString().c_str());
    } else if (cmd == "latest") {
      std::string key;
      if (!(in >> key)) continue;
      Result<std::string> got = client.GetLatest(key);
      std::printf("%s\n", got.ok() ? got->c_str()
                                   : got.status().ToString().c_str());
    } else if (cmd == "del") {
      std::string key;
      uint64_t version = 0;
      if (!(in >> key >> version)) continue;
      std::printf("%s\n", client.Del(key, version).ToString().c_str());
    } else if (cmd == "stats") {
      Result<std::string> text = client.Stats();
      std::printf("%s\n", text.ok() ? text->c_str()
                                    : text.status().ToString().c_str());
    } else if (cmd == "ping") {
      std::printf("%s\n", client.Ping().ToString().c_str());
    } else {
      std::printf("'%s' is local-only — remote commands: "
                  "put|dedup|get|latest|del|stats|ping|quit\n",
                  cmd.c_str());
    }
  }
  return 0;
}

int RunLocalShell() {
  SimClock clock;
  ssd::Geometry geometry;
  geometry.num_blocks = 4096;  // 1 GiB simulated SSD.
  auto env = ssd::NewSsdEnv(ssd::InterfaceMode::kNativeBlock, geometry,
                            ssd::LatencyModel(), &clock);
  qindb::QinDbOptions options;
  options.aof.segment_bytes = 4 << 20;
  auto db_or = qindb::QinDb::Open(env.get(), options);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open failed: %s\n",
                 db_or.status().ToString().c_str());
    return 1;
  }
  auto db = std::move(db_or).value();

  std::printf("QinDB shell — 'help' for commands\n");
  std::string line;
  while (std::printf("qindb> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd)) continue;
    if (cmd == "quit" || cmd == "exit") break;

    if (cmd == "help") {
      std::printf("put|dedup|get|latest|del|dropver|scan|versions|gc|"
                  "checkpoint|stats|quit\n");
    } else if (cmd == "put") {
      std::string key, value;
      uint64_t version = 0;
      if (!(in >> key >> version) || !std::getline(in, value)) {
        std::printf("usage: put <key> <version> <value>\n");
        continue;
      }
      if (!value.empty() && value[0] == ' ') value.erase(0, 1);
      std::printf("%s\n", db->Put(key, version, value).ToString().c_str());
    } else if (cmd == "dedup") {
      std::string key;
      uint64_t version = 0;
      if (!(in >> key >> version)) {
        std::printf("usage: dedup <key> <version>\n");
        continue;
      }
      std::printf("%s\n",
                  db->Put(key, version, Slice(), true).ToString().c_str());
    } else if (cmd == "get") {
      std::string key;
      uint64_t version = 0;
      if (!(in >> key >> version)) {
        std::printf("usage: get <key> <version>\n");
        continue;
      }
      Result<std::string> got = db->Get(key, version);
      std::printf("%s\n", got.ok() ? got->c_str()
                                   : got.status().ToString().c_str());
    } else if (cmd == "latest") {
      std::string key;
      if (!(in >> key)) continue;
      Result<std::string> got = db->GetLatest(key);
      std::printf("%s\n", got.ok() ? got->c_str()
                                   : got.status().ToString().c_str());
    } else if (cmd == "del") {
      std::string key;
      uint64_t version = 0;
      if (!(in >> key >> version)) continue;
      std::printf("%s\n", db->Del(key, version).ToString().c_str());
    } else if (cmd == "dropver") {
      uint64_t version = 0;
      if (!(in >> version)) continue;
      Result<uint64_t> n = db->DropVersion(version);
      if (n.ok()) {
        std::printf("flagged %llu pairs\n", (unsigned long long)*n);
      } else {
        std::printf("%s\n", n.status().ToString().c_str());
      }
    } else if (cmd == "scan") {
      std::string start;
      in >> start;
      auto scan = db->NewScanner();
      scan.Seek(start);
      int shown = 0;
      for (; scan.Valid() && shown < 20; scan.Next(), ++shown) {
        Result<std::string> value = scan.value();
        std::printf("  %s @v%llu = %.40s\n", scan.key().ToString().c_str(),
                    (unsigned long long)scan.version(),
                    value.ok() ? value->c_str() : "<error>");
      }
      if (scan.Valid()) std::printf("  ... (truncated at 20)\n");
    } else if (cmd == "versions") {
      for (const auto& [version, count] : db->VersionCounts()) {
        std::printf("  v%llu: %llu live pairs\n",
                    (unsigned long long)version, (unsigned long long)count);
      }
    } else if (cmd == "gc") {
      std::printf("%s\n", db->ForceGc().ToString().c_str());
    } else if (cmd == "checkpoint") {
      std::printf("%s\n", db->Checkpoint().ToString().c_str());
    } else if (cmd == "stats") {
      PrintStats(db.get(), env.get(), &clock);
    } else {
      std::printf("unknown command '%s' — try 'help'\n", cmd.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if ((argc == 3 || argc == 4) && std::string(argv[1]) == "--serve") {
    return RunServeMode(static_cast<uint16_t>(std::atoi(argv[2])),
                        argc == 4 ? std::atoi(argv[3]) : 0);
  }
  if (argc == 3 && std::string(argv[1]) == "--connect") {
    const std::string target = argv[2];
    const size_t colon = target.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "usage: qindb_shell --connect <host:port>\n");
      return 1;
    }
    return RunConnectMode(target.substr(0, colon),
                          static_cast<uint16_t>(
                              std::atoi(target.c_str() + colon + 1)));
  }
  if (argc != 1) {
    std::fprintf(stderr,
                 "usage: qindb_shell [--serve <port> [cache_mb] | --connect "
                 "<host:port>]\n");
    return 1;
  }
  return RunLocalShell();
}
