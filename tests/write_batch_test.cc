// WriteBatch + group commit: ordering and per-op status semantics of
// QinDb::Write, batch-internal visibility (a Del can target a Put from the
// same batch), a single-shard batch mixing a same-batch dedup base with a
// failing Del, and a concurrency property — readers racing multi-op batches
// never observe a torn version chain (a dedup version resolvable before its
// base value landed, a Corruption status, or wrong bytes).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/sim_clock.h"
#include "qindb/qindb.h"
#include "qindb/write_batch.h"
#include "ssd/env.h"

namespace directload::qindb {
namespace {

ssd::Geometry TestGeometry() {
  ssd::Geometry g;
  g.page_size = 4096;
  g.pages_per_block = 8;
  g.num_blocks = 4096;  // 128 MiB device.
  return g;
}

struct Harness {
  SimClock clock;
  std::unique_ptr<ssd::SsdEnv> env;
  std::unique_ptr<QinDb> db;

  explicit Harness(QinDbOptions options = {}) {
    if (options.num_shards == 0) options.num_shards = 1;
    env = NewSsdEnv(ssd::InterfaceMode::kNativeBlock, TestGeometry(),
                    ssd::LatencyModel(), &clock);
    auto opened = QinDb::Open(env.get(), options);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    db = std::move(opened).value();
  }
};

TEST(WriteBatchTest, OpsApplyInOrderWithPerOpStatuses) {
  Harness h;
  WriteBatch batch;
  batch.Put("a", 1, "va");
  batch.Put("b", 1, "vb");
  batch.Del("a", 1);
  batch.Put("a", 2, "va2");
  ASSERT_TRUE(h.db->Write(batch).ok());
  ASSERT_EQ(batch.statuses().size(), 4u);
  for (const Status& s : batch.statuses()) EXPECT_TRUE(s.ok());

  EXPECT_TRUE(h.db->Get("a", 1).status().IsNotFound());  // Del won.
  Result<std::string> b = h.db->Get("b", 1);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, "vb");
  Result<std::string> a2 = h.db->Get("a", 2);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(*a2, "va2");
}

TEST(WriteBatchTest, BadOpFailsAloneWithoutPoisoningTheBatch) {
  Harness h;
  WriteBatch batch;
  batch.Put("", 1, "empty key is invalid");
  batch.Put("good", 1, "v");
  Status s = h.db->Write(batch);
  EXPECT_TRUE(s.IsInvalidArgument());  // First failing per-op status.
  ASSERT_EQ(batch.statuses().size(), 2u);
  EXPECT_TRUE(batch.statuses()[0].IsInvalidArgument());
  EXPECT_TRUE(batch.statuses()[1].ok());
  Result<std::string> got = h.db->Get("good", 1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");
  EXPECT_FALSE(h.db->degraded());  // A bad op is the caller's fault, not IO.
}

TEST(WriteBatchTest, DelSeesEarlierPutInTheSameBatch) {
  Harness h;
  WriteBatch batch;
  batch.Put("k", 1, "v");
  batch.Del("k", 1);
  ASSERT_TRUE(h.db->Write(batch).ok());
  EXPECT_TRUE(h.db->Get("k", 1).status().IsNotFound());
}

TEST(WriteBatchTest, DelOfMissingPairReportsNotFoundAlone) {
  Harness h;
  WriteBatch batch;
  batch.Put("present", 1, "v");
  batch.Del("absent", 1);
  Status s = h.db->Write(batch);
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_EQ(batch.statuses().size(), 2u);
  EXPECT_TRUE(batch.statuses()[0].ok());
  EXPECT_TRUE(batch.statuses()[1].IsNotFound());
  EXPECT_TRUE(h.db->Get("present", 1).ok());
}

TEST(WriteBatchTest, EmptyBatchIsANoOp) {
  Harness h;
  WriteBatch batch;
  EXPECT_TRUE(h.db->Write(batch).ok());
  EXPECT_TRUE(batch.statuses().empty());
}

TEST(WriteBatchTest, SameBatchDedupBaseAndMissingDelFailAlone) {
  QinDbOptions options;
  options.num_shards = 1;
  Harness h(options);
  WriteBatch batch;
  batch.Put("k", 1, "v1");
  batch.Put("k", 2, Slice(), /*dedup=*/true);
  batch.Del("missing", 1);
  Status s = h.db->Write(batch);
  EXPECT_TRUE(s.IsNotFound());
  ASSERT_EQ(batch.statuses().size(), 3u);
  EXPECT_TRUE(batch.statuses()[0].ok());
  EXPECT_TRUE(batch.statuses()[1].ok());
  EXPECT_TRUE(batch.statuses()[2].IsNotFound());
  Result<std::string> traced = h.db->Get("k", 2);
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(*traced, "v1");  // Dedup resolved through the same-batch base.
}

TEST(WriteBatchTest, BatchReusableAfterClear) {
  Harness h;
  WriteBatch batch;
  batch.Put("k", 1, "v");
  ASSERT_TRUE(h.db->Write(batch).ok());
  batch.Clear();
  EXPECT_TRUE(batch.empty());
  batch.Put("k", 2, "v2");
  ASSERT_TRUE(h.db->Write(batch).ok());
  ASSERT_EQ(batch.statuses().size(), 1u);
  Result<std::string> got = h.db->Get("k", 2);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v2");
}

// ---------------------------------------------------------------------------
// Property: concurrent readers never see a torn version chain.
// ---------------------------------------------------------------------------
//
// Each writer owns one key and commits version groups of three as a single
// batch: a base value at 3g+1 and dedup markers at 3g+2 and 3g+3. The batch
// applies base-first, so once ANY version of group g is acked, reading any
// version of any acked group must return exactly the group's base value —
// never Corruption (a dedup marker whose base is missing would be an
// unresolvable chain) and never another group's bytes. Readers also probe
// one group ahead of the ack frontier: mid-commit visibility is allowed to
// say NotFound or succeed, but nothing else.

constexpr int kPropWriters = 4;
constexpr int kPropReaders = 3;
constexpr int kGroupsPerWriter = 120;

std::string PropKey(int writer) { return "wb:w" + std::to_string(writer); }

std::string GroupValue(int writer, uint64_t group) {
  return PropKey(writer) + "#g" + std::to_string(group) + "#" +
         std::string(96, 'p');
}

TEST(WriteBatchTest, ConcurrentReadersNeverSeeTornChains) {
  Harness h;
  std::atomic<uint64_t> acked_groups[kPropWriters];
  for (auto& a : acked_groups) a.store(0);
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;
  threads.reserve(kPropWriters + kPropReaders);
  for (int w = 0; w < kPropWriters; ++w) {
    threads.emplace_back([&, w] {
      const std::string key = PropKey(w);
      for (uint64_t g = 0; g < kGroupsPerWriter; ++g) {
        WriteBatch batch;
        const uint64_t base = 3 * g + 1;
        batch.Put(key, base, GroupValue(w, g));
        batch.Put(key, base + 1, Slice(), /*dedup=*/true);
        batch.Put(key, base + 2, Slice(), /*dedup=*/true);
        ASSERT_TRUE(h.db->Write(batch).ok());
        acked_groups[w].store(g + 1, std::memory_order_release);
      }
    });
  }
  for (int r = 0; r < kPropReaders; ++r) {
    threads.emplace_back([&, r] {
      Random rng(1000 + r);
      while (!done.load(std::memory_order_acquire)) {
        const int w = static_cast<int>(rng.Uniform(kPropWriters));
        const uint64_t frontier =
            acked_groups[w].load(std::memory_order_acquire);
        // Probe an acked group (must hit, exact bytes) or one group past
        // the frontier (may be NotFound or already visible, never torn).
        const bool probe_ahead = frontier == 0 || rng.Uniform(4) == 0;
        const uint64_t group =
            probe_ahead ? frontier : rng.Uniform(frontier);
        const uint64_t version = 3 * group + 1 + rng.Uniform(3);
        Result<std::string> got = h.db->Get(PropKey(w), version);
        if (got.ok()) {
          if (*got != GroupValue(w, group)) violations.fetch_add(1);
        } else if (probe_ahead) {
          if (!got.status().IsNotFound()) violations.fetch_add(1);
        } else {
          violations.fetch_add(1);  // Acked groups must always resolve.
        }
      }
    });
  }
  for (int w = 0; w < kPropWriters; ++w) threads[w].join();
  done.store(true, std::memory_order_release);
  for (size_t t = kPropWriters; t < threads.size(); ++t) threads[t].join();

  EXPECT_EQ(violations.load(), 0);
  Result<QinDb::ScrubReport> scrub = h.db->Scrub();
  ASSERT_TRUE(scrub.ok());
  EXPECT_TRUE(scrub->clean());
}

}  // namespace
}  // namespace directload::qindb
