// Tests for the debug lock-rank checker (common/lock_rank.h) and the
// annotated mutex wrappers (common/thread_annotations.h).
//
// The death tests only run where the checker is compiled in — Debug builds
// and -DDIRECTLOAD_LOCK_RANK=ON builds. In plain NDEBUG builds they skip,
// and instead we assert the wrappers carry no extra state (the checker must
// compile to nothing on the lock fast path).

#include <gtest/gtest.h>

#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace directload {
namespace {

#if !DIRECTLOAD_LOCK_RANK_CHECKS
// With the checker compiled out the wrappers must be layout-identical to
// the raw std types: no rank, no name, no per-lock overhead.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "Mutex must carry no extra state in NDEBUG builds");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
              "SharedMutex must carry no extra state in NDEBUG builds");
#endif

TEST(LockRankTest, OrderedAcquisitionSucceeds) {
  // The full documented chain, in rank order, nested like GC's deepest
  // path (engine write lock -> read/GC lock -> AOF -> reader creation ->
  // env -> the cache re-key of a relocated record).
  Mutex write(LockRank::kQinDbWrite, "qindb-write");
  SharedMutex read_gc(LockRank::kQinDbReadGc, "qindb-read-gc");
  SharedMutex aof(LockRank::kAofManager, "aof-mu");
  Mutex readers(LockRank::kAofReaders, "aof-readers");
  Mutex env(LockRank::kSsdEnv, "ssd-env");
  Mutex cache(LockRank::kQinDbBlockCache, "qindb-cache");
  {
    MutexLock l1(&write);
    WriterLock l2(&read_gc);
    WriterLock l3(&aof);
    MutexLock l4(&readers);
    MutexLock l5(&env);
    MutexLock l6(&cache);
  }
  // Re-acquirable after release, and a fresh thread starts with an empty
  // held stack.
  std::thread t([&] { MutexLock lock(&write); });
  t.join();
  MutexLock again(&write);
}

TEST(LockRankTest, SharedThenHigherExclusiveSucceeds) {
  SharedMutex aof(LockRank::kAofManager, "aof-mu");
  Mutex readers(LockRank::kAofReaders, "aof-readers");
  ReaderLock shared(&aof);
  MutexLock leaf(&readers);  // ReaderFor's pattern: readers_mu_ under shared mu_.
}

TEST(LockRankTest, SequentialReleaseThenLowerRankSucceeds) {
  // Taking a high rank, releasing it, then a lower rank is legal — the
  // checker constrains nesting, not program order. (A read under the
  // read/GC lock misses the block cache, releases the stripe, then reads
  // under the AOF lock.)
  SharedMutex read_gc(LockRank::kQinDbReadGc, "qindb-read-gc");
  Mutex cache(LockRank::kQinDbBlockCache, "qindb-cache");
  SharedMutex aof(LockRank::kAofManager, "aof-mu");
  ReaderLock read(&read_gc);
  { MutexLock l(&cache); }
  ReaderLock r(&aof);
}

TEST(LockRankViolationDeathTest, InvertedAcquisitionAborts) {
#if DIRECTLOAD_LOCK_RANK_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // AOF lock first, then the engine write lock: the inverse of the
  // documented order. The abort message must name both locks.
  EXPECT_DEATH(
      {
        SharedMutex aof(LockRank::kAofManager, "aof-mu");
        Mutex write(LockRank::kQinDbWrite, "qindb-write");
        WriterLock l1(&aof);
        MutexLock l2(&write);
      },
      "acquiring \"qindb-write\" \\(rank 10\\) while holding \"aof-mu\" "
      "\\(rank 20\\) inverts the documented order");
#else
  GTEST_SKIP() << "lock-rank checker compiled out (NDEBUG build)";
#endif
}

TEST(LockRankViolationDeathTest, RecursiveAcquisitionAborts) {
#if DIRECTLOAD_LOCK_RANK_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex env(LockRank::kSsdEnv, "ssd-env(ftl)");
        MutexLock l1(&env);
        MutexLock l2(&env);  // Self-deadlock on a plain mutex.
      },
      "recursive acquisition of \"ssd-env\\(ftl\\)\" \\(rank 40\\).*"
      "already holds \"ssd-env\\(ftl\\)\"");
#else
  GTEST_SKIP() << "lock-rank checker compiled out (NDEBUG build)";
#endif
}

TEST(LockRankViolationDeathTest, SharedReacquisitionAborts) {
#if DIRECTLOAD_LOCK_RANK_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Shared-after-shared on the same lock is flagged too: a writer queued
  // between the two shared acquisitions deadlocks both.
  EXPECT_DEATH(
      {
        SharedMutex aof(LockRank::kAofManager, "aof-mu");
        ReaderLock r1(&aof);
        ReaderLock r2(&aof);
      },
      "recursive acquisition of \"aof-mu\" \\(rank 20\\)");
#else
  GTEST_SKIP() << "lock-rank checker compiled out (NDEBUG build)";
#endif
}

TEST(LockRankViolationDeathTest, SameRankDistinctLockAborts) {
#if DIRECTLOAD_LOCK_RANK_CHECKS
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Two locks of equal rank (e.g. two engines' write locks) may not nest:
  // with no defined order between them, the cross pattern deadlocks.
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kQinDbWrite, "qindb-write[a]");
        Mutex b(LockRank::kQinDbWrite, "qindb-write[b]");
        MutexLock l1(&a);
        MutexLock l2(&b);
      },
      "\"qindb-write\\[b\\]\" \\(rank 10\\) while holding "
      "\"qindb-write\\[a\\]\" \\(rank 10\\)");
#else
  GTEST_SKIP() << "lock-rank checker compiled out (NDEBUG build)";
#endif
}

}  // namespace
}  // namespace directload
