#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/random.h"
#include "common/rate_limiter.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/slice.h"
#include "common/status.h"

namespace directload {
namespace {

// ---------------------------------------------------------------------------
// Status / Result
// ---------------------------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CodesAndMessages) {
  Status s = Status::NotFound("key x");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsNotFound());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.ToString(), "NotFound: key x");

  EXPECT_TRUE(Status::Corruption().IsCorruption());
  EXPECT_TRUE(Status::IOError().IsIOError());
  EXPECT_TRUE(Status::NoSpace().IsNoSpace());
  EXPECT_TRUE(Status::Busy().IsBusy());
  EXPECT_TRUE(Status::Unavailable().IsUnavailable());
  EXPECT_TRUE(Status::TimedOut().IsTimedOut());
  EXPECT_TRUE(Status::Aborted().IsAborted());
  EXPECT_TRUE(Status::Deduplicated().IsDeduplicated());
  EXPECT_TRUE(Status::Internal().IsInternal());
  EXPECT_TRUE(Status::InvalidArgument().IsInvalidArgument());
  EXPECT_TRUE(Status::Protocol().IsProtocol());
}

TEST(StatusTest, ProtocolDistinctFromCorruption) {
  // A malformed frame (kProtocol: the peer speaks the wrong language) is a
  // different failure from a damaged frame (kCorruption: checksum mismatch);
  // the RPC layer relies on the distinction.
  Status protocol = Status::Protocol("bad magic");
  EXPECT_EQ(protocol.code(), StatusCode::kProtocol);
  EXPECT_EQ(protocol.ToString(), "Protocol: bad magic");
  EXPECT_FALSE(protocol.IsCorruption());
  EXPECT_FALSE(Status::Corruption().IsProtocol());
  EXPECT_FALSE(protocol == Status::Corruption());
}

TEST(StatusTest, EqualityComparesCodesOnly) {
  EXPECT_EQ(Status::NotFound("a"), Status::NotFound("b"));
  EXPECT_FALSE(Status::NotFound() == Status::Corruption());
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsNotFound());
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, MoveOnlyTypes) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

// ---------------------------------------------------------------------------
// Slice
// ---------------------------------------------------------------------------

TEST(SliceTest, BasicOps) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_EQ(s[1], 'e');
  EXPECT_TRUE(s.starts_with("he"));
  EXPECT_FALSE(s.starts_with("hello!"));
  s.remove_prefix(2);
  EXPECT_EQ(s.ToString(), "llo");
}

TEST(SliceTest, Comparison) {
  EXPECT_LT(Slice("abc").compare(Slice("abd")), 0);
  EXPECT_GT(Slice("abd").compare(Slice("abc")), 0);
  EXPECT_EQ(Slice("abc").compare(Slice("abc")), 0);
  // Prefix sorts first.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  EXPECT_TRUE(Slice("x") == Slice("x"));
  EXPECT_TRUE(Slice("x") != Slice("y"));
  EXPECT_TRUE(Slice("a") < Slice("b"));
}

TEST(SliceTest, EmbeddedNuls) {
  const std::string a("a\0b", 3);
  const std::string b("a\0c", 3);
  EXPECT_LT(Slice(a).compare(Slice(b)), 0);
  EXPECT_EQ(Slice(a).size(), 3u);
}

// ---------------------------------------------------------------------------
// Coding
// ---------------------------------------------------------------------------

TEST(CodingTest, FixedRoundTrip) {
  std::string s;
  PutFixed32(&s, 0xdeadbeefu);
  PutFixed64(&s, 0x0123456789abcdefull);
  EXPECT_EQ(DecodeFixed32(s.data()), 0xdeadbeefu);
  EXPECT_EQ(DecodeFixed64(s.data() + 4), 0x0123456789abcdefull);
}

TEST(CodingTest, Varint64RoundTripBoundaries) {
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  (1ull << 32) - 1, 1ull << 32, UINT64_MAX};
  std::string s;
  for (uint64_t v : values) PutVarint64(&s, v);
  Slice in(s);
  for (uint64_t v : values) {
    uint64_t got = 0;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32RejectsOverflow) {
  std::string s;
  PutVarint64(&s, static_cast<uint64_t>(UINT32_MAX) + 1);
  Slice in(s);
  uint32_t got = 0;
  EXPECT_FALSE(GetVarint32(&in, &got));
}

TEST(CodingTest, TruncatedVarintFails) {
  std::string s;
  PutVarint64(&s, UINT64_MAX);
  for (size_t cut = 0; cut < s.size(); ++cut) {
    Slice in(s.data(), cut);
    uint64_t got = 0;
    EXPECT_FALSE(GetVarint64(&in, &got)) << "cut=" << cut;
  }
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string s;
  PutLengthPrefixedSlice(&s, "key");
  PutLengthPrefixedSlice(&s, "");
  PutLengthPrefixedSlice(&s, std::string(300, 'x'));
  Slice in(s);
  Slice a, b, c;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &c));
  EXPECT_EQ(a.ToString(), "key");
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(c.size(), 300u);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintLengthMatchesEncoding) {
  for (uint64_t v : {uint64_t{0}, uint64_t{127}, uint64_t{128},
                     uint64_t{1} << 60, UINT64_MAX}) {
    std::string s;
    PutVarint64(&s, v);
    EXPECT_EQ(static_cast<int>(s.size()), VarintLength(v));
  }
}

// ---------------------------------------------------------------------------
// CRC32C
// ---------------------------------------------------------------------------

TEST(Crc32cTest, StandardVector) {
  // The canonical CRC-32C check value for "123456789".
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, ZerosVector) {
  std::string zeros(32, '\0');
  EXPECT_EQ(crc32c::Value(zeros.data(), zeros.size()), 0x8A9136AAu);
}

TEST(Crc32cTest, ExtendEqualsWhole) {
  const std::string data = "hello world, this is directload";
  const uint32_t whole = crc32c::Value(data.data(), data.size());
  const uint32_t part = crc32c::Extend(crc32c::Value(data.data(), 10),
                                       data.data() + 10, data.size() - 10);
  EXPECT_EQ(whole, part);
}

TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndOffset) {
  // The dispatched Extend may run the SSE4.2 instruction; the portable
  // slicing-by-8 path must compute the identical function across lengths
  // (tail handling) and alignments (head handling).
  Random rnd(77);
  const std::string data = rnd.NextString(256);
  for (size_t off = 0; off < 9; ++off) {
    for (size_t len = 0; off + len <= 128; ++len) {
      ASSERT_EQ(crc32c::Extend(0x1234u, data.data() + off, len),
                crc32c::ExtendPortableForTesting(0x1234u, data.data() + off,
                                                 len))
          << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32cTest, MaskRoundTrip) {
  const uint32_t crc = crc32c::Value("abc", 3);
  EXPECT_NE(crc, crc32c::Mask(crc));
  EXPECT_EQ(crc, crc32c::Unmask(crc32c::Mask(crc)));
}

// ---------------------------------------------------------------------------
// Hashing
// ---------------------------------------------------------------------------

TEST(HashTest, DeterministicAndSeeded) {
  EXPECT_EQ(Hash64("abc", 3), Hash64("abc", 3));
  EXPECT_NE(Hash64("abc", 3), Hash64("abd", 3));
  EXPECT_NE(Hash64("abc", 3, 1), Hash64("abc", 3, 2));
}

TEST(HashTest, SignatureDetectsValueChange) {
  EXPECT_EQ(ValueSignature("same content"), ValueSignature("same content"));
  EXPECT_NE(ValueSignature("same content"), ValueSignature("same c0ntent"));
}

TEST(HashTest, Hash32Spreads) {
  // Simple avalanche sanity: single-byte difference flips the hash.
  EXPECT_NE(Hash32("aaaa", 4), Hash32("aaab", 4));
}

// ---------------------------------------------------------------------------
// Random / Zipfian
// ---------------------------------------------------------------------------

TEST(RandomTest, DeterministicPerSeed) {
  Random a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const uint64_t va = a.Next();
    EXPECT_EQ(va, b.Next());
    (void)c.Next();
  }
  Random a2(7), c2(8);
  EXPECT_NE(a2.Next(), c2.Next());
}

TEST(RandomTest, UniformInRange) {
  Random r(42);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.Uniform(10), 10u);
    const uint64_t v = r.UniformRange(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RandomTest, BernoulliRate) {
  Random r(1);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += r.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RandomTest, ExponentialMean) {
  Random r(5);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) sum += r.Exponential(4.0);
  EXPECT_NEAR(sum / 20000.0, 4.0, 0.25);
}

TEST(RandomTest, NextStringLengthAndAlphabet) {
  Random r(3);
  const std::string s = r.NextString(64);
  EXPECT_EQ(s.size(), 64u);
  for (char ch : s) {
    EXPECT_GE(ch, 'a');
    EXPECT_LE(ch, 'z');
  }
}

TEST(ZipfianTest, SkewTowardLowRanks) {
  ZipfianGenerator zipf(1000, 0.99, 11);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[zipf.Next()];
  // Rank 0 must dominate the median rank by a wide margin.
  EXPECT_GT(counts[0], 1000);
  int tail = 0;
  for (const auto& [rank, n] : counts) {
    EXPECT_LT(rank, 1000u);
    if (rank > 500) tail += n;
  }
  EXPECT_LT(tail, 2000);
}

// ---------------------------------------------------------------------------
// Histogram / RunningStat
// ---------------------------------------------------------------------------

TEST(HistogramTest, MeanAndPercentiles) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_NEAR(h.Mean(), 500.5, 0.01);
  EXPECT_NEAR(h.Percentile(50), 500, 60);
  EXPECT_NEAR(h.Percentile(99), 990, 60);
  EXPECT_EQ(h.max(), 1000);
  EXPECT_EQ(h.min(), 1);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  for (int i = 0; i < 100; ++i) a.Add(10);
  for (int i = 0; i < 100; ++i) b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 200u);
  EXPECT_NEAR(a.Mean(), 505, 1);
  EXPECT_EQ(a.max(), 1000);
}

TEST(HistogramTest, ClearResets) {
  Histogram h;
  h.Add(5);
  h.Clear();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(RunningStatTest, WelfordMatchesClosedForm) {
  RunningStat rs;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.Add(v);
  EXPECT_NEAR(rs.Mean(), 5.0, 1e-9);
  EXPECT_NEAR(rs.Variance(), 32.0 / 7.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Arena / SimClock
// ---------------------------------------------------------------------------

TEST(ArenaTest, AllocationsAreUsableAndAligned) {
  Arena arena;
  char* a = arena.Allocate(13);
  std::memset(a, 1, 13);
  char* b = arena.AllocateAligned(64);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(void*), 0u);
  std::memset(b, 2, 64);
  // Large allocation exceeding the block size gets its own block.
  char* c = arena.Allocate(100000);
  std::memset(c, 3, 100000);
  EXPECT_GE(arena.MemoryUsage(), 100000u);
  EXPECT_EQ(a[0], 1);
  EXPECT_EQ(b[0], 2);
  EXPECT_EQ(c[99999], 3);
}

TEST(WallRateLimiterTest, BurstAdmitsImmediately) {
  // Slow refill (1 token/s) so the bucket stays near empty for the duration
  // of the test no matter how slowly it runs.
  WallRateLimiter limiter(/*rate_per_sec=*/1.0, /*burst=*/500.0);
  // The initial burst is admissible now (or in the past).
  const auto admit = limiter.Acquire(500.0);
  EXPECT_LE(admit, WallRateLimiter::Clock::now());
  EXPECT_LE(limiter.available(), 1.0);
}

TEST(WallRateLimiterTest, DeficitSchedulesRefill) {
  WallRateLimiter limiter(/*rate_per_sec=*/1000.0, /*burst=*/100.0);
  const auto before = WallRateLimiter::Clock::now();
  // 1100 units against a 100-unit bucket leaves a 1000-unit deficit: the
  // request is admissible ~1s out. Bounds are loose (the clock ticks while
  // the test runs) but a refill must be scheduled, not immediate.
  const auto admit = limiter.Acquire(1100.0);
  const auto wait =
      std::chrono::duration<double>(admit - before).count();
  EXPECT_GT(wait, 0.5);
  EXPECT_LT(wait, 2.0);
  EXPECT_LT(limiter.available(), 0.0);  // Still in deficit right now.
}

TEST(WallRateLimiterTest, TokensCapAtBurst) {
  WallRateLimiter limiter(/*rate_per_sec=*/1e9, /*burst=*/50.0);
  // Even at a huge refill rate the bucket never exceeds its burst.
  EXPECT_LE(limiter.available(), 50.0);
  limiter.Acquire(10.0);
  EXPECT_LE(limiter.available(), 50.0);
}

TEST(SimClockTest, AdvancesMonotonically) {
  SimClock clock;
  EXPECT_EQ(clock.NowMicros(), 0u);
  clock.AdvanceMicros(250);
  EXPECT_EQ(clock.NowMicros(), 250u);
  clock.AdvanceTo(1000);
  EXPECT_EQ(clock.NowMicros(), 1000u);
  EXPECT_DOUBLE_EQ(clock.NowSeconds(), 1e-3);
  clock.Reset();
  EXPECT_EQ(clock.NowMicros(), 0u);
}

}  // namespace
}  // namespace directload
