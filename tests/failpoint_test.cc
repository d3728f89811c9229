// Unit tests for the failpoint framework itself: spec grammar, trigger
// semantics, payload actions, registry behavior, and thread safety of the
// arm/evaluate race. The framework classes are compiled in every build
// flavor (only the *call sites* are gated on DIRECTLOAD_FAILPOINTS), so
// this test runs everywhere, including the TSan job.

#include "common/failpoint.h"
#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace directload::failpoint {
namespace {

// ---------------------------------------------------------------------------
// ParseSpec grammar
// ---------------------------------------------------------------------------

TEST(FailPointSpec, BareReturnDefaultsToIoError) {
  Spec spec;
  ASSERT_TRUE(ParseSpec("return", &spec).ok());
  EXPECT_EQ(spec.action, Action::kReturnError);
  EXPECT_EQ(spec.error_code, StatusCode::kIOError);
  EXPECT_DOUBLE_EQ(spec.probability, 1.0);
  EXPECT_EQ(spec.every, 0u);
  EXPECT_EQ(spec.max_hits, -1);
}

TEST(FailPointSpec, ReturnWithEveryNamedCode) {
  const struct {
    const char* name;
    StatusCode code;
  } kCases[] = {
      {"notfound", StatusCode::kNotFound},
      {"corruption", StatusCode::kCorruption},
      {"invalid", StatusCode::kInvalidArgument},
      {"io", StatusCode::kIOError},
      {"nospace", StatusCode::kNoSpace},
      {"busy", StatusCode::kBusy},
      {"unavailable", StatusCode::kUnavailable},
      {"timedout", StatusCode::kTimedOut},
      {"aborted", StatusCode::kAborted},
      {"dedup", StatusCode::kDeduplicated},
      {"internal", StatusCode::kInternal},
      {"protocol", StatusCode::kProtocol},
  };
  for (const auto& c : kCases) {
    Spec spec;
    const std::string text = std::string("return(") + c.name + ")";
    ASSERT_TRUE(ParseSpec(text, &spec).ok()) << text;
    EXPECT_EQ(spec.error_code, c.code) << text;
  }
}

TEST(FailPointSpec, TriggersComposeLeftToRight) {
  Spec spec;
  ASSERT_TRUE(ParseSpec("12.5%every3:2*return(busy)", &spec).ok());
  EXPECT_DOUBLE_EQ(spec.probability, 0.125);
  EXPECT_EQ(spec.every, 3u);
  EXPECT_EQ(spec.max_hits, 2);
  EXPECT_EQ(spec.action, Action::kReturnError);
  EXPECT_EQ(spec.error_code, StatusCode::kBusy);
}

TEST(FailPointSpec, DelayShortCorruptAbort) {
  Spec spec;
  ASSERT_TRUE(ParseSpec("delay(25)", &spec).ok());
  EXPECT_EQ(spec.action, Action::kDelay);
  EXPECT_EQ(spec.delay_ms, 25);

  ASSERT_TRUE(ParseSpec("short(7)", &spec).ok());
  EXPECT_EQ(spec.action, Action::kShortIo);
  EXPECT_EQ(spec.short_io_bytes, 7u);

  ASSERT_TRUE(ParseSpec("corrupt", &spec).ok());
  EXPECT_EQ(spec.action, Action::kCorrupt);

  ASSERT_TRUE(ParseSpec("1*abort", &spec).ok());
  EXPECT_EQ(spec.action, Action::kAbort);
  EXPECT_EQ(spec.max_hits, 1);
}

TEST(FailPointSpec, MalformedSpecsAreRejected) {
  const char* kBad[] = {
      "",                 // No action.
      "explode",          // Unknown action.
      "return(nope)",     // Unknown status code.
      "150%return",       // Probability out of range.
      "-5%return",        // Negative probability.
      "x%return",         // Non-numeric probability.
      "every0:return",    // every needs N >= 1.
      "everyX:return",    // Non-numeric N.
      "0*return",         // Count must be >= 1.
      "delay",            // delay requires (ms).
      "delay(abc)",       // Non-numeric ms.
      "short",            // short requires (bytes).
      "abort(now)",       // abort takes no argument.
      "corrupt(1)",       // corrupt takes no argument.
      "return(io",        // Unbalanced parenthesis.
  };
  for (const char* text : kBad) {
    Spec spec;
    EXPECT_FALSE(ParseSpec(text, &spec).ok()) << "\"" << text << "\"";
  }
}

// ---------------------------------------------------------------------------
// Trigger semantics
// ---------------------------------------------------------------------------

Spec MustParse(std::string_view text) {
  Spec spec;
  Status s = ParseSpec(text, &spec);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return spec;
}

TEST(FailPointTrigger, DisarmedIsFreeAndSilent) {
  FailPoint point("test_disarmed");
  EXPECT_FALSE(point.armed());
  EXPECT_TRUE(point.MaybeFail().ok());
  EXPECT_EQ(point.evaluations(), 0u);  // Disarmed evals are not counted.
  EXPECT_EQ(point.hits(), 0u);
}

TEST(FailPointTrigger, OneShotFiresOnceThenDisarms) {
  FailPoint point("test_oneshot");
  point.Activate(MustParse("1*return(unavailable)"));
  ASSERT_TRUE(point.armed());

  Status first = point.MaybeFail();
  EXPECT_TRUE(first.IsUnavailable()) << first.ToString();
  EXPECT_NE(first.ToString().find("test_oneshot"), std::string::npos)
      << "injected status should name the failpoint: " << first.ToString();
  EXPECT_FALSE(point.armed());
  EXPECT_TRUE(point.MaybeFail().ok());
  EXPECT_EQ(point.hits(), 1u);
}

TEST(FailPointTrigger, EveryNthFiresOnMultiplesOnly) {
  FailPoint point("test_every");
  point.Activate(MustParse("every3:return(io)"));
  int fired = 0;
  for (int i = 1; i <= 9; ++i) {
    if (!point.MaybeFail().ok()) {
      ++fired;
      EXPECT_EQ(i % 3, 0) << "fired on evaluation " << i;
    }
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(point.evaluations(), 9u);
  EXPECT_EQ(point.hits(), 3u);
}

TEST(FailPointTrigger, MaxHitsBudgetIsExact) {
  FailPoint point("test_budget");
  point.Activate(MustParse("4*return(io)"));
  int fired = 0;
  for (int i = 0; i < 100; ++i) {
    if (!point.MaybeFail().ok()) ++fired;
  }
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(point.hits(), 4u);
  EXPECT_FALSE(point.armed());
}

TEST(FailPointTrigger, ProbabilityZeroNeverFiresProbabilityOneAlways) {
  FailPoint never("test_never");
  never.Activate(MustParse("0%return(io)"));
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(never.MaybeFail().ok());
  }
  EXPECT_EQ(never.hits(), 0u);

  FailPoint always("test_always");
  always.Activate(MustParse("100%return(io)"));
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(always.MaybeFail().ok());
  }
  EXPECT_EQ(always.hits(), 200u);
}

TEST(FailPointTrigger, ProbabilisticRateIsRoughlyHonored) {
  FailPoint point("test_half");
  Spec spec = MustParse("50%return(io)");
  spec.seed = 42;  // Deterministic stream: the counts below are exact.
  point.Activate(spec);
  int fired = 0;
  for (int i = 0; i < 1000; ++i) {
    if (!point.MaybeFail().ok()) ++fired;
  }
  // A fair coin landing outside [350, 650] over 1000 flips is ~1e-21.
  EXPECT_GT(fired, 350);
  EXPECT_LT(fired, 650);
}

TEST(FailPointTrigger, DelayBlocksForAtLeastTheRequestedTime) {
  FailPoint point("test_delay");
  point.Activate(MustParse("1*delay(30)"));
  const auto before = std::chrono::steady_clock::now();
  EXPECT_TRUE(point.MaybeFail().ok());  // Delay lets the operation proceed.
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - before);
  EXPECT_GE(elapsed.count(), 30);
}

TEST(FailPointTrigger, DeactivateStandsDown) {
  FailPoint point("test_deactivate");
  point.Activate(MustParse("return(io)"));
  EXPECT_FALSE(point.MaybeFail().ok());
  point.Deactivate();
  EXPECT_FALSE(point.armed());
  EXPECT_TRUE(point.MaybeFail().ok());
}

// ---------------------------------------------------------------------------
// Payload actions
// ---------------------------------------------------------------------------

TEST(FailPointIo, ShortIoClampsTheTransferAndFails) {
  FailPoint point("test_short");
  point.Activate(MustParse("1*short(3)"));
  std::string payload = "0123456789";
  uint64_t io_bytes = payload.size();
  Status s = point.MaybeFailIo(&payload, &io_bytes);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(io_bytes, 3u);
  EXPECT_EQ(payload, "0123456789");  // short never edits the bytes.
}

TEST(FailPointIo, ShortIoNeverGrowsTheTransfer) {
  FailPoint point("test_short_grow");
  point.Activate(MustParse("1*short(100)"));
  std::string payload = "abc";
  uint64_t io_bytes = payload.size();
  Status s = point.MaybeFailIo(&payload, &io_bytes);
  EXPECT_TRUE(s.IsIOError());
  EXPECT_EQ(io_bytes, 3u);  // Already below the clamp: unchanged.
}

TEST(FailPointIo, CorruptFlipsExactlyOneBitAndSucceeds) {
  FailPoint point("test_corrupt");
  point.Activate(MustParse("1*corrupt"));
  const std::string original(64, '\xAA');
  std::string payload = original;
  EXPECT_TRUE(point.MaybeFailIo(&payload, nullptr).ok());
  ASSERT_EQ(payload.size(), original.size());
  int bits_flipped = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    unsigned char diff = static_cast<unsigned char>(payload[i]) ^
                         static_cast<unsigned char>(original[i]);
    while (diff != 0) {
      bits_flipped += diff & 1;
      diff >>= 1;
    }
  }
  EXPECT_EQ(bits_flipped, 1);
}

TEST(FailPointIo, NullPayloadIsTolerated) {
  FailPoint corrupt("test_corrupt_null");
  corrupt.Activate(MustParse("corrupt"));
  EXPECT_TRUE(corrupt.MaybeFailIo(nullptr, nullptr).ok());

  FailPoint short_io("test_short_null");
  short_io.Activate(MustParse("short(1)"));
  EXPECT_TRUE(short_io.MaybeFailIo(nullptr, nullptr).IsIOError());
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

class RegistryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Registry::Instance().DeactivateAll();
    Registry::Instance().ResetCountersForTesting();
    Registry::Instance().SetSeed(1);
  }
};

TEST_F(RegistryTest, RegisterIsIdempotentAndFindSeesIt) {
  Registry& reg = Registry::Instance();
  FailPoint* a = reg.Register("reg_test_point");
  FailPoint* b = reg.Register("reg_test_point");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.Find("reg_test_point"), a);
  EXPECT_EQ(reg.Find("reg_test_point_never_made"), nullptr);
}

TEST_F(RegistryTest, ListIsSortedByName) {
  Registry& reg = Registry::Instance();
  reg.Register("reg_sort_b");
  reg.Register("reg_sort_a");
  std::vector<FailPoint*> all = reg.List();
  ASSERT_GE(all.size(), 2u);
  for (size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1]->name(), all[i]->name());
  }
}

TEST_F(RegistryTest, ActivateByTextArmsAndDeactivateDisarms) {
  Registry& reg = Registry::Instance();
  ASSERT_TRUE(reg.Activate("reg_arm_test", "return(busy)").ok());
  FailPoint* point = reg.Find("reg_arm_test");
  ASSERT_NE(point, nullptr);
  EXPECT_TRUE(point->armed());
  EXPECT_TRUE(point->MaybeFail().IsBusy());
  reg.Deactivate("reg_arm_test");
  EXPECT_FALSE(point->armed());
}

TEST_F(RegistryTest, ActivateRejectsMalformedSpecText) {
  EXPECT_FALSE(
      Registry::Instance().Activate("reg_bad_spec", "frobnicate").ok());
}

TEST_F(RegistryTest, ActivateFromStringArmsEveryEntry) {
  Registry& reg = Registry::Instance();
  ASSERT_TRUE(reg.ActivateFromString(
                     "reg_multi_a=return(io);reg_multi_b=1*return(nospace)")
                  .ok());
  ASSERT_NE(reg.Find("reg_multi_a"), nullptr);
  ASSERT_NE(reg.Find("reg_multi_b"), nullptr);
  EXPECT_TRUE(reg.Find("reg_multi_a")->armed());
  EXPECT_TRUE(reg.Find("reg_multi_b")->armed());
  EXPECT_TRUE(reg.Find("reg_multi_b")->MaybeFail().IsNoSpace());
}

TEST_F(RegistryTest, ActivateFromStringRejectsEntriesWithoutName) {
  Registry& reg = Registry::Instance();
  EXPECT_FALSE(reg.ActivateFromString("=return(io)").ok());
  EXPECT_FALSE(reg.ActivateFromString("noequalssign").ok());
  // Empty entries (trailing semicolons) are tolerated.
  EXPECT_TRUE(reg.ActivateFromString("reg_trailing=return(io);;").ok());
}

TEST_F(RegistryTest, CountersAggregateAcrossPoints) {
  Registry& reg = Registry::Instance();
  reg.ResetCountersForTesting();
  ASSERT_TRUE(reg.Activate("reg_count_a", "return(io)").ok());
  ASSERT_TRUE(reg.Activate("reg_count_b", "2*return(io)").ok());
  FailPoint* a = reg.Find("reg_count_a");
  FailPoint* b = reg.Find("reg_count_b");
  DL_DISCARD_STATUS("counting hits, not outcomes", a->MaybeFail());
  DL_DISCARD_STATUS("counting hits, not outcomes", a->MaybeFail());
  DL_DISCARD_STATUS("counting hits, not outcomes", b->MaybeFail());
  EXPECT_GE(reg.DistinctFired(), 2);
  EXPECT_GE(reg.TotalHits(), 3u);
}

TEST_F(RegistryTest, RegistrySeedMakesProbabilisticStreamsReproducible) {
  Registry& reg = Registry::Instance();
  auto run_schedule = [&](uint64_t seed) {
    reg.SetSeed(seed);
    EXPECT_TRUE(reg.Activate("reg_seeded", "30%return(io)").ok());
    FailPoint* point = reg.Find("reg_seeded");
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += point->MaybeFail().ok() ? '.' : 'X';
    }
    reg.Deactivate("reg_seeded");
    return pattern;
  };
  const std::string first = run_schedule(7);
  EXPECT_EQ(first, run_schedule(7))
      << "same seed must replay the same firings";
  EXPECT_NE(first, run_schedule(8)) << "different seed should diverge";
}

// ---------------------------------------------------------------------------
// Concurrency: arm/disarm races a hot evaluation loop. Run under TSan in CI.
// ---------------------------------------------------------------------------

TEST(FailPointConcurrency, ArmDisarmRacesEvaluationsSafely) {
  FailPoint point("test_concurrent");
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> observed_failures{0};
  std::atomic<uint64_t> evaluations{0};

  std::vector<std::thread> evaluators;
  for (int t = 0; t < 4; ++t) {
    evaluators.emplace_back([&] {
      std::string payload = "payload-bytes";
      while (!stop.load(std::memory_order_relaxed)) {
        if (!point.MaybeFail().ok()) {
          observed_failures.fetch_add(1, std::memory_order_relaxed);
        }
        uint64_t io_bytes = payload.size();
        DL_DISCARD_STATUS("hammering the trigger from many threads",
                          point.MaybeFailIo(&payload, &io_bytes));
        evaluations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Each armed window stays open until the evaluators have finished
  // kEvaluationsPerWindow rounds that began inside it (an evaluation already
  // in flight at Activate may count; one per evaluator is added for those).
  // The wait is bounded: a stuck evaluator fails the test instead of
  // hanging it.
  constexpr uint64_t kEvaluationsPerWindow = 8;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool stalled = false;
  std::thread toggler([&] {
    Spec on;
    ASSERT_TRUE(ParseSpec("50%return(io)", &on).ok());
    on.seed = 99;
    for (int i = 0; i < 200 && !stalled; ++i) {
      point.Activate(on);
      const uint64_t target = evaluations.load() + kEvaluationsPerWindow +
                              evaluators.size();
      while (evaluations.load() < target) {
        if (std::chrono::steady_clock::now() > deadline) {
          stalled = true;
          break;
        }
        std::this_thread::yield();
      }
      point.Deactivate();
    }
  });

  toggler.join();
  stop.store(true);
  for (std::thread& t : evaluators) t.join();

  EXPECT_FALSE(stalled) << "evaluators stopped making progress";
  // No crash, no TSan report; and the armed windows were wide enough for
  // injected failures to land.
  EXPECT_GT(observed_failures.load(), 0u);
}

TEST(FailPointConcurrency, BudgetIsExactUnderContention) {
  FailPoint point("test_concurrent_budget");
  Spec spec;
  ASSERT_TRUE(ParseSpec("64*return(io)", &spec).ok());
  point.Activate(spec);

  std::atomic<uint64_t> fired{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        if (!point.MaybeFail().ok()) fired.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(fired.load(), 64u);
  EXPECT_EQ(point.hits(), 64u);
  EXPECT_FALSE(point.armed());
}

}  // namespace
}  // namespace directload::failpoint
