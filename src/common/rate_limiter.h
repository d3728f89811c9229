#ifndef DIRECTLOAD_COMMON_RATE_LIMITER_H_
#define DIRECTLOAD_COMMON_RATE_LIMITER_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>

#include "common/sim_clock.h"

namespace directload {

/// A token-bucket rate limiter over simulated time. Consumers ask when the
/// next `n` units may proceed; the limiter never blocks (nothing in the
/// simulation does) — it returns the simulated time at which the request is
/// admissible and accounts for it.
///
/// Used to pace ingest streams against a byte budget (e.g., Bifrost's
/// empirical bandwidth reservations are enforced per-channel by the fluid
/// network; host-side pacing of replay streams uses this class).
class RateLimiter {
 public:
  /// `rate_per_sec` units per second sustained; up to `burst` units may be
  /// consumed instantaneously.
  RateLimiter(SimClock* clock, double rate_per_sec, double burst)
      : clock_(clock),
        rate_per_sec_(rate_per_sec),
        burst_(burst),
        tokens_(burst),
        last_refill_micros_(clock->NowMicros()) {}

  RateLimiter(const RateLimiter&) = delete;
  RateLimiter& operator=(const RateLimiter&) = delete;

  /// Accounts for `n` units and returns the earliest simulated time (µs) at
  /// which they are within the budget. The caller decides whether to
  /// advance the clock (pacing) or to record the debt (measuring backlog).
  uint64_t Acquire(double n) {
    Refill();
    tokens_ -= n;
    if (tokens_ >= 0) return clock_->NowMicros();
    // Deficit: admissible once the bucket refills past zero.
    const double wait_seconds = -tokens_ / rate_per_sec_;
    return clock_->NowMicros() + static_cast<uint64_t>(wait_seconds * 1e6);
  }

  /// Tokens currently available (may be negative while in deficit).
  double available() {
    Refill();
    return tokens_;
  }

  double rate_per_sec() const { return rate_per_sec_; }

 private:
  void Refill() {
    const uint64_t now = clock_->NowMicros();
    if (now <= last_refill_micros_) return;
    const double elapsed = static_cast<double>(now - last_refill_micros_) * 1e-6;
    tokens_ = std::min(burst_, tokens_ + elapsed * rate_per_sec_);
    last_refill_micros_ = now;
  }

  SimClock* clock_;
  double rate_per_sec_;
  double burst_;
  double tokens_;
  uint64_t last_refill_micros_;
};

/// The wall-clock twin of RateLimiter: the same token-bucket accounting over
/// std::chrono::steady_clock, for real components (the KV server's optional
/// per-connection byte throttling) rather than the simulation. Like its
/// simulated sibling, Acquire never blocks — it returns the earliest wall
/// time at which the request is admissible; Throttle is the convenience that
/// sleeps until then. A rate of zero (or below) disables throttling: every
/// request is admissible immediately and no debt accumulates.
///
/// Not internally synchronized — confine one instance to one thread at a
/// time (the server gives each connection its own limiter, used under the
/// connection's read lock by whichever worker owns its read side).
class WallRateLimiter {
 public:
  using Clock = std::chrono::steady_clock;

  /// `rate_per_sec` units per second sustained; up to `burst` units may be
  /// consumed instantaneously. `rate_per_sec <= 0` means unlimited.
  WallRateLimiter(double rate_per_sec, double burst)
      : rate_per_sec_(rate_per_sec),
        burst_(burst),
        tokens_(burst),
        last_refill_(Clock::now()) {}

  WallRateLimiter(const WallRateLimiter&) = delete;
  WallRateLimiter& operator=(const WallRateLimiter&) = delete;

  /// Accounts for `n` units and returns the earliest wall time at which they
  /// are within the budget (Clock::now() when the bucket covers them).
  Clock::time_point Acquire(double n) {
    if (rate_per_sec_ <= 0) return Clock::now();
    Refill();
    tokens_ -= n;
    if (tokens_ >= 0) return last_refill_;
    // Deficit: admissible once the bucket refills past zero.
    const auto wait = std::chrono::duration<double>(-tokens_ / rate_per_sec_);
    return last_refill_ +
           std::chrono::duration_cast<Clock::duration>(wait);
  }

  /// Accounts for `n` units and sleeps until they are admissible.
  void Throttle(double n) {
    const Clock::time_point when = Acquire(n);
    if (when > Clock::now()) std::this_thread::sleep_until(when);
  }

  /// Tokens currently available (may be negative while in deficit).
  double available() {
    if (rate_per_sec_ <= 0) return burst_;
    Refill();
    return tokens_;
  }

  double rate_per_sec() const { return rate_per_sec_; }

 private:
  void Refill() {
    const Clock::time_point now = Clock::now();
    if (now <= last_refill_) return;
    const double elapsed =
        std::chrono::duration<double>(now - last_refill_).count();
    tokens_ = std::min(burst_, tokens_ + elapsed * rate_per_sec_);
    last_refill_ = now;
  }

  double rate_per_sec_;
  double burst_;
  double tokens_;
  Clock::time_point last_refill_;
};

}  // namespace directload

#endif  // DIRECTLOAD_COMMON_RATE_LIMITER_H_
