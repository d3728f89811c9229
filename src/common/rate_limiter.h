#ifndef DIRECTLOAD_COMMON_RATE_LIMITER_H_
#define DIRECTLOAD_COMMON_RATE_LIMITER_H_

#include <algorithm>
#include <chrono>
#include <thread>

namespace directload {

/// A token-bucket rate limiter over std::chrono::steady_clock. The bulk
/// loader (bifrost/wire/bulk_loader.h) paces each of its two slice streams
/// with one, enforcing the paper's 40/60 summary/inverted bandwidth
/// reservation on the wire. Acquire never blocks — it returns the earliest
/// wall time at which the request is admissible; Throttle is the
/// convenience that sleeps until then.
///
/// Not internally synchronized — confine one instance to one thread at a
/// time.
class WallRateLimiter {
 public:
  using Clock = std::chrono::steady_clock;

  /// `rate_per_sec` (> 0) units per second sustained; up to `burst` units
  /// may be consumed instantaneously.
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
    Refill();
    return tokens_;
  }

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
