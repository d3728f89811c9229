#ifndef DIRECTLOAD_COMMON_LATENCY_ESTIMATOR_H_
#define DIRECTLOAD_COMMON_LATENCY_ESTIMATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/lock_rank.h"
#include "common/thread_annotations.h"

namespace directload {

/// A rolling window of latency samples with on-demand quantiles — the
/// estimator behind the coordinator's hedged-read delay ("fire the backup
/// once the primary has been silent for its recent p95"). A fixed-size ring
/// keeps the estimate tracking the *recent* regime: a replica that was slow
/// during recovery but has caught up stops dominating the estimate after
/// one window's worth of fresh samples, which is exactly the adaptivity the
/// tail-tolerant hedging policy assumes.
///
/// Thread-safe; the internal lock is a leaf (LockRank::kLatencyEstimator)
/// so samples can be recorded while serving-path locks are held.
class LatencyEstimator {
 public:
  explicit LatencyEstimator(size_t window = 256)
      : window_(window == 0 ? 1 : window) {}

  LatencyEstimator(const LatencyEstimator&) = delete;
  LatencyEstimator& operator=(const LatencyEstimator&) = delete;

  void Record(double sample) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (samples_.size() < window_) {
      samples_.push_back(sample);
    } else {
      samples_[next_] = sample;
    }
    next_ = (next_ + 1) % window_;
    ++count_;
  }

  /// The `q`-quantile (q in [0, 1]) over the samples currently in the
  /// window, or `fallback` when fewer than `min_samples` have ever been
  /// recorded — callers treat that as "no estimate yet" and fall back to a
  /// configured default instead of hedging off noise.
  double Quantile(double q, size_t min_samples = 1,
                  double fallback = -1.0) const EXCLUDES(mu_) {
    std::vector<double> window_copy;
    {
      MutexLock lock(&mu_);
      if (count_ < min_samples || samples_.empty()) return fallback;
      window_copy = samples_;
    }
    q = std::min(std::max(q, 0.0), 1.0);
    const size_t idx = static_cast<size_t>(
        q * static_cast<double>(window_copy.size() - 1) + 0.5);
    std::nth_element(window_copy.begin(), window_copy.begin() + idx,
                     window_copy.end());
    return window_copy[idx];
  }

  /// Total samples ever recorded (not capped by the window).
  uint64_t count() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return count_;
  }

 private:
  const size_t window_;
  mutable Mutex mu_{LockRank::kLatencyEstimator, "latency-estimator"};
  std::vector<double> samples_ GUARDED_BY(mu_);
  size_t next_ GUARDED_BY(mu_) = 0;
  uint64_t count_ GUARDED_BY(mu_) = 0;
};

}  // namespace directload

#endif  // DIRECTLOAD_COMMON_LATENCY_ESTIMATOR_H_
