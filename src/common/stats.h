// Lightweight statistics primitives: event counters, ratio helpers, and
// integer histograms with percentile queries. These back every figure in
// the evaluation (occupancy percentiles for Figs 6-9, miss rates for
// Figs 12-15, commit rates for Fig 16).
#pragma once

#include <cstdint>
#include <vector>

namespace safespec {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }
  void reset() { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// hits / (hits + misses) convenience pair.
struct HitMiss {
  Counter hits;
  Counter misses;

  std::uint64_t accesses() const { return hits.value() + misses.value(); }
  double hit_rate() const {
    const auto total = accesses();
    return total == 0 ? 0.0 : static_cast<double>(hits.value()) / total;
  }
  double miss_rate() const {
    const auto total = accesses();
    return total == 0 ? 0.0 : static_cast<double>(misses.value()) / total;
  }
  void reset() {
    hits.reset();
    misses.reset();
  }
};

/// Histogram over non-negative integer samples (e.g. shadow-structure
/// occupancy sampled every cycle). Supports the percentile query used to
/// size shadow structures "for 99.99% of the accesses" (Figs 6-9).
class Histogram {
 public:
  void record(std::uint64_t sample) {
    flush_run();
    bucket_add(sample, 1);
  }

  /// Equivalent to `n` record(sample) calls (none when n == 0), but
  /// run-length batched for per-cycle sampling loops: consecutive equal
  /// samples cost one addition and are folded into the buckets lazily
  /// (every reader flushes first), so the resulting statistics are
  /// bit-identical to per-sample record() calls. A large `n` records a
  /// whole stretch of skipped idle cycles at once.
  void record_run(std::uint64_t sample, std::uint64_t n = 1) {
    if (n == 0) return;
    if (run_len_ != 0 && sample == run_value_) {
      run_len_ += n;
      return;
    }
    flush_run();
    run_value_ = sample;
    run_len_ = n;
  }

  std::uint64_t count() const {
    flush_run();
    return count_;
  }
  std::uint64_t max() const {
    flush_run();
    return max_;
  }
  double mean() const {
    flush_run();
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }

  /// Smallest value v such that at least `fraction` of all samples are
  /// <= v. fraction in (0, 1]; returns 0 on an empty histogram.
  std::uint64_t percentile(double fraction) const {
    flush_run();
    if (count_ == 0) return 0;
    const double target = fraction * static_cast<double>(count_);
    std::uint64_t cumulative = 0;
    for (std::uint64_t v = 0; v < buckets_.size(); ++v) {
      cumulative += buckets_[v];
      if (static_cast<double>(cumulative) >= target) return v;
    }
    return max_;
  }

  void reset() {
    buckets_.clear();
    count_ = 0;
    sum_ = 0;
    max_ = 0;
    run_len_ = 0;
  }

 private:
  void bucket_add(std::uint64_t sample, std::uint64_t n) const {
    if (sample >= buckets_.size()) buckets_.resize(sample + 1, 0);
    buckets_[sample] += n;
    count_ += n;
    sum_ += sample * n;
    if (sample > max_) max_ = sample;
  }

  void flush_run() const {
    if (run_len_ == 0) return;
    const std::uint64_t len = run_len_;
    run_len_ = 0;
    bucket_add(run_value_, len);
  }

  // All mutable: a pending run is an encoding detail that const readers
  // (percentile queries on a const core) must be able to fold in.
  mutable std::vector<std::uint64_t> buckets_;
  mutable std::uint64_t count_ = 0;
  mutable std::uint64_t sum_ = 0;
  mutable std::uint64_t max_ = 0;
  mutable std::uint64_t run_value_ = 0;
  mutable std::uint64_t run_len_ = 0;
};

/// Geometric mean of a vector of positive values (used for Fig 11's
/// normalized-IPC summary). Returns 0 for an empty input.
double geometric_mean(const std::vector<double>& values);

/// Arithmetic mean (the figures' "Average" summary row). Returns 0 for an
/// empty input.
double arithmetic_mean(const std::vector<double>& values);

}  // namespace safespec
