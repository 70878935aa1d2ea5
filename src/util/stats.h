#pragma once
// Lightweight statistics helpers shared by the circuit Monte-Carlo engine,
// the accuracy evaluation, and the benchmark reports.

#include <cstddef>
#include <limits>
#include <span>

namespace asmcap {

/// Single-pass running mean/variance/min/max (Welford's algorithm).
class RunningStats {
 public:
  void add(double x);
  void merge(const RunningStats& other);
  void reset();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Unbiased sample variance (n-1 denominator); 0 for fewer than 2 samples.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(n_); }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Nearest-rank percentile (q in [0, 1]) of a span: the smallest value x
/// such that at least ceil(q * n) samples are <= x. Exact order statistic
/// — no interpolation — so the result is always one of the samples and is
/// bit-reproducible across platforms (the service-tier latency/energy
/// p50/p95/p99 in TicketStats go through here). 0 for an empty span.
double percentile_of(std::span<const double> xs, double q);

}  // namespace asmcap
