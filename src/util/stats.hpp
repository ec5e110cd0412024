#pragma once
// Statistics helpers used by the benchmark harnesses: streaming accumulators
// (Welford), percentile extraction, and least-squares fits (including the
// log-log slope fit used to verify the paper's complexity Remarks 2-4).

#include <cstddef>
#include <limits>
#include <vector>

namespace sb {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
class Accumulator {
 public:
  void add(double x);

  [[nodiscard]] size_t count() const { return count_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 with fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const { return sum_; }

 private:
  size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Retains all samples; supports exact percentiles. Intended for bench-scale
/// sample counts (thousands), not per-event hot paths.
class SampleSet {
 public:
  void add(double x);
  [[nodiscard]] size_t count() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }

  /// Exact percentile by linear interpolation; p in [0, 100].
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double min() const;
  [[nodiscard]] double max() const;

  [[nodiscard]] const std::vector<double>& samples() const { return samples_; }

 private:
  void sort_if_needed() const;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

/// Least-squares fit y = slope * x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination in [0, 1].
  double r2 = 0.0;
};

/// Fits a line through (x, y) pairs. Requires at least two points.
[[nodiscard]] LinearFit fit_linear(const std::vector<double>& xs,
                                   const std::vector<double>& ys);

/// Fits log(y) = slope * log(x) + c, i.e. estimates the exponent of a
/// power-law y ~ x^slope. All inputs must be positive. Used to check the
/// paper's O(N^3) / O(N^2) complexity remarks empirically.
[[nodiscard]] LinearFit fit_loglog(const std::vector<double>& xs,
                                   const std::vector<double>& ys);

}  // namespace sb
