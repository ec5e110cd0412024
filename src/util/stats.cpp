#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace sb {

void Accumulator::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Accumulator::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

void SampleSet::add(double x) {
  samples_.push_back(x);
  sorted_ = false;
}

void SampleSet::sort_if_needed() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double SampleSet::percentile(double p) const {
  SB_EXPECTS(!samples_.empty(), "percentile of empty sample set");
  SB_EXPECTS(p >= 0.0 && p <= 100.0, "percentile must be in [0,100], got ", p);
  sort_if_needed();
  if (samples_.size() == 1) return samples_.front();
  const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double SampleSet::mean() const {
  SB_EXPECTS(!samples_.empty());
  double sum = 0.0;
  for (double s : samples_) sum += s;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  SB_EXPECTS(!samples_.empty());
  sort_if_needed();
  return samples_.front();
}

double SampleSet::max() const {
  SB_EXPECTS(!samples_.empty());
  sort_if_needed();
  return samples_.back();
}

LinearFit fit_linear(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  SB_EXPECTS(xs.size() == ys.size(), "fit_linear: size mismatch");
  SB_EXPECTS(xs.size() >= 2, "fit_linear: need at least two points");
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
    sxx += xs[i] * xs[i];
    sxy += xs[i] * ys[i];
  }
  const double denom = n * sxx - sx * sx;
  SB_EXPECTS(denom != 0.0, "fit_linear: degenerate x values");
  LinearFit fit;
  fit.slope = (n * sxy - sx * sy) / denom;
  fit.intercept = (sy - fit.slope * sx) / n;
  double ss_res = 0, ss_tot = 0;
  const double ybar = sy / n;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double pred = fit.slope * xs[i] + fit.intercept;
    ss_res += (ys[i] - pred) * (ys[i] - pred);
    ss_tot += (ys[i] - ybar) * (ys[i] - ybar);
  }
  fit.r2 = ss_tot == 0.0 ? 1.0 : 1.0 - ss_res / ss_tot;
  return fit;
}

LinearFit fit_loglog(const std::vector<double>& xs,
                     const std::vector<double>& ys) {
  SB_EXPECTS(xs.size() == ys.size(), "fit_loglog: size mismatch");
  std::vector<double> lx(xs.size()), ly(ys.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    SB_EXPECTS(xs[i] > 0.0 && ys[i] > 0.0,
               "fit_loglog requires positive samples");
    lx[i] = std::log(xs[i]);
    ly[i] = std::log(ys[i]);
  }
  return fit_linear(lx, ly);
}

}  // namespace sb
