#include "msg/latency.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/fmt.hpp"

namespace sb::msg {

LatencyModel LatencyModel::fixed(Ticks value) {
  SB_EXPECTS(value >= 1, "latency must be at least one tick");
  LatencyModel model;
  model.kind_ = Kind::kFixed;
  model.lo_ = value;
  return model;
}

LatencyModel LatencyModel::uniform(Ticks lo, Ticks hi) {
  SB_EXPECTS(lo >= 1 && lo <= hi, "uniform latency needs 1 <= lo <= hi");
  LatencyModel model;
  model.lo_ = lo;
  model.hi_ = hi;
  const uint64_t span = hi - lo + 1;  // lo >= 1, so no wrap to 0
  if ((span & (span - 1)) == 0) {
    model.kind_ = Kind::kUniformPow2;
    model.mask_ = span - 1;
  } else {
    model.kind_ = Kind::kUniform;
    model.span_ = span;
  }
  return model;
}

LatencyModel LatencyModel::exponential(double mean) {
  SB_EXPECTS(mean >= 1.0, "exponential latency mean must be >= 1 tick");
  LatencyModel model;
  model.kind_ = Kind::kExponential;
  model.mean_ = mean;
  return model;
}

Ticks LatencyModel::sample_slow(Rng& rng) const {
  // sample() answers kFixed and kUniformPow2 inline.
  if (kind_ == Kind::kExponential) {
    const double draw = rng.next_exponential(mean_);
    return std::max<Ticks>(1, static_cast<Ticks>(std::llround(draw)));
  }
  return lo_ + rng.next_below(span_);
}

std::string LatencyModel::describe() const {
  switch (kind_) {
    case Kind::kFixed:
      return fmt("fixed({})", lo_);
    case Kind::kUniformPow2:
    case Kind::kUniform:
      return fmt("uniform({},{})", lo_, hi_);
    case Kind::kExponential:
      return fmt("exponential(mean={})", mean_);
  }
  return "?";
}

}  // namespace sb::msg
