#pragma once
// Link latency models.
//
// Assumption 3 of the paper only requires communications to complete in
// finite time; the simulator lets experiments choose how that time is
// distributed. All models produce at least 1 tick so causality is strict.

#include <cstdint>
#include <string>

#include "util/rng.hpp"

namespace sb::msg {

/// Simulated-time duration in ticks (the simulator does not prescribe a
/// physical unit; benches treat 1 tick = 1 microsecond for readability).
using Ticks = uint64_t;

class LatencyModel {
 public:
  /// Every message takes exactly `value` ticks.
  [[nodiscard]] static LatencyModel fixed(Ticks value);

  /// Uniform in [lo, hi]. Each draw equals Rng::next_in(lo, hi) on the same
  /// generator state (for bounds an int64 holds; the model takes any
  /// 64-bit bounds).
  [[nodiscard]] static LatencyModel uniform(Ticks lo, Ticks hi);

  /// Exponential with the given mean (rounded to ticks, min 1) — a heavy
  /// tail that exercises the asynchronous-election code paths.
  [[nodiscard]] static LatencyModel exponential(double mean);

  /// Inline: sampled once per message send (the per-event hot path). The
  /// fixed model costs a branch; a uniform span that is a power of two —
  /// uniform(1,8), the benchmarks' model — one draw and a mask.
  [[nodiscard]] Ticks sample(Rng& rng) const {
    if (kind_ == Kind::kFixed) return lo_;
    if (kind_ == Kind::kUniformPow2) return lo_ + (rng.next() & mask_);
    return sample_slow(rng);
  }

  /// Guaranteed lower bound on every sample, in ticks (>= 1: all models
  /// enforce strict causality). This is the sharded simulator's lookahead:
  /// a message sent inside a time window can only be delivered in a later
  /// window, so shards synchronize once per min_ticks() of simulated time.
  [[nodiscard]] Ticks min_ticks() const {
    return kind_ == Kind::kExponential ? 1 : lo_;
  }

  [[nodiscard]] std::string describe() const;

 private:
  /// Uniform models split by span: a power of two reduces with a mask and
  /// never rejects; any other span goes through Rng::next_below.
  enum class Kind { kFixed, kUniformPow2, kUniform, kExponential };
  LatencyModel() = default;

  [[nodiscard]] Ticks sample_slow(Rng& rng) const;

  Kind kind_ = Kind::kFixed;
  /// kFixed: the latency; uniform kinds: the lower bound.
  Ticks lo_ = 1;
  /// Uniform kinds: the upper bound.
  Ticks hi_ = 1;
  /// kUniformPow2: span - 1, the draw's mask.
  uint64_t mask_ = 0;
  /// kUniform: the span hi - lo + 1.
  uint64_t span_ = 0;
  /// kExponential: the mean.
  double mean_ = 0.0;
};

}  // namespace sb::msg
