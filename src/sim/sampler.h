// The cycle simulator's random draws (sim/cycle_sim.cpp).
//
// Every draw simulate_network and alignment_histogram make -- ReLU-sparsity
// zeros and the two exponent jitters -- is a std::bernoulli_distribution(p)
// on one std::mt19937_64 stream.  This sampler makes the same draws, word
// for word and decision for decision, without the per-draw cost:
//
//   * Mt64Stream yields the words of std::mt19937_64(seed), a block of
//     kMt64Words at a time from the dispatched KernelTable refill (4-wide
//     on AVX2 hosts, the scalar reference otherwise).
//   * DrawThreshold turns a probability into one integer compare.
//     libstdc++ accepts a word x when double(x) * 2^-64, clamped below 1, is
//     < p.  That test is monotone in x, so it equals x < T(p) for one T,
//     found once by bisection against std::bernoulli_distribution itself.
//
// Thresholds belong to the caller (TensorDraws, built once per simulator
// call), not to the stream: the draws alternate between probabilities, so
// a threshold cache inside the stream would thrash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/simd/simd.h"
#include "workload/distributions.h"

namespace mpipu {

/// std::bernoulli_distribution(p) as a compare on the raw engine word.
struct DrawThreshold {
  uint64_t below = 0;   ///< accept a word x < below (0: never)
  bool always = false;  ///< every word accepts (p = 1, or close enough)

  /// Threshold of probability p; throws std::invalid_argument naming
  /// `field` when p is NaN or outside [0, 1].
  static DrawThreshold of(double p, const std::string& field);

  bool accepts(uint64_t x) const { return (x < below) | always; }
};

/// The word stream of std::mt19937_64(seed).
class Mt64Stream {
 public:
  explicit Mt64Stream(uint64_t seed);

  uint64_t next() {
    if (pos_ == simd::kMt64Words) refill();
    return out_[pos_++];
  }

  /// One Bernoulli draw; consumes one word whatever the threshold.
  bool draw(const DrawThreshold& t) { return t.accepts(next()); }

 private:
  void refill();

  uint64_t state_[simd::kMt64Words];
  uint64_t out_[simd::kMt64Words];
  size_t pos_ = simd::kMt64Words;
};

/// ExponentJitter's draw: 0 with probability p_zero, otherwise
/// -(1 + Geom(decay)) capped at -max_depth.
struct JitterDraw {
  /// Throws std::invalid_argument naming `field`.p_zero / .decay /
  /// .max_depth when a probability is NaN or outside [0, 1] or
  /// max_depth < 1.
  JitterDraw(const ExponentJitter& j, const std::string& field);

  int operator()(Mt64Stream& s) const {
    if (s.draw(zero)) return 0;
    int depth = 1;
    while (depth < max_depth && s.draw(deeper)) ++depth;
    return -depth;
  }

  DrawThreshold zero;
  DrawThreshold deeper;
  int max_depth = 1;
};

/// Every draw of one network's tensor statistics, validated.
struct TensorDraws {
  explicit TensorDraws(const LayerTensorStats& s);

  DrawThreshold act_zero;  ///< a zero (EHU-masked) activation
  JitterDraw act;
  JitterDraw wgt;
};

}  // namespace mpipu
