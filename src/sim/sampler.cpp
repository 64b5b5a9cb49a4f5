#include "sim/sampler.h"

#include <random>
#include <stdexcept>
#include <string>

namespace mpipu {
namespace {

/// A generator with mt19937_64's range that returns one fixed word, so
/// std::bernoulli_distribution can be asked about a single word.
struct FixedWord {
  using result_type = uint64_t;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() const { return word; }
  result_type word;
};

bool bernoulli_accepts(double p, uint64_t x) {
  FixedWord g{x};
  return std::bernoulli_distribution(p)(g);
}

}  // namespace

DrawThreshold DrawThreshold::of(double p, const std::string& field) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails both compares
    throw std::invalid_argument("LayerTensorStats: " + field +
                                " must be in [0, 1], got " +
                                std::to_string(p));
  }
  DrawThreshold t;
  // p = 0 accepts no word: below = 0.  p = 1 accepts every word, 2^64 - 1
  // included, which no `below` can express.  (The largest words clamp to
  // 1 - 2^-53 in libstdc++, which is below p only for p = 1.)
  if (!bernoulli_accepts(p, 0)) return t;
  if (bernoulli_accepts(p, ~uint64_t{0})) {
    t.always = true;
    return t;
  }
  // Invariant: lo accepts, hi rejects.  Ends with hi the first rejected word.
  uint64_t lo = 0;
  uint64_t hi = ~uint64_t{0};
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (bernoulli_accepts(p, mid) ? lo : hi) = mid;
  }
  t.below = hi;
  return t;
}

Mt64Stream::Mt64Stream(uint64_t seed) {
  // std::mersenne_twister_engine::seed for mt19937_64 ([rand.eng.mers]).
  state_[0] = seed;
  for (size_t i = 1; i < simd::kMt64Words; ++i) {
    const uint64_t x = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
  }
}

void Mt64Stream::refill() {
  simd::kernels().mt19937_64_refill(state_, out_);
  pos_ = 0;
}

JitterDraw::JitterDraw(const ExponentJitter& j, const std::string& field)
    : zero(DrawThreshold::of(j.p_zero, field + ".p_zero")),
      deeper(DrawThreshold::of(j.decay, field + ".decay")),
      max_depth(j.max_depth) {
  if (max_depth < 1) {
    throw std::invalid_argument("LayerTensorStats: " + field +
                                ".max_depth must be >= 1, got " +
                                std::to_string(max_depth));
  }
}

TensorDraws::TensorDraws(const LayerTensorStats& s)
    : act_zero(DrawThreshold::of(s.act_zero_prob, "act_zero_prob")),
      act(s.act_jitter, "act_jitter"),
      wgt(s.wgt_jitter, "wgt_jitter") {}

}  // namespace mpipu
