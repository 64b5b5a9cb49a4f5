// Synthetic tensor-value distributions (paper §3.1 and the Fig. 9 workloads).
//
// The paper's numerical analysis samples operands from Laplace, Normal and
// Uniform distributions ("as they resemble the distribution of DNN tensors",
// citing Park et al. 2018) plus real ResNet tensors.  We do not have the
// ImageNet tensors, so the ResNet-like settings below are *synthetic
// substitutes* whose exponent statistics are matched to the paper's Fig. 9:
//  * forward-pass tensors: zero-mean, light spread -> product-exponent
//    differences cluster near zero, ~1% above 8;
//  * backward-pass tensors: gradients spanning many octaves -> a wide, heavy
//    tailed alignment distribution.
// The datapath's behaviour (masking, band counts, stalls) depends on tensor
// values only through these alignment statistics, so matching them exercises
// the same code paths as the real tensors (see DESIGN.md, substitutions).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "softfloat/softfloat.h"

namespace mpipu {

enum class ValueDist {
  kLaplace,       ///< Laplace(0, scale)
  kNormal,        ///< Normal(0, scale)
  kUniform,       ///< Uniform(-scale, scale) -- "re-scaled tensor" case
  kHalfNormal,    ///< |Normal(0, scale)| -- post-ReLU activations
  kBackwardWide,  ///< sign-symmetric log-uniform magnitude over
                  ///< [scale * 2^-18, scale * 2^0] -- gradient-like
};

const char* to_string(ValueDist d);

/// Draw one value.
double sample_value(Rng& rng, ValueDist dist, double scale);

/// Draw n values as FP16 (RNE conversion, the usual downcast path).
std::vector<Fp16> sample_fp16(Rng& rng, ValueDist dist, double scale, int n);

/// Intra-op exponent jitter: how much an operand's exponent deviates
/// (downward) from the op-local maximum-magnitude operand.  Alignment sizes
/// depend only on these *relative* exponents -- any op-level base exponent
/// cancels in (max_exp - exp) -- so the cycle simulator samples jitters
/// directly.  delta = 0 with probability p_zero, otherwise -(1 + Geom(decay)),
/// capped at -max_depth (the draw itself is JitterDraw, sim/sampler.h).
/// p_zero and decay must lie in [0, 1] and max_depth >= 1.  Calibrated so the resulting alignment histograms match the paper's
/// Fig. 9 (forward: ~1% above 8; backward: wide heavy tail).
struct ExponentJitter {
  double p_zero = 0.65;
  double decay = 0.55;
  int max_depth = 30;

  friend bool operator==(const ExponentJitter&, const ExponentJitter&) = default;
};

/// Workload descriptor: the operand distributions of one layer's inputs.
struct LayerTensorStats {
  ValueDist activation_dist = ValueDist::kHalfNormal;
  double activation_scale = 1.0;
  ValueDist weight_dist = ValueDist::kNormal;
  double weight_scale = 0.05;
  /// Intra-op exponent spreads (cycle simulator).
  ExponentJitter act_jitter{};
  ExponentJitter wgt_jitter{};
  /// Fraction of zero activations (post-ReLU sparsity).  Zero operands
  /// carry the subnormal exponent, so their products fall far below the
  /// software precision and are masked by the EHU -- they contribute no
  /// alignment cycles.
  double act_zero_prob = 0.0;

  friend bool operator==(const LayerTensorStats&, const LayerTensorStats&) =
      default;
};

/// Canonical tensor statistics for the four study cases of §4.1.
LayerTensorStats forward_stats();
LayerTensorStats backward_stats();

}  // namespace mpipu
