#include "workload/distributions.h"

#include <cmath>

namespace mpipu {

const char* to_string(ValueDist d) {
  switch (d) {
    case ValueDist::kLaplace: return "laplace";
    case ValueDist::kNormal: return "normal";
    case ValueDist::kUniform: return "uniform";
    case ValueDist::kHalfNormal: return "half-normal";
    case ValueDist::kBackwardWide: return "backward-wide";
  }
  return "?";
}

double sample_value(Rng& rng, ValueDist dist, double scale) {
  switch (dist) {
    case ValueDist::kLaplace:
      return rng.laplace(0.0, scale);
    case ValueDist::kNormal:
      return rng.normal(0.0, scale);
    case ValueDist::kUniform:
      return rng.uniform(-scale, scale);
    case ValueDist::kHalfNormal:
      return std::fabs(rng.normal(0.0, scale));
    case ValueDist::kBackwardWide:
      return scale * rng.log_uniform_signed(-18.0, 0.0);
  }
  return 0.0;
}

std::vector<Fp16> sample_fp16(Rng& rng, ValueDist dist, double scale, int n) {
  std::vector<Fp16> out;
  out.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    out.push_back(Fp16::from_double(sample_value(rng, dist, scale)));
  }
  return out;
}

LayerTensorStats forward_stats() {
  LayerTensorStats s;
  s.activation_dist = ValueDist::kHalfNormal;
  s.activation_scale = 1.0;
  s.weight_dist = ValueDist::kNormal;
  s.weight_scale = 0.05;
  // Forward activations within a receptive field are strongly correlated:
  // small jitters, light tail (Fig. 9(a): alignments cluster near zero with
  // ~1% above 8), and ~45% exact zeros from ReLU that the EHU masks.
  s.act_jitter = {0.72, 0.52, 30};
  s.wgt_jitter = {0.75, 0.40, 30};
  s.act_zero_prob = 0.45;
  return s;
}

LayerTensorStats backward_stats() {
  LayerTensorStats s;
  s.activation_dist = ValueDist::kBackwardWide;  // back-propagated errors
  s.activation_scale = 1.0;
  s.weight_dist = ValueDist::kNormal;
  s.weight_scale = 0.05;
  // Gradients span many octaves even within one op (Fig. 9(b)).
  s.act_jitter = {0.10, 0.84, 40};
  s.wgt_jitter = {0.75, 0.40, 30};
  s.act_zero_prob = 0.25;  // dead-ReLU gradient zeros
  return s;
}

}  // namespace mpipu
