// Tests for the data-gradient (backward) convolution path: the bit-level
// counterpart of the simulator's backward workload (§4.3, Fig. 9(b)).  On
// the datapath, dgrad is the plain stride-1 conv of the output gradient
// with transpose_for_dgrad(f) at pad k-1-p, run as a one-layer GraphModel.
#include <gtest/gtest.h>

#include "api/session.h"
#include "nn/conv.h"

namespace mpipu {
namespace {

DatapathConfig mc_datapath(int adder_tree_width) {
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = adder_tree_width;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

/// One FP16 (FP32-accumulated) conv on the datapath through Session.
RunReport run_conv(const DatapathConfig& datapath, const Tensor& input,
                   const FilterBank& filters, const ConvSpec& conv_spec) {
  RunSpec spec;
  spec.datapath = datapath;
  Session session(spec);
  return session.run(
      GraphModel::from_layers("conv", {ModelLayer{"conv", filters, conv_spec}}),
      input);
}

/// The datapath dgrad of a stride-1 forward conv with pad `fwd_pad`.
RunReport run_dgrad(const DatapathConfig& datapath, const Tensor& grad_out,
                    const FilterBank& filters, int fwd_pad) {
  ConvSpec spec;
  spec.pad = filters.kh - 1 - fwd_pad;
  return run_conv(datapath, grad_out, transpose_for_dgrad(filters), spec);
}

TEST(Dgrad, TransposeIsAnInvolutionOnShapes) {
  Rng rng(91);
  const FilterBank f = random_filters(rng, 6, 4, 3, 3, ValueDist::kNormal, 0.1);
  const FilterBank t = transpose_for_dgrad(f);
  EXPECT_EQ(t.cout, 4);
  EXPECT_EQ(t.cin, 6);
  const FilterBank tt = transpose_for_dgrad(t);
  EXPECT_EQ(tt.data, f.data);
}

TEST(Dgrad, ShapeInvertsStride1Conv) {
  Rng rng(92);
  const Tensor x = random_tensor(rng, 4, 9, 9, ValueDist::kNormal, 1.0);
  const FilterBank f = random_filters(rng, 6, 4, 3, 3, ValueDist::kNormal, 0.1);
  for (int pad : {0, 1}) {
    ConvSpec spec;
    spec.pad = pad;
    const Tensor y = conv_reference(x, f, spec);
    const Tensor gx = dgrad_reference(y, f, pad);
    EXPECT_EQ(gx.c, x.c) << pad;
    EXPECT_EQ(gx.h, x.h) << pad;
    EXPECT_EQ(gx.w, x.w) << pad;
  }
}

TEST(Dgrad, MatchesManualAdjointOnTinyCase) {
  // For y = conv(x, w), the adjoint satisfies <y, conv(x, w)> = <dgrad(y), x>
  // for any gradient tensor g:  sum(g * conv(x,w)) == sum(dgrad(g) * x).
  Rng rng(93);
  const Tensor x = random_tensor(rng, 3, 6, 6, ValueDist::kNormal, 1.0);
  const FilterBank f = random_filters(rng, 2, 3, 3, 3, ValueDist::kNormal, 0.5);
  ConvSpec spec;
  spec.pad = 1;
  const Tensor y = conv_reference(x, f, spec);
  const Tensor g = random_tensor(rng, 2, 6, 6, ValueDist::kNormal, 1.0);
  const Tensor gx = dgrad_reference(g, f, 1);
  double lhs = 0.0, rhs = 0.0;
  for (size_t i = 0; i < y.data.size(); ++i) lhs += g.data[i] * y.data[i];
  for (size_t i = 0; i < x.data.size(); ++i) rhs += gx.data[i] * x.data[i];
  EXPECT_NEAR(lhs, rhs, 1e-9 * std::max(std::fabs(lhs), 1.0));
}

TEST(Dgrad, IpuPathAgreesWithReference) {
  Rng rng(94);
  const Tensor g =
      random_tensor(rng, 8, 7, 7, ValueDist::kBackwardWide, 1.0).rounded_to_fp16();
  const FilterBank f =
      random_filters(rng, 8, 4, 3, 3, ValueDist::kNormal, 0.1).rounded_to_fp16();
  const Tensor ref = dgrad_reference(g, f, 1);
  const Tensor got = run_dgrad(mc_datapath(28), g, f, 1).output;
  const AgreementStats s = compare_outputs(got, ref);
  EXPECT_GT(s.snr_db, 50.0);
}

TEST(Dgrad, BackwardTensorsCostMoreAlignmentCyclesThanForward) {
  // The bit-level confirmation of Fig. 9: gradient-like values multi-cycle
  // far more often than activation-like ones on a narrow MC-IPU.
  Rng rng(95);
  const DatapathConfig cfg = mc_datapath(12);
  const FilterBank f =
      random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1).rounded_to_fp16();
  const Tensor act =
      random_tensor(rng, 8, 7, 7, ValueDist::kHalfNormal, 1.0).rounded_to_fp16();
  const DatapathStats fwd_stats = run_conv(cfg, act, f, ConvSpec{}).totals;
  const Tensor grad =
      random_tensor(rng, 4, 7, 7, ValueDist::kBackwardWide, 1.0).rounded_to_fp16();
  const DatapathStats bwd_stats = run_dgrad(cfg, grad, f, 0).totals;
  const double fwd_cpi = static_cast<double>(fwd_stats.cycles) /
                         static_cast<double>(fwd_stats.fp_ops);
  const double bwd_cpi = static_cast<double>(bwd_stats.cycles) /
                         static_cast<double>(bwd_stats.fp_ops);
  EXPECT_GT(bwd_cpi, fwd_cpi * 1.2);
}

}  // namespace
}  // namespace mpipu
