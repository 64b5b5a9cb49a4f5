// Integration tests: convolution on the bit-accurate IPU datapath vs the
// exact reference -- the mechanism behind the paper's §3.1 accuracy claims
// -- plus the input checks of the reference functions.
#include <gtest/gtest.h>

#include <stdexcept>

#include "api/session.h"
#include "nn/conv.h"

namespace mpipu {
namespace {

DatapathConfig wide_datapath() {
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 38;
  cfg.software_precision = 58;
  cfg.multi_cycle = false;
  cfg.accumulator.frac_bits = 100;
  cfg.accumulator.lossless = true;
  return cfg;
}

/// One conv on the datapath: a one-layer GraphModel run through Session.
RunReport run_conv(const DatapathConfig& datapath, LayerPrecision precision,
                   const Tensor& input, const FilterBank& filters) {
  RunSpec spec;
  spec.datapath = datapath;
  spec.policy.set_default(precision);
  Session session(spec);
  return session.run(
      GraphModel::from_layers("conv", {ModelLayer{"conv", filters, ConvSpec{}}}),
      input);
}

TEST(ConvReference, KnownTinyCase) {
  Tensor in(1, 3, 3);
  for (int i = 0; i < 9; ++i) in.data[static_cast<size_t>(i)] = i + 1;
  FilterBank f(1, 1, 2, 2);
  f.at(0, 0, 0, 0) = 1.0;
  f.at(0, 0, 0, 1) = 2.0;
  f.at(0, 0, 1, 0) = 3.0;
  f.at(0, 0, 1, 1) = 4.0;
  const Tensor out = conv_reference(in, f, ConvSpec{});
  ASSERT_EQ(out.h, 2);
  ASSERT_EQ(out.w, 2);
  // top-left: 1*1 + 2*2 + 4*3 + 5*4 = 37
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 37.0);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 1), 47.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1, 0), 67.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1, 1), 77.0);
}

TEST(ConvReference, PaddingAndStride) {
  Tensor in(1, 4, 4);
  for (auto& v : in.data) v = 1.0;
  FilterBank f(1, 1, 3, 3);
  for (auto& v : f.data) v = 1.0;
  ConvSpec spec;
  spec.pad = 1;
  spec.stride = 2;
  const Tensor out = conv_reference(in, f, spec);
  ASSERT_EQ(out.h, 2);
  ASSERT_EQ(out.w, 2);
  EXPECT_DOUBLE_EQ(out.at(0, 0, 0), 4.0);  // corner sees 2x2 of ones
  EXPECT_DOUBLE_EQ(out.at(0, 1, 1), 9.0);  // interior sees full 3x3
}

TEST(ConvIpu, WideIpuConvIsExactOnFp16Inputs) {
  // With FP16-rounded inputs and a lossless datapath, the IPU conv must
  // agree with the double reference exactly up to one final FP32 rounding.
  Rng rng(21);
  Tensor in = random_tensor(rng, 8, 6, 6, ValueDist::kNormal, 1.0).rounded_to_fp16();
  FilterBank f =
      random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1).rounded_to_fp16();
  const Tensor ref = conv_reference(in, f, ConvSpec{});
  const Tensor got =
      run_conv(wide_datapath(), LayerPrecision::fp16(), in, f).output;
  const AgreementStats s = compare_outputs(got, ref);
  // Every output within half an FP32 ULP of the exact value.
  EXPECT_EQ(s.mismatched_fp16, 0);
  EXPECT_LT(s.max_rel_err, 1e-6);
}

TEST(ConvIpu, Precision16MatchesReferenceThroughFp16Rounding) {
  // §3.1: 16-bit IPU precision with FP16 accumulation maintains agreement.
  Rng rng(22);
  Tensor in = random_tensor(rng, 16, 8, 8, ValueDist::kHalfNormal, 1.0).rounded_to_fp16();
  FilterBank f =
      random_filters(rng, 8, 16, 3, 3, ValueDist::kNormal, 0.05).rounded_to_fp16();
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 28;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  const Tensor ref = conv_reference(in, f, ConvSpec{});
  const Tensor got = run_conv(cfg, LayerPrecision::fp16(), in, f).output;
  const AgreementStats s = compare_outputs(got, ref);
  EXPECT_GT(s.snr_db, 55.0);
  EXPECT_LT(static_cast<double>(s.mismatched_fp16) / static_cast<double>(s.total), 0.02);
}

TEST(ConvIpu, LowPrecisionDegradesGracefully) {
  Rng rng(23);
  Tensor in = random_tensor(rng, 16, 6, 6, ValueDist::kHalfNormal, 1.0).rounded_to_fp16();
  FilterBank f =
      random_filters(rng, 4, 16, 3, 3, ValueDist::kNormal, 0.05).rounded_to_fp16();
  const Tensor ref = conv_reference(in, f, ConvSpec{});
  double prev_snr = -100.0;
  for (int w : {8, 12, 16, 24}) {
    DatapathConfig cfg;
    cfg.n_inputs = 16;
    cfg.adder_tree_width = w;
    cfg.software_precision = w;
    cfg.multi_cycle = false;
    const Tensor got = run_conv(cfg, LayerPrecision::fp16(), in, f).output;
    const double snr = compare_outputs(got, ref).snr_db;
    EXPECT_GE(snr, prev_snr - 3.0) << w;  // approximately monotone
    prev_snr = snr;
  }
  EXPECT_GT(prev_snr, 50.0);
}

TEST(ConvIpu, IntConvMatchesQuantizedReference) {
  Rng rng(24);
  Tensor in = random_tensor(rng, 8, 5, 5, ValueDist::kHalfNormal, 1.0);
  FilterBank f = random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  cfg.adder_tree_width = 12;
  for (int bits : {4, 8}) {
    const Tensor got =
        run_conv(cfg, LayerPrecision::int_bits(bits, bits), in, f).output;
    // Build the quantized reference by hand.
    const QuantParams qa = fit_symmetric(in.data, bits);
    const QuantParams qw = fit_symmetric(f.data, bits);
    Tensor in_q = in;
    in_q.data = dequantize(quantize(in.data, qa), qa);
    FilterBank f_q = f;
    f_q.data = dequantize(quantize(f.data, qw), qw);
    const Tensor ref = conv_reference(in_q, f_q, ConvSpec{});
    const AgreementStats s = compare_outputs(got, ref);
    EXPECT_LT(s.max_abs_err, 1e-9) << bits;  // INT mode is exact
  }
}

TEST(ConvIpu, Int4CoarserThanInt8) {
  Rng rng(25);
  Tensor in = random_tensor(rng, 8, 6, 6, ValueDist::kHalfNormal, 1.0);
  FilterBank f = random_filters(rng, 4, 8, 3, 3, ValueDist::kNormal, 0.1);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  const Tensor ref = conv_reference(in, f, ConvSpec{});
  const double snr4 = compare_outputs(
      run_conv(cfg, LayerPrecision::int_bits(4, 4), in, f).output, ref).snr_db;
  const double snr8 = compare_outputs(
      run_conv(cfg, LayerPrecision::int_bits(8, 8), in, f).output, ref).snr_db;
  EXPECT_GT(snr8, snr4 + 10.0);
  EXPECT_GT(snr4, 10.0);
}

TEST(ConvIpu, CyclesAccountNineIterationsPerOp) {
  Rng rng(26);
  Tensor in = random_tensor(rng, 16, 4, 4, ValueDist::kNormal, 1.0).rounded_to_fp16();
  FilterBank f =
      random_filters(rng, 2, 16, 1, 1, ValueDist::kNormal, 0.1).rounded_to_fp16();
  const DatapathStats stats =
      run_conv(wide_datapath(), LayerPrecision::fp16(), in, f).totals;
  // 2 cout * 16 pixels * 1 chunk = 32 ops, 9 cycles each (single-cycle IPU).
  EXPECT_EQ(stats.fp_ops, 32);
  EXPECT_EQ(stats.cycles, 32 * 9);
}

TEST(ConvReference, RejectsChannelMismatch) {
  // A 3-channel input against 4-channel filters would read past the filter
  // bank; the check holds in Release builds too.
  const Tensor in(3, 4, 4);
  const FilterBank f(2, 4, 3, 3);
  EXPECT_THROW(conv_reference(in, f, ConvSpec{}), std::invalid_argument);
}

TEST(CompareOutputs, RejectsSizeMismatch) {
  // A test tensor longer than the reference would read past the reference.
  const Tensor small(1, 2, 2);
  const Tensor large(1, 3, 3);
  EXPECT_THROW(compare_outputs(large, small), std::invalid_argument);
  EXPECT_THROW(compare_outputs(small, large), std::invalid_argument);
}

TEST(Pooling, ReluAndMaxpool) {
  Tensor t(1, 2, 2);
  t.data = {-1.0, 2.0, 3.0, -4.0};
  const Tensor r = relu(t);
  EXPECT_EQ(r.data[0], 0.0);
  EXPECT_EQ(r.data[1], 2.0);
  const Tensor p = maxpool2(t);
  ASSERT_EQ(p.size(), 1u);
  EXPECT_EQ(p.data[0], 3.0);
}

}  // namespace
}  // namespace mpipu
