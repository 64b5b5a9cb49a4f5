// Tests for Appendix B features: hybrid FP x INT operation and the custom
// FP formats (BFloat16, TF32) on the same nibble datapath.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"

namespace mpipu {
namespace {

AccumulatorConfig unbounded_acc() {
  AccumulatorConfig acc;
  acc.frac_bits = 100;
  acc.lossless = true;
  return acc;
}

// --- Hybrid FP16 x INT -------------------------------------------------------

class HybridTest : public ::testing::TestWithParam<int> {};  // param: b_bits

TEST_P(HybridTest, MatchesExactRealReference) {
  const int b_bits = GetParam();
  Rng rng(static_cast<uint64_t>(b_bits) * 77);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 38;
  cfg.software_precision = 58;
  cfg.multi_cycle = false;
  cfg.accumulator = unbounded_acc();
  Ipu ipu(cfg);
  for (int t = 0; t < 1000; ++t) {
    std::vector<Fp16> a;
    std::vector<int32_t> q;
    double expect = 0.0;
    for (int k = 0; k < 16; ++k) {
      a.push_back(Fp16::from_double(rng.normal(0.0, 2.0)));
      q.push_back(static_cast<int32_t>(
          rng.uniform_int(-(int64_t{1} << (b_bits - 1)), (int64_t{1} << (b_bits - 1)) - 1)));
      expect += a.back().to_double() * q.back();
    }
    ipu.reset_accumulator();
    const int cycles = ipu.fp_int_accumulate<kFp16Format>(a, q, b_bits);
    EXPECT_EQ(cycles, 3 * int_nibble_count(b_bits));
    // The wide datapath is lossless: result equals the real-valued sum
    // exactly (it fits a double here: 11-bit x b_bits products).
    EXPECT_DOUBLE_EQ(ipu.read_raw().to_double_value(), expect) << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, HybridTest, ::testing::Values(4, 8, 12),
                         [](const auto& inst) {
                           return "int" + std::to_string(inst.param);
                         });

TEST(HybridTest2, UnsignedWeights) {
  Rng rng(99);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  cfg.adder_tree_width = 38;
  cfg.software_precision = 58;
  cfg.multi_cycle = false;
  cfg.accumulator = unbounded_acc();
  Ipu ipu(cfg);
  std::vector<Fp16> a;
  std::vector<int32_t> q;
  double expect = 0.0;
  for (int k = 0; k < 8; ++k) {
    a.push_back(Fp16::from_double(rng.normal(0.0, 1.0)));
    q.push_back(static_cast<int32_t>(rng.uniform_int(0, 255)));
    expect += a.back().to_double() * q.back();
  }
  ipu.fp_int_accumulate<kFp16Format>(a, q, 8, /*b_unsigned=*/true);
  EXPECT_DOUBLE_EQ(ipu.read_raw().to_double_value(), expect);
}

TEST(HybridTest2, McModeAgreesWithSingleCycle) {
  Rng rng(100);
  DatapathConfig mc;
  mc.n_inputs = 8;
  mc.adder_tree_width = 12;
  mc.software_precision = 28;
  mc.multi_cycle = true;
  mc.accumulator = unbounded_acc();
  DatapathConfig sc = mc;
  sc.adder_tree_width = 38;
  sc.multi_cycle = false;
  Ipu ipu_mc(mc), ipu_sc(sc);
  for (int t = 0; t < 500; ++t) {
    std::vector<Fp16> a;
    std::vector<int32_t> q;
    for (int k = 0; k < 8; ++k) {
      a.push_back(Fp16::from_double(rng.laplace(0.0, 4.0)));
      q.push_back(static_cast<int32_t>(rng.uniform_int(-8, 7)));
    }
    ipu_mc.reset_accumulator();
    ipu_sc.reset_accumulator();
    ipu_mc.fp_int_accumulate<kFp16Format>(a, q, 4);
    ipu_sc.fp_int_accumulate<kFp16Format>(a, q, 4);
    EXPECT_TRUE(ipu_mc.read_raw() == ipu_sc.read_raw()) << t;
  }
}

TEST(HybridTest2, Int4WeightsCostThreeIterations) {
  // FP16 x INT4: 3 FP nibbles x 1 INT nibble = 3 iterations -- a third of
  // the FP16 x FP16 cost, the hybrid efficiency the paper motivates.
  DatapathConfig cfg;
  cfg.n_inputs = 4;
  Ipu ipu(cfg);
  const std::vector<Fp16> a(4, Fp16::one());
  const std::vector<int32_t> q(4, 3);
  EXPECT_EQ(ipu.fp_int_accumulate<kFp16Format>(a, q, 4), 3);
  EXPECT_EQ(ipu.read_fp<kFp32Format>().to_double(), 12.0);
}

// --- BFloat16 / TF32 ----------------------------------------------------------

template <typename T>
class CustomFormatTest : public ::testing::Test {};

using CustomFormats = ::testing::Types<Bf16, Tf32>;
TYPED_TEST_SUITE(CustomFormatTest, CustomFormats);

TYPED_TEST(CustomFormatTest, WideDatapathMatchesExactReference) {
  // Appendix B: supporting 8-bit exponents only needs a wider EHU range;
  // the nibble datapath is unchanged.  Keep exponents moderate so the exact
  // FixedPoint reference stays within int128.
  Rng rng(200);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  cfg.adder_tree_width = 40;
  cfg.software_precision = 40;
  cfg.multi_cycle = false;
  cfg.accumulator.frac_bits = 100;
  cfg.accumulator.lossless = true;
  Ipu ipu(cfg);
  for (int t = 0; t < 2000; ++t) {
    std::vector<TypeParam> a, b;
    for (int k = 0; k < 8; ++k) {
      a.push_back(TypeParam::from_double(rng.laplace(0.0, 8.0)));
      b.push_back(TypeParam::from_double(rng.laplace(0.0, 8.0)));
    }
    ipu.reset_accumulator();
    ipu.fp_accumulate<TypeParam::format>(a, b);
    EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<TypeParam::format>(a, b)) << t;
  }
}

TYPED_TEST(CustomFormatTest, IterationCountMatchesNibbleCount) {
  DatapathConfig cfg;
  cfg.n_inputs = 2;
  Ipu ipu(cfg);
  const std::vector<TypeParam> a(2, TypeParam::one()), b(2, TypeParam::one());
  const int k = fp_nibble_count(TypeParam::format);
  EXPECT_EQ(ipu.fp_accumulate<TypeParam::format>(a, b), k * k);
}

TEST(CustomFormats, Bf16CheaperThanFp16AndTf32) {
  // BF16's 8-bit significand fits 2 nibbles -> 4 iterations vs 9.
  DatapathConfig cfg;
  cfg.n_inputs = 1;
  Ipu ipu(cfg);
  const std::vector<Bf16> b16(1, Bf16::one());
  const std::vector<Tf32> t32(1, Tf32::one());
  const std::vector<Fp16> f16(1, Fp16::one());
  EXPECT_EQ(ipu.fp_accumulate<kBf16Format>(b16, b16), 4);
  EXPECT_EQ(ipu.fp_accumulate<kTf32Format>(t32, t32), 9);
  EXPECT_EQ(ipu.fp_accumulate<kFp16Format>(f16, f16), 9);
}

TEST(CustomFormats, ExponentRangeRequiresWiderEhu) {
  // The BF16/TF32 product-exponent span is ~2x FP16's 58 bits: the reason
  // Appendix B says "larger shift units and adders might be needed".
  const int fp16_span = 2 * (kFp16Format.max_exp() - kFp16Format.min_exp());
  const int bf16_span = 2 * (kBf16Format.max_exp() - kBf16Format.min_exp());
  EXPECT_EQ(fp16_span, 58);
  EXPECT_GT(bf16_span, 2 * fp16_span);
}

}  // namespace
}  // namespace mpipu
