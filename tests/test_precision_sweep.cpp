// Parameterized property sweeps over the (adder width, input count,
// accumulation destination) grid -- the quantitative backbone of §3.1
// expressed as testable thresholds.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <string>
#include <vector>

#include "analysis/error_metrics.h"
#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"
#include "workload/distributions.h"

namespace mpipu {
namespace {

// --- Accuracy thresholds per destination format -------------------------------

using SweepParam = std::tuple<int /*w*/, int /*n*/>;

class PrecisionSweep : public ::testing::TestWithParam<SweepParam> {
 protected:
  static constexpr int kTrials = 800;

  /// Median contaminated bits of IPU(w) vs exact, rounded to AccF.
  template <FpFormat AccF>
  double median_contamination(int w, int n, uint64_t seed) {
    Rng rng(seed);
    DatapathConfig cfg;
    cfg.n_inputs = n;
    cfg.adder_tree_width = w;
    cfg.software_precision = w;
    cfg.multi_cycle = false;
    Ipu ipu(cfg);
    std::vector<double> contam;
    for (int t = 0; t < kTrials; ++t) {
      const auto a = sample_fp16(rng, ValueDist::kLaplace, 1.0, n);
      const auto b = sample_fp16(rng, ValueDist::kLaplace, 1.0, n);
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      const auto got = Soft<AccF>::round_from_fixed(ipu.read_raw());
      const auto want = Soft<AccF>::round_from_fixed(exact_fp_inner_product<kFp16Format>(a, b));
      contam.push_back(
          static_cast<double>(contaminated_bits(got.raw_bits(), want.raw_bits(), AccF)));
    }
    return median(contam);
  }
};

TEST_P(PrecisionSweep, SixteenBitsSufficeForFp16Accumulation) {
  const auto [w, n] = GetParam();
  const double med = median_contamination<kFp16Format>(w, n, 0xABC + static_cast<uint64_t>(w));
  if (w >= 16) {
    EXPECT_EQ(med, 0.0) << "w=" << w << " n=" << n;
  }
  if (w <= 8) {
    EXPECT_GT(med, 0.0) << "w=" << w << " n=" << n;  // visibly contaminated
  }
}

TEST_P(PrecisionSweep, TwentyEightBitsSufficeForFp32Accumulation) {
  const auto [w, n] = GetParam();
  const double med = median_contamination<kFp32Format>(w, n, 0xDEF + static_cast<uint64_t>(w));
  if (w >= 28) {
    EXPECT_EQ(med, 0.0) << "w=" << w << " n=" << n;
  }
  if (w <= 12) {
    EXPECT_GT(med, 3.0) << "w=" << w << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, PrecisionSweep,
    ::testing::Combine(::testing::Values(8, 12, 16, 20, 28, 33),
                       ::testing::Values(8, 16, 32)),
    [](const auto& inst) {
      std::string name = "w";
      name += std::to_string(std::get<0>(inst.param));
      name += "_n";
      name += std::to_string(std::get<1>(inst.param));
      return name;
    });

// --- MC/SC equivalence over the full grid --------------------------------------

class McScEquivalence : public ::testing::TestWithParam<SweepParam> {};

TEST_P(McScEquivalence, McIpuEqualsWideSingleCycleAtSameSoftwarePrecision) {
  // MC-IPU(w) with software precision P computes the same value as a
  // single-cycle IPU whose window covers P fully (w' = P + 10), for every
  // (w, n) -- the guarantee that lets designers shrink adder trees freely.
  const auto [w, n] = GetParam();
  if (w - 9 < 1 || w > 28) GTEST_SKIP();
  const int P = 20;
  DatapathConfig mc;
  mc.n_inputs = n;
  mc.adder_tree_width = w;
  mc.software_precision = P;
  mc.multi_cycle = true;
  mc.accumulator.frac_bits = 100;
  mc.accumulator.lossless = true;
  DatapathConfig sc = mc;
  sc.adder_tree_width = P + 10;
  sc.multi_cycle = false;
  Ipu mc_ipu(mc), sc_ipu(sc);
  Rng rng(0xE0 + static_cast<uint64_t>(w) * 31 + static_cast<uint64_t>(n));
  for (int t = 0; t < 500; ++t) {
    std::vector<Fp16> a, b;
    while (static_cast<int>(a.size()) < n) {
      const Fp16 fa = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
      const Fp16 fb = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
      if (fa.is_finite() && fb.is_finite()) {
        a.push_back(fa);
        b.push_back(fb);
      }
    }
    mc_ipu.reset_accumulator();
    sc_ipu.reset_accumulator();
    mc_ipu.fp_accumulate<kFp16Format>(a, b);
    sc_ipu.fp_accumulate<kFp16Format>(a, b);
    ASSERT_TRUE(mc_ipu.read_raw() == sc_ipu.read_raw()) << "w=" << w << " n=" << n
                                                        << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, McScEquivalence,
    ::testing::Combine(::testing::Values(10, 12, 16, 24, 28), ::testing::Values(4, 16)),
    [](const auto& inst) {
      std::string name = "w";
      name += std::to_string(std::get<0>(inst.param));
      name += "_n";
      name += std::to_string(std::get<1>(inst.param));
      return name;
    });

// --- Error scales as predicted by the window bound ------------------------------

TEST(PrecisionScaling, MeanErrorHalvesPerExtraWindowBit) {
  // Section 3.1's exponential error decay: mean |err| of IPU(w) vs exact
  // drops ~2x per extra bit of w (until exactness).
  Rng rng(0xBEE);
  std::vector<double> means;
  for (int w : {10, 12, 14, 16, 18, 20}) {
    DatapathConfig cfg;
    cfg.n_inputs = 16;
    cfg.adder_tree_width = w;
    cfg.software_precision = w;
    cfg.multi_cycle = false;
    cfg.accumulator.frac_bits = 100;
    cfg.accumulator.lossless = true;
    Ipu ipu(cfg);
    double total = 0.0;
    for (int t = 0; t < 1500; ++t) {
      const auto a = sample_fp16(rng, ValueDist::kNormal, 1.0, 16);
      const auto b = sample_fp16(rng, ValueDist::kNormal, 1.0, 16);
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      total += absolute_error(ipu.read_raw(), exact_fp_inner_product<kFp16Format>(a, b));
    }
    means.push_back(total / 1500.0);
  }
  for (size_t i = 1; i < means.size(); ++i) {
    const double ratio = means[i - 1] / means[i];  // per 2 bits of w
    EXPECT_GT(ratio, 2.0) << i;   // at least ~1 bit/bit of decay
    EXPECT_LT(ratio, 32.0) << i;  // and no cliff (masking steepens the tail)
  }
}

}  // namespace
}  // namespace mpipu
