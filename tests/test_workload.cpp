// Tests for distributions, quantizer and the network zoo.
#include <gtest/gtest.h>

#include <cmath>

#include "workload/distributions.h"
#include "workload/networks.h"
#include "workload/quantizer.h"

namespace mpipu {
namespace {

// --- Distributions -----------------------------------------------------------

class DistTest : public ::testing::TestWithParam<ValueDist> {};

TEST_P(DistTest, SamplesAreFiniteAndSeedDeterministic) {
  Rng r1(9), r2(9);
  for (int i = 0; i < 2000; ++i) {
    const double a = sample_value(r1, GetParam(), 1.0);
    const double b = sample_value(r2, GetParam(), 1.0);
    EXPECT_TRUE(std::isfinite(a));
    EXPECT_EQ(a, b);
  }
}

TEST_P(DistTest, ScaleScalesMagnitude) {
  Rng r1(10), r2(10);
  double m1 = 0.0, m2 = 0.0;
  for (int i = 0; i < 5000; ++i) {
    m1 += std::fabs(sample_value(r1, GetParam(), 1.0));
    m2 += std::fabs(sample_value(r2, GetParam(), 4.0));
  }
  EXPECT_NEAR(m2 / m1, 4.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(AllDists, DistTest,
                         ::testing::Values(ValueDist::kLaplace, ValueDist::kNormal,
                                           ValueDist::kUniform, ValueDist::kHalfNormal,
                                           ValueDist::kBackwardWide));

TEST(Distributions, LaplaceMatchesTheoreticalMoments) {
  Rng rng(11);
  double sum = 0.0, abs_sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.laplace(0.0, 2.0);
    sum += v;
    abs_sum += std::fabs(v);
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);       // mean 0
  EXPECT_NEAR(abs_sum / n, 2.0, 0.05);   // E|X| = b
}

TEST(Distributions, HalfNormalIsNonNegative) {
  Rng rng(12);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_GE(sample_value(rng, ValueDist::kHalfNormal, 1.0), 0.0);
  }
}

TEST(Distributions, BackwardWideSpansManyOctaves) {
  Rng rng(13);
  double min_mag = 1e30, max_mag = 0.0;
  for (int i = 0; i < 20000; ++i) {
    const double m = std::fabs(sample_value(rng, ValueDist::kBackwardWide, 1.0));
    min_mag = std::min(min_mag, m);
    max_mag = std::max(max_mag, m);
  }
  EXPECT_GT(std::log2(max_mag / min_mag), 15.0);  // ~18 octaves by design
}

// --- Quantizer -----------------------------------------------------------------

TEST(Quantizer, FitSymmetricCoversMaxMagnitude) {
  const std::vector<double> vals = {-3.0, 1.0, 2.5};
  const QuantParams qp = fit_symmetric(vals, 8);
  EXPECT_EQ(qp.qmin(), -128);
  EXPECT_EQ(qp.qmax(), 127);
  EXPECT_DOUBLE_EQ(qp.scale, 3.0 / 127.0);
  const auto q = quantize(vals, qp);
  EXPECT_EQ(q[0], -127);
  EXPECT_EQ(q[2], 106);
}

TEST(Quantizer, UnsignedRange) {
  const std::vector<double> vals = {0.0, 1.0, 4.0};
  const QuantParams qp = fit_symmetric(vals, 4, /*is_unsigned=*/true);
  EXPECT_EQ(qp.qmin(), 0);
  EXPECT_EQ(qp.qmax(), 15);
  const auto q = quantize(vals, qp);
  EXPECT_EQ(q[2], 15);
}

TEST(Quantizer, RoundTripErrorBoundedByHalfStep) {
  Rng rng(16);
  for (int bits : {4, 8, 12}) {
    std::vector<double> vals;
    for (int i = 0; i < 500; ++i) vals.push_back(rng.normal(0.0, 1.0));
    const QuantParams qp = fit_symmetric(vals, bits);
    const auto q = quantize(vals, qp);
    const auto back = dequantize(q, qp);
    for (size_t i = 0; i < vals.size(); ++i) {
      EXPECT_LE(std::fabs(back[i] - vals[i]), qp.scale * 0.5 + 1e-12) << bits;
    }
  }
}

TEST(Quantizer, SaturatesOutOfRange) {
  QuantParams qp;
  qp.scale = 1.0;
  qp.bits = 4;
  const std::vector<double> vals = {100.0, -100.0};
  const auto q = quantize(vals, qp);
  EXPECT_EQ(q[0], 7);
  EXPECT_EQ(q[1], -8);
}

TEST(Quantizer, AccumulatorDequantization) {
  QuantParams qa;
  qa.scale = 0.5;
  QuantParams qb;
  qb.scale = 0.25;
  EXPECT_DOUBLE_EQ(dequantize_accumulator(16, qa, qb), 2.0);
}

// --- Networks --------------------------------------------------------------------

TEST(Networks, ResNet18MacCountIsRight) {
  // ResNet-18 conv MACs for 224x224 ~ 1.81e9 (published FLOPs ~3.6G).
  const Network net = resnet18_forward();
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 1.81e9, 0.1e9);
}

TEST(Networks, ResNet50MacCountIsRight) {
  // ResNet-50 conv MACs ~ 3.8e9-4.1e9.
  const Network net = resnet50_forward();
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 3.95e9, 0.35e9);
}

TEST(Networks, InceptionV3MacCountIsRight) {
  // InceptionV3 conv MACs ~ 5.7e9 (published ~5.7G MACs for 299x299).
  const Network net = inception_v3_forward();
  EXPECT_NEAR(static_cast<double>(net.total_macs()), 5.7e9, 0.8e9);
}

TEST(Networks, BackwardMirrorsForwardShapes) {
  const Network fwd = resnet18_forward();
  const Network bwd = resnet18_backward();
  // conv1 has no data gradient; everything else appears once, transposed.
  EXPECT_EQ(bwd.layers.size(), fwd.layers.size() - 1);
  for (const auto& g : bwd.layers) {
    EXPECT_GT(g.cin, 0);
    EXPECT_GT(g.cout, 0);
    EXPECT_EQ(g.stride, 1);
  }
  // Total backward MACs are within 2x of forward (equal up to stride edges).
  const double ratio = static_cast<double>(bwd.total_macs()) /
                       static_cast<double>(fwd.total_macs() - fwd.layers[0].macs());
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 2.0);
}

TEST(Networks, StudyCasesMatchPaperSection41) {
  const auto cases = paper_study_cases();
  ASSERT_EQ(cases.size(), 4u);
  EXPECT_EQ(cases[0].name, "resnet18-fwd");
  EXPECT_EQ(cases[1].name, "resnet50-fwd");
  EXPECT_EQ(cases[2].name, "inceptionv3-fwd");
  EXPECT_EQ(cases[3].name, "resnet18-bwd");
  // Backward tensors use the wide-dynamic-range generator.
  EXPECT_EQ(static_cast<int>(cases[3].tensor_stats.activation_dist),
            static_cast<int>(ValueDist::kBackwardWide));
}

TEST(Networks, AllLayersWellFormed) {
  for (const auto& net : paper_study_cases()) {
    for (const auto& l : net.layers) {
      EXPECT_GT(l.cin, 0) << net.name << " " << l.name;
      EXPECT_GT(l.cout, 0);
      EXPECT_GT(l.kh, 0);
      EXPECT_GT(l.kw, 0);
      EXPECT_GT(l.hout, 0);
      EXPECT_GT(l.wout, 0);
      EXPECT_GE(l.repeat, 1);
      EXPECT_GT(l.macs(), 0);
    }
  }
}

}  // namespace
}  // namespace mpipu
