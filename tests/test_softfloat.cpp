// Unit and property tests for the soft floating point substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "softfloat/softfloat.h"

namespace mpipu {
namespace {

// --- Classification & field plumbing ---------------------------------------

TEST(Fp16, ClassifiesSpecialValues) {
  EXPECT_TRUE(Fp16::zero().is_zero());
  EXPECT_TRUE(Fp16::zero(true).is_zero());
  EXPECT_TRUE(Fp16::zero(true).sign());
  EXPECT_TRUE(Fp16::infinity().is_inf());
  EXPECT_TRUE(Fp16::infinity(true).is_inf());
  EXPECT_TRUE(Fp16::quiet_nan().is_nan());
  EXPECT_TRUE(Fp16::min_subnormal().is_subnormal());
  EXPECT_TRUE(Fp16::min_normal().is_normal());
  EXPECT_TRUE(Fp16::max_finite().is_normal());
  EXPECT_TRUE(Fp16::one().is_normal());
}

TEST(Fp16, KnownEncodings) {
  EXPECT_EQ(Fp16::one().raw_bits(), 0x3C00u);
  EXPECT_EQ(Fp16::infinity().raw_bits(), 0x7C00u);
  EXPECT_EQ(Fp16::max_finite().raw_bits(), 0x7BFFu);
  EXPECT_EQ(Fp16::min_subnormal().raw_bits(), 0x0001u);
  EXPECT_EQ(Fp16::min_normal().raw_bits(), 0x0400u);
  EXPECT_EQ(Fp16::from_double(-2.0).raw_bits(), 0xC000u);
  EXPECT_EQ(Fp16::from_double(65504.0).raw_bits(), 0x7BFFu);
  EXPECT_EQ(Fp16::from_double(0.5).raw_bits(), 0x3800u);
}

TEST(Fp16, FormatConstants) {
  EXPECT_EQ(kFp16Format.bias(), 15);
  EXPECT_EQ(kFp16Format.min_exp(), -14);
  EXPECT_EQ(kFp16Format.max_exp(), 15);
  EXPECT_EQ(kFp16Format.sig_bits(), 11);
  EXPECT_EQ(kFp32Format.bias(), 127);
  EXPECT_EQ(kBf16Format.bias(), 127);
  EXPECT_EQ(kBf16Format.sig_bits(), 8);
  EXPECT_EQ(kTf32Format.sig_bits(), 11);
}

TEST(Fp16, DecodeMagnitudeAndExponent) {
  // 1.0: magnitude 1.0000000000b = 1024, exp 0.
  Decoded d = Fp16::one().decode();
  EXPECT_FALSE(d.sign);
  EXPECT_EQ(d.exp, 0);
  EXPECT_EQ(d.magnitude, 1024);
  // Smallest subnormal: magnitude 1 at exp -14.
  d = Fp16::min_subnormal().decode();
  EXPECT_EQ(d.exp, -14);
  EXPECT_EQ(d.magnitude, 1);
  // Max finite: magnitude 2047 at exp 15.
  d = Fp16::max_finite().decode();
  EXPECT_EQ(d.exp, 15);
  EXPECT_EQ(d.magnitude, 2047);
}

TEST(Fp16, ProductExponentRangeMatchesPaper) {
  // Paper: FP16 product exponents span [-28, 30], so alignments reach 58.
  const int lo = Fp16::min_subnormal().decode().exp + Fp16::min_subnormal().decode().exp;
  const int hi = Fp16::max_finite().decode().exp + Fp16::max_finite().decode().exp;
  EXPECT_EQ(lo, -28);
  EXPECT_EQ(hi, 30);
  EXPECT_EQ(hi - lo, 58);
}

// --- Round trips against the host oracle -----------------------------------

TEST(Fp16, ExhaustiveToDoubleFromDoubleRoundTrip) {
  // Every finite FP16 encoding must survive fp16 -> double -> fp16.
  for (uint32_t raw = 0; raw < 0x10000; ++raw) {
    const Fp16 f = Fp16::from_bits(raw);
    if (f.is_nan()) continue;
    const Fp16 back = Fp16::from_double(f.to_double());
    EXPECT_EQ(back.raw_bits(), f.raw_bits()) << "raw=" << raw;
  }
}

TEST(Bf16, ExhaustiveRoundTrip) {
  for (uint32_t raw = 0; raw < 0x10000; ++raw) {
    const Bf16 f = Bf16::from_bits(raw);
    if (f.is_nan()) continue;
    EXPECT_EQ(Bf16::from_double(f.to_double()).raw_bits(), f.raw_bits());
  }
}

TEST(Fp32, RandomRoundTripAgainstHostFloat) {
  Rng rng(1);
  for (int i = 0; i < 200000; ++i) {
    const auto raw = static_cast<uint32_t>(rng.next_u64());
    float host;
    std::memcpy(&host, &raw, 4);
    if (std::isnan(host)) continue;
    const Fp32 f = Fp32::from_bits(raw);
    EXPECT_EQ(f.to_double(), static_cast<double>(host)) << raw;
    EXPECT_EQ(Fp32::from_double(static_cast<double>(host)).raw_bits(), raw);
  }
}

TEST(Fp16, FromDoubleMatchesHostRounding) {
  // The host converts double -> float with RNE; for values whose double
  // representation is exact, double -> fp16 must agree with the two-step
  // double -> float -> fp16 when no double rounding occurs.  Use a directed
  // corpus of hard cases instead: ties, subnormal boundaries, overflow.
  struct Case {
    double in;
    uint32_t expect;
  };
  const Case cases[] = {
      {0.0, 0x0000},        {-0.0, 0x8000},
      {1.0, 0x3C00},        {1.0009765625, 0x3C01},  // 1 + 2^-10
      {1.00048828125, 0x3C00},                        // tie 1 + 2^-11 -> even
      {1.0014648437500, 0x3C02},                      // tie -> even (up)
      {65504.0, 0x7BFF},    {65520.0, 0x7C00},        // tie at inf boundary
      {65519.9, 0x7BFF},    {1e6, 0x7C00},
      {5.960464477539063e-08, 0x0001},                // min subnormal
      {2.9802322387695312e-08, 0x0000},               // tie subnormal -> 0
      {2.98023223876953125e-08 * 1.0000001, 0x0001},
      {6.097555160522461e-05, 0x03FF},                // max subnormal
      {6.103515625e-05, 0x0400},                      // min normal
      // Threshold neighbours, negative ties, double subnormals, NaN.
      {std::nextafter(65520.0, 0.0), 0x7BFF},  {-65520.0, 0xFC00},
      {std::nextafter(std::ldexp(1.0, -25), 1.0), 0x0001},
      {std::nextafter(std::ldexp(1.0, -25), 0.0), 0x0000},
      {-std::ldexp(1.0, -25), 0x8000},                // signed zero
      {std::nextafter(std::ldexp(1.0, -14), 0.0), 0x0400},
      {std::numeric_limits<double>::denorm_min(), 0x0000},
      {-std::numeric_limits<double>::denorm_min(), 0x8000},
      {-std::nan(""), 0x7E00},                        // NaN loses its sign
  };
  for (const auto& c : cases) {
    EXPECT_EQ(Fp16::from_double(c.in).raw_bits(), c.expect) << c.in;
  }
}

TEST(Fp16, NanAndInfHandling) {
  EXPECT_TRUE(Fp16::from_double(std::nan("")).is_nan());
  EXPECT_TRUE(Fp16::from_double(std::numeric_limits<double>::infinity()).is_inf());
  EXPECT_TRUE(Fp16::from_double(-std::numeric_limits<double>::infinity()).is_inf());
  EXPECT_TRUE(Fp16::from_double(-std::numeric_limits<double>::infinity()).sign());
  EXPECT_TRUE(std::isnan(Fp16::quiet_nan().to_double()));
}

// --- FixedPoint rounding path ----------------------------------------------

TEST(RoundFromFixed, ExactValuesUnchanged) {
  for (uint32_t raw = 0; raw < 0x10000; ++raw) {
    const Fp16 f = Fp16::from_bits(raw);
    // FixedPoint has no signed zero, so -0 legitimately round-trips to +0.
    if (!f.is_finite() || f.is_zero()) continue;
    EXPECT_EQ(Fp16::round_from_fixed(f.to_fixed()).raw_bits(), raw);
  }
}

TEST(RoundFromFixed, RoundsToNearestEven) {
  // 1 + 2^-11 is exactly between 1.0 and 1+2^-10: ties to even -> 1.0.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 11) + 1, -11)).raw_bits(), 0x3C00u);
  // 1 + 3*2^-11 is between 1+2^-10 and 1+2^-9: ties to even -> 1+2^-9.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 11) + 3, -11)).raw_bits(), 0x3C02u);
  // Just above the tie rounds up.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 12) + 3, -12)).raw_bits(), 0x3C01u);
}

TEST(RoundFromFixed, CarryPropagationRenormalizes) {
  // 1.1111111111|1 b (11 ones after implicit bit) rounds up to 2.0.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 12) - 1, -11)).raw_bits(), 0x4000u);
  // Max finite + half ULP ties to even -> inf.
  const FixedPoint tie(0xFFF, 15 - 11);  // 2047.5 * 2^5
  EXPECT_TRUE(Fp16::round_from_fixed(tie).is_inf());
}

TEST(RoundFromFixed, SubnormalRange) {
  // 0.5 * min_subnormal ties to zero (even).
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint(1, -25)).raw_bits(), 0x0000u);
  // 0.75 * min_subnormal rounds to min_subnormal.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint(3, -26)).raw_bits(), 0x0001u);
  // 1.5 * min_subnormal ties to even -> 2 quanta.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint(3, -25)).raw_bits(), 0x0002u);
  // Max subnormal + half quantum ties up into min normal.
  EXPECT_EQ(Fp16::round_from_fixed(FixedPoint((1 << 11) - 1, -25)).raw_bits(), 0x0400u);
}

TEST(RoundFromFixed, RandomAgainstHostDouble) {
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    const int64_t mant = rng.uniform_int(-(1 << 30), 1 << 30);
    const int lsb = static_cast<int>(rng.uniform_int(-40, 10));
    const FixedPoint fx(mant, lsb);
    const double exact = fx.to_double_value();
    // Host double holds (31-bit mantissa, small exponent) exactly, and
    // from_double implements the same RNE: results must agree bit for bit.
    EXPECT_EQ(Fp16::round_from_fixed(fx).raw_bits(), Fp16::from_double(exact).raw_bits())
        << mant << " * 2^" << lsb;
    EXPECT_EQ(Fp32::round_from_fixed(fx).raw_bits(), Fp32::from_double(exact).raw_bits());
  }
}

// --- FixedPoint algebra ------------------------------------------------------

TEST(FixedPoint, AdditionAndAlignment) {
  const FixedPoint a(3, 2);    // 12
  const FixedPoint b(5, -1);   // 2.5
  EXPECT_EQ((a + b).to_double_value(), 14.5);
  EXPECT_EQ((a - b).to_double_value(), 9.5);
  EXPECT_TRUE(FixedPoint(4, 0) == FixedPoint(1, 2));
}

TEST(FixedPoint, TruncationFloors) {
  EXPECT_EQ(FixedPoint(7, 0).truncated_to_lsb(1).mantissa(), 3);
  EXPECT_EQ(FixedPoint(-7, 0).truncated_to_lsb(1).mantissa(), -4);  // floor
  EXPECT_EQ(FixedPoint(7, 0).truncated_to_lsb(-2).mantissa(), 28);  // exact
}

// --- Parameterized sweep over formats ---------------------------------------

template <typename T>
class SoftFormatTest : public ::testing::Test {};

using Formats = ::testing::Types<Fp16, Bf16, Tf32, Fp32>;
TYPED_TEST_SUITE(SoftFormatTest, Formats);

TYPED_TEST(SoftFormatTest, DecodeEncodeIdentityOnRandomFiniteValues) {
  Rng rng(42);
  for (int i = 0; i < 20000; ++i) {
    const auto raw = static_cast<uint32_t>(rng.next_u64());
    const TypeParam f = TypeParam::from_bits(raw);
    if (!f.is_finite()) continue;
    const Decoded d = f.decode();
    const double v = std::ldexp(static_cast<double>(d.signed_magnitude()),
                                d.exp - TypeParam::format.man_bits);
    EXPECT_EQ(v, f.to_double());
    EXPECT_EQ(TypeParam::round_from_fixed(f.to_fixed()).raw_bits(), f.raw_bits());
  }
}

TYPED_TEST(SoftFormatTest, OrderingOfMagnitudeMatchesDouble) {
  Rng rng(43);
  for (int i = 0; i < 20000; ++i) {
    const TypeParam a = TypeParam::from_bits(static_cast<uint32_t>(rng.next_u64()));
    const TypeParam b = TypeParam::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (!a.is_finite() || !b.is_finite()) continue;
    // FixedPoint is backed by int128: exact subtraction needs the two
    // values' significant bits to span < 128 bits.  (The datapath only ever
    // subtracts FP16-product-scale values, far inside that limit.)
    if (!a.is_zero() && !b.is_zero() &&
        std::abs(a.decode().exp - b.decode().exp) > 90) {
      continue;
    }
    const FixedPoint d = a.to_fixed() - b.to_fixed();
    const double dd = a.to_double() - b.to_double();
    EXPECT_EQ(d.mantissa() > 0, dd > 0);
    EXPECT_EQ(d.mantissa() == 0, dd == 0);
  }
}

// --- from_double against the FixedPoint oracle --------------------------------
//
// from_double rounds straight from the double's bits.  The oracle is the
// exact FixedPoint route: the 53-bit frexp significand at 2^(e-53),
// rounded by round_from_fixed (the accumulator read-back path).  FixedPoint
// has no signed zero, inf or NaN, so those inputs are mapped directly.

template <typename S>
S oracle_from_double(double v) {
  if (std::isnan(v)) return S::quiet_nan();
  if (std::isinf(v)) return S::infinity(v < 0);
  if (v == 0.0) return S::zero(std::signbit(v));
  int e;
  const double frac = std::frexp(v, &e);
  return S::round_from_fixed(
      FixedPoint(static_cast<int64_t>(std::ldexp(frac, 53)), e - 53));
}

double double_from_bits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

uint64_t bits_of(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Compares from_double with the oracle on every value fed to it; keeps
/// the first few disagreements for the report.
template <typename S>
struct OracleCheck {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  std::string first;

  void operator()(double v) {
    ++checked;
    const uint32_t got = S::from_double(v).raw_bits();
    const uint32_t want = oracle_from_double<S>(v).raw_bits();
    if (got == want) return;
    if (++mismatches <= 5) {
      char line[96];
      std::snprintf(line, sizeof(line),
                    "  double 0x%016llx: got 0x%08x, oracle 0x%08x\n",
                    static_cast<unsigned long long>(bits_of(v)), got, want);
      first += line;
    }
  }

  void expect_clean() const {
    EXPECT_EQ(mismatches, 0u) << "of " << checked << " inputs:\n" << first;
  }
};

/// Feeds every finite value of the 16-bit format G, the midpoint between
/// each value and its next larger-magnitude neighbour (the one past
/// max_finite included), and the doubles one ulp either side of both.
template <typename G, typename Fn>
void for_each_grid_point(Fn&& fn) {
  const auto with_neighbours = [&](double x) {
    fn(x);
    fn(std::nextafter(x, -INFINITY));
    fn(std::nextafter(x, INFINITY));
  };
  for (uint32_t raw = 0; raw < 0x10000; ++raw) {
    const G g = G::from_bits(raw);
    if (!g.is_finite()) continue;
    const double x = g.to_double();
    const G up = G::from_bits(raw + 1);
    const double next =
        up.is_finite()
            ? up.to_double()
            : std::ldexp(g.sign() ? -1.0 : 1.0, G::format.max_exp() + 1);
    with_neighbours(x);
    with_neighbours((x + next) / 2);  // exact: one more bit than G
  }
}

template <typename S, typename Fn>
void for_each_threshold(Fn&& fn) {
  constexpr FpFormat F = S::format;
  const double max = S::max_finite().to_double();
  const double overflow_tie = max + std::ldexp(1.0, F.max_exp() - F.man_bits - 1);
  const double min_sub = S::min_subnormal().to_double();
  const double min_normal = S::min_normal().to_double();
  for (const double t : {max, overflow_tie, min_sub, min_sub / 2,
                         1.5 * min_sub, min_normal, min_normal - min_sub / 2}) {
    for (const double v : {t, std::nextafter(t, 0.0), std::nextafter(t, INFINITY)}) {
      fn(v);
      fn(-v);
    }
  }
}

template <typename Fn>
void for_each_special(Fn&& fn) {
  for (const uint64_t bits : {
           0x0000000000000000ull,  // +0
           0x8000000000000000ull,  // -0
           0x7FF0000000000000ull,  // +inf
           0xFFF0000000000000ull,  // -inf
           0x7FF8000000000000ull,  // quiet NaN
           0xFFF8000000000000ull,  // negative quiet NaN
           0x7FF0000000000001ull,  // signalling NaN
           0x7FFFFFFFFFFFFFFFull,  // NaN, all payload bits
           0x0000000000000001ull,  // smallest double subnormal
           0x800FFFFFFFFFFFFFull,  // largest negative double subnormal
           0x0010000000000000ull,  // DBL_MIN
           0x7FEFFFFFFFFFFFFFull,  // DBL_MAX
           0xFFEFFFFFFFFFFFFFull,  // -DBL_MAX
       }) {
    fn(double_from_bits(bits));
  }
}

TYPED_TEST(SoftFormatTest, FromDoubleMatchesOracleOnGridsThresholdsAndSpecials) {
  OracleCheck<TypeParam> check;
  for_each_grid_point<Fp16>(check);
  for_each_grid_point<Bf16>(check);
  for_each_threshold<TypeParam>(check);
  for_each_special(check);
  check.expect_clean();
}

TYPED_TEST(SoftFormatTest, FromDoubleMatchesOracleOnRandomDoubles) {
  OracleCheck<TypeParam> check;
  Rng rng(44);
  // Whole-range bit patterns: mostly overflow and underflow.
  for (int i = 0; i < 10'000'000; ++i) check(double_from_bits(rng.next_u64()));
  // Exponents in [-40, 20]: the FP16 subnormal, normal and overflow
  // ranges, with random signs and 52-bit fractions.
  for (int i = 0; i < 10'000'000; ++i) {
    const uint64_t r = rng.next_u64();
    const auto e = static_cast<uint64_t>(1023 - 40 + static_cast<int>(r % 61));
    const uint64_t sign_and_fraction = rng.next_u64() & 0x800FFFFFFFFFFFFFull;
    check(double_from_bits(sign_and_fraction | (e << 52)));
  }
  check.expect_clean();
}

TEST(FromDoubleOracle, CustomFp8FormatsMatchTheOracle) {
  // Formats outside the library's four instantiate the same template.
  using E4M3 = Soft<FpFormat{4, 3}>;
  using E5M2 = Soft<FpFormat{5, 2}>;
  OracleCheck<E4M3> e4m3;
  OracleCheck<E5M2> e5m2;
  const auto both = [&](double v) {
    e4m3(v);
    e5m2(v);
  };
  for_each_grid_point<Fp16>(both);
  for_each_threshold<E4M3>(both);
  for_each_threshold<E5M2>(both);
  for_each_special(both);
  e4m3.expect_clean();
  e5m2.expect_clean();
}

/// Every float bit pattern, widened to double, through all four formats.
/// Opt-in (a few minutes on 4 cores): run test_softfloat with
/// --gtest_also_run_disabled_tests --gtest_filter='*Exhaustive*'.
TEST(FromDoubleOracle, DISABLED_ExhaustiveFloatBitPatterns) {
  const unsigned threads = std::max(1u, std::thread::hardware_concurrency());
  struct Part {
    OracleCheck<Fp16> fp16;
    OracleCheck<Bf16> bf16;
    OracleCheck<Tf32> tf32;
    OracleCheck<Fp32> fp32;
  };
  std::vector<Part> parts(threads);
  std::vector<std::thread> workers;
  constexpr uint64_t kPatterns = uint64_t{1} << 32;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&parts, t, threads] {
      Part& p = parts[t];
      const uint64_t begin = kPatterns * t / threads;
      const uint64_t end = kPatterns * (t + 1) / threads;
      for (uint64_t raw = begin; raw < end; ++raw) {
        float f;
        const auto raw32 = static_cast<uint32_t>(raw);
        std::memcpy(&f, &raw32, sizeof(f));
        const double v = f;
        p.fp16(v);
        p.bf16(v);
        p.tf32(v);
        p.fp32(v);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (const Part& p : parts) {
    p.fp16.expect_clean();
    p.bf16.expect_clean();
    p.tf32.expect_clean();
    p.fp32.expect_clean();
  }
}

}  // namespace
}  // namespace mpipu
