// Core datapath property tests: INT-mode exactness, FP-mode equivalence with
// the exact reference, Proposition 1, MC-IPU losslessness, cycle accounting.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"

namespace mpipu {
namespace {

// An accumulator wide enough that it never truncates: isolates the
// multiplier / shifter / adder-tree path from the architectural
// accumulator truncation.
AccumulatorConfig unbounded_acc() {
  AccumulatorConfig acc;
  acc.frac_bits = 100;  // keeps every datapath rescale a left shift
  acc.lossless = true;  // exact accumulation across operations
  return acc;
}

std::vector<Fp16> random_fp16_vec(Rng& rng, int n, double scale = 1.0) {
  std::vector<Fp16> v;
  v.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) v.push_back(Fp16::from_double(rng.normal(0.0, scale)));
  return v;
}

std::vector<Fp16> random_fp16_bits(Rng& rng, int n) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

// --- INT mode ----------------------------------------------------------------

struct IntModeParam {
  int a_bits, b_bits;
  bool a_unsigned, b_unsigned;
};

class IpuIntMode : public ::testing::TestWithParam<IntModeParam> {};

TEST_P(IpuIntMode, BitExactAgainstInt64Reference) {
  const auto p = GetParam();
  Rng rng(static_cast<uint64_t>(p.a_bits * 131 + p.b_bits * 17 + p.a_unsigned * 3 +
                                p.b_unsigned));
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 12;  // INT mode must be exact even at tiny w
  Ipu ipu(cfg);
  for (int trial = 0; trial < 300; ++trial) {
    ipu.reset_accumulator();
    std::vector<int32_t> a, b;
    int64_t expect = 0;
    const int depth = static_cast<int>(rng.uniform_int(1, 8));
    int cycles = 0;
    for (int d = 0; d < depth; ++d) {
      a.clear();
      b.clear();
      for (int k = 0; k < 16; ++k) {
        const int64_t alo = p.a_unsigned ? 0 : -(int64_t{1} << (p.a_bits - 1));
        const int64_t ahi = p.a_unsigned ? (int64_t{1} << p.a_bits) - 1
                                         : (int64_t{1} << (p.a_bits - 1)) - 1;
        const int64_t blo = p.b_unsigned ? 0 : -(int64_t{1} << (p.b_bits - 1));
        const int64_t bhi = p.b_unsigned ? (int64_t{1} << p.b_bits) - 1
                                         : (int64_t{1} << (p.b_bits - 1)) - 1;
        a.push_back(static_cast<int32_t>(rng.uniform_int(alo, ahi)));
        b.push_back(static_cast<int32_t>(rng.uniform_int(blo, bhi)));
      }
      expect += exact_int_inner_product(a, b);
      cycles += ipu.int_accumulate_reference(a, b, p.a_bits, p.b_bits, p.a_unsigned, p.b_unsigned);
    }
    EXPECT_EQ(ipu.read_int(), expect);
    // Cycle count: Ka * Kb nibble iterations per op.
    EXPECT_EQ(cycles, depth * int_nibble_count(p.a_bits) * int_nibble_count(p.b_bits));
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWidths, IpuIntMode,
    ::testing::Values(IntModeParam{4, 4, false, false}, IntModeParam{4, 4, true, true},
                      IntModeParam{4, 4, true, false}, IntModeParam{8, 4, false, false},
                      IntModeParam{8, 8, false, false}, IntModeParam{8, 8, true, true},
                      IntModeParam{8, 12, false, false}, IntModeParam{12, 12, false, false},
                      IntModeParam{16, 8, false, false}, IntModeParam{16, 16, false, false}),
    [](const auto& inst) {
      const auto& p = inst.param;
      std::string name = p.a_unsigned ? "u" : "s";
      name += std::to_string(p.a_bits);
      name += p.b_unsigned ? "xu" : "xs";
      name += std::to_string(p.b_bits);
      return name;
    });

TEST(IpuIntMode, PaperExampleInt8xInt12TakesSixIterations) {
  DatapathConfig cfg;
  Ipu ipu(cfg);
  const std::vector<int32_t> a(16, 100), b(16, -1000);
  EXPECT_EQ(ipu.int_accumulate_reference(a, b, 8, 12), 6);
  EXPECT_EQ(ipu.read_int(), 16 * 100 * -1000);
}

// --- FP mode: exactness of the wide datapath ----------------------------------

TEST(IpuFpMode, WideSingleCycleIpuMatchesExactReferenceBitForBit) {
  // IPU(80) with alignment allowance 58 and an unbounded accumulator must
  // reproduce the exact FP-IP: the window never truncates (Proposition 1:
  // 58 < 80-9) and neither does the accumulator.
  Rng rng(101);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 80;
  cfg.software_precision = 58;
  cfg.multi_cycle = false;
  cfg.accumulator = unbounded_acc();
  Ipu ipu(cfg);
  for (int t = 0; t < 3000; ++t) {
    const auto a = random_fp16_bits(rng, 16);
    const auto b = random_fp16_bits(rng, 16);
    ipu.reset_accumulator();
    ipu.fp_accumulate<kFp16Format>(a, b);
    const FixedPoint exact = exact_fp_inner_product<kFp16Format>(a, b);
    EXPECT_TRUE(ipu.read_raw() == exact) << "trial " << t;
    EXPECT_EQ(ipu.read_fp<kFp32Format>().raw_bits(),
              Fp32::round_from_fixed(exact).raw_bits());
    EXPECT_EQ(ipu.read_fp<kFp16Format>().raw_bits(),
              Fp16::round_from_fixed(exact).raw_bits());
  }
}

TEST(IpuFpMode, McIpuIsLosslessForAnyAdderWidth) {
  // The multi-cycle mechanism itself loses nothing: band-relative local
  // shifts are exact (Proposition 1) and with an unbounded accumulator the
  // band-base shifts are exact too.  So MC-IPU(w) == exact reference for
  // any w, even w = 12 << the 58-bit worst case.
  Rng rng(102);
  for (int w : {10, 12, 14, 16, 20, 28}) {
    DatapathConfig cfg;
    cfg.n_inputs = 8;
    cfg.adder_tree_width = w;
    cfg.software_precision = 58;
    cfg.multi_cycle = true;
    cfg.accumulator = unbounded_acc();
    Ipu ipu(cfg);
    for (int t = 0; t < 800; ++t) {
      const auto a = random_fp16_bits(rng, 8);
      const auto b = random_fp16_bits(rng, 8);
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      const FixedPoint exact = exact_fp_inner_product<kFp16Format>(a, b);
      EXPECT_TRUE(ipu.read_raw() == exact) << "w=" << w << " trial " << t;
    }
  }
}

TEST(IpuFpMode, Proposition1SafeAlignmentsAreExact) {
  // Construct inputs whose alignments are all < w - 9; the single-cycle
  // IPU(w) must then be exact (with an unbounded accumulator).
  Rng rng(103);
  for (int w : {12, 16, 20, 28}) {
    const int sp = w - 9;
    DatapathConfig cfg;
    cfg.n_inputs = 16;
    cfg.adder_tree_width = w;
    cfg.software_precision = 58;
    cfg.multi_cycle = false;
    cfg.accumulator = unbounded_acc();
    Ipu ipu(cfg);
    for (int t = 0; t < 500; ++t) {
      // Operand exponents within a band of sp/2 keep product alignments
      // within sp - 1.
      std::vector<Fp16> a, b;
      for (int k = 0; k < 16; ++k) {
        const auto ea = static_cast<uint32_t>(rng.uniform_int(8, 8 + (sp - 1) / 2));
        const auto eb = static_cast<uint32_t>(rng.uniform_int(8, 8 + sp / 2 - (sp - 1) / 2));
        a.push_back(Fp16::from_fields(rng.bernoulli(0.5), ea,
                                      static_cast<uint32_t>(rng.uniform_int(0, 1023))));
        b.push_back(Fp16::from_fields(rng.bernoulli(0.5), eb,
                                      static_cast<uint32_t>(rng.uniform_int(0, 1023))));
      }
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<kFp16Format>(a, b))
          << "w=" << w << " trial " << t;
    }
  }
}

TEST(IpuFpMode, McAndSingleCycleAgreeWhenWindowCoversSoftwarePrecision) {
  // With software precision P and w >= P + 10, the single-cycle window
  // keeps every unmasked bit, so single-cycle and MC datapaths agree
  // exactly (same masking, unbounded accumulator).
  Rng rng(104);
  const int P = 16;
  DatapathConfig sc_cfg;
  sc_cfg.n_inputs = 8;
  sc_cfg.adder_tree_width = P + 10;
  sc_cfg.software_precision = P;
  sc_cfg.multi_cycle = false;
  sc_cfg.accumulator = unbounded_acc();
  DatapathConfig mc_cfg = sc_cfg;
  mc_cfg.adder_tree_width = 12;
  mc_cfg.multi_cycle = true;
  Ipu sc(sc_cfg), mc(mc_cfg);
  for (int t = 0; t < 2000; ++t) {
    const auto a = random_fp16_bits(rng, 8);
    const auto b = random_fp16_bits(rng, 8);
    sc.reset_accumulator();
    mc.reset_accumulator();
    sc.fp_accumulate<kFp16Format>(a, b);
    mc.fp_accumulate<kFp16Format>(a, b);
    EXPECT_TRUE(sc.read_raw() == mc.read_raw()) << t;
  }
}

TEST(IpuFpMode, ZeroVectorsGiveZero) {
  DatapathConfig cfg;
  Ipu ipu(cfg);
  const std::vector<Fp16> a(16, Fp16::zero()), b(16, Fp16::from_double(3.5));
  ipu.fp_accumulate<kFp16Format>(a, b);
  EXPECT_EQ(ipu.read_fp<kFp16Format>().raw_bits(), Fp16::zero().raw_bits());
  EXPECT_TRUE(ipu.read_raw().is_zero());
}

TEST(IpuFpMode, SingleProductIsAlwaysExactlyRepresented) {
  // n=1: no alignment at all; any IPU must return the exactly-rounded
  // product for every finite FP16 pair (sampled).
  Rng rng(105);
  DatapathConfig cfg;
  cfg.n_inputs = 1;
  cfg.adder_tree_width = 12;
  cfg.multi_cycle = true;
  Ipu ipu(cfg);
  for (int t = 0; t < 30000; ++t) {
    const auto a = random_fp16_bits(rng, 1);
    const auto b = random_fp16_bits(rng, 1);
    ipu.reset_accumulator();
    const int cycles = ipu.fp_accumulate<kFp16Format>(a, b);
    EXPECT_EQ(cycles, 9);  // 3x3 nibble iterations, one cycle each
    double expect = a[0].to_double() * b[0].to_double();
    // The accumulator has no signed-zero concept; a -0 product reads back +0.
    if (expect == 0.0) expect = 0.0;
    EXPECT_EQ(ipu.read_fp<kFp32Format>().raw_bits(), Fp32::from_double(expect).raw_bits());
  }
}

TEST(IpuFpMode, SubnormalInputsHandledExactly) {
  DatapathConfig cfg;
  cfg.n_inputs = 4;
  cfg.adder_tree_width = 80;
  cfg.software_precision = 58;
  cfg.multi_cycle = false;
  cfg.accumulator = unbounded_acc();
  Ipu ipu(cfg);
  const std::vector<Fp16> a = {Fp16::min_subnormal(), Fp16::min_subnormal(true),
                               Fp16::from_bits(0x03FF), Fp16::from_double(1.0)};
  const std::vector<Fp16> b = {Fp16::min_subnormal(), Fp16::from_double(2.0),
                               Fp16::from_bits(0x0001), Fp16::min_subnormal()};
  ipu.fp_accumulate<kFp16Format>(a, b);
  EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<kFp16Format>(a, b));
}

// --- Accumulation across multiple FP-IP ops -----------------------------------

TEST(IpuFpMode, MultiOpAccumulationMatchesReference) {
  Rng rng(106);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 80;
  cfg.software_precision = 58;
  cfg.multi_cycle = false;
  cfg.accumulator = unbounded_acc();
  Ipu ipu(cfg);
  for (int t = 0; t < 300; ++t) {
    ipu.reset_accumulator();
    FixedPoint exact(0, 0);
    const int depth = static_cast<int>(rng.uniform_int(2, 16));
    for (int d = 0; d < depth; ++d) {
      const auto a = random_fp16_vec(rng, 16, 4.0);
      const auto b = random_fp16_vec(rng, 16, 4.0);
      ipu.fp_accumulate<kFp16Format>(a, b);
      exact = exact + exact_fp_inner_product<kFp16Format>(a, b);
    }
    EXPECT_TRUE(ipu.read_raw() == exact) << t;
  }
}

// --- Cycle accounting ----------------------------------------------------------

TEST(IpuCycles, SingleCycleIpuAlwaysNineCyclesPerFp16Op) {
  Rng rng(107);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 16;
  cfg.multi_cycle = false;
  Ipu ipu(cfg);
  for (int t = 0; t < 200; ++t) {
    const auto a = random_fp16_bits(rng, 16);
    const auto b = random_fp16_bits(rng, 16);
    EXPECT_EQ(ipu.fp_accumulate<kFp16Format>(a, b), 9);
  }
}

TEST(IpuCycles, McCyclesFollowMaxAlignment) {
  // Two products with alignment 0 and D: cycles = 9 * (D / sp + 1) while
  // D <= software precision; beyond that the big product is masked and we
  // are back to 9 cycles.
  DatapathConfig cfg;
  cfg.n_inputs = 2;
  cfg.adder_tree_width = 14;  // sp = 5, as in Fig. 4
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  Ipu ipu(cfg);
  // Keep both exponent fields >= 1 (normals) so the alignment is exactly D.
  for (int D = 0; D <= 24; ++D) {
    const std::vector<Fp16> a = {Fp16::from_fields(false, 25, 0),
                                 Fp16::from_fields(false, static_cast<uint32_t>(25 - D), 0)};
    const std::vector<Fp16> b = {Fp16::one(), Fp16::one()};
    ipu.reset_accumulator();
    const int cycles = ipu.fp_accumulate<kFp16Format>(a, b);
    const int expect = D <= 28 ? 9 * (D / 5 + 1) : 9;
    EXPECT_EQ(cycles, expect) << "D=" << D;
  }
}

TEST(IpuCycles, SkipEmptyBandsAblation) {
  // Alignments {0, 15} with sp = 5: serve loop costs 4 cycles, the
  // skip-empty EHU only 2.
  DatapathConfig cfg;
  cfg.n_inputs = 2;
  cfg.adder_tree_width = 14;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  const std::vector<Fp16> a = {Fp16::from_fields(false, 25, 0),
                               Fp16::from_fields(false, 10, 0)};
  const std::vector<Fp16> b = {Fp16::one(), Fp16::one()};
  Ipu plain(cfg);
  EXPECT_EQ(plain.fp_accumulate<kFp16Format>(a, b), 9 * 4);
  cfg.skip_empty_bands = true;
  Ipu skipping(cfg);
  EXPECT_EQ(skipping.fp_accumulate<kFp16Format>(a, b), 9 * 2);
  // Same value either way.
  EXPECT_TRUE(plain.read_raw() == skipping.read_raw());
}

TEST(IpuCounters, Accumulate) {
  Rng rng(108);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  cfg.adder_tree_width = 12;
  cfg.software_precision = 28;
  Ipu ipu(cfg);
  const auto a = random_fp16_bits(rng, 8);
  const auto b = random_fp16_bits(rng, 8);
  ipu.fp_accumulate<kFp16Format>(a, b);
  const std::vector<int32_t> ia(8, 3), ib(8, -2);
  ipu.int_accumulate_reference(ia, ib, 4, 4);
  EXPECT_EQ(ipu.stats().fp_ops, 1);
  EXPECT_EQ(ipu.stats().int_ops, 1);
  EXPECT_EQ(ipu.stats().nibble_iterations, 9 + 1);
  EXPECT_GE(ipu.stats().cycles, 10);
}

// --- BFloat16 path (Appendix B) ------------------------------------------------

TEST(IpuBf16, FourIterationsAndExactWideResult) {
  Rng rng(109);
  DatapathConfig cfg;
  cfg.n_inputs = 8;
  cfg.adder_tree_width = 80;
  cfg.software_precision = 120;  // BF16 products span a much wider range
  cfg.multi_cycle = false;
  cfg.accumulator = unbounded_acc();
  Ipu ipu(cfg);
  for (int t = 0; t < 1000; ++t) {
    std::vector<Bf16> a, b;
    for (int k = 0; k < 8; ++k) {
      // Keep exponents moderate so the unbounded accumulator suffices.
      a.push_back(Bf16::from_double(rng.normal(0.0, 2.0)));
      b.push_back(Bf16::from_double(rng.normal(0.0, 2.0)));
    }
    ipu.reset_accumulator();
    const int cycles = ipu.fp_accumulate<kBf16Format>(a, b);
    EXPECT_EQ(cycles, 4);  // 2x2 nibble iterations
    EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<kBf16Format>(a, b)) << t;
  }
}

}  // namespace
}  // namespace mpipu
