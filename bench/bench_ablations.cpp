// Ablation studies for the design choices DESIGN.md calls out:
//   A1  EHU serve loop: literal threshold sweep (Fig. 5) vs occupied-band
//       skipping -- cycle cost of empty alignment bands.
//   A2  Accumulator fraction width: the paper provisions 30 bits; sweep it
//       and measure when accuracy degrades.
//   A3  Rounding model: single-rounding IPU vs conventional FMA chain vs
//       exact -- the error-model argument for IP-based datapaths.
//   A4  Sparse zero-skipping (future-work extension): cycles saved vs
//       activation sparsity, values unchanged.
//   A5  Software-precision masking: accuracy/cycles trade-off of the EHU
//       stage-4 threshold.
#include <cstdio>
#include <vector>

#include "analysis/error_metrics.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"
#include "softfloat/arith.h"
#include "workload/distributions.h"

namespace mpipu {
namespace {

std::vector<Fp16> draw(Rng& rng, ValueDist d, double scale, int n) {
  return sample_fp16(rng, d, scale, n);
}

void ablation_ehu_serve_loop() {
  bench::section("A1: EHU serve loop -- threshold sweep vs occupied-band skip");
  bench::Table t({"w (sp)", "avg cycles/iter (sweep)", "avg cycles/iter (skip-empty)",
                  "saving"});
  Rng rng(901);
  for (int w : {12, 14, 16, 20}) {
    DatapathConfig sweep_cfg;
    sweep_cfg.n_inputs = 16;
    sweep_cfg.adder_tree_width = w;
    sweep_cfg.software_precision = 28;
    sweep_cfg.multi_cycle = true;
    DatapathConfig skip_cfg = sweep_cfg;
    skip_cfg.skip_empty_bands = true;
    Ipu sweep_ipu(sweep_cfg), skip_ipu(skip_cfg);
    for (int trial = 0; trial < 2000; ++trial) {
      const auto a = draw(rng, ValueDist::kLaplace, 1.0, 16);
      const auto b = draw(rng, ValueDist::kNormal, 0.05, 16);
      sweep_ipu.reset_accumulator();
      skip_ipu.reset_accumulator();
      sweep_ipu.fp_accumulate<kFp16Format>(a, b);
      skip_ipu.fp_accumulate<kFp16Format>(a, b);
    }
    const double cs = static_cast<double>(sweep_ipu.stats().cycles) /
                      static_cast<double>(sweep_ipu.stats().nibble_iterations);
    const double ck = static_cast<double>(skip_ipu.stats().cycles) /
                      static_cast<double>(skip_ipu.stats().nibble_iterations);
    t.add_row({std::to_string(w) + " (" + std::to_string(w - 9) + ")", bench::fmt(cs, 2),
               bench::fmt(ck, 2), bench::fmt_pct(1.0 - ck / cs)});
  }
  t.print();
}

void ablation_accumulator_width() {
  bench::section("A2: accumulator fraction bits (paper provisions 30)");
  bench::Table t({"frac bits", "median ARE % (FP32 out)", "p99 ARE %"});
  Rng rng(902);
  for (int frac : {16, 20, 24, 28, 30, 34, 40}) {
    DatapathConfig cfg;
    cfg.n_inputs = 16;
    cfg.adder_tree_width = 28;
    cfg.software_precision = 28;
    cfg.multi_cycle = false;
    cfg.accumulator.frac_bits = frac;
    Ipu ipu(cfg);
    std::vector<double> ares;
    for (int trial = 0; trial < 3000; ++trial) {
      const auto a = draw(rng, ValueDist::kLaplace, 1.0, 16);
      const auto b = draw(rng, ValueDist::kLaplace, 1.0, 16);
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      const auto got = Fp32::round_from_fixed(ipu.read_raw());
      const auto want = exact_fp_inner_product_rounded<kFp16Format, kFp32Format>(a, b);
      ares.push_back(absolute_relative_error_pct(got.to_fixed(), want.to_fixed()));
    }
    t.add_row({std::to_string(frac), bench::fmt_sci(median(ares)),
               bench::fmt_sci(percentile(ares, 99.0))});
  }
  t.print();
  std::printf("-> 30 fraction bits are enough; narrower accumulators start losing\n"
              "   FP32-level accuracy, wider ones buy nothing.\n");
}

void ablation_rounding_model() {
  bench::section("A3: rounding model -- IPU(28) single rounding vs FMA chain vs exact");
  bench::Table t({"n", "IPU(28) mean |err|", "FMA-chain mean |err|", "chain/IPU"});
  Rng rng(903);
  for (int n : {8, 16, 64, 256}) {
    DatapathConfig cfg;
    cfg.n_inputs = n;
    cfg.adder_tree_width = 28;
    cfg.software_precision = 28;
    cfg.multi_cycle = false;
    Ipu ipu(cfg);
    double ipu_err = 0.0, chain_err = 0.0;
    const int trials = 2000;
    for (int trial = 0; trial < trials; ++trial) {
      const auto a = draw(rng, ValueDist::kNormal, 1.0, n);
      const auto b = draw(rng, ValueDist::kNormal, 1.0, n);
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      const FixedPoint exact = exact_fp_inner_product<kFp16Format>(a, b);
      ipu_err += absolute_error(Fp32::round_from_fixed(ipu.read_raw()).to_fixed(), exact);
      const Fp32 chain = fma_chain_inner_product<kFp16Format, kFp32Format>(a, b);
      chain_err += absolute_error(chain.to_fixed(), exact);
    }
    t.add_row({std::to_string(n), bench::fmt_sci(ipu_err / trials),
               bench::fmt_sci(chain_err / trials),
               bench::fmt(chain_err / std::max(ipu_err, 1e-300), 1) + "x"});
  }
  t.print();
  std::printf("-> the FMA chain's per-element rounding drift grows with n; the\n"
              "   IPU's one-shot alignment keeps the error at the final-rounding\n"
              "   level -- an accuracy argument for IP-based datapaths.\n");
}

void ablation_sparsity() {
  bench::section("A4: dynamic zero-skipping (sparse extension)");
  bench::Table t({"activation sparsity", "cycles vs dense datapath", "skipped iters"});
  Rng rng(904);
  for (double s : {0.0, 0.25, 0.5, 0.75, 0.9}) {
    DatapathConfig cfg;
    cfg.n_inputs = 16;
    cfg.adder_tree_width = 16;
    cfg.software_precision = 28;
    cfg.multi_cycle = true;
    cfg.skip_zero_iterations = true;
    DatapathConfig dense_cfg = cfg;
    dense_cfg.skip_zero_iterations = false;
    Ipu ipu(cfg), dense(dense_cfg);
    for (int trial = 0; trial < 2000; ++trial) {
      std::vector<Fp16> a, b;
      for (int k = 0; k < 16; ++k) {
        a.push_back(Fp16::from_double(rng.bernoulli(s) ? 0.0 : rng.normal(0.0, 1.0)));
        b.push_back(Fp16::from_double(rng.normal(0.0, 0.05)));
      }
      ipu.reset_accumulator();
      dense.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      dense.fp_accumulate<kFp16Format>(a, b);
    }
    t.add_row({bench::fmt_pct(s, 0),
               bench::fmt(static_cast<double>(ipu.stats().cycles) /
                              static_cast<double>(dense.stats().cycles),
                          3),
               bench::fmt_pct(static_cast<double>(ipu.stats().skipped_iterations) /
                              static_cast<double>(ipu.stats().nibble_iterations))});
  }
  t.print();
}

void ablation_masking() {
  bench::section("A5: EHU software-precision masking threshold");
  bench::Table t({"software precision", "median ARE % (FP32 out)", "avg cycles/iter",
                  "masked products"});
  Rng rng(905);
  for (int P : {8, 12, 16, 20, 24, 28, 40}) {
    DatapathConfig cfg;
    cfg.n_inputs = 16;
    cfg.adder_tree_width = 12;
    cfg.software_precision = P;
    cfg.multi_cycle = true;
    Ipu ipu(cfg);
    std::vector<double> ares;
    for (int trial = 0; trial < 2000; ++trial) {
      const auto a = draw(rng, ValueDist::kLaplace, 1.0, 16);
      const auto b = draw(rng, ValueDist::kLaplace, 1.0, 16);
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      const auto got = Fp32::round_from_fixed(ipu.read_raw());
      const auto want = exact_fp_inner_product_rounded<kFp16Format, kFp32Format>(a, b);
      ares.push_back(absolute_relative_error_pct(got.to_fixed(), want.to_fixed()));
    }
    t.add_row({std::to_string(P), bench::fmt_sci(median(ares)),
               bench::fmt(static_cast<double>(ipu.stats().cycles) /
                              static_cast<double>(ipu.stats().nibble_iterations),
                          2),
               bench::fmt_pct(static_cast<double>(ipu.stats().masked_products) /
                              (static_cast<double>(ipu.stats().fp_ops) * 16))});
  }
  t.print();
  std::printf("-> masking beyond ~28 bits buys no accuracy but costs alignment\n"
              "   cycles; below ~16 it visibly hurts FP32-destination accuracy.\n");
}

}  // namespace
}  // namespace mpipu

int main() {
  using namespace mpipu;
  bench::title("Ablation studies (design knobs of the MC-IPU architecture)");
  ablation_ehu_serve_loop();
  ablation_accumulator_width();
  ablation_rounding_model();
  ablation_sparsity();
  ablation_masking();
  return 0;
}
