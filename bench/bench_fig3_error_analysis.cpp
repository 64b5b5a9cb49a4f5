// Figure 3 reproduction: median absolute error, absolute relative error and
// contaminated bits of the approximate FP-IP, as a function of IPU precision,
// for Laplace / Normal / Uniform synthetic tensors and ResNet-like tensor
// statistics, with FP16 (top row) and FP32 (bottom row) accumulators.
//
// Paper claims to check (§3.1):
//  * FP16 accumulation: errors < 1e-6 and median contaminated bits 0 at
//    16-bit IPU precision  -> ">= 16b suffices for FP16 accumulation".
//  * FP32 accumulation: errors < 1e-5 at >= 26b; contaminated-bit median
//    bottoms out at 27b   -> ">= 27b suffices for FP32 accumulation".
#include <cstdio>
#include <vector>

#include "analysis/error_metrics.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"
#include "workload/distributions.h"

namespace mpipu {
namespace {

struct DistCase {
  const char* name;
  ValueDist dist;
  double scale;
};

// ResNet-like cases substitute the paper's sampled ImageNet tensors with the
// distribution families the paper itself says DNN tensors follow (DESIGN.md).
const DistCase kCases[] = {
    {"laplace", ValueDist::kLaplace, 1.0},
    {"normal", ValueDist::kNormal, 1.0},
    {"uniform", ValueDist::kUniform, 1.0},
    {"resnet18-like", ValueDist::kHalfNormal, 1.0},
    {"resnet50-like", ValueDist::kLaplace, 0.5},
};

struct PointResult {
  double med_abs_err;
  double med_are_pct;
  double med_contaminated;
  double mean_contaminated;
};

template <FpFormat AccF>
PointResult run_point(const DistCase& c, int precision, int n, int samples,
                      uint64_t seed) {
  Rng rng(seed);
  DatapathConfig cfg;
  cfg.n_inputs = n;
  cfg.adder_tree_width = precision;
  cfg.software_precision = precision;
  cfg.multi_cycle = false;

  Ipu ipu(cfg);
  std::vector<double> abs_errs, ares, contams;
  abs_errs.reserve(static_cast<size_t>(samples));
  for (int s = 0; s < samples; ++s) {
    std::vector<Fp16> a = sample_fp16(rng, c.dist, c.scale, n);
    std::vector<Fp16> b = sample_fp16(rng, c.dist, c.scale, n);
    ipu.reset_accumulator();
    ipu.fp_accumulate<kFp16Format>(a, b);
    const FixedPoint exact = exact_fp_inner_product<kFp16Format>(a, b);
    const auto approx_rounded = Soft<AccF>::round_from_fixed(ipu.read_raw());
    const auto exact_rounded = Soft<AccF>::round_from_fixed(exact);
    abs_errs.push_back(absolute_error(approx_rounded.to_fixed(), exact_rounded.to_fixed()));
    ares.push_back(
        absolute_relative_error_pct(approx_rounded.to_fixed(), exact_rounded.to_fixed()));
    contams.push_back(static_cast<double>(
        contaminated_bits(approx_rounded.raw_bits(), exact_rounded.raw_bits(), AccF)));
  }
  PointResult r;
  r.med_abs_err = median(abs_errs);
  r.med_are_pct = median(ares);
  r.med_contaminated = median(contams);
  r.mean_contaminated = mean(contams);
  return r;
}

template <FpFormat AccF>
void run_accumulator_row(const char* acc_name, const std::vector<int>& precisions,
                         int n, int samples) {
  bench::section(std::string("Accumulator: ") + acc_name + "  (n=" + std::to_string(n) +
                 " inputs per FP-IP, " + std::to_string(samples) + " samples/point)");
  for (const auto& c : kCases) {
    bench::Table t({"precision", "median |err|", "median ARE %", "median contam. bits",
                    "mean contam. bits"});
    for (int p : precisions) {
      const PointResult r =
          run_point<AccF>(c, p, n, samples, 0x31337 + static_cast<uint64_t>(p));
      t.add_row({std::to_string(p), bench::fmt_sci(r.med_abs_err),
                 bench::fmt_sci(r.med_are_pct), bench::fmt(r.med_contaminated, 1),
                 bench::fmt(r.mean_contaminated, 2)});
    }
    std::printf("\n[%s]\n", c.name);
    t.print();
  }
}

}  // namespace
}  // namespace mpipu

int main() {
  using namespace mpipu;
  bench::title(
      "Figure 3: approximate FP-IP error vs IPU precision "
      "(abs error | % ARE | contaminated bits)");

  const std::vector<int> precisions = {8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 27, 28, 30};
  const int n = 16;
  const int samples = 4000;

  run_accumulator_row<kFp16Format>("FP16", precisions, n, samples);
  run_accumulator_row<kFp32Format>("FP32", precisions, n, samples);

  // Paper-claim check lines (§3.1).
  bench::section("Claim checks");
  const auto fp16_at16 = run_point<kFp16Format>(kCases[0], 16, n, samples, 0xA);
  const auto fp32_at26 = run_point<kFp32Format>(kCases[0], 26, n, samples, 0xB);
  const auto fp32_at27 = run_point<kFp32Format>(kCases[0], 27, n, samples, 0xC);
  std::printf("FP16 acc @ precision 16: median ARE = %.2e%% (paper: < 1e-6), "
              "median contaminated bits = %.1f (paper: 0)\n",
              fp16_at16.med_are_pct, fp16_at16.med_contaminated);
  std::printf("FP32 acc @ precision 26: median ARE = %.2e%% (paper: < 1e-5)\n",
              fp32_at26.med_are_pct);
  std::printf("FP32 acc @ precision 27: median contaminated bits = %.1f (paper: 0)\n",
              fp32_at27.med_contaminated);
  return 0;
}
