// Custom data types on one datapath (paper Appendix B and beyond):
// FP16, BFloat16, TF32, FP8 (e4m3) and hybrid FP16 x INT4 all run on the
// same nibble-based IPU -- only the EHU exponent width and the iteration
// count change.
//
//   ./examples/custom_formats
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "core/ipu.h"
#include "core/reference.h"

using namespace mpipu;

namespace {

constexpr FpFormat kE4M3{4, 3};

template <FpFormat F>
void demo_format(const char* name, Ipu& ipu, Rng& rng) {
  std::vector<Soft<F>> a, b;
  for (int k = 0; k < 16; ++k) {
    a.push_back(Soft<F>::from_double(rng.normal(0.0, 1.0)));
    b.push_back(Soft<F>::from_double(rng.normal(0.0, 0.25)));
  }
  ipu.reset_accumulator();
  const int cycles = ipu.fp_accumulate<F>(a, b);
  const double got = ipu.read_fp<kFp32Format>().to_double();
  const double want =
      exact_fp_inner_product_rounded<F, kFp32Format>(a, b).to_double();
  const int kn = fp_nibble_count(F);
  std::printf("%-10s  (1,%d,%d)  %dx%d=%d nibble iters  %2d cycles  result %-11g "
              "(exact %g)\n",
              name, F.exp_bits, F.man_bits, kn, kn, kn * kn, cycles, got, want);
}

}  // namespace

int main() {
  std::printf("== One datapath, five data types ==\n\n");
  std::printf("%-10s  format   decomposition        cycles   value\n", "type");

  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 28;
  // BF16/TF32 products span ~500 exponent values; widen the honored
  // alignment accordingly (Appendix B: "the EHU should support 8-bit
  // exponents and larger shift units might be needed").
  cfg.software_precision = 40;
  cfg.multi_cycle = true;
  Ipu ipu(cfg);
  Rng rng(2024);

  demo_format<kFp16Format>("FP16", ipu, rng);
  demo_format<kBf16Format>("BFloat16", ipu, rng);
  demo_format<kTf32Format>("TF32", ipu, rng);
  demo_format<kE4M3>("FP8-e4m3", ipu, rng);

  // Hybrid: FP16 activations x INT4 weights (Appendix B).
  std::vector<Fp16> act;
  std::vector<int32_t> wgt;
  double expect = 0.0;
  for (int k = 0; k < 16; ++k) {
    act.push_back(Fp16::from_double(rng.normal(0.0, 1.0)));
    wgt.push_back(static_cast<int32_t>(rng.uniform_int(-8, 7)));
    expect += act.back().to_double() * wgt.back();
  }
  ipu.reset_accumulator();
  const int cycles = ipu.fp_int_accumulate<kFp16Format>(act, wgt, 4);
  std::printf("%-10s  fp16xint4 3x1=3 nibble iters   %2d cycles  result %-11g "
              "(exact %g)\n",
              "hybrid", cycles, ipu.read_fp<kFp32Format>().to_double(), expect);

  std::printf("\nIteration counts are the whole cost story: FP8 runs 9x faster than\n");
  std::printf("FP16, hybrid FP16xINT4 3x faster -- on unchanged hardware.\n");
  return 0;
}
