// Wall-clock comparison of the convolution paths on the quickstart-style
// workload, tracking the perf trajectory of the conv hot loop:
//
//   * the seed's legacy single-threaded per-pixel loop (re-created here
//     verbatim as the "before everything" baseline; temporal scheme only),
//   * the per-op loop -- tests/per_op_conv.h, the oracle the tests check
//     against (per-pixel patch gather of Fp16 values), driving each
//     scheme's original fp_accumulate entry point (per-op decode +
//     decompose + allocating EHU),
//   * the compiled path -- the conv as a one-layer GraphModel through
//     CompiledModel::compile + run (filter preparation, plan build and one
//     prepared-operand execution, all timed) on a caller-owned pool of 1
//     and hardware_concurrency threads,
//
// for every decomposition scheme, at MC-IPU(16) and at the paper's default
// w = 28.  Verifies all paths produce bit-identical
// tensors and matching cycle/op counts before timing them, and exits 1 on
// any mismatch (ctest runs `--smoke`).
//
//   ./bench_conv_engine [--smoke] [--json [path]]
//
// --smoke shrinks the workload for CI; --json writes the numbers (plus the
// prepared-vs-per-op and prepared-vs-legacy speedups) to BENCH_conv.json
// (or the given path) through the repo's single JSON emitter.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/compiled_model.h"
#include "api/json.h"
#include "bench_util.h"
#include "common/rng.h"
#include "core/ipu.h"
#include "core/simd/simd.h"
#include "nn/conv.h"
#include "per_op_conv.h"

namespace mpipu {
namespace {

/// The seed's conv loop: one Ipu, operands re-rounded to FP16 for every
/// output pixel that touches them.
Tensor legacy_seed_conv_fp16(const Tensor& input, const FilterBank& filters,
                            const ConvSpec& spec, const DatapathConfig& ipu_cfg,
                            AccumKind accum) {
  const int ho = spec.out_dim(input.h, filters.kh);
  const int wo = spec.out_dim(input.w, filters.kw);
  Tensor out(filters.cout, ho, wo);
  Ipu ipu(ipu_cfg);
  std::vector<Fp16> fa, fb;
  for (int co = 0; co < filters.cout; ++co) {
    for (int y = 0; y < ho; ++y) {
      for (int x = 0; x < wo; ++x) {
        ipu.reset_accumulator();
        fa.clear();
        fb.clear();
        auto flush = [&] {
          if (!fa.empty()) {
            ipu.fp_accumulate<kFp16Format>(fa, fb);
            fa.clear();
            fb.clear();
          }
        };
        for (int ky = 0; ky < filters.kh; ++ky) {
          for (int kx = 0; kx < filters.kw; ++kx) {
            const int iy = y * spec.stride + ky - spec.pad;
            const int ix = x * spec.stride + kx - spec.pad;
            if (iy < 0 || iy >= input.h || ix < 0 || ix >= input.w) continue;
            for (int ci = 0; ci < input.c; ++ci) {
              fa.push_back(Fp16::from_double(input.at(ci, iy, ix)));
              fb.push_back(Fp16::from_double(filters.at(co, ci, ky, kx)));
              if (static_cast<int>(fa.size()) == ipu_cfg.n_inputs) flush();
            }
          }
        }
        flush();
        out.at(co, y, x) = accum == AccumKind::kFp16
                               ? ipu.read_fp<kFp16Format>().to_double()
                               : ipu.read_fp<kFp32Format>().to_double();
      }
    }
  }
  return out;
}

// --- Per-op loop, the per-scheme baseline ------------------------------------

/// The compiled path for one conv: compile (filter preparation + plan
/// build) and one run on the caller's pool, without the FP32 reference.
RunReport compiled_conv(const GraphModel& model, const RunSpec& spec,
                        const Tensor& input, ThreadPool& pool) {
  RunOptions opts;
  opts.compare_reference = false;
  return CompiledModel::compile(model, spec, {input.h, input.w})
      .run(input, opts, pool);
}

template <typename Fn, typename Result>
double time_seconds(const Fn& fn, Result* out) {
  const auto t0 = std::chrono::steady_clock::now();
  *out = fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

using bench::tensors_identical;

}  // namespace
}  // namespace mpipu

int main(int argc, char** argv) {
  using namespace mpipu;

  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json_path = (i + 1 < argc && argv[i + 1][0] != '-') ? argv[++i]
                                                          : "BENCH_conv.json";
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--json [path]]\n", argv[0]);
      return 2;
    }
  }

  bench::title("Compiled conv (prepared operands) vs per-op loop vs legacy seed loop");

  // Quickstart-style workload (FP32-grade software precision) at two
  // adder-tree widths; --smoke shrinks it so CI can afford every scheme on
  // every push.
  Rng rng(42);
  const int ci = smoke ? 6 : 16, hw_dim = smoke ? 12 : 32, co = smoke ? 6 : 16;
  const Tensor input =
      random_tensor(rng, ci, hw_dim, hw_dim, ValueDist::kNormal, 1.0);
  const FilterBank filters =
      random_filters(rng, co, ci, 3, 3, ValueDist::kNormal, 0.2);
  ConvSpec spec;
  spec.pad = 1;
  const GraphModel model =
      GraphModel::from_layers("conv", {ModelLayer{"conv", filters, spec}});

  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  std::printf("workload: %dx%dx%d input, %d filters 3x3, pad 1 (%d output "
              "values); hardware_concurrency = %d%s\n\n",
              ci, hw_dim, hw_dim, co, co * hw_dim * hw_dim, hw,
              smoke ? "; --smoke" : "");

  Json root = Json::object();
  root.set("bench", "conv_engine");
  root.set("smoke", smoke);
  Json workload = Json::object();
  workload.set("input", std::to_string(ci) + "x" + std::to_string(hw_dim) + "x" +
                            std::to_string(hw_dim));
  workload.set("filters", std::to_string(co) + "x" + std::to_string(ci) + "x3x3");
  workload.set("pad", 1);
  root.set("workload", std::move(workload));
  root.set("hardware_concurrency", hw);
  root.set("kernel_backend", simd::backend_name());
  Json schemes_json = Json::array();

  // With a single hardware thread the "hw threads" leg would just repeat
  // the 1-thread run under a pool wrapper; skip it rather than report a
  // duplicate measurement as if it said something about scaling.
  const bool run_hw = hw > 1;
  if (!run_hw) {
    std::printf(
        "hardware_concurrency = 1: skipping the hw-threads rows (they would "
        "duplicate the 1-thread measurement)\n\n");
  }

  bench::Table table(
      {"scheme", "w", "path", "wall seconds", "speedup vs per-op"});
  bool all_identical = true;
  int rc = 0;
  std::vector<std::pair<int, double>> legacy_seconds;

  // MC-IPU(16), the seed's config, and the paper's default FP32-accumulation
  // datapath (w = 28).
  for (int w : {16, 28}) {
    // Legacy seed loop: temporal only (the seed had no other scheme).
    DatapathConfig icfg;
    icfg.n_inputs = 16;
    icfg.adder_tree_width = w;
    icfg.software_precision = 28;
    icfg.multi_cycle = true;
    Tensor legacy_out;
    const double t_legacy = time_seconds(
        [&] {
          return legacy_seed_conv_fp16(input, filters, spec, icfg, AccumKind::kFp32);
        },
        &legacy_out);
    legacy_seconds.emplace_back(w, t_legacy);

    for (auto scheme :
         {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
          DecompositionScheme::kSpatial}) {
      DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
      cfg.n_inputs = 16;
      cfg.adder_tree_width = w;
      cfg.software_precision = 28;
      cfg.multi_cycle = true;

      // The scheme's per-op reference entry (per-op decode + decompose +
      // allocating EHU) behind the per-op baseline.
      const std::unique_ptr<Datapath> direct = make_datapath(cfg);
      int64_t per_op_cycles = 0;
      Tensor per_op_out;
      const double t_per_op = time_seconds(
          [&] {
            return per_op_conv_fp16(per_op_reference(*direct), cfg.n_inputs,
                                    AccumKind::kFp32, input, filters, spec,
                                    &per_op_cycles);
          },
          &per_op_out);

      RunSpec run_spec;
      run_spec.datapath = cfg;
      run_spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
      RunReport prep1, prephw;
      ThreadPool pool1(1);
      const double t_prep1 = time_seconds(
          [&] { return compiled_conv(model, run_spec, input, pool1); }, &prep1);

      bool identical = tensors_identical(per_op_out, prep1.output) &&
                       per_op_cycles == prep1.totals.cycles &&
                       direct->stats().fp_ops == prep1.totals.fp_ops;
      double t_prephw = 0.0;
      if (run_hw) {
        ThreadPool poolhw(hw);
        t_prephw = time_seconds(
            [&] { return compiled_conv(model, run_spec, input, poolhw); },
            &prephw);
        identical = identical && tensors_identical(per_op_out, prephw.output) &&
                    prep1.totals == prephw.totals;
      }
      if (scheme == DecompositionScheme::kTemporal) {
        identical = identical && tensors_identical(legacy_out, prep1.output);
      }
      if (!identical) {
        std::printf("BIT MISMATCH on %s scheme, w=%d\n", scheme_name(scheme),
                    w);
        all_identical = false;
        rc = 1;
      }

      const std::string ws = std::to_string(w);
      table.add_row({scheme_name(scheme), ws, "per-op loop, 1 thread",
                     bench::fmt(t_per_op, 3), "1.00x"});
      table.add_row({scheme_name(scheme), ws, "compiled, 1 thread",
                     bench::fmt(t_prep1, 3),
                     bench::fmt(t_per_op / t_prep1, 2) + "x"});
      if (run_hw) {
        table.add_row({scheme_name(scheme), ws,
                       "compiled, hw threads (" + std::to_string(hw) + ")",
                       bench::fmt(t_prephw, 3),
                       bench::fmt(t_per_op / t_prephw, 2) + "x"});
      }

      Json s = Json::object();
      s.set("scheme", scheme_name(scheme));
      s.set("adder_tree_width", w);
      s.set("per_op_1t_seconds", t_per_op);
      s.set("prepared_1t_seconds", t_prep1);
      s.set("speedup_prepared_1t_vs_per_op", t_per_op / t_prep1);
      if (run_hw) {
        s.set("prepared_hw_seconds", t_prephw);
        s.set("speedup_prepared_hw_vs_per_op", t_per_op / t_prephw);
      }
      if (scheme == DecompositionScheme::kTemporal) {
        s.set("legacy_seed_seconds", t_legacy);
        s.set("speedup_prepared_1t_vs_legacy", t_legacy / t_prep1);
      }
      s.set("bit_identical", identical);
      schemes_json.push(std::move(s));
    }
  }

  std::printf("all paths bit-identical (tensors, cycles, op counts): %s\n\n",
              all_identical ? "yes" : "NO");
  table.print();
  for (const auto& [w, t] : legacy_seconds) {
    std::printf("\nlegacy seed loop (temporal, w=%d, 1 thread): %s s", w,
                bench::fmt(t, 3).c_str());
  }
  std::printf("\n");

  root.set("schemes", std::move(schemes_json));
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << root.dump() << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return rc;
}
