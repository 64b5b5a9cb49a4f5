// Google-benchmark microbenchmarks of the emulation library itself: how fast
// the bit-accurate models run on the host (useful when scaling simulations).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/datapath.h"
#include "core/ipu.h"
#include "core/reference.h"
#include "core/simd/simd.h"
#include "sim/cycle_sim.h"
#include "workload/distributions.h"

namespace mpipu {
namespace {

std::vector<Fp16> fp16_vec(Rng& rng, int n) {
  std::vector<Fp16> v;
  for (int i = 0; i < n; ++i) v.push_back(Fp16::from_double(rng.normal(0.0, 1.0)));
  return v;
}

void BM_Fp16FromDouble(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> vals;
  for (int i = 0; i < 1024; ++i) vals.push_back(rng.normal(0.0, 1.0));
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Fp16::from_double(vals[i++ & 1023]));
  }
}
BENCHMARK(BM_Fp16FromDouble);

void BM_ExactReferenceInnerProduct(benchmark::State& state) {
  Rng rng(2);
  const auto n = static_cast<int>(state.range(0));
  const auto a = fp16_vec(rng, n), b = fp16_vec(rng, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_fp_inner_product<kFp16Format>(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ExactReferenceInnerProduct)->Arg(8)->Arg(16)->Arg(64);

void BM_IpuFpAccumulate(benchmark::State& state) {
  Rng rng(3);
  DatapathConfig cfg;
  cfg.n_inputs = static_cast<int>(state.range(0));
  cfg.adder_tree_width = static_cast<int>(state.range(1));
  cfg.software_precision = 28;
  Ipu ipu(cfg);
  const auto a = fp16_vec(rng, cfg.n_inputs), b = fp16_vec(rng, cfg.n_inputs);
  for (auto _ : state) {
    ipu.reset_accumulator();
    benchmark::DoNotOptimize(ipu.fp_accumulate<kFp16Format>(a, b));
  }
  state.SetItemsProcessed(state.iterations() * cfg.n_inputs);
}
BENCHMARK(BM_IpuFpAccumulate)->Args({8, 12})->Args({16, 12})->Args({16, 28})->Args({16, 38});

// Prepared FP16 ops: scheme x adder-tree width x alignment regime x kernel
// backend x entry.  Operands are post-ReLU activations against small
// weights (forward_stats): 64 output elements of a 3x3x64 conv window,
// 576 elements or 36 ops of 16 lanes each, the same operands in both
// entries.  stream=1 runs one output element per iteration through
// fp16_accumulate_stream; stream=0 runs one 16-lane op per iteration
// through fp16_accumulate_prepared, cycling over all 64 x 36 ops.  The
// per_op counter is the time per 16-lane op in both.
void BM_PreparedFp16Accumulate(benchmark::State& state) {
  const auto scheme = static_cast<DecompositionScheme>(state.range(0));
  const auto backend = static_cast<simd::Backend>(state.range(3));
  const bool stream = state.range(4) != 0;
  if (!simd::force_backend(backend)) {
    state.SkipWithError("backend not available on this host");
    return;
  }
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = static_cast<int>(state.range(1));
  cfg.software_precision = 28;
  cfg.multi_cycle = state.range(2) != 0;
  auto dp = make_datapath(cfg);
  constexpr size_t kElements = 64;
  constexpr size_t kElementLen = 3 * 3 * 64;
  const size_t span = stream ? kElementLen : 16;
  const size_t spans = kElements * kElementLen / span;
  const LayerTensorStats ts = forward_stats();
  Rng rng(6);
  const auto count = static_cast<int>(kElements * kElementLen);
  const PreparedFp16 a(
      sample_fp16(rng, ts.activation_dist, ts.activation_scale, count));
  const PreparedFp16 b(
      sample_fp16(rng, ts.weight_dist, ts.weight_scale, count));
  size_t i = 0;
  for (auto _ : state) {
    dp->reset_accumulator();
    const size_t off = (i++ % spans) * span;
    if (stream) {
      benchmark::DoNotOptimize(
          dp->fp16_accumulate_stream(a.view(off, span), b.view(off, span)));
    } else {
      benchmark::DoNotOptimize(
          dp->fp16_accumulate_prepared(a.view(off, 16), b.view(off, 16)));
    }
  }
  state.counters["per_op"] = benchmark::Counter(
      static_cast<double>(span / 16),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
  state.SetLabel(std::string(scheme_name(scheme)) + " w=" +
                 std::to_string(cfg.adder_tree_width) +
                 (cfg.multi_cycle ? " mc " : " sc ") +
                 simd::backend_name(backend) + (stream ? " stream" : " op"));
  simd::reset_backend();
}
BENCHMARK(BM_PreparedFp16Accumulate)
    ->ArgNames({"scheme", "w", "mc", "backend", "stream"})
    ->ArgsProduct({{0, 1, 2}, {16, 28}, {1, 0}, {0, 1}, {0, 1}});

void BM_IpuIntAccumulate(benchmark::State& state) {
  Rng rng(4);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  Ipu ipu(cfg);
  std::vector<int32_t> a, b;
  for (int i = 0; i < 16; ++i) {
    a.push_back(static_cast<int32_t>(rng.uniform_int(-8, 7)));
    b.push_back(static_cast<int32_t>(rng.uniform_int(-8, 7)));
  }
  const auto bits = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ipu.reset_accumulator();
    benchmark::DoNotOptimize(ipu.int_accumulate_reference(a, b, bits, bits));
  }
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_IpuIntAccumulate)->Arg(4)->Arg(8);

void BM_EhuRun(benchmark::State& state) {
  Rng rng(5);
  const auto n = static_cast<size_t>(state.range(0));
  std::vector<Decoded> a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i].exp = static_cast<int>(rng.uniform_int(-14, 15));
    b[i].exp = static_cast<int>(rng.uniform_int(-14, 15));
    a[i].magnitude = b[i].magnitude = 1024;
  }
  EhuOptions opts;
  opts.software_precision = 28;
  opts.safe_precision = 7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_ehu(a, b, opts));
  }
}
BENCHMARK(BM_EhuRun)->Arg(8)->Arg(16);

void BM_CycleSimLayer(benchmark::State& state) {
  Network net;
  net.name = "bench";
  net.tensor_stats = forward_stats();
  ConvLayer l;
  l.name = "L";
  l.cin = l.cout = 128;
  l.kh = l.kw = 3;
  l.hout = l.wout = 14;
  net.layers = {l};
  SimOptions opts;
  opts.sampled_steps = static_cast<int>(state.range(0));
  const TileConfig tile = big_tile(16, 28, 16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulate_network(net, tile, opts));
  }
}
BENCHMARK(BM_CycleSimLayer)->Arg(100)->Arg(400);

}  // namespace
}  // namespace mpipu

BENCHMARK_MAIN();
