// Quickstart: the mixed-precision IPU in five minutes.
//
// The high-level API in three types: a GraphModel (layers + real weights), a
// PrecisionPolicy (per-layer FP16/INT choice), and a Session whose one
// RunSpec drives BOTH evaluation paths the paper uses -- the bit-accurate
// numeric forward pass (Session::run) and the cycle-level tile simulation
// (Session::estimate).  A low-level coda shows the same datapath at the
// single-inner-product level across all three decomposition schemes.
//
//   ./examples/quickstart
#include <cstdio>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "core/datapath.h"

using namespace mpipu;

int main() {
  std::printf("== Mixed-precision IPU quickstart ==\n\n");

  // --- A tiny CNN with real weights -----------------------------------------
  Rng rng(7);
  std::vector<ModelLayer> layers(3);
  layers[0] = {"stem", random_filters(rng, 16, 3, 3, 3, ValueDist::kNormal, 0.3),
               ConvSpec{.stride = 1, .pad = 1}, /*relu=*/true, PoolOp::kNone};
  layers[1] = {"body", random_filters(rng, 24, 16, 3, 3, ValueDist::kNormal, 0.1),
               ConvSpec{.stride = 1, .pad = 1}, /*relu=*/true, PoolOp::kMax2};
  layers[2] = {"head", random_filters(rng, 10, 24, 1, 1, ValueDist::kNormal, 0.2),
               ConvSpec{}, /*relu=*/false, PoolOp::kGlobalAvg};
  const GraphModel model =
      GraphModel::from_layers("tiny-cnn", std::move(layers));
  const Tensor input = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);

  // --- One RunSpec: datapath + tile + policy + threads ----------------------
  RunSpec spec;
  spec.datapath.scheme = DecompositionScheme::kTemporal;  // MC-IPU(16)
  spec.datapath.n_inputs = 16;
  spec.datapath.adder_tree_width = 16;
  spec.datapath.software_precision = 28;
  spec.tile = big_tile(16, 28);
  spec.policy = PrecisionPolicy::int8_except_first_last();
  spec.threads = 0;  // hardware_concurrency
  Session session(spec);

  // --- Numeric path: bit-accurate forward pass ------------------------------
  RunOptions opts;
  opts.with_estimate = true;  // attach the cycle-sim view to the report
  const RunReport report = session.run(model, input, opts);

  std::printf("Session::run on MC-IPU(16), temporal scheme, %d thread(s):\n",
              report.threads);
  std::printf("  %-6s %-12s %12s %12s %12s\n", "layer", "precision",
              "SNR vs FP32", "max |err|", "cycles");
  for (const LayerRunReport& l : report.layers) {
    std::printf("  %-6s %-12s %9.1f dB %12.2e %12lld\n", l.layer.c_str(),
                l.precision.c_str(), l.error.snr_db, l.error.max_abs_err,
                static_cast<long long>(l.stats.cycles));
  }
  std::printf("  end-to-end: SNR %.1f dB, %lld FP ops, %lld INT ops, "
              "%lld datapath cycles\n",
              report.end_to_end.snr_db,
              static_cast<long long>(report.totals.fp_ops),
              static_cast<long long>(report.totals.int_ops),
              static_cast<long long>(report.totals.cycles));

  // --- Analytical path: the same RunSpec on the cycle simulator -------------
  std::printf("\nSession::estimate on the %s tile (same RunSpec):\n",
              spec.tile.name.c_str());
  std::printf("  %.3g simulated tile cycles for the FP16 forward pass "
              "(%zu layers)\n",
              report.estimate->total_cycles, report.estimate->layers.size());

  // --- The report serializes through the one JSON emitter -------------------
  const std::string json = report.to_json(0);
  std::printf("\nRunReport::to_json(): %zu bytes, starts \"%.48s...\"\n",
              json.size(), json.c_str());

  // --- Low-level coda: one DatapathConfig, three decomposition schemes ------
  // §5: the MC alignment optimization is orthogonal to the scheme; the
  // presets carry each scheme's native cycle-counting defaults.
  std::printf("\nSame FP16 dot product on every decomposition scheme:\n");
  std::vector<Fp16> a, b;
  for (int i = 0; i < 16; ++i) {
    a.push_back(Fp16::from_double(rng.normal(0.0, 1.0)));
    b.push_back(Fp16::from_double(rng.normal(0.0, 0.05)));
  }
  for (auto scheme : {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
                      DecompositionScheme::kSpatial}) {
    DatapathConfig dcfg = DatapathConfig::for_scheme(scheme);
    dcfg.n_inputs = 16;
    dcfg.adder_tree_width = 16;
    auto dp = make_datapath(dcfg);
    const DotResult r = dp->dot(a, b);
    std::printf("  %-8s  value=%-12g raw=0x%08X  cycles=%2d  (%d multipliers)\n",
                scheme_name(scheme), r.fp32().to_double(), r.fp32().raw_bits(),
                r.cycles, dp->multipliers());
  }
  std::printf("\nValues are bit-identical across schemes; cycles are where "
              "they differ.\n");
  return 0;
}
