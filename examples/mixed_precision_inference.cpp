// Mixed-precision inference scenario (the paper's motivating use case):
// a small CNN where each layer is assigned its own precision -- INT4 for
// robust middle layers, INT8 where quantization is harder, FP16 for the
// sensitive first/last layers -- all running on the *same* IPU datapath.
//
// The layer list is a GraphModel, the per-layer choices are a
// PrecisionPolicy (the int8_except_first_last preset plus one INT4
// override), and a single Session::run produces the whole accuracy/cycles
// table.
//
//   ./examples/mixed_precision_inference
#include <cstdio>
#include <vector>

#include "api/session.h"

using namespace mpipu;

int main() {
  std::printf("== Mixed-precision CNN inference on one IPU datapath ==\n\n");

  Rng rng(7);
  const Tensor input = random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0);

  ConvSpec pad1;
  pad1.pad = 1;
  std::vector<ModelLayer> layers(4);
  layers[0] = {"conv1 (sensitive)",
               random_filters(rng, 16, 3, 3, 3, ValueDist::kNormal, 0.3), pad1,
               /*relu=*/true, PoolOp::kNone};
  layers[1] = {"conv2 (robust)",
               random_filters(rng, 24, 16, 3, 3, ValueDist::kNormal, 0.1), pad1,
               /*relu=*/true, PoolOp::kNone};
  layers[2] = {"conv3 (robust)",
               random_filters(rng, 24, 24, 3, 3, ValueDist::kNormal, 0.1), pad1,
               /*relu=*/true, PoolOp::kNone};
  layers[3] = {"head (sensitive)",
               random_filters(rng, 10, 24, 1, 1, ValueDist::kNormal, 0.2),
               ConvSpec{}, /*relu=*/true, PoolOp::kNone};
  const GraphModel model =
      GraphModel::from_layers("mixed-cnn", std::move(layers));

  // One RunSpec serves every layer; swap `scheme` to run the whole net on
  // the serial or spatial decomposition instead.  The policy preset keeps
  // the sensitive ends in FP16 and quantizes the interior; conv2 is robust
  // enough for INT4.
  RunSpec spec;
  spec.datapath.scheme = DecompositionScheme::kTemporal;
  spec.datapath.n_inputs = 16;
  spec.datapath.adder_tree_width = 16;
  spec.datapath.software_precision = 28;
  spec.policy = PrecisionPolicy::int8_except_first_last().set_layer(
      "conv2 (robust)", LayerPrecision::int_bits(4, 4));
  spec.threads = 0;  // hardware_concurrency
  Session session(spec);

  const RunReport report = session.run(model, input);

  std::printf("%-18s %-12s %12s %12s %10s\n", "layer", "precision",
              "SNR vs FP32", "max |err|", "cycles");
  for (const LayerRunReport& l : report.layers) {
    std::printf("%-18s %-12s %9.1f dB %12.2e %10lld\n", l.layer.c_str(),
                l.precision.c_str(), l.error.snr_db, l.error.max_abs_err,
                static_cast<long long>(l.stats.cycles));
  }

  std::printf("\nEnd-to-end output SNR vs exact FP32 pipeline: %.1f dB\n",
              report.end_to_end.snr_db);
  std::printf("\nTakeaway: one nibble-based datapath serves FP16, INT8 and INT4 layers;\n");
  std::printf("INT4 layers run 9x fewer nibble iterations than FP16 ones.\n");
  return 0;
}
