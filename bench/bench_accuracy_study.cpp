// §3.1 end-to-end accuracy study (the paper's ResNet Top-1 experiment,
// substituted per DESIGN.md): run a small CNN classifier with the
// bit-accurate IPU datapath at several IPU precisions and measure
//   * per-layer output agreement with the exact FP32-CPU reference, and
//   * Top-1 *agreement* (argmax match) over a batch of synthetic inputs.
//
// Paper claims to check: precision >= 12 keeps Top-1 identical to FP32 CPU;
// precision 8 mostly agrees on average but fluctuates per batch.
//
// Migrated onto the high-level API: the CNN (convs + ReLU/pool post-ops) is
// one GraphModel, each precision point is one Session whose RunSpec carries
// the datapath, and run_batch over the image batch replaces the hand-wired
// per-image forward loops.  Results are also written to BENCH_accuracy.json
// through RunReport's JSON emitter (the repo's single JSON serializer).
//
//   ./bench_accuracy_study [--smoke]
//     --smoke: small batch / fewer precision points (CI perf trajectory)
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "api/session.h"
#include "bench_util.h"

namespace mpipu {
namespace {

GraphModel make_cnn(Rng& rng) {
  std::vector<ModelLayer> layers(4);
  ConvSpec pad1;
  pad1.pad = 1;
  layers[0] = {"conv1",
               random_filters(rng, 16, 3, 3, 3, ValueDist::kNormal, 0.25)
                   .rounded_to_fp16(),
               pad1, /*relu=*/true, PoolOp::kMax2};
  layers[1] = {"conv2",
               random_filters(rng, 32, 16, 3, 3, ValueDist::kNormal, 0.12)
                   .rounded_to_fp16(),
               pad1, /*relu=*/true, PoolOp::kMax2};
  layers[2] = {"conv3",
               random_filters(rng, 32, 32, 3, 3, ValueDist::kNormal, 0.09)
                   .rounded_to_fp16(),
               pad1, /*relu=*/true, PoolOp::kGlobalAvg};
  layers[3] = {"head",
               random_filters(rng, 10, 32, 1, 1, ValueDist::kNormal, 0.2)
                   .rounded_to_fp16(),
               ConvSpec{}, /*relu=*/false, PoolOp::kNone};
  return GraphModel::from_layers("small-cnn", std::move(layers));
}

int argmax(const Tensor& logits) {
  int best = 0;
  for (int c = 1; c < logits.c; ++c) {
    if (logits.at(c, 0, 0) > logits.at(best, 0, 0)) best = c;
  }
  return best;
}

}  // namespace
}  // namespace mpipu

int main(int argc, char** argv) {
  using namespace mpipu;
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::title("Section 3.1 end-to-end study: CNN agreement vs IPU precision");
  if (smoke) std::printf("(smoke mode: reduced batch and precision sweep)\n");

  Rng rng(0xACC);
  const GraphModel model = make_cnn(rng);
  const int batch = smoke ? 8 : 48;
  std::vector<Tensor> images;
  for (int i = 0; i < batch; ++i) {
    images.push_back(
        random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0).rounded_to_fp16());
  }

  // The exact FP32 reference depends only on (model, image): compute it once
  // here instead of once per precision point inside run().
  std::vector<Tensor> ref_logits;
  std::vector<int> ref_labels;
  for (const Tensor& img : images) {
    ref_logits.push_back(Session::reference(model, img));
    ref_labels.push_back(argmax(ref_logits.back()));
  }

  bench::Table t({"IPU precision", "Top-1 agreement", "logit SNR (dB)",
                  "FP16-mismatched logits"});
  Json doc = Json::object();
  doc.set("bench", "accuracy_study").set("batch", batch);
  Json points = Json::array();

  const std::vector<int> precisions =
      smoke ? std::vector<int>{8, 12, 28} : std::vector<int>{8, 10, 12, 16, 20, 28};
  for (const int precision : precisions) {
    // One RunSpec per precision point: the single-cycle truncating window
    // at IPU precision w == software precision, all layers FP16/FP32-accum.
    RunSpec spec;
    spec.datapath.scheme = DecompositionScheme::kTemporal;
    spec.datapath.n_inputs = 16;
    spec.datapath.adder_tree_width = precision;
    spec.datapath.software_precision = precision;
    spec.datapath.multi_cycle = false;
    spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
    Session session(spec);

    RunOptions opts;
    opts.compare_reference = false;  // compared against the hoisted refs below
    const BatchRunReport result = session.run_batch(model, images, opts);
    int agree = 0;
    double snr_sum = 0.0;
    int64_t mismatched = 0, total_logits = 0;
    for (size_t i = 0; i < result.runs.size(); ++i) {
      const AgreementStats st =
          compare_outputs(result.runs[i].output, ref_logits[i]);
      agree += argmax(result.runs[i].output) == ref_labels[i];
      snr_sum += st.snr_db;
      mismatched += st.mismatched_fp16;
      total_logits += st.total;
    }
    const double top1 = static_cast<double>(agree) / batch;
    t.add_row({std::to_string(precision) + "b", bench::fmt_pct(top1, 1),
               bench::fmt(snr_sum / batch, 1),
               bench::fmt_pct(static_cast<double>(mismatched) /
                              static_cast<double>(total_logits))});

    // One entry per precision point, serialized through the report emitter
    // (totals + per-run layer stats/errors; tensors stay out of the file).
    Json point = Json::object();
    point.set("ipu_precision", precision)
        .set("top1_agreement", top1)
        .set("mean_logit_snr_db", snr_sum / batch)
        .set("mismatched_fp16_fraction",
             static_cast<double>(mismatched) / static_cast<double>(total_logits))
        .set("batch_report", result.to_json_value());
    points.push(std::move(point));
  }
  t.print();
  doc.set("points", std::move(points));

  const char* out_path = "BENCH_accuracy.json";
  if (FILE* f = std::fopen(out_path, "w")) {
    const std::string json = doc.dump(2);
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nWrote %s (%zu bytes)\n", out_path, json.size() + 1);
  } else {
    std::fprintf(stderr, "WARNING: could not open %s for writing\n", out_path);
  }

  bench::section("Claim checks");
  std::printf("Paper: IPU precision >= 12 maintains FP32-CPU Top-1 for all batches;\n");
  std::printf("       precision 8 matches on average but fluctuates per batch.\n");
  return 0;
}
