// Serving loop: the load-once / serve-many pattern.
//
// A serving process prepares its fixed weights exactly once at load time
// (Session::compile -> CompiledModel) and then executes requests against
// the immutable plan -- from as many host threads as it likes, since
// CompiledModel::run is reentrant: every call gets private scratch and a
// private per-call stats report.  Contrast examples/quickstart.cpp, which
// uses the conversational Session::run path.
#include <cstdio>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"

using namespace mpipu;

int main() {
  // ---- load time: build the model and compile it once --------------------
  Rng rng(99);
  std::vector<ModelLayer> layers(3);
  layers[0] = {"stem", random_filters(rng, 16, 3, 3, 3, ValueDist::kNormal, 0.3),
               ConvSpec{.stride = 1, .pad = 1}, /*relu=*/true, PoolOp::kNone};
  layers[1] = {"body", random_filters(rng, 24, 16, 3, 3, ValueDist::kNormal, 0.1),
               ConvSpec{.stride = 1, .pad = 1}, /*relu=*/true, PoolOp::kMax2};
  layers[2] = {"head", random_filters(rng, 10, 24, 1, 1, ValueDist::kNormal, 0.2),
               ConvSpec{}, /*relu=*/false, PoolOp::kGlobalAvg};
  const GraphModel model =
      GraphModel::from_layers("tiny-cnn", std::move(layers));

  RunSpec spec;
  spec.datapath.adder_tree_width = 16;              // MC-IPU(16)
  spec.policy = PrecisionPolicy::int8_except_first_last();
  spec.threads = 1;  // serving: parallelism across requests, not within one

  // compile() resolves the policy per layer, validates everything, and
  // packs the filter planes -- the work Session::run used to redo per call.
  const CompiledModel compiled =
      Session(spec).compile(model, CompileOptions{.input_h = 16, .input_w = 16});
  std::printf("compiled '%s': %zu layers, input %dx%dx%d, fingerprint %016llx\n",
              compiled.model_name().c_str(), compiled.layer_count(),
              compiled.input_c(), compiled.input_h(), compiled.input_w(),
              static_cast<unsigned long long>(compiled.fingerprint()));

  // ---- serve time: concurrent requests against the immutable plan --------
  std::vector<Tensor> requests;
  for (int i = 0; i < 8; ++i) {
    requests.push_back(random_tensor(rng, 3, 16, 16, ValueDist::kHalfNormal, 1.0));
  }

  RunOptions opts;
  opts.compare_reference = false;  // no FP32 shadow chain on the hot path

  std::vector<RunReport> responses(requests.size());
  std::vector<std::thread> workers;
  constexpr int kWorkers = 4;
  for (int w = 0; w < kWorkers; ++w) {
    workers.emplace_back([&, w] {
      for (size_t q = static_cast<size_t>(w); q < requests.size();
           q += kWorkers) {
        responses[q] = compiled.run(requests[q], opts);  // reentrant
      }
    });
  }
  for (auto& t : workers) t.join();

  for (size_t q = 0; q < responses.size(); ++q) {
    const RunReport& r = responses[q];
    std::printf("request %zu: %lld datapath cycles, top logit %.4f\n", q,
                static_cast<long long>(r.totals.cycles), r.output.data[0]);
  }

  // One-off introspection (error metrics, cycle estimate) stays available:
  // any single call can opt back into the full report.
  RunOptions deep;
  deep.compare_reference = true;
  const RunReport detailed = compiled.run(requests[0], deep);
  std::printf("request 0 end-to-end SNR vs FP32 chain: %.1f dB\n",
              detailed.end_to_end.snr_db);
  return 0;
}
