// Tests for the compile-once / run-many API (api/compiled_model.h):
//
//  * CompiledModel::run is byte-identical to Session::run -- outputs,
//    per-layer stats, totals, errors, cycles, and the serialized report --
//    for all three decomposition schemes and FP16/INT precision modes;
//  * concurrent execution determinism: M requests on K host threads against
//    ONE CompiledModel are byte-identical to the same requests run
//    serially;
//  * the policy is resolved at compile time and never re-resolved: mutating
//    the policy after compile changes nothing, recompiling does;
//  * compile-time validation: weightless models, INT on the FP-only spatial
//    scheme, missing input dims, collapsing geometry, and run-time shape
//    mismatches are all rejected with std::invalid_argument.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"

namespace mpipu {
namespace {

DatapathConfig small_datapath(DecompositionScheme scheme) {
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

/// Tiny 3-layer CNN with real weights (mirrors test_session's fixture).
GraphModel tiny_model(Rng& rng) {
  std::vector<ModelLayer> layers(3);
  layers[0].name = "conv1";
  layers[0].filters = random_filters(rng, 6, 3, 3, 3, ValueDist::kNormal, 0.3);
  layers[0].spec.pad = 1;
  layers[0].relu = true;
  layers[1].name = "conv2";
  layers[1].filters = random_filters(rng, 8, 6, 3, 3, ValueDist::kNormal, 0.15);
  layers[1].spec.pad = 1;
  layers[1].relu = true;
  layers[1].pool = PoolOp::kMax2;
  layers[2].name = "head";
  layers[2].filters = random_filters(rng, 4, 8, 1, 1, ValueDist::kNormal, 0.2);
  return GraphModel::from_layers("tiny3", std::move(layers));
}

void expect_tensors_identical(const Tensor& a, const Tensor& b,
                              const char* what) {
  ASSERT_EQ(a.data.size(), b.data.size()) << what;
  for (size_t i = 0; i < a.data.size(); ++i) {
    ASSERT_EQ(a.data[i], b.data[i]) << what << " elt " << i;
  }
}

void expect_reports_identical(const RunReport& a, const RunReport& b) {
  expect_tensors_identical(a.output, b.output, "output");
  expect_tensors_identical(a.reference_output, b.reference_output, "reference");
  EXPECT_EQ(a.totals, b.totals);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].layer, b.layers[l].layer);
    EXPECT_EQ(a.layers[l].precision, b.layers[l].precision);
    EXPECT_EQ(a.layers[l].stats, b.layers[l].stats) << "layer " << l;
  }
  // The serialized documents must agree byte for byte (covers error
  // metrics, estimate payloads, field ordering -- everything).
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(CompiledModelTest, ByteIdenticalToSessionRunAllSchemesAndModes) {
  Rng rng(31);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);

  struct Case {
    DecompositionScheme scheme;
    bool with_int;
    AccumKind accum;
  };
  const Case cases[] = {
      {DecompositionScheme::kTemporal, true, AccumKind::kFp32},
      {DecompositionScheme::kTemporal, false, AccumKind::kFp16},
      {DecompositionScheme::kSerial, true, AccumKind::kFp32},
      {DecompositionScheme::kSpatial, false, AccumKind::kFp32},  // FP-only
  };
  for (const Case& c : cases) {
    RunSpec spec;
    spec.datapath = small_datapath(c.scheme);
    spec.policy = PrecisionPolicy::all_fp16(c.accum);
    if (c.with_int) {
      spec.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
    }
    spec.threads = 1;
    Session session(spec);
    const RunReport via_session = session.run(model, input);

    const CompiledModel compiled = session.compile(model, {12, 12});
    const RunReport via_compiled = compiled.run(input);

    EXPECT_EQ(via_compiled.scheme, scheme_name(c.scheme));
    expect_reports_identical(via_compiled, via_session);
    EXPECT_GT(via_compiled.totals.cycles, 0);
  }
}

TEST(CompiledModelTest, WithEstimateMatchesSessionAndBatchComputesItOnce) {
  Rng rng(32);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 100;
  Session session(spec);
  RunOptions opts;
  opts.with_estimate = true;

  const RunReport rs = session.run(model, input, opts);
  const CompiledModel compiled = session.compile(model, {12, 12});
  const RunReport rc = compiled.run(input, opts);
  ASSERT_TRUE(rc.estimate.has_value());
  EXPECT_EQ(rc.estimate->total_cycles, rs.estimate->total_cycles);
  EXPECT_EQ(rc.to_json(), rs.to_json());

  const BatchRunReport batch = compiled.run_batch({input, input}, opts);
  ASSERT_EQ(batch.runs.size(), 2u);
  EXPECT_EQ(batch.runs[0].estimate->total_cycles, rs.estimate->total_cycles);
  EXPECT_EQ(batch.runs[1].estimate->total_cycles, rs.estimate->total_cycles);
}

TEST(CompiledModelTest, ConcurrentCallersAreByteIdenticalToSerial) {
  Rng rng(33);
  const GraphModel model = tiny_model(rng);
  constexpr int kRequests = 6;
  constexpr int kThreads = 4;
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
  }

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  spec.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
  spec.threads = 1;  // serving mode: parallelism across requests
  const CompiledModel compiled =
      Session(spec).compile(model, {10, 10});

  // Serial ground truth.
  std::vector<RunReport> serial;
  for (const Tensor& in : inputs) serial.push_back(compiled.run(in));

  // K host threads hammer the one CompiledModel; every request is issued by
  // several threads at once (maximum contention on the shared plan).
  std::vector<std::vector<RunReport>> per_thread(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (const Tensor& in : inputs) {
        per_thread[static_cast<size_t>(t)].push_back(compiled.run(in));
      }
    });
  }
  for (auto& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[static_cast<size_t>(t)].size(), serial.size());
    for (size_t r = 0; r < serial.size(); ++r) {
      expect_reports_identical(per_thread[static_cast<size_t>(t)][r],
                               serial[r]);
    }
  }
}

TEST(CompiledModelTest, PolicyIsFrozenAtCompileTime) {
  Rng rng(34);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  const CompiledModel compiled =
      CompiledModel::compile(model, spec, {8, 8});
  ASSERT_EQ(compiled.layer_precisions().size(), 3u);
  EXPECT_EQ(compiled.layer_precisions()[1],
            LayerPrecision::fp16(AccumKind::kFp32));
  const RunReport before = compiled.run(input);

  // Mutating the policy object the model was compiled from must not leak
  // into the existing plan: there is no re-resolution after compile.
  spec.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
  const RunReport after = compiled.run(input);
  EXPECT_EQ(after.layers[1].precision, "fp16+fp32acc");
  expect_reports_identical(after, before);

  // Recompiling against the mutated spec is how precision changes land.
  const CompiledModel recompiled = CompiledModel::compile(model, spec, {8, 8});
  EXPECT_EQ(recompiled.layer_precisions()[1], LayerPrecision::int_bits(8, 8));
  const RunReport recompiled_run = recompiled.run(input);
  EXPECT_EQ(recompiled_run.layers[1].precision, "int8x8");
  EXPECT_GT(recompiled_run.layers[1].stats.int_ops, 0);
}

TEST(CompiledModelTest, CompileTimeValidationErrors) {
  Rng rng(35);
  const GraphModel model = tiny_model(rng);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  Session session(spec);

  // Missing input dims.
  EXPECT_THROW(session.compile(model, {}), std::invalid_argument);
  EXPECT_THROW(session.compile(model, {0, 12}), std::invalid_argument);

  // Weightless (shape-only) model.
  GraphModel::Builder shapes("shapes");
  shapes.conv_shape("c1", 4, 4, 3, 3, ConvSpec{}, shapes.input());
  EXPECT_THROW(session.compile(shapes.build(), {8, 8}), std::invalid_argument);

  // INT policy on the FP-only spatial scheme, rejected at compile with a
  // diagnostic naming the layer, the precision, and the scheme.
  RunSpec spatial = spec;
  spatial.datapath = small_datapath(DecompositionScheme::kSpatial);
  spatial.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
  try {
    (void)Session(spatial).compile(model, {12, 12});  // must throw, not return
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("int8x8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("spatial"), std::string::npos) << msg;
  }

  // Geometry that collapses mid-chain (conv2's maxpool on a 2x2 map gives
  // 1x1; the 3x3 pad-1 conv still works there, but a 4x4 pad-0 kernel
  // cannot fit): build a model whose second layer underflows.
  std::vector<ModelLayer> bad(2);
  bad[0].name = "a";
  bad[0].filters = random_filters(rng, 4, 3, 3, 3, ValueDist::kNormal, 0.2);
  bad[1].name = "b";
  bad[1].filters = random_filters(rng, 4, 4, 4, 4, ValueDist::kNormal, 0.2);
  const GraphModel collapsing =
      GraphModel::from_layers("collapses", std::move(bad));
  EXPECT_THROW(session.compile(collapsing, {4, 4}), std::invalid_argument);

  // Run-time shape mismatch against the compiled geometry.
  const CompiledModel compiled = session.compile(model, {12, 12});
  EXPECT_THROW(compiled.run(Tensor(3, 10, 10)), std::invalid_argument);
  EXPECT_THROW(compiled.run(Tensor(4, 12, 12)), std::invalid_argument);
  EXPECT_NO_THROW(compiled.run(Tensor(3, 12, 12)));
}

TEST(CompiledModelTest, MatchesTracksModelContent) {
  Rng rng(36);
  const GraphModel model = tiny_model(rng);
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  const CompiledModel compiled = CompiledModel::compile(model, spec, {8, 8});

  EXPECT_TRUE(compiled.matches(model));

  // A one-ulp weight change breaks the exact match.
  std::vector<GraphNode> nodes = model.nodes();
  nodes[2].filters.data[0] += 1e-6;  // conv2 (node 0 is the input)
  const GraphModel tweaked = GraphModel::from_nodes("tiny3", std::move(nodes));
  EXPECT_FALSE(compiled.matches(tweaked));
}

// plan_bytes() is what PlanCache budgets: it must see the clip classes a
// larger input adds, and it always covers the source weights the plan keeps.
TEST(CompiledModelTest, PlanBytesCountPackedPlanesAndSourceWeights) {
  Rng rng(37);
  const FilterBank filters =
      random_filters(rng, 8, 4, 3, 3, ValueDist::kNormal, 0.2);
  GraphModel::Builder b("conv3x3");
  b.conv("c", filters, ConvSpec{.stride = 1, .pad = 1}, b.input());
  const GraphModel model = b.build();
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);

  const size_t weight_bytes = filters.data.size() * sizeof(double);
  size_t previous = 0;
  for (const int dim : {1, 8}) {
    const size_t bytes =
        CompiledModel::compile(model, spec, {dim, dim}).plan_bytes();
    EXPECT_GE(bytes, weight_bytes) << dim << "x" << dim;
    EXPECT_GT(bytes, previous) << dim << "x" << dim;
    previous = bytes;
  }
  // INT plans are counted too.
  spec.policy = PrecisionPolicy::all_int(8);
  EXPECT_GE(CompiledModel::compile(model, spec, {8, 8}).plan_bytes(),
            weight_bytes);
}

/// One 1x1 conv, 4 -> 2 channels, every weight 0.5 except `weights[index]`.
GraphModel one_by_one(size_t index, double weight) {
  FilterBank f(2, 4, 1, 1);
  for (double& v : f.data) v = 0.5;
  f.data[index] = weight;
  GraphModel::Builder b("one_by_one");
  b.conv("pointwise", f, ConvSpec{}, b.input());
  return b.build();
}

Tensor ones(int c, int h, int w) {
  Tensor t(c, h, w);
  for (double& v : t.data) v = 1.0;
  return t;
}

/// Runs `fn`, which must throw std::invalid_argument, and returns what().
template <typename Fn>
std::string invalid_argument_message(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected std::invalid_argument";
  return {};
}

TEST(CompiledModelTest, NonFiniteFp16WeightsAreRejectedAtCompile) {
  // The FP16 datapath has no inf/NaN support: a weight whose FP16 rounding
  // is not finite used to decode as exponent 16 and compute 2^16-scaled
  // garbage.  compile rejects it, naming the layer, index and value.
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  const struct {
    double weight;
    const char* shown;
  } bad[] = {{70000.0, "70000"},
             {65520.0, "65520"},  // the tie rounds to even: +inf
             {std::numeric_limits<double>::quiet_NaN(), "nan"},
             {-std::numeric_limits<double>::infinity(), "-inf"}};
  for (const auto& c : bad) {
    const GraphModel model = one_by_one(5, c.weight);
    const std::string msg = invalid_argument_message(
        [&] { (void)CompiledModel::compile(model, spec, {2, 2}); });
    EXPECT_NE(msg.find("'pointwise'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("index 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find(c.shown), std::string::npos) << msg;
  }
}

TEST(CompiledModelTest, LargestFiniteFp16WeightsStillCompileAndRun) {
  // 65504 is FP16's max finite value and 65519.99 rounds down to it: both
  // stay legal operands.  Weights 65504 + 3 * 0.5 over an input of ones.
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  for (const double w : {65504.0, 65519.99, -65519.99}) {
    const CompiledModel compiled =
        CompiledModel::compile(one_by_one(1, w), spec, {2, 2});
    const RunReport r = compiled.run(ones(4, 2, 2));
    const double expect = (w > 0 ? 65504.0 : -65504.0) + 1.5;
    EXPECT_EQ(r.output.at(0, 0, 0), expect) << w;
    EXPECT_EQ(r.output.at(1, 1, 1), 2.0) << w;
  }
  // The same boundary on the activation side.
  const CompiledModel compiled =
      CompiledModel::compile(one_by_one(0, 0.5), spec, {2, 2});
  Tensor x = ones(4, 2, 2);
  x.data[3] = 65519.99;
  EXPECT_NO_THROW(compiled.run(x));
}

TEST(CompiledModelTest, NonFiniteFp16ActivationIsRejectedAtRun) {
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  const CompiledModel compiled =
      CompiledModel::compile(one_by_one(0, 0.5), spec, {2, 2});
  Tensor x = ones(4, 2, 2);
  x.data[6] = 1e6;
  const std::string msg =
      invalid_argument_message([&] { (void)compiled.run(x); });
  EXPECT_NE(msg.find("'pointwise'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("index 6"), std::string::npos) << msg;
  EXPECT_NE(msg.find("1000000"), std::string::npos) << msg;

  // Parallel branches run on pool workers: the error still reaches the
  // caller (rethrown by the pool) instead of terminating the process.
  FilterBank f(2, 4, 1, 1);
  for (double& v : f.data) v = 0.25;
  GraphModel::Builder b("branches");
  const int in = b.input();
  const int left = b.conv("left", f, ConvSpec{}, in);
  const int right = b.conv("right", f, ConvSpec{}, in);
  b.add("sum", left, right);
  RunSpec threaded = spec;
  threaded.threads = 2;
  const CompiledModel branches =
      CompiledModel::compile(b.build(), threaded, {2, 2});
  EXPECT_THROW((void)branches.run(x), std::invalid_argument);
  EXPECT_NO_THROW((void)branches.run(ones(4, 2, 2)));
}

TEST(CompiledModelTest, CacheDistinguishesModelsByShapeTableStats) {
  // Two graphs with byte-identical weights, names and node specs but
  // different tensor statistics derive different shape tables -- exactly
  // what estimate() consumes.  The compile cache must not serve one
  // model's estimate for the other.
  Rng rng(39);
  const FilterBank filters =
      random_filters(rng, 4, 4, 3, 3, ValueDist::kNormal, 0.2);
  const auto twin = [&](LayerTensorStats stats) {
    GraphModel::Builder b("twin");
    b.conv("c1", filters, ConvSpec{.stride = 1, .pad = 1}, b.input());
    b.tensor_stats(stats);
    return b.build();
  };
  const GraphModel model_a = twin(forward_stats());
  // Same shapes and weights, wider exponents.
  const GraphModel model_b = twin(backward_stats());
  EXPECT_EQ(model_a.nodes(), model_b.nodes());

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 100;
  Session session(spec);
  RunOptions opts;
  opts.with_estimate = true;
  const Tensor input(4, 8, 8);
  const RunReport ra = session.run(model_a, input, opts);
  const RunReport rb = session.run(model_b, input, opts);
  // matches() (the exact second stage) must have rejected the cache hit:
  // backward stats spread alignments far wider, so the estimates differ.
  EXPECT_NE(ra.estimate->total_cycles, rb.estimate->total_cycles);
  EXPECT_FALSE(session.compile(model_a, {8, 8}).matches(model_b));
}

TEST(CompiledModelTest, SessionCompileCacheReusesAndRecompiles) {
  Rng rng(37);
  const GraphModel model = tiny_model(rng);
  const Tensor a = random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  const Tensor b = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  Session session(spec);
  // Same model at two input geometries, interleaved: both plans stay
  // cached, outputs stay deterministic across repeats.
  const RunReport a1 = session.run(model, a);
  const RunReport b1 = session.run(model, b);
  const RunReport a2 = session.run(model, a);
  const RunReport b2 = session.run(model, b);
  expect_reports_identical(a2, a1);
  expect_reports_identical(b2, b1);
}

}  // namespace
}  // namespace mpipu
