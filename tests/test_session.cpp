// Tests for the high-level Session/RunSpec API (src/api):
//
//  * Session::run is bit-exact vs the equivalent layer chain hand-wired on
//    the per-op oracle (per_op_conv.h) -- the facade adds no numeric
//    behaviour of its own;
//  * run_batch determinism: 1 thread and N threads produce identical
//    output tensors and identical stats reductions;
//  * PrecisionPolicy dispatch: INT layers on the FP-only spatial datapath
//    are rejected with a clear error before anything executes;
//  * Session::estimate reproduces simulate_network for the same config
//    (one RunSpec drives both paths);
//  * GraphModel construction/validation and RunReport JSON emission.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "per_op_conv.h"

namespace mpipu {
namespace {

DatapathConfig small_datapath(DecompositionScheme scheme = DecompositionScheme::kTemporal) {
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

/// Tiny 3-layer CNN with real weights: fp16 -> int8 -> fp16 under the
/// mixed policy used below.
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

PrecisionPolicy mixed_policy() {
  PrecisionPolicy policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
  policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
  return policy;
}

TEST(SessionRun, BitExactVsHandWiredPerOpChain) {
  Rng rng(21);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  spec.threads = 1;
  Session session(spec);
  const RunReport report = session.run(model, input);

  // The equivalent hand-wired chain on one per-op oracle.
  PerOpOracle oracle(spec.datapath);
  const std::vector<GraphNode>& n = model.nodes();  // n[0] is the input
  Tensor x = relu(oracle.conv_fp16(input, n[1].filters, n[1].spec));
  x = maxpool2(relu(oracle.conv_int(x, n[2].filters, n[2].spec, 8, 8)));
  x = oracle.conv_fp16(x, n[3].filters, n[3].spec);

  ASSERT_EQ(report.output.data.size(), x.data.size());
  for (size_t i = 0; i < x.data.size(); ++i) {
    EXPECT_EQ(report.output.data[i], x.data[i]) << "elt " << i;
  }
  EXPECT_EQ(report.totals, oracle.stats());
  ASSERT_EQ(report.layers.size(), 3u);
  EXPECT_EQ(report.layers[0].precision, "fp16+fp32acc");
  EXPECT_EQ(report.layers[1].precision, "int8x8");
  EXPECT_GT(report.layers[1].stats.int_ops, 0);
  EXPECT_EQ(report.layers[1].stats.fp_ops, 0);
  EXPECT_GT(report.end_to_end.snr_db, 20.0);
}

TEST(SessionRunBatch, ThreadCountInvariantTensorsAndStats) {
  Rng rng(22);
  const GraphModel model = tiny_model(rng);
  std::vector<Tensor> inputs;
  for (int i = 0; i < 3; ++i) {
    inputs.push_back(random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
  }

  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  spec.threads = 1;
  Session s1(spec);
  spec.threads = 3;
  Session s3(spec);

  const BatchRunReport b1 = s1.run_batch(model, inputs);
  const BatchRunReport b3 = s3.run_batch(model, inputs);
  ASSERT_EQ(b1.runs.size(), inputs.size());
  ASSERT_EQ(b3.runs.size(), inputs.size());
  EXPECT_EQ(b1.totals, b3.totals);
  for (size_t r = 0; r < inputs.size(); ++r) {
    const RunReport& r1 = b1.runs[r];
    const RunReport& r3 = b3.runs[r];
    ASSERT_EQ(r1.output.data.size(), r3.output.data.size());
    for (size_t i = 0; i < r1.output.data.size(); ++i) {
      EXPECT_EQ(r1.output.data[i], r3.output.data[i]) << "run " << r << " elt " << i;
    }
    ASSERT_EQ(r1.layers.size(), r3.layers.size());
    for (size_t l = 0; l < r1.layers.size(); ++l) {
      EXPECT_EQ(r1.layers[l].stats, r3.layers[l].stats) << "run " << r << " layer " << l;
    }
  }
}

TEST(SessionRun, RejectsIntLayerOnTheSpatialScheme) {
  Rng rng(23);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);

  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kSpatial);
  spec.policy = mixed_policy();  // conv2 wants INT8x8
  Session session(spec);
  try {
    session.run(model, input);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("conv2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("int8x8"), std::string::npos) << msg;
    EXPECT_NE(msg.find("spatial"), std::string::npos) << msg;
  }

  // The same model runs fine on spatial with an all-FP16 policy.
  spec.policy = PrecisionPolicy::all_fp16();
  Session fp_session(spec);
  EXPECT_GT(fp_session.run(model, input).totals.fp_ops, 0);
}

TEST(SessionEstimate, ReproducesSimulateNetworkForSameConfig) {
  Network net;
  net.name = "tiny";
  net.tensor_stats = forward_stats();
  ConvLayer l;
  l.name = "L";
  l.cin = 64;
  l.cout = 64;
  l.kh = l.kw = 3;
  l.hout = l.wout = 14;
  net.layers = {l};

  const TileConfig tile = big_tile(16, 28, 16);
  SimOptions opts;
  opts.sampled_steps = 300;

  RunSpec spec;
  spec.datapath = tile.datapath;
  spec.tile = tile;
  spec.sim = opts;
  Session session(spec);

  const NetworkSimResult direct = simulate_network(net, tile, opts);
  const NetworkSimResult api = session.estimate(net);
  EXPECT_EQ(api.total_cycles, direct.total_cycles);
  ASSERT_EQ(api.layers.size(), direct.layers.size());
  EXPECT_EQ(api.layers[0].cycles_per_step, direct.layers[0].cycles_per_step);
}

TEST(SessionEstimate, AdHocModelDerivesShapeTable) {
  Rng rng(24);
  const GraphModel model = tiny_model(rng);
  const Network table = model.shape_table(12, 12);
  ASSERT_EQ(table.layers.size(), 3u);
  EXPECT_EQ(table.layers[0].hout, 12);  // pad-1 3x3 keeps dims
  EXPECT_EQ(table.layers[1].hout, 12);
  EXPECT_EQ(table.layers[2].hout, 6);   // conv2's maxpool halves dims
  EXPECT_EQ(table.layers[2].cin, 8);

  RunSpec spec;
  spec.datapath = small_datapath();
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 100;
  Session session(spec);
  const NetworkSimResult r = session.estimate(model, 12, 12);
  EXPECT_GT(r.total_cycles, 0.0);
  EXPECT_EQ(r.layers.size(), 3u);

  // Models need positive input dims to derive the table.
  EXPECT_THROW(session.estimate(model, 0, 0), std::invalid_argument);
  // Mismatched tile/datapath widths are rejected: one RunSpec, one n.
  RunSpec bad = spec;
  bad.tile = small_tile(16, 28);  // c_unroll = 8 != n_inputs = 16
  EXPECT_THROW(Session(bad).estimate(model, 12, 12), std::invalid_argument);
}

TEST(SessionRun, WithEstimateAttachesSimResult) {
  Rng rng(25);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);
  RunSpec spec;
  spec.datapath = small_datapath();
  spec.tile = big_tile(16, 28);
  spec.sim.sampled_steps = 100;
  Session session(spec);
  RunOptions opts;
  opts.with_estimate = true;
  const RunReport report = session.run(model, input, opts);
  ASSERT_TRUE(report.estimate.has_value());
  EXPECT_GT(report.estimate->total_cycles, 0.0);
  EXPECT_EQ(report.estimate->layers.size(), 3u);
}

TEST(ModelValidation, RejectsBadConstructions) {
  EXPECT_THROW(GraphModel::from_layers("empty", {}), std::invalid_argument);

  Rng rng(26);
  std::vector<ModelLayer> broken(2);
  broken[0].name = "a";
  broken[0].filters = random_filters(rng, 4, 3, 3, 3, ValueDist::kNormal, 0.2);
  broken[1].name = "b";
  broken[1].filters = random_filters(rng, 4, 5, 3, 3, ValueDist::kNormal, 0.2);
  EXPECT_THROW(GraphModel::from_layers("broken", std::move(broken)),
               std::invalid_argument);
}

TEST(PrecisionPolicyTest, PresetsAndOverridePriority) {
  const PrecisionPolicy p = PrecisionPolicy::int8_except_first_last();
  EXPECT_EQ(p.resolve(0, 4, "a"), LayerPrecision::fp16(AccumKind::kFp32));
  EXPECT_EQ(p.resolve(3, 4, "d"), LayerPrecision::fp16(AccumKind::kFp32));
  EXPECT_EQ(p.resolve(1, 4, "b"), LayerPrecision::int_bits(8, 8));

  PrecisionPolicy q = PrecisionPolicy::int8_except_first_last();
  q.set_layer("b", LayerPrecision::int_bits(4, 4));
  q.set_layer(size_t{0}, LayerPrecision::fp16(AccumKind::kFp16));
  EXPECT_EQ(q.resolve(1, 4, "b"), LayerPrecision::int_bits(4, 4));
  EXPECT_EQ(q.resolve(0, 4, "a"), LayerPrecision::fp16(AccumKind::kFp16));

  EXPECT_EQ(LayerPrecision::fp16(AccumKind::kFp16).to_string(), "fp16+fp16acc");
  EXPECT_EQ(LayerPrecision::int_bits(4, 8).to_string(), "int4x8");
}

TEST(RunReportJson, EmitsStructuredDocument) {
  Rng rng(27);
  const GraphModel model = tiny_model(rng);
  const Tensor input = random_tensor(rng, 3, 8, 8, ValueDist::kHalfNormal, 1.0);
  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  Session session(spec);
  const RunReport report = session.run(model, input);

  const std::string json = report.to_json();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key : {"\"model\"", "\"scheme\"", "\"totals\"", "\"cycles\"",
                          "\"end_to_end\"", "\"snr_db\"", "\"layers\"",
                          "\"precision\"", "\"int8x8\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Compact mode emits no newlines.
  EXPECT_EQ(report.to_json(0).find('\n'), std::string::npos);

  BatchRunReport batch = session.run_batch(model, {input});
  const std::string bjson = batch.to_json();
  EXPECT_NE(bjson.find("\"batch\""), std::string::npos);
  EXPECT_NE(bjson.find("\"runs\""), std::string::npos);
}

// Regression: the compile-on-first-use cache used to be unsynchronized, so
// two threads hitting one Session raced the lookup/rotate sequence.  Hammer
// one Session from 8 threads over 10 models, so first-use compiles (several
// threads missing on one model at once), hits and LRU rotations all
// interleave; every thread checks its outputs against a serial baseline.
// The eviction race is test_plan_cache's (its budget holds two plans).
TEST(SessionThreadSafety, ConcurrentRunsShareOneSession) {
  constexpr int kThreads = 8;
  constexpr int kModels = 10;
  constexpr int kRounds = 6;

  RunSpec spec;
  spec.datapath = small_datapath();
  spec.policy = mixed_policy();
  spec.threads = 1;

  std::vector<GraphModel> models;
  std::vector<Tensor> inputs;
  std::vector<Tensor> expected;
  {
    Rng rng(404);
    Session serial(spec);
    for (int m = 0; m < kModels; ++m) {
      models.push_back(tiny_model(rng));
      inputs.push_back(
          random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0));
      expected.push_back(serial.run(models.back(), inputs.back()).output);
    }
  }

  Session shared(spec);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        // Each thread walks the model list from its own offset so lookups
        // and misses collide from the first round.
        const int m = (t + r * 3) % kModels;
        const RunReport rep =
            shared.run(models[static_cast<size_t>(m)],
                       inputs[static_cast<size_t>(m)]);
        if (rep.output.data != expected[static_cast<size_t>(m)].data) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[static_cast<size_t>(t)], 0) << "thread " << t;
  }
}

}  // namespace
}  // namespace mpipu
