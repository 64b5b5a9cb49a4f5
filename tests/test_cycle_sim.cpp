// Tests for the cycle-accurate tile simulator: mapping arithmetic, stall
// behaviour, clustering benefits, precision/cycle monotonicity, the pinned
// draw sequence and the tensor-statistics validation.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "api/run_spec.h"
#include "sim/cycle_sim.h"

namespace mpipu {
namespace {

ConvLayer simple_layer(int cin, int cout, int k, int hw) {
  ConvLayer l;
  l.name = "L";
  l.cin = cin;
  l.cout = cout;
  l.kh = l.kw = k;
  l.hout = l.wout = hw;
  return l;
}

Network tiny_net(LayerTensorStats stats) {
  Network n;
  n.name = "tiny";
  n.tensor_stats = stats;
  n.layers = {simple_layer(64, 64, 3, 14)};
  return n;
}

TEST(Mapping, BroadcastStepArithmetic) {
  const TileConfig big = baseline2();  // (16,16,2,2) x 4 tiles
  // 64 cin -> 4 chunks of 16; 64 cout over 4 tiles -> 16/tile -> 1 K-group;
  // 14x14 output over 2x2 -> 7*7 = 49 groups; 3x3 kernel -> 9 positions.
  EXPECT_EQ(layer_broadcast_steps(simple_layer(64, 64, 3, 14), big), 9 * 4 * 1 * 49);
  // Partial channel chunk rounds up.
  EXPECT_EQ(layer_broadcast_steps(simple_layer(3, 64, 7, 112), big),
            49LL * 1 * 1 * 56 * 56);
  // cout = 128 over 4 tiles = 32 -> 2 K-groups.
  EXPECT_EQ(layer_broadcast_steps(simple_layer(16, 128, 1, 4), big), 1 * 1 * 2 * 4);
}

TEST(Mapping, SmallTileHasMoreSteps) {
  const ConvLayer l = simple_layer(64, 64, 3, 28);
  const int64_t big = layer_broadcast_steps(l, baseline2());
  const int64_t small = layer_broadcast_steps(l, baseline1());
  // Small tile has 1/4 the multipliers -> 4x the steps.
  EXPECT_EQ(small, big * 4);
}

TEST(CycleSim, BaselineRunsNineCyclesPerStep) {
  // 38b adder tree, single-cycle: every op is 9 nibble iterations, so the
  // steady-state rate is exactly 9 cycles/step regardless of data.
  SimOptions opts;
  opts.sampled_steps = 400;
  const auto r = simulate_network(tiny_net(forward_stats()), baseline2(), opts);
  ASSERT_EQ(r.layers.size(), 1u);
  EXPECT_NEAR(r.layers[0].cycles_per_step, 9.0, 0.1);
  EXPECT_NEAR(r.layers[0].avg_iteration_cycles, 1.0, 1e-9);
}

TEST(CycleSim, NarrowAdderTreeIsSlowerAndWideIsBaselineEqual) {
  SimOptions opts;
  opts.sampled_steps = 400;
  const Network net = tiny_net(forward_stats());
  const auto base = simulate_network(net, baseline2(), opts);
  double prev = 1e18;
  for (int w : {12, 16, 20, 28}) {
    const auto r = simulate_network(net, big_tile(w, 28), opts);
    EXPECT_GE(r.total_cycles, base.total_cycles * 0.999) << w;
    // Monotone: wider trees are never slower.
    EXPECT_LE(r.total_cycles, prev * 1.02) << w;
    prev = r.total_cycles;
  }
  // w=38 covers the 28b software precision in one cycle: equals baseline.
  const auto wide = simulate_network(net, big_tile(38, 28), opts);
  EXPECT_NEAR(wide.normalized_to(base), 1.0, 1e-6);
}

TEST(CycleSim, ClusteringReducesExecutionTime) {
  SimOptions opts;
  opts.sampled_steps = 600;
  const Network net = tiny_net(backward_stats());  // wide alignments: stalls
  const auto whole_tile = simulate_network(net, big_tile(16, 28, 64), opts);
  const auto clustered = simulate_network(net, big_tile(16, 28, 4), opts);
  EXPECT_LT(clustered.total_cycles, whole_tile.total_cycles);
}

TEST(CycleSim, ClusterSizeMonotonicity) {
  SimOptions opts;
  opts.sampled_steps = 500;
  const Network net = tiny_net(forward_stats());
  double prev = 0.0;
  for (int cluster : {4, 8, 16, 32, 64}) {
    const auto r = simulate_network(net, big_tile(16, 28, cluster), opts);
    EXPECT_GE(r.total_cycles, prev * 0.98) << cluster;  // bigger cluster, slower
    prev = r.total_cycles;
  }
}

TEST(CycleSim, BackwardWorkloadCostsMoreThanForward) {
  SimOptions opts;
  opts.sampled_steps = 500;
  const TileConfig tile = big_tile(16, 28, 64);
  const auto fwd = simulate_network(tiny_net(forward_stats()), tile, opts);
  const auto bwd = simulate_network(tiny_net(backward_stats()), tile, opts);
  EXPECT_GT(bwd.layers[0].avg_iteration_cycles, fwd.layers[0].avg_iteration_cycles);
}

TEST(CycleSim, EightInputIpusNeedFewerCyclesPerIterationThanSixteen) {
  // Fewer products per IPU -> smaller max alignment (paper §4.3).
  SimOptions opts;
  opts.sampled_steps = 500;
  const Network net = tiny_net(forward_stats());
  const auto small = simulate_network(net, small_tile(12, 28, 32), opts);
  const auto big = simulate_network(net, big_tile(12, 28, 64), opts);
  EXPECT_LT(small.layers[0].avg_iteration_cycles, big.layers[0].avg_iteration_cycles);
}

TEST(CycleSim, DeterministicForFixedSeed) {
  SimOptions opts;
  opts.sampled_steps = 200;
  const Network net = tiny_net(forward_stats());
  const auto a = simulate_network(net, big_tile(16, 28, 16), opts);
  const auto b = simulate_network(net, big_tile(16, 28, 16), opts);
  EXPECT_EQ(a.total_cycles, b.total_cycles);
}

TEST(CycleSim, TotalCyclesScaleWithSteps) {
  SimOptions opts;
  opts.sampled_steps = 300;
  Network net = tiny_net(forward_stats());
  const auto r1 = simulate_network(net, baseline2(), opts);
  net.layers[0].repeat = 2;
  const auto r2 = simulate_network(net, baseline2(), opts);
  EXPECT_NEAR(r2.total_cycles / r1.total_cycles, 2.0, 0.05);
}

TEST(AlignmentHistogramTest, ForwardConcentratedBackwardWide) {
  // The Fig. 9 shape: forward alignments cluster near zero with ~1% above
  // 8; backward alignments are spread much wider.
  const auto fwd = alignment_histogram(resnet18_forward(), 8, 800);
  const auto bwd = alignment_histogram(resnet18_backward(), 8, 800);
  EXPECT_GT(fwd.fraction(0) + fwd.fraction(1) + fwd.fraction(2) + fwd.fraction(3) +
                fwd.fraction(4),
            0.5);
  EXPECT_LT(fwd.fraction_above(8), 0.05);
  EXPECT_GT(bwd.fraction_above(8), fwd.fraction_above(8) * 3);
}

// --- pinned draw sequence ----------------------------------------------------
//
// The simulator's outputs are a function of its random draw sequence (the
// std::mt19937_64 + std::bernoulli_distribution stream of the seed), so any
// change to that sequence moves these values.  Recorded from the
// std::bernoulli_distribution implementation; must hold on every kernel
// backend (MPIPU_KERNEL=scalar included).

struct PinnedLayer {
  const char* name;
  double cycles_per_step;
  double stall_fraction;
};

void expect_pinned(const Network& net, double total_cycles,
                   const std::vector<PinnedLayer>& layers) {
  // What CompiledModel::estimate() passes for a default RunSpec.
  const RunSpec spec;
  const NetworkSimResult r = simulate_network(
      net, composed_tile_for(spec, spec.tile), spec.sim, spec.partition);
  EXPECT_EQ(r.total_cycles, total_cycles) << net.name;
  ASSERT_EQ(r.layers.size(), layers.size()) << net.name;
  for (size_t i = 0; i < layers.size(); ++i) {
    EXPECT_EQ(r.layers[i].layer, layers[i].name);
    EXPECT_EQ(r.layers[i].cycles_per_step, layers[i].cycles_per_step)
        << layers[i].name;
    EXPECT_EQ(r.layers[i].stall_fraction, layers[i].stall_fraction)
        << layers[i].name;
  }
}

TEST(CycleSimPinned, ResNet18ForwardDefaultSpec) {
  constexpr double kStall = 0x1.fd44f3078263bp-1;
  expect_pinned(resnet18_forward(), 0x1.48eda4189374cp+22,  // 5389161.024
                {
                    {"conv1", 0x1.2p+3, kStall},
                    {"layer1.conv3x3", 0x1.20624dd2f1aap+3, kStall},
                    {"layer2.0.conv1", 0x1.2p+3, kStall},
                    {"layer2.0.down", 0x1.209374bc6a7fp+3, kStall},
                    {"layer2.conv3x3", 0x1.2p+3, kStall},
                    {"layer3.0.conv1", 0x1.209374bc6a7fp+3, kStall},
                    {"layer3.0.down", 0x1.203126e978d5p+3, kStall},
                    {"layer3.conv3x3", 0x1.20624dd2f1aap+3, kStall},
                    {"layer4.0.conv1", 0x1.203126e978d5p+3, kStall},
                    {"layer4.0.down", 0x1.209374bc6a7fp+3, kStall},
                    {"layer4.conv3x3", 0x1.20624dd2f1aap+3, kStall},
                });
}

TEST(CycleSimPinned, ResNet18BackwardDefaultSpec) {
  constexpr double kStall = 0x1.fd44f3078263bp-1;
  expect_pinned(resnet18_backward(), 0x1.3320aa7ef9db3p+23,  // 10063957.248
                {
                    {"layer1.conv3x3.dgrad", 0x1.1449ba5e353f8p+4, kStall},
                    {"layer2.0.conv1.dgrad", 0x1.16978d4fdf3b6p+4, kStall},
                    {"layer2.0.down.dgrad", 0x1.1589374bc6a7fp+4, kStall},
                    {"layer2.conv3x3.dgrad", 0x1.1570a3d70a3d7p+4, kStall},
                    {"layer3.0.conv1.dgrad", 0x1.14ac083126e98p+4, kStall},
                    {"layer3.0.down.dgrad", 0x1.14f5c28f5c28fp+4, kStall},
                    {"layer3.conv3x3.dgrad", 0x1.1604189374bc7p+4, kStall},
                    {"layer4.0.conv1.dgrad", 0x1.14624dd2f1aap+4, kStall},
                    {"layer4.0.down.dgrad", 0x1.14f5c28f5c28fp+4, kStall},
                    {"layer4.conv3x3.dgrad", 0x1.150e560418937p+4, kStall},
                });
}

TEST(CycleSimPinned, InputBufferDepthsOnAClusteredTile) {
  // Clusters of 8 IPUs with wide backward alignments run at different
  // speeds, so the broadcaster's wait on finish(c, t - B) shapes the
  // result: every buffer depth gives its own cycles and stalls.
  struct Pin {
    int depth;
    double total_cycles;
    double stall_fraction;
  };
  SimOptions opts;
  opts.sampled_steps = 500;
  for (const Pin& pin : {Pin{1, 0x1.c96d604189375p+15, 0x1.fef9db22d0e56p-1},
                         Pin{2, 0x1.afe076c8b4396p+15, 0x1.fdf3b645a1cacp-1},
                         Pin{5, 0x1.af6174bc6a7fp+15, 0x1.fae147ae147aep-1}}) {
    TileConfig tile = big_tile(16, 28, 8);
    tile.input_buffer_depth = pin.depth;
    const auto r = simulate_network(tiny_net(backward_stats()), tile, opts);
    EXPECT_EQ(r.total_cycles, pin.total_cycles) << "depth " << pin.depth;
    EXPECT_EQ(r.layers[0].stall_fraction, pin.stall_fraction)
        << "depth " << pin.depth;
  }
}

void expect_bins(const IntHistogram& h, const std::vector<int64_t>& bins) {
  int64_t total = 0;
  for (int v = 0; v <= h.max_bin() + 1; ++v) {
    const int64_t want =
        static_cast<size_t>(v) < bins.size() ? bins[static_cast<size_t>(v)] : 0;
    EXPECT_EQ(h.count(v), want) << "bin " << v;
    total += want;
  }
  EXPECT_EQ(h.total(), total);
}

TEST(CycleSimPinned, AlignmentHistogramBins) {
  expect_bins(alignment_histogram(resnet18_forward(), 8, 800),
              {21725, 7628, 4335, 2346, 1311, 712, 339, 187, 93, 45, 22, 22,
               6, 10, 1, 3, 1});
  expect_bins(alignment_histogram(resnet18_backward(), 8, 800),
              {10724, 5462, 4837, 4275, 3595, 2996, 2468, 2168, 1799,
               1502,  1273, 1045, 889,  752,  635,  597,  461,  400,
               315,   275,  215,  197,  173,  118,  119,  97,   90,
               75,    50,   47,   44,   34,   33,   28,   11,   15,
               16,    13,   13,   20,   11,   4,    3,    2});
}

// --- tensor-statistics validation ---------------------------------------------

/// Both samplers reject `stats`, naming `field` in the message.
void expect_rejected(const LayerTensorStats& stats, const std::string& field) {
  Network net = tiny_net(stats);
  SimOptions opts;
  opts.sampled_steps = 10;
  try {
    simulate_network(net, baseline2(), opts);
    ADD_FAILURE() << "simulate_network accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
  try {
    alignment_histogram(net, 8, 10);
    ADD_FAILURE() << "alignment_histogram accepted a bad " << field;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

constexpr double kBadProbabilities[] = {
    std::numeric_limits<double>::quiet_NaN(), -0.0001, 1.0001,
    -std::numeric_limits<double>::infinity(),
    std::numeric_limits<double>::infinity()};

TEST(TensorStatsValidation, ActZeroProb) {
  for (double p : kBadProbabilities) {
    LayerTensorStats s = forward_stats();
    s.act_zero_prob = p;
    expect_rejected(s, "act_zero_prob");
  }
}

TEST(TensorStatsValidation, ActJitterPZero) {
  for (double p : kBadProbabilities) {
    LayerTensorStats s = forward_stats();
    s.act_jitter.p_zero = p;
    expect_rejected(s, "act_jitter.p_zero");
  }
}

TEST(TensorStatsValidation, ActJitterDecay) {
  for (double p : kBadProbabilities) {
    LayerTensorStats s = forward_stats();
    s.act_jitter.decay = p;
    expect_rejected(s, "act_jitter.decay");
  }
}

TEST(TensorStatsValidation, ActJitterMaxDepth) {
  for (int d : {0, -1}) {
    LayerTensorStats s = forward_stats();
    s.act_jitter.max_depth = d;
    expect_rejected(s, "act_jitter.max_depth");
  }
}

TEST(TensorStatsValidation, WgtJitterPZero) {
  for (double p : kBadProbabilities) {
    LayerTensorStats s = forward_stats();
    s.wgt_jitter.p_zero = p;
    expect_rejected(s, "wgt_jitter.p_zero");
  }
}

TEST(TensorStatsValidation, WgtJitterDecay) {
  for (double p : kBadProbabilities) {
    LayerTensorStats s = forward_stats();
    s.wgt_jitter.decay = p;
    expect_rejected(s, "wgt_jitter.decay");
  }
}

TEST(TensorStatsValidation, WgtJitterMaxDepth) {
  for (int d : {0, -1}) {
    LayerTensorStats s = forward_stats();
    s.wgt_jitter.max_depth = d;
    expect_rejected(s, "wgt_jitter.max_depth");
  }
}

TEST(TensorStatsValidation, ClosedIntervalEndsAreAccepted) {
  LayerTensorStats s = forward_stats();
  s.act_zero_prob = 0.0;
  s.act_jitter = {0.0, 1.0, 1};
  s.wgt_jitter = {1.0, 0.0, 1};
  SimOptions opts;
  opts.sampled_steps = 10;
  EXPECT_NO_THROW(simulate_network(tiny_net(s), baseline2(), opts));
  EXPECT_NO_THROW(alignment_histogram(tiny_net(s), 8, 10));
  s.act_zero_prob = 1.0;
  EXPECT_NO_THROW(simulate_network(tiny_net(s), baseline2(), opts));
}

TEST(SimOptionsTest, IterationsPerOpDerivesFromScheme) {
  // Since the removal of the deprecated SimOptions.iterations_per_op
  // override, the scheme is the only derivation point for the per-op base
  // step count.
  const SimOptions opts;
  EXPECT_EQ(opts.effective_iterations_per_op(DecompositionScheme::kTemporal), 9);
  EXPECT_EQ(opts.effective_iterations_per_op(DecompositionScheme::kSerial), 12);
  EXPECT_EQ(opts.effective_iterations_per_op(DecompositionScheme::kSpatial), 1);
  EXPECT_EQ(opts.effective_iterations_per_op(DecompositionScheme::kTemporal),
            fp16_iterations_per_op(DecompositionScheme::kTemporal));
}

TEST(SimOptionsTest, SchemeDerivationMatchesServiceCycleModel) {
  // The derived base count is exactly the unbanded service time of an op
  // (fp16_op_service_cycles with multi_cycle off), per scheme.
  for (auto s : {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
                 DecompositionScheme::kSpatial}) {
    DatapathConfig cfg = DatapathConfig::for_scheme(s);
    cfg.multi_cycle = false;
    cfg.skip_empty_bands = false;
    const std::vector<int> exps{0, 1, 2, 3};
    EXPECT_EQ(fp16_op_service_cycles(exps, cfg),
              SimOptions{}.effective_iterations_per_op(s))
        << scheme_name(s);
  }
}

TEST(CycleSim, StallFractionBoundedAndBuffersHelp) {
  SimOptions opts;
  opts.sampled_steps = 500;
  const Network net = tiny_net(backward_stats());
  TileConfig shallow = big_tile(16, 28, 8);
  shallow.input_buffer_depth = 1;
  TileConfig deep = shallow;
  deep.input_buffer_depth = 16;
  const auto r_shallow = simulate_network(net, shallow, opts);
  const auto r_deep = simulate_network(net, deep, opts);
  EXPECT_LE(r_deep.total_cycles, r_shallow.total_cycles * 1.001);
}

// Pins the removal of the dead `exponent_pool` knob (PR 10): it was carried
// by SimOptions through PR 9 but never read anywhere, so a caller setting it
// got silently ignored.  If someone re-adds the member, this fails until the
// simulator actually consumes it (at which point delete this test).
template <typename T, typename = void>
struct HasExponentPool : std::false_type {};
template <typename T>
struct HasExponentPool<T, std::void_t<decltype(std::declval<T>().exponent_pool)>>
    : std::true_type {};

TEST(SimOptionsTest, ExponentPoolKnobStaysRemoved) {
  static_assert(!HasExponentPool<SimOptions>::value,
                "SimOptions.exponent_pool was removed as dead config in PR 10; "
                "re-adding it requires wiring it into simulate_network");
  SUCCEED();
}

}  // namespace
}  // namespace mpipu
