// Tests for multi-tile partitioning (sim/partition.h) and its two
// consumers:
//
//  * partitioner invariants: shards are balanced-contiguous, disjoint, and
//    their union is the full layer (channels/rows AND MACs); the critical
//    shard's broadcast steps equal layer_broadcast_steps; halo accounting;
//  * multi-tile cycle sim: per-tile utilization/imbalance/critical-tile
//    reporting, exact zero imbalance for evenly divisible couts, idle
//    tiles when the extent is smaller than the tile count;
//  * Release-mode tile validation: an ipus_per_cluster that does not
//    divide ipus_per_tile is rejected with std::invalid_argument in EVERY
//    build mode (the num_clusters() assert vanishes under NDEBUG);
//  * host-sharded execution (RunSpec.partition.shard_host): byte-identical
//    outputs, per-layer stats and totals vs unsharded execution across
//    decomposition schemes x FP16/INT8 x thread counts x partition kinds;
//  * row_concat round-trips row shards exactly.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "api/session.h"
#include "common/rng.h"
#include "nn/elementwise.h"
#include "sim/cycle_sim.h"
#include "sim/partition.h"

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

Network one_layer_net(ConvLayer layer) {
  Network n;
  n.name = "one";
  n.tensor_stats = forward_stats();
  n.layers = {std::move(layer)};
  return n;
}

int64_t ceil_div64(int64_t a, int64_t b) { return (a + b - 1) / b; }

// ---------------------------------------------------------------------------
// Partitioner invariants
// ---------------------------------------------------------------------------

void expect_covers_extent(const std::vector<ShardRange>& shards,
                          PartitionKind kind, int extent) {
  // Contiguous, disjoint, in order, union == [0, extent).
  int at = 0;
  for (const ShardRange& s : shards) {
    const int begin = kind == PartitionKind::kOutputChannel ? s.co_begin
                                                            : s.row_begin;
    const int end =
        kind == PartitionKind::kOutputChannel ? s.co_end : s.row_end;
    EXPECT_EQ(begin, at);
    EXPECT_LE(begin, end);
    at = end;
  }
  EXPECT_EQ(at, extent);
}

TEST(Partition, BalancedContiguousBothKinds) {
  for (const PartitionKind kind :
       {PartitionKind::kOutputChannel, PartitionKind::kSpatialRows}) {
    for (const auto& [cout, hout, tiles] :
         std::vector<std::tuple<int, int, int>>{
             {64, 14, 4}, {65, 13, 4}, {7, 5, 3}, {2, 2, 4}, {1, 1, 1}}) {
      const auto shards = partition_output(cout, hout, tiles, kind);
      ASSERT_EQ(shards.size(), static_cast<size_t>(tiles));
      const int extent = kind == PartitionKind::kOutputChannel ? cout : hout;
      expect_covers_extent(shards, kind, extent);
      int max_size = 0, min_size = extent + 1;
      for (const ShardRange& s : shards) {
        EXPECT_EQ(s.tile, &s - shards.data());
        const int size =
            kind == PartitionKind::kOutputChannel ? s.cout() : s.rows();
        max_size = std::max(max_size, size);
        min_size = std::min(min_size, size);
        // The non-partitioned axis always spans the full extent.
        if (kind == PartitionKind::kOutputChannel) {
          EXPECT_EQ(s.row_begin, 0);
          EXPECT_EQ(s.row_end, hout);
        } else {
          EXPECT_EQ(s.co_begin, 0);
          EXPECT_EQ(s.co_end, cout);
        }
      }
      // Balanced within one; the largest shard is exactly ceil(E/T) -- the
      // legacy critical-tile size.
      EXPECT_LE(max_size - min_size, 1);
      EXPECT_EQ(max_size, static_cast<int>(ceil_div64(extent, tiles)));
    }
  }
}

TEST(Partition, RejectsBadArguments) {
  EXPECT_THROW(partition_output(8, 8, 0, PartitionKind::kOutputChannel),
               std::invalid_argument);
  EXPECT_THROW(partition_output(-1, 8, 2, PartitionKind::kOutputChannel),
               std::invalid_argument);
  EXPECT_THROW(partition_layer(simple_layer(3, 8, 3, 8), -2,
                               PartitionKind::kSpatialRows),
               std::invalid_argument);
}

TEST(Partition, ShardUnionConservesMacs) {
  for (const PartitionKind kind :
       {PartitionKind::kOutputChannel, PartitionKind::kSpatialRows}) {
    for (const int tiles : {1, 3, 4, 7}) {
      const ConvLayer layer = simple_layer(64, 65, 3, 13);
      const LayerPartition part = partition_layer(layer, tiles, kind);
      ASSERT_EQ(part.shards.size(), static_cast<size_t>(tiles));
      EXPECT_EQ(part.total_macs(), layer.macs())
          << partition_kind_name(kind) << " x " << tiles;
    }
  }
}

TEST(Partition, SpatialHaloRows) {
  // 3x3 stride-1: interior boundaries share kh - stride = 2 input rows.
  const ConvLayer layer = simple_layer(16, 16, 3, 12);
  const LayerPartition part =
      partition_layer(layer, 4, PartitionKind::kSpatialRows);
  EXPECT_EQ(part.shards[0].halo_rows, 2);  // next neighbour only
  EXPECT_EQ(part.shards[1].halo_rows, 4);  // both neighbours
  EXPECT_EQ(part.shards[2].halo_rows, 4);
  EXPECT_EQ(part.shards[3].halo_rows, 2);  // prev neighbour only
  // Single tile: no neighbours, no halo.  Output-channel: never a halo.
  EXPECT_EQ(partition_layer(layer, 1, PartitionKind::kSpatialRows)
                .shards[0]
                .halo_rows,
            0);
  for (const LayerShard& s :
       partition_layer(layer, 4, PartitionKind::kOutputChannel).shards) {
    EXPECT_EQ(s.halo_rows, 0);
  }
  // Stride >= kh: windows never overlap, so no halo anywhere.
  ConvLayer strided = simple_layer(16, 16, 3, 8);
  strided.stride = 3;
  for (const LayerShard& s :
       partition_layer(strided, 4, PartitionKind::kSpatialRows).shards) {
    EXPECT_EQ(s.halo_rows, 0);
  }
}

TEST(Partition, CriticalShardStepsMatchLayerBroadcastSteps) {
  const TileConfig big = baseline2();  // (16,16,2,2) x 4 tiles
  for (const ConvLayer& layer :
       {simple_layer(64, 64, 3, 14), simple_layer(3, 64, 7, 112),
        simple_layer(16, 128, 1, 4), simple_layer(64, 65, 3, 13),
        simple_layer(16, 2, 1, 4)}) {
    const LayerPartition part =
        partition_layer(layer, big.num_tiles, PartitionKind::kOutputChannel);
    int64_t critical = 0;
    int64_t sum = 0;
    for (const LayerShard& s : part.shards) {
      const int64_t steps = tile_broadcast_steps(s.layer, big);
      critical = std::max(critical, steps);
      sum += steps;
      EXPECT_LE(steps, layer_broadcast_steps(layer, big));
    }
    EXPECT_EQ(critical, layer_broadcast_steps(layer, big)) << layer.cout;
    // Evenly divisible couts: every shard identical, so the per-tile sum is
    // exactly num_tiles x the critical count.
    if (layer.cout % (big.num_tiles * big.k_unroll) == 0) {
      EXPECT_EQ(sum, critical * big.num_tiles);
    }
  }
}

TEST(Partition, IdleTilesGetZeroSteps) {
  // cout = 2 over 4 tiles: shards of 0/1 channels -- two tiles idle.
  const TileConfig big = baseline2();
  const LayerPartition part =
      partition_layer(simple_layer(16, 2, 1, 4), 4,
                      PartitionKind::kOutputChannel);
  int idle = 0;
  for (const LayerShard& s : part.shards) {
    if (s.range.empty()) {
      ++idle;
      EXPECT_EQ(tile_broadcast_steps(s.layer, big), 0);
    }
  }
  EXPECT_EQ(idle, 2);
}

// ---------------------------------------------------------------------------
// Multi-tile cycle sim
// ---------------------------------------------------------------------------

TEST(MultiTileSim, EvenSplitHasExactlyZeroImbalance) {
  SimOptions opts;
  opts.sampled_steps = 200;
  // 64 cout over 4 tiles x k_unroll 16: every shard identical.
  const auto r =
      simulate_network(one_layer_net(simple_layer(64, 64, 3, 14)), baseline2(),
                       opts);
  ASSERT_EQ(r.layers.size(), 1u);
  const LayerSimResult& l = r.layers[0];
  ASSERT_EQ(l.tiles.size(), 4u);
  EXPECT_EQ(l.imbalance, 0.0);  // exact: equal shards share one stream
  EXPECT_EQ(r.mean_tile_utilization, 1.0);
  for (const TileSimResult& t : l.tiles) {
    EXPECT_EQ(t.steps, l.total_steps);
    EXPECT_EQ(t.cycles, l.total_cycles);
    EXPECT_EQ(t.utilization, 1.0);
  }
  EXPECT_EQ(r.partition, "output_channel");
  EXPECT_EQ(r.num_tiles, 4);
}

TEST(MultiTileSim, UnevenSplitReportsImbalanceAndCriticalTile) {
  SimOptions opts;
  opts.sampled_steps = 200;
  // 65 cout over 4 tiles: shards 16,16,16,17 -> the 17-channel shard needs
  // 2 K-groups vs 1 -- tile 3 is critical and roughly 2x the others.
  const auto r = simulate_network(one_layer_net(simple_layer(64, 65, 3, 14)),
                                  baseline2(), opts);
  const LayerSimResult& l = r.layers[0];
  ASSERT_EQ(l.tiles.size(), 4u);
  EXPECT_EQ(l.critical_tile, 3);
  EXPECT_GT(l.imbalance, 0.0);
  EXPECT_EQ(l.tiles[3].utilization, 1.0);
  EXPECT_EQ(l.total_cycles, l.tiles[3].cycles);
  for (int i = 0; i < 3; ++i) {
    EXPECT_LT(l.tiles[i].utilization, 1.0);
    EXPECT_GT(l.tiles[i].utilization, 0.0);
    EXPECT_EQ(l.tiles[i].steps, l.tiles[0].steps);
  }
  EXPECT_LT(r.mean_tile_utilization, 1.0);
  EXPECT_GT(r.mean_tile_utilization, 0.0);
}

TEST(MultiTileSim, IdleTilesReportZeroUtilization) {
  SimOptions opts;
  opts.sampled_steps = 100;
  const auto r = simulate_network(one_layer_net(simple_layer(16, 2, 1, 8)),
                                  baseline2(), opts);
  const LayerSimResult& l = r.layers[0];
  int idle = 0;
  for (const TileSimResult& t : l.tiles) {
    if (t.steps == 0) {
      ++idle;
      EXPECT_EQ(t.cycles, 0.0);
      EXPECT_EQ(t.utilization, 0.0);
    }
  }
  EXPECT_EQ(idle, 2);
  EXPECT_GT(l.imbalance, 0.0);
}

TEST(MultiTileSim, SpatialRowsPartition) {
  SimOptions opts;
  opts.sampled_steps = 200;
  PartitionSpec part;
  part.kind = PartitionKind::kSpatialRows;
  const auto r = simulate_network(one_layer_net(simple_layer(64, 64, 3, 14)),
                                  baseline2(), opts, part);
  EXPECT_EQ(r.partition, "spatial_rows");
  const LayerSimResult& l = r.layers[0];
  ASSERT_EQ(l.tiles.size(), 4u);
  // 14 rows over 4 tiles (h_unroll 2): bands of 3/4 rows -> 2 row-groups
  // each -- identical steps, zero imbalance for this geometry.
  for (const TileSimResult& t : l.tiles) EXPECT_GT(t.steps, 0);
  EXPECT_GE(l.imbalance, 0.0);
  EXPECT_EQ(l.tiles[static_cast<size_t>(l.critical_tile)].utilization, 1.0);
}

TEST(MultiTileSim, SampledStepsClampIsHonest) {
  // steps_total < sampled_steps: the sampler must clamp to the true count,
  // not scale a longer window.  1x1 conv, 2x2 output on a (16,16,2,2) tile
  // -> exactly 1 broadcast step per tile.
  SimOptions opts;
  opts.sampled_steps = 100;
  const auto r = simulate_network(one_layer_net(simple_layer(16, 16, 1, 2)),
                                  baseline2(), opts);
  const LayerSimResult& l = r.layers[0];
  EXPECT_EQ(l.total_steps, 1);
  // One step, single-cycle baseline: 9 nibble iterations exactly.
  EXPECT_EQ(l.total_cycles, l.cycles_per_step * 1.0);
  EXPECT_NEAR(l.total_cycles, 9.0, 1e-12);
}

TEST(MultiTileSim, RejectsNonPositiveSampledSteps) {
  SimOptions opts;
  opts.sampled_steps = 0;
  EXPECT_THROW(simulate_network(one_layer_net(simple_layer(16, 16, 3, 8)),
                                baseline2(), opts),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Release-mode tile validation (the historical silent-truncation bug)
// ---------------------------------------------------------------------------

TEST(TileValidation, IndivisibleClusterRejectedInEveryBuildMode) {
  TileConfig t = baseline2();        // ipus_per_tile = 64
  t.ipus_per_cluster = 7;            // 64 % 7 != 0
  EXPECT_THROW(t.validate(), std::invalid_argument);
  // Surfaced through simulate_network even when NDEBUG disabled the
  // num_clusters() assert (the bug: integer division silently simulated
  // fewer IPUs than configured).
  EXPECT_THROW(simulate_network(one_layer_net(simple_layer(64, 64, 3, 14)), t),
               std::invalid_argument);
}

TEST(TileValidation, BadFieldsRejected) {
  for (auto mutate : std::vector<void (*)(TileConfig&)>{
           [](TileConfig& t) { t.c_unroll = 0; },
           [](TileConfig& t) { t.k_unroll = -1; },
           [](TileConfig& t) { t.h_unroll = 0; },
           [](TileConfig& t) { t.w_unroll = 0; },
           [](TileConfig& t) { t.num_tiles = 0; },
           [](TileConfig& t) { t.input_buffer_depth = 0; },
           [](TileConfig& t) { t.ipus_per_cluster = 0; }}) {
    TileConfig t = baseline2();
    mutate(t);
    EXPECT_THROW(t.validate(), std::invalid_argument);
  }
  EXPECT_NO_THROW(baseline1().validate());
  EXPECT_NO_THROW(baseline2().validate());
}

TEST(TileValidation, SurfacedThroughSessionEstimate) {
  RunSpec spec;
  spec.datapath = DatapathConfig::for_scheme(DecompositionScheme::kTemporal);
  spec.datapath.n_inputs = 16;
  spec.tile = big_tile(16, 28);
  spec.tile.ipus_per_cluster = 6;  // 64 % 6 != 0
  spec.sim.sampled_steps = 50;
  Session session(spec);
  Rng rng(7);
  std::vector<ModelLayer> layers(1);
  layers[0].name = "conv";
  layers[0].filters = random_filters(rng, 8, 3, 3, 3, ValueDist::kNormal, 0.3);
  const GraphModel model = GraphModel::from_layers("m", std::move(layers));
  EXPECT_THROW(session.estimate(model, 8, 8), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// row_concat
// ---------------------------------------------------------------------------

TEST(RowConcat, RoundTripsRowShards) {
  Rng rng(11);
  const Tensor full = random_tensor(rng, 3, 7, 5, ValueDist::kNormal, 1.0);
  // Slice rows [0,3) and [3,7) per channel, then re-join.
  Tensor top(3, 3, 5), bottom(3, 4, 5);
  for (int c = 0; c < 3; ++c) {
    for (int y = 0; y < 7; ++y) {
      for (int x = 0; x < 5; ++x) {
        if (y < 3) top.at(c, y, x) = full.at(c, y, x);
        else bottom.at(c, y - 3, x) = full.at(c, y, x);
      }
    }
  }
  const Tensor joined = row_concat({&top, &bottom});
  ASSERT_EQ(joined.data.size(), full.data.size());
  for (size_t i = 0; i < full.data.size(); ++i) {
    EXPECT_EQ(joined.data[i], full.data[i]) << i;
  }
}

TEST(RowConcat, RejectsMismatchedShapes) {
  const Tensor a(2, 3, 4), b(3, 3, 4), c(2, 3, 5);
  EXPECT_THROW(row_concat({&a, &b}), std::invalid_argument);  // channels
  EXPECT_THROW(row_concat({&a, &c}), std::invalid_argument);  // width
  EXPECT_THROW(row_concat({&a}), std::invalid_argument);      // arity
}

// ---------------------------------------------------------------------------
// Host-sharded execution byte-identity
// ---------------------------------------------------------------------------

DatapathConfig small_datapath(DecompositionScheme scheme) {
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.software_precision = 28;
  cfg.multi_cycle = true;
  return cfg;
}

/// Tiny 3-layer CNN with real weights; couts 6/8/4 exercise both evenly
/// divisible and ragged shard splits over 4 tiles.
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

void expect_reports_identical(const RunReport& a, const RunReport& b) {
  ASSERT_EQ(a.output.data.size(), b.output.data.size());
  for (size_t i = 0; i < a.output.data.size(); ++i) {
    ASSERT_EQ(a.output.data[i], b.output.data[i]) << "output elt " << i;
  }
  EXPECT_EQ(a.totals, b.totals);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (size_t l = 0; l < a.layers.size(); ++l) {
    EXPECT_EQ(a.layers[l].stats, b.layers[l].stats) << "layer " << l;
  }
  // The serialized documents must agree byte for byte (covers error
  // metrics and field ordering -- everything the report carries).
  EXPECT_EQ(a.to_json(), b.to_json());
}

TEST(HostSharding, ByteIdenticalAcrossSchemesPrecisionsThreadsAndKinds) {
  Rng rng(42);
  const GraphModel model = tiny_model(rng);
  const Tensor input =
      random_tensor(rng, 3, 12, 12, ValueDist::kHalfNormal, 1.0);

  struct Case {
    DecompositionScheme scheme;
    bool with_int;
  };
  for (const Case& c : {Case{DecompositionScheme::kTemporal, true},
                        Case{DecompositionScheme::kSerial, true},
                        Case{DecompositionScheme::kSpatial, false}}) {
    for (const PartitionKind kind :
         {PartitionKind::kOutputChannel, PartitionKind::kSpatialRows}) {
      for (const int threads : {1, 3}) {
        RunSpec spec;
        spec.datapath = small_datapath(c.scheme);
        spec.tile = big_tile(16, 28);  // num_tiles = 4
        spec.policy = PrecisionPolicy::all_fp16(AccumKind::kFp32);
        if (c.with_int) {
          spec.policy.set_layer("conv2", LayerPrecision::int_bits(8, 8));
        }
        spec.threads = threads;
        spec.sim.sampled_steps = 50;
        spec.partition.kind = kind;

        spec.partition.shard_host = false;
        Session plain(spec);
        const RunReport base = plain.run(model, input);

        spec.partition.shard_host = true;
        Session sharded(spec);
        const RunReport shard = sharded.run(model, input);

        SCOPED_TRACE(std::string(scheme_name(c.scheme)) + " / " +
                     partition_kind_name(kind) + " / threads=" +
                     std::to_string(threads));
        expect_reports_identical(base, shard);
      }
    }
  }
}

TEST(HostSharding, SingleTileIsUnsharded) {
  // num_tiles = 1: shard_host must be a no-op (single shard falls through
  // to the plain executor).
  Rng rng(43);
  const GraphModel model = tiny_model(rng);
  const Tensor input =
      random_tensor(rng, 3, 10, 10, ValueDist::kHalfNormal, 1.0);
  RunSpec spec;
  spec.datapath = small_datapath(DecompositionScheme::kTemporal);
  spec.tile = big_tile(16, 28);
  spec.tile.num_tiles = 1;
  spec.tile.ipus_per_cluster = 64;
  spec.threads = 1;
  spec.sim.sampled_steps = 50;

  Session plain(spec);
  const RunReport base = plain.run(model, input);
  spec.partition.shard_host = true;
  Session sharded(spec);
  expect_reports_identical(base, sharded.run(model, input));
}

}  // namespace
}  // namespace mpipu
