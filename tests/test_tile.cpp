// Tests for tile configurations and their invariants (§4.1 geometry).
#include <gtest/gtest.h>

#include "sim/tile.h"

namespace mpipu {
namespace {

TEST(Tile, BigTileGeometryMatchesPaper) {
  const TileConfig t = big_tile(28, 28);
  EXPECT_EQ(t.c_unroll, 16);
  EXPECT_EQ(t.k_unroll, 16);
  EXPECT_EQ(t.h_unroll, 2);
  EXPECT_EQ(t.w_unroll, 2);
  EXPECT_EQ(t.num_tiles, 4);
  EXPECT_EQ(t.ipus_per_tile(), 64);
  EXPECT_EQ(t.multipliers_per_tile(), 1024);
  EXPECT_EQ(t.total_multipliers(), 4096);
}

TEST(Tile, SmallTileGeometryMatchesPaper) {
  const TileConfig t = small_tile(28, 28);
  EXPECT_EQ(t.multipliers_per_tile(), 256);
  EXPECT_EQ(t.total_multipliers(), 1024);
  EXPECT_EQ(t.ipus_per_tile(), 32);
}

TEST(Tile, ClusterCounts) {
  EXPECT_EQ(big_tile(16, 28, 64).num_clusters(), 1);
  EXPECT_EQ(big_tile(16, 28, 1).num_clusters(), 64);
  EXPECT_EQ(big_tile(16, 28, 8).num_clusters(), 8);
  EXPECT_EQ(small_tile(16, 28, 4).num_clusters(), 8);
}

TEST(Tile, MultiCycleFlagFollowsPrecisionCoverage) {
  // w >= P + 10 covers every unmasked shift in the single-cycle window.
  EXPECT_TRUE(big_tile(12, 28).datapath.multi_cycle);
  EXPECT_TRUE(big_tile(28, 28).datapath.multi_cycle);
  EXPECT_FALSE(big_tile(38, 28).datapath.multi_cycle);
  EXPECT_FALSE(big_tile(26, 16).datapath.multi_cycle);
  EXPECT_TRUE(big_tile(25, 16).datapath.multi_cycle);
}

TEST(Tile, BaselinesAreSingleCycle38Bit) {
  const TileConfig b1 = baseline1();
  const TileConfig b2 = baseline2();
  EXPECT_EQ(b1.datapath.adder_tree_width, 38);
  EXPECT_EQ(b2.datapath.adder_tree_width, 38);
  EXPECT_FALSE(b1.datapath.multi_cycle);
  EXPECT_FALSE(b2.datapath.multi_cycle);
  EXPECT_EQ(b1.c_unroll, 8);
  EXPECT_EQ(b2.c_unroll, 16);
  // Baseline peak rates (1 GHz): 1 and 4 TOPS worth of 4x4 MACs.
  EXPECT_EQ(b1.total_multipliers(), 1024);
  EXPECT_EQ(b2.total_multipliers(), 4096);
}

TEST(Tile, DatapathConfigInheritsGeometry) {
  const TileConfig t = big_tile(20, 28, 8);
  EXPECT_EQ(t.datapath.n_inputs, t.c_unroll);
  EXPECT_EQ(t.datapath.adder_tree_width, 20);
  EXPECT_EQ(t.datapath.software_precision, 28);
  EXPECT_EQ(t.datapath.accumulator.t, 4);  // ceil_log2(16)
  EXPECT_TRUE(t.datapath.skip_empty_bands);
}

}  // namespace
}  // namespace mpipu
