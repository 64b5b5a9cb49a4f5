// Design-space exploration (paper §4.4): sweep adder-tree precision and
// cluster size, score each design on INT4 and FP16 area/power efficiency
// under a user-selectable INT/FP workload mix, and print the Pareto set.
// Then sweep the multi-tile partition (sim/partition.h): partition kind x
// tile count, reporting per-tile utilization and load imbalance.
//
//   ./examples/design_space_explorer [fp_fraction] [--smoke]
//                                    [--tiles-json [path]]
//     fp_fraction: fraction of deployed work that is FP16 (default 0.25)
//     --smoke: shrink both sweeps for CI
//     --tiles-json: write the partition sweep to path (default
//                   BENCH_tiles.json)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "api/json.h"
#include "api/session.h"
#include "model/hw_model.h"

using namespace mpipu;

namespace {

struct Candidate {
  int w = 0, cluster = 0;
  double tops_mm2 = 0.0, tflops_mm2 = 0.0, tops_w = 0.0, tflops_w = 0.0;
  double blended_per_mm2 = 0.0;  // workload-weighted throughput density
};

}  // namespace

int main(int argc, char** argv) {
  double fp_fraction = 0.25;
  bool smoke = false;
  std::string tiles_json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--tiles-json") == 0) {
      tiles_json_path = (i + 1 < argc && argv[i + 1][0] != '-')
                            ? argv[++i]
                            : "BENCH_tiles.json";
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr,
                   "usage: %s [fp_fraction] [--smoke] [--tiles-json [path]]\n",
                   argv[0]);
      return 2;
    } else {
      fp_fraction = std::atof(argv[i]);
    }
  }
  std::printf("== IPU design-space explorer (FP16 share of work: %.0f%%) ==\n\n",
              100.0 * fp_fraction);

  // Every design is scored through the high-level API: one Session per
  // candidate, whose RunSpec datapath + tile geometry come from the design,
  // estimating the same shape table.
  const Network net = resnet18_forward();
  SimOptions opts;
  opts.sampled_steps = smoke ? 80 : 300;

  auto estimate_design = [&](const TileConfig& tile) {
    RunSpec spec;
    spec.datapath = tile.datapath;
    spec.tile = tile;
    spec.sim = opts;
    return Session(spec).estimate(net);
  };
  const auto base_run = estimate_design(baseline2());

  const std::vector<int> widths =
      smoke ? std::vector<int>{16, 38} : std::vector<int>{12, 14, 16, 20, 24, 28, 38};
  const std::vector<int> cluster_sizes =
      smoke ? std::vector<int>{1, 64} : std::vector<int>{1, 2, 4, 16, 64};
  std::vector<Candidate> cands;
  for (int w : widths) {
    for (int cluster : cluster_sizes) {
      DesignConfig d = proposed_design(w, cluster, /*big=*/true);
      if (w >= 38) d.tile.datapath.multi_cycle = false;
      const auto run = estimate_design(d.tile);
      const double slowdown = run.normalized_to(base_run);
      Candidate c;
      c.w = w;
      c.cluster = cluster;
      c.tops_mm2 = tops_per_mm2(d, 4, 4);
      c.tops_w = tops_per_w(d, 4, 4);
      c.tflops_mm2 = tflops_per_mm2(d, slowdown);
      c.tflops_w = tflops_per_w(d, slowdown);
      // Blend: harmonic-style weighting of INT and FP density.
      c.blended_per_mm2 =
          (1.0 - fp_fraction) * c.tops_mm2 + fp_fraction * 9.0 * c.tflops_mm2;
      cands.push_back(c);
    }
  }

  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.blended_per_mm2 > b.blended_per_mm2;
            });

  std::printf("%-14s %12s %14s %10s %12s %14s\n", "design (w,c)", "TOPS/mm2",
              "TFLOPS/mm2", "TOPS/W", "TFLOPS/W", "blended/mm2");
  for (size_t i = 0; i < cands.size() && i < 12; ++i) {
    const auto& c = cands[i];
    std::printf("(%2d,%2d)%7s %12.1f %14.2f %10.2f %12.3f %14.1f\n", c.w, c.cluster, "",
                c.tops_mm2, c.tflops_mm2, c.tops_w, c.tflops_w, c.blended_per_mm2);
  }

  // Pareto front on (TOPS/mm2, TFLOPS/mm2).
  std::printf("\nPareto-optimal designs (TOPS/mm2 vs TFLOPS/mm2):\n");
  for (const auto& c : cands) {
    bool dominated = false;
    for (const auto& o : cands) {
      if (o.tops_mm2 >= c.tops_mm2 && o.tflops_mm2 >= c.tflops_mm2 &&
          (o.tops_mm2 > c.tops_mm2 || o.tflops_mm2 > c.tflops_mm2)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      std::printf("  (w=%2d, cluster=%2d): %.1f TOPS/mm2, %.2f TFLOPS/mm2\n", c.w,
                  c.cluster, c.tops_mm2, c.tflops_mm2);
    }
  }
  std::printf("\nPick narrow trees + small clusters for INT-heavy fleets, wider trees\n");
  std::printf("when FP16 dominates -- the paper's (12,1)/(16,1) Pareto points.\n");

  // -------------------------------------------------------------------------
  // Multi-tile partition sweep: kind x tile count on the same network.
  // Cycles shrink as tiles are added (each tile owns a smaller shard) while
  // utilization drops wherever a layer's extent does not divide evenly --
  // the classic scale-out tradeoff the per-tile sim makes visible.
  // -------------------------------------------------------------------------
  std::printf("\n== Multi-tile partition sweep (resnet18, big tile) ==\n\n");
  std::printf("%-16s %6s %14s %12s %14s\n", "partition", "tiles", "cycles",
              "mean util", "max imbalance");

  Json tiles_root = Json::object();
  tiles_root.set("bench", "design_space_explorer_tiles");
  tiles_root.set("network", "resnet18");
  tiles_root.set("smoke", smoke);
  Json configs = Json::array();

  const std::vector<int> tile_counts =
      smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
  for (const PartitionKind kind :
       {PartitionKind::kOutputChannel, PartitionKind::kSpatialRows}) {
    for (const int num_tiles : tile_counts) {
      TileConfig tile = big_tile(16, 28);
      tile.num_tiles = num_tiles;
      RunSpec spec;
      spec.datapath = tile.datapath;
      spec.tile = tile;
      spec.sim = opts;
      spec.partition.kind = kind;
      const NetworkSimResult r = Session(spec).estimate(net);

      // Aggregate per-tile utilization across layers, cycle-weighted: tile
      // i's busy cycles over the network's critical-path cycles.
      std::vector<double> tile_busy(static_cast<size_t>(num_tiles), 0.0);
      double max_imbalance = 0.0;
      for (const LayerSimResult& l : r.layers) {
        max_imbalance = std::max(max_imbalance, l.imbalance);
        for (const TileSimResult& t : l.tiles) {
          tile_busy[static_cast<size_t>(t.tile)] += t.cycles;
        }
      }
      Json util = Json::array();
      for (double busy : tile_busy) {
        util.push(r.total_cycles > 0.0 ? busy / r.total_cycles : 0.0);
      }

      std::printf("%-16s %6d %14.0f %12.3f %14.3f\n", r.partition.c_str(),
                  num_tiles, r.total_cycles, r.mean_tile_utilization,
                  max_imbalance);

      Json cfg = Json::object();
      cfg.set("partition", r.partition)
          .set("num_tiles", num_tiles)
          .set("total_cycles", r.total_cycles)
          .set("mean_tile_utilization", r.mean_tile_utilization)
          .set("max_layer_imbalance", max_imbalance)
          .set("tile_utilization", std::move(util));
      configs.push(std::move(cfg));
    }
  }
  tiles_root.set("configs", std::move(configs));

  if (!tiles_json_path.empty()) {
    std::ofstream out(tiles_json_path);
    out << tiles_root.dump() << "\n";
    std::printf("\nwrote %s\n", tiles_json_path.c_str());
  }
  return 0;
}
