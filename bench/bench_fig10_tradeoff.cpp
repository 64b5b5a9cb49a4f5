// Figure 10 reproduction: area- and power-efficiency design space of
// (adder-tree precision p, cluster size c) points for 8- and 16-input tiles,
// in INT mode (TOPS/mm^2, TOPS/W at 4x4) and FP mode (effective TFLOPS/mm^2,
// TFLOPS/W with the simulator's average FP slowdown over the forward study
// cases).  NO-OPT is the 38b Baseline2.
//
// §4.4 headline claims: the (12,1) and (16,1) points gain up to 25%
// TFLOPS/mm^2 and up to 46% TOPS/mm^2, with up to 40-63% (TFLOPS/W) and
// 63-74% (TOPS/W) power-efficiency improvements over NO-OPT.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "model/hw_model.h"
#include "sim/cycle_sim.h"

namespace mpipu {
namespace {

/// Average FP16 execution-time inflation (>= 1) of a tile vs its 38b
/// same-geometry baseline over the forward study cases.
double fp_slowdown(const TileConfig& tile, bool big, const SimOptions& opts) {
  const TileConfig base = big ? baseline2() : baseline1();
  double total = 0.0;
  int count = 0;
  for (const auto& net : paper_study_cases()) {
    if (net.name == "resnet18-bwd") continue;
    const auto r = simulate_network(net, tile, opts);
    const auto b = simulate_network(net, base, opts);
    total += r.normalized_to(b);
    ++count;
  }
  return total / count;
}

struct Point {
  int w, cluster;
  double tops_mm2, tops_w, tflops_mm2, tflops_w;
};

}  // namespace
}  // namespace mpipu

int main() {
  using namespace mpipu;
  bench::title("Figure 10: design-space trade-offs (p = adder precision, c = cluster size)");
  SimOptions opts;
  opts.sampled_steps = 400;

  for (bool big : {false, true}) {
    bench::section(big ? "16-input MC-IPUs" : "8-input MC-IPUs");
    std::vector<Point> points;
    DesignConfig noopt = big ? nvdla_like_design() : proposed_design(38, 32, false);
    noopt.tile.datapath.multi_cycle = false;

    bench::Table t({"(p,c)", "TOPS/mm2 (INT4)", "TOPS/W (INT4)", "TFLOPS/mm2 (eff)",
                    "TFLOPS/W (eff)"});
    auto add_design = [&](const std::string& label, const DesignConfig& d,
                          double slowdown) {
      Point pt;
      pt.tops_mm2 = tops_per_mm2(d, 4, 4);
      pt.tops_w = tops_per_w(d, 4, 4);
      pt.tflops_mm2 = tflops_per_mm2(d, slowdown);
      pt.tflops_w = tflops_per_w(d, slowdown);
      t.add_row({label, bench::fmt(pt.tops_mm2, 1), bench::fmt(pt.tops_w, 2),
                 bench::fmt(pt.tflops_mm2, 2), bench::fmt(pt.tflops_w, 3)});
      points.push_back(pt);
    };

    add_design("NO-OPT (38b)", noopt, 1.0);
    for (int w : {12, 16, 20, 24, 28}) {
      for (int cluster : {1, 4, big ? 64 : 32}) {
        DesignConfig d = proposed_design(w, cluster, big);
        const double slowdown = fp_slowdown(d.tile, big, opts);
        std::string name = "(";
        name += std::to_string(w);
        name += ",";
        name += std::to_string(cluster);
        name += ")";
        add_design(name, d, slowdown);
      }
    }
    t.print();
  }

  bench::section("Section 4.4 headline claims (vs NO-OPT Baseline2, 16-input)");
  {
    DesignConfig noopt = nvdla_like_design();
    const double base_tops_mm2 = tops_per_mm2(noopt, 4, 4);
    const double base_tops_w = tops_per_w(noopt, 4, 4);
    const double base_tflops_mm2 = tflops_per_mm2(noopt, 1.0);
    const double base_tflops_w = tflops_per_w(noopt, 1.0);
    for (int w : {12, 16}) {
      DesignConfig d = proposed_design(w, 1, true);
      const double slowdown = fp_slowdown(d.tile, true, opts);
      std::printf("(%d,1): TFLOPS/mm2 %+5.1f%% (paper: up to +25%%) | TOPS/mm2 %+5.1f%% "
                  "(paper: up to +46%%) | TFLOPS/W %+5.1f%% (paper: up to +40/63%%) | "
                  "TOPS/W %+5.1f%% (paper: up to +63/74%%)\n",
                  w, 100.0 * (tflops_per_mm2(d, slowdown) / base_tflops_mm2 - 1.0),
                  100.0 * (tops_per_mm2(d, 4, 4) / base_tops_mm2 - 1.0),
                  100.0 * (tflops_per_w(d, slowdown) / base_tflops_w - 1.0),
                  100.0 * (tops_per_w(d, 4, 4) / base_tops_w - 1.0));
    }
  }
  return 0;
}
