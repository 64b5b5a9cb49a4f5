#include "sim/cycle_sim.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>

#include "sim/sampler.h"

namespace mpipu {
namespace {

/// Sentinel for a masked (zero-operand) product: the EHU sees a subnormal
/// exponent far below every live product, so its alignment always exceeds
/// the software precision.
constexpr int kMaskedExp = kMaskedProductExp;

/// Steady-state behaviour of one tile's broadcast stream over a sampled
/// window (the per-layer metrics that do not depend on the step count).
struct StreamResult {
  double cycles_per_step = 0.0;
  double avg_iteration_cycles = 0.0;
  double stall_fraction = 0.0;
};

}  // namespace

int64_t layer_broadcast_steps(const ConvLayer& layer, const TileConfig& tile) {
  // The critical tile of the default output-channel partition: the largest
  // shard holds ceil(cout / num_tiles) channels, so this reproduces the
  // legacy ceil_div(ceil_div(cout, num_tiles), k_unroll) arithmetic while
  // the per-shard counts now come from the partitioner.
  const LayerPartition part =
      partition_layer(layer, tile.num_tiles, PartitionKind::kOutputChannel);
  int64_t critical = 0;
  for (const LayerShard& s : part.shards) {
    critical = std::max(critical, tile_broadcast_steps(s.layer, tile));
  }
  return critical;
}

NetworkSimResult simulate_network(const Network& net, const TileConfig& tile,
                                  const SimOptions& opts,
                                  const PartitionSpec& partition) {
  // Release-mode validation: the num_clusters() assert vanishes under
  // NDEBUG, so an indivisible ipus_per_cluster used to silently simulate
  // fewer IPUs than configured.  validate() throws in every build mode.
  tile.validate();
  if (opts.sampled_steps < 1) {
    throw std::invalid_argument(
        "SimOptions: sampled_steps must be >= 1, got " +
        std::to_string(opts.sampled_steps));
  }
  const TensorDraws draws(net.tensor_stats);  // validates the probabilities

  NetworkSimResult result;
  result.network = net.name;
  result.tile = tile.name;
  result.partition = partition_kind_name(partition.kind);
  result.num_tiles = tile.num_tiles;

  Mt64Stream rng(opts.seed);

  const int n = tile.c_unroll;
  const int clusters = tile.num_clusters();
  const int per_cluster = tile.ipus_per_cluster;
  const int spatial_copies = tile.h_unroll * tile.w_unroll;
  const int B = tile.input_buffer_depth;
  const int iters_per_op =
      opts.effective_iterations_per_op(tile.datapath.scheme);

  // Per spatial copy: its activation exponents, the product exponents of
  // the IPU being sampled (masked lanes stay kMaskedExp for the whole step),
  // and its live (unmasked) lanes in lane order -- only they draw a weight
  // jitter.
  std::vector<int> act_exps(static_cast<size_t>(spatial_copies * n));
  std::vector<int> product_exps(static_cast<size_t>(spatial_copies * n));
  std::vector<int> live_lanes(static_cast<size_t>(spatial_copies * n));
  std::vector<int> live_count(static_cast<size_t>(spatial_copies));
  // Per cluster, finish(c, t-B .. t-1) as a ring of B slots (slot t % B),
  // and finish(c, t-1) on its own.
  std::vector<double> finish_ring(static_cast<size_t>(clusters * B));
  std::vector<double> finish_prev(static_cast<size_t>(clusters));

  // Simulate one tile's broadcast stream of `steps_total` ops, modeling the
  // broadcast/buffer handshake:
  //   issue(t)   >= issue(t-1) + 1                      (one op per cycle)
  //   issue(t)   >= finish(c, t-B) for every cluster c  (buffer capacity)
  //   start(c,t)  = max(issue(t), finish(c, t-1))
  //   finish(c,t) = start(c,t) + service(c,t)
  // Draws from the shared `rng`, so streams are simulated in a fixed,
  // documented order (critical shard first within each layer).
  auto simulate_stream = [&](int64_t steps_total) {
    // The int cast is in-bounds by construction: the min with
    // opts.sampled_steps (an int, validated >= 1 above) caps the value, so
    // 1 <= sampled <= opts.sampled_steps always holds.
    const int sampled = static_cast<int>(
        std::min<int64_t>(opts.sampled_steps, std::max<int64_t>(steps_total, 1)));
    assert(sampled >= 1 && sampled <= opts.sampled_steps);

    std::fill(finish_prev.begin(), finish_prev.end(), 0.0);
    double issue_prev = -1.0;
    int64_t stall_slots = 0;
    double iteration_cycles_sum = 0.0;
    int64_t iteration_count = 0;

    for (int t = 0, slot = 0; t < sampled;
         ++t, slot = slot + 1 == B ? 0 : slot + 1) {
      // Fresh activation jitters per spatial copy (shared across K) and
      // fresh weight jitters per IPU (each IPU holds a different output
      // channel's filter; every step is a new kernel position / chunk).
      // Only relative exponents matter: the op's base exponent cancels in
      // the alignment computation, so jitters are sampled directly.  Zero
      // activations (ReLU sparsity) yield EHU-masked products.
      for (auto& e : act_exps) {
        e = rng.draw(draws.act_zero) ? kMaskedExp : draws.act(rng);
      }
      product_exps = act_exps;
      for (int copy = 0; copy < spatial_copies; ++copy) {
        int* lanes = &live_lanes[static_cast<size_t>(copy * n)];
        int count = 0;
        for (int p = 0; p < n; ++p) {  // branch-free: masked lanes are
          lanes[count] = p;            // overwritten by the next live one
          count += act_exps[static_cast<size_t>(copy * n + p)] != kMaskedExp;
        }
        live_count[static_cast<size_t>(copy)] = count;
      }

      double issue = issue_prev + 1.0;
      if (t >= B) {
        for (int c = 0; c < clusters; ++c) {
          issue = std::max(issue, finish_ring[static_cast<size_t>(c * B + slot)]);
        }
      }
      stall_slots += issue > issue_prev + 1.0 ? 1 : 0;
      issue_prev = issue;

      // Spatial copies interleave across IPUs: IPU c * per_cluster + i
      // serves copy (c * per_cluster + i) % spatial_copies.
      int copy = 0;
      for (int c = 0; c < clusters; ++c) {
        int service = 0;
        for (int i = 0; i < per_cluster; ++i) {
          const size_t row = static_cast<size_t>(copy * n);
          const int* lanes = &live_lanes[row];
          for (int k = 0; k < live_count[static_cast<size_t>(copy)]; ++k) {
            const size_t lane = row + static_cast<size_t>(lanes[k]);
            product_exps[lane] = act_exps[lane] + draws.wgt(rng);
          }
          // Service time of one FP-IP op: iterations x bands, per the
          // scheme-generic §3.2 banding model of core/datapath.h.
          const int cyc = fp16_op_service_cycles(
              std::span<const int>(&product_exps[row], static_cast<size_t>(n)),
              tile.datapath);
          service = std::max(service, cyc);
          iteration_cycles_sum += static_cast<double>(cyc) / iters_per_op;
          ++iteration_count;
          copy = copy + 1 == spatial_copies ? 0 : copy + 1;
        }
        double& prev = finish_prev[static_cast<size_t>(c)];
        prev = std::max(issue, prev) + service;
        finish_ring[static_cast<size_t>(c * B + slot)] = prev;
      }
    }

    double total = 0.0;
    for (double f : finish_prev) total = std::max(total, f);

    StreamResult sr;
    sr.cycles_per_step = total / sampled;
    sr.avg_iteration_cycles =
        iteration_cycles_sum / static_cast<double>(iteration_count);
    sr.stall_fraction = static_cast<double>(stall_slots) / sampled;
    return sr;
  };

  double util_cycles_sum = 0.0;  // sum over layers: layer_cycles * mean_util

  for (const auto& layer : net.layers) {
    const LayerPartition part =
        partition_layer(layer, tile.num_tiles, partition.kind);

    // Per-tile step counts (x repeat), then one simulated stream per
    // DISTINCT step count: shards with equal step counts see statistically
    // identical broadcast streams (the service distribution depends only on
    // tensor stats and the tile config), so they share one sampled stream
    // -- which also makes equal shards report exactly equal cycles (zero
    // imbalance for even splits).  Streams are simulated in descending step
    // order so the critical shard consumes the RNG first: with a single
    // group (every evenly-divisible layer) the draw sequence is identical
    // to the legacy single-stream simulator.
    std::vector<int64_t> tile_steps(part.shards.size(), 0);
    for (size_t i = 0; i < part.shards.size(); ++i) {
      tile_steps[i] =
          tile_broadcast_steps(part.shards[i].layer, tile) * layer.repeat;
    }
    std::vector<int64_t> distinct;
    for (int64_t s : tile_steps) {
      if (s > 0 && std::find(distinct.begin(), distinct.end(), s) == distinct.end()) {
        distinct.push_back(s);
      }
    }
    std::sort(distinct.begin(), distinct.end(), std::greater<int64_t>());
    std::vector<StreamResult> stream_of(distinct.size());
    for (size_t g = 0; g < distinct.size(); ++g) {
      stream_of[g] = simulate_stream(distinct[g]);
    }
    auto stream_for = [&](int64_t steps) -> const StreamResult& {
      const size_t g = static_cast<size_t>(
          std::find(distinct.begin(), distinct.end(), steps) - distinct.begin());
      return stream_of[g];
    };

    LayerSimResult lr;
    lr.layer = layer.name;
    lr.tiles.resize(part.shards.size());
    double max_cycles = 0.0;
    double cycles_sum = 0.0;
    for (size_t i = 0; i < part.shards.size(); ++i) {
      TileSimResult& tr = lr.tiles[i];
      tr.tile = static_cast<int>(i);
      tr.steps = tile_steps[i];
      tr.cycles = tile_steps[i] > 0
                      ? stream_for(tile_steps[i]).cycles_per_step *
                            static_cast<double>(tile_steps[i])
                      : 0.0;
      cycles_sum += tr.cycles;
      if (tr.cycles > max_cycles) {
        max_cycles = tr.cycles;
        lr.critical_tile = tr.tile;
      }
    }
    double util_sum = 0.0;
    for (TileSimResult& tr : lr.tiles) {
      tr.utilization = max_cycles > 0.0 ? tr.cycles / max_cycles : 0.0;
      util_sum += tr.utilization;
    }
    const double mean_cycles =
        cycles_sum / static_cast<double>(part.shards.size());
    lr.imbalance = mean_cycles > 0.0 ? max_cycles / mean_cycles - 1.0 : 0.0;

    // Layer totals are the critical tile's view: tiles run concurrently,
    // the slowest one gates the layer.
    const TileSimResult& crit = lr.tiles[static_cast<size_t>(lr.critical_tile)];
    lr.total_steps = crit.steps;
    lr.total_cycles = crit.cycles;
    if (crit.steps > 0) {
      const StreamResult& sr = stream_for(crit.steps);
      lr.cycles_per_step = sr.cycles_per_step;
      lr.avg_iteration_cycles = sr.avg_iteration_cycles;
      lr.stall_fraction = sr.stall_fraction;
    }
    util_cycles_sum +=
        lr.total_cycles * (util_sum / static_cast<double>(lr.tiles.size()));
    result.total_cycles += lr.total_cycles;
    result.layers.push_back(std::move(lr));
  }
  result.mean_tile_utilization =
      result.total_cycles > 0.0 ? util_cycles_sum / result.total_cycles : 0.0;
  return result;
}

IntHistogram alignment_histogram(const Network& net, int n_inputs,
                                 int samples_per_layer, uint64_t seed) {
  const TensorDraws draws(net.tensor_stats);  // validates the probabilities
  IntHistogram hist(64);
  Mt64Stream rng(seed);
  std::vector<int> exps(static_cast<size_t>(n_inputs));
  for (size_t l = 0; l < net.layers.size(); ++l) {
    for (int s = 0; s < samples_per_layer; ++s) {
      int max_exp = INT32_MIN;
      int live = 0;
      for (auto& e : exps) {
        if (rng.draw(draws.act_zero)) {
          e = INT32_MIN;  // zero operand: excluded, as in the paper's
                          // histogram of live product alignments
          continue;
        }
        const int act = draws.act(rng);  // drawn before the weight jitter
        e = act + draws.wgt(rng);
        max_exp = std::max(max_exp, e);
        ++live;
      }
      if (live == 0) continue;
      for (int e : exps) {
        if (e != INT32_MIN) hist.add(max_exp - e);
      }
    }
  }
  return hist;
}

}  // namespace mpipu
