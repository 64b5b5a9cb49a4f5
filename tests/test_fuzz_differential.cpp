// Differential fuzzing (deterministic seeds): random IPU configurations x
// random operand streams, cross-checked against the exact reference and
// against each other; plus random DAG topologies (chains, diamonds,
// residual blocks, concat fan-ins) cross-checked between the graph
// execution core, the Session facade and a node-by-node evaluation on the
// per-op oracle (per_op_conv.h).  Complements the targeted property tests
// with broad configuration coverage.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/error_metrics.h"
#include "api/session.h"
#include "common/rng.h"
#include "core/ipu.h"
#include "core/spatial_ipu.h"
#include "nn/elementwise.h"
#include "per_op_conv.h"

namespace mpipu {
namespace {

std::vector<Fp16> random_fp16(Rng& rng, int n) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

TEST(FuzzDifferential, RandomConfigsLosslessWhenUnbounded) {
  // Any (w, n, mc, skip) with full software precision and an unbounded
  // accumulator must be exact -- if not, the datapath drops bits somewhere
  // it architecturally shouldn't.
  Rng rng(0xF0021);
  for (int cfg_trial = 0; cfg_trial < 60; ++cfg_trial) {
    DatapathConfig cfg;
    cfg.n_inputs = static_cast<int>(rng.uniform_int(1, 32));
    cfg.multi_cycle = rng.bernoulli(0.7);
    cfg.adder_tree_width =
        cfg.multi_cycle ? static_cast<int>(rng.uniform_int(10, 40))
                        : static_cast<int>(rng.uniform_int(68, 90));
    cfg.software_precision = 58;
    cfg.skip_empty_bands = rng.bernoulli(0.5);
    cfg.skip_zero_iterations = rng.bernoulli(0.5);
    cfg.accumulator.frac_bits = 100;
    cfg.accumulator.lossless = true;
    Ipu ipu(cfg);
    for (int t = 0; t < 60; ++t) {
      const auto a = random_fp16(rng, cfg.n_inputs);
      const auto b = random_fp16(rng, cfg.n_inputs);
      ipu.reset_accumulator();
      ipu.fp_accumulate<kFp16Format>(a, b);
      ASSERT_TRUE(ipu.read_raw() == exact_fp_inner_product<kFp16Format>(a, b))
          << "cfg " << cfg_trial << " (w=" << cfg.adder_tree_width
          << ", n=" << cfg.n_inputs << ", mc=" << cfg.multi_cycle << ") trial " << t;
    }
  }
}

TEST(FuzzDifferential, KnobsNeverChangeValuesOnlyCycles) {
  // skip_empty_bands and skip_zero_iterations are performance knobs: for
  // identical (w, n, P) the accumulated value must be bit-identical across
  // all four combinations.
  Rng rng(0xF0022);
  for (int cfg_trial = 0; cfg_trial < 25; ++cfg_trial) {
    DatapathConfig base;
    base.n_inputs = static_cast<int>(rng.uniform_int(2, 16));
    base.adder_tree_width = static_cast<int>(rng.uniform_int(10, 30));
    base.software_precision = static_cast<int>(rng.uniform_int(8, 32));
    base.multi_cycle = true;
    std::vector<Ipu> variants;
    for (int m = 0; m < 4; ++m) {
      DatapathConfig c = base;
      c.skip_empty_bands = m & 1;
      c.skip_zero_iterations = m & 2;
      variants.emplace_back(c);
    }
    for (int t = 0; t < 80; ++t) {
      const auto a = random_fp16(rng, base.n_inputs);
      const auto b = random_fp16(rng, base.n_inputs);
      for (auto& v : variants) {
        v.reset_accumulator();
        v.fp_accumulate<kFp16Format>(a, b);
      }
      for (int m = 1; m < 4; ++m) {
        ASSERT_TRUE(variants[0].read_raw() == variants[static_cast<size_t>(m)].read_raw())
            << cfg_trial << "/" << t << " variant " << m;
      }
    }
  }
}

TEST(FuzzDifferential, ErrorBoundedPerSampleAndShrinksOnAverageAsWindowWidens) {
  // Per-sample, truncation error is not monotone in w (floors at different
  // positions can cancel); the sound properties are (a) every sample stays
  // within the analytic window bound for its w, and (b) the *average* error
  // is non-increasing as w widens.
  Rng rng(0xF0023);
  const std::vector<int> widths = {12, 20, 28, 38};
  std::vector<double> total_err(widths.size(), 0.0);
  for (int t = 0; t < 400; ++t) {
    const auto a = random_fp16(rng, 16);
    const auto b = random_fp16(rng, 16);
    const FixedPoint exact = exact_fp_inner_product<kFp16Format>(a, b);
    int max_exp = INT32_MIN;
    for (int k = 0; k < 16; ++k) {
      max_exp = std::max(max_exp, a[static_cast<size_t>(k)].decode().exp +
                                      b[static_cast<size_t>(k)].decode().exp);
    }
    for (size_t wi = 0; wi < widths.size(); ++wi) {
      const int w = widths[wi];
      DatapathConfig cfg;
      cfg.n_inputs = 16;
      cfg.adder_tree_width = w;
      cfg.software_precision = w;
      cfg.multi_cycle = false;
      cfg.accumulator.frac_bits = 100;
      cfg.accumulator.lossless = true;
      Ipu ipu(cfg);
      ipu.fp_accumulate<kFp16Format>(a, b);
      const double err = absolute_error(ipu.read_raw(), exact);
      EXPECT_LE(err, window_truncation_operation_bound(16, w, max_exp))
          << "w=" << w << " trial " << t;
      total_err[wi] += err;
    }
  }
  for (size_t wi = 1; wi < widths.size(); ++wi) {
    EXPECT_LE(total_err[wi], total_err[wi - 1]) << widths[wi];
  }
}

TEST(FuzzDifferential, TemporalAndSpatialAgreeUnderRandomConfigs) {
  Rng rng(0xF0024);
  for (int cfg_trial = 0; cfg_trial < 30; ++cfg_trial) {
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    const int w = static_cast<int>(rng.uniform_int(10, 34));
    DatapathConfig tcfg;
    tcfg.n_inputs = n;
    tcfg.adder_tree_width = w;
    tcfg.software_precision = 58;
    tcfg.multi_cycle = true;
    tcfg.accumulator.frac_bits = 100;
    tcfg.accumulator.lossless = true;
    DatapathConfig scfg = tcfg;
    scfg.scheme = DecompositionScheme::kSpatial;
    scfg.skip_empty_bands = true;
    Ipu temporal(tcfg);
    SpatialIpu spatial(scfg);
    for (int t = 0; t < 60; ++t) {
      const auto a = random_fp16(rng, n);
      const auto b = random_fp16(rng, n);
      temporal.reset_accumulator();
      spatial.reset_accumulator();
      temporal.fp_accumulate<kFp16Format>(a, b);
      spatial.fp_accumulate<kFp16Format>(a, b);
      ASSERT_TRUE(temporal.read_raw() == spatial.read_raw())
          << cfg_trial << "/" << t << " w=" << w << " n=" << n;
    }
  }
}

// ---------------------------------------------------------------------------
// Random DAG topologies: the graph execution core (parallel-branch waves,
// prepared/packed plans) vs the Session facade vs a node-by-node per-op
// oracle chain must agree bit for bit, for every scheme and precision mode
// that scheme supports.
// ---------------------------------------------------------------------------

int rint(Rng& rng, int lo, int hi) {
  return static_cast<int>(rng.uniform_int(lo, hi));
}

/// A dims-preserving random conv (1x1, or 3x3 with pad 1) onto `from`.
int fuzz_conv(GraphModel::Builder& b, Rng& rng, int& serial, int from, int cin,
              int cout, bool relu) {
  const int k = rng.bernoulli(0.5) ? 1 : 3;
  ConvSpec spec;
  spec.pad = (k - 1) / 2;
  FilterBank f = random_filters(rng, cout, cin, k, k, ValueDist::kNormal, 0.3);
  std::string name = "n";
  name += std::to_string(serial++);
  return b.conv(std::move(name), std::move(f), spec, from, relu);
}

/// Deterministic-seed random DAG: a handful of structural steps, each a
/// chain conv, a residual block (branch + add, identity or conv skip), or a
/// concat fan-in of 2-3 branches.  Tracks (c, h, w) so every join agrees by
/// construction; the returned graph carries real weights.
GraphModel random_dag(Rng& rng, int& input_c, int& input_h, int& input_w) {
  GraphModel::Builder b("fuzz-dag");
  int c = rint(rng, 2, 5);
  const int h = rint(rng, 5, 8);
  const int w = rint(rng, 5, 8);
  input_c = c;
  input_h = h;
  input_w = w;
  int serial = 0;
  int cur = b.input();
  // The input node needs a direct conv consumer to pin its channel count.
  const int c_first = rint(rng, 2, 5);
  cur = fuzz_conv(b, rng, serial, cur, c, c_first, true);
  c = c_first;
  const int steps = rint(rng, 1, 3);
  for (int s = 0; s < steps; ++s) {
    switch (rint(rng, 0, 2)) {
      case 0: {  // chain conv
        const int cout = rint(rng, 2, 6);
        cur = fuzz_conv(b, rng, serial, cur, c, cout, rng.bernoulli(0.7));
        c = cout;
        break;
      }
      case 1: {  // residual block: branch of 1-2 convs back onto cur
        int t = cur;
        int tc = c;
        const int depth = rint(rng, 1, 2);
        for (int d = 0; d < depth; ++d) {
          const int cout = d + 1 == depth ? c : rint(rng, 2, 6);
          t = fuzz_conv(b, rng, serial, t, tc, cout, d + 1 != depth);
          tc = cout;
        }
        cur = b.add("add" + std::to_string(serial++), t, cur,
                    rng.bernoulli(0.7));
        break;
      }
      default: {  // concat fan-in of 2-3 branches
        const int branches = rint(rng, 2, 3);
        std::vector<int> ends;
        int c_total = 0;
        for (int br = 0; br < branches; ++br) {
          int t = cur;
          int tc = c;
          const int depth = rint(rng, 1, 2);
          for (int d = 0; d < depth; ++d) {
            const int cout = rint(rng, 2, 4);
            t = fuzz_conv(b, rng, serial, t, tc, cout, rng.bernoulli(0.5));
            tc = cout;
          }
          ends.push_back(t);
          c_total += tc;
        }
        cur = b.concat("cat" + std::to_string(serial++), std::move(ends),
                       rng.bernoulli(0.5));
        c = c_total;
        break;
      }
    }
  }
  if (rng.bernoulli(0.5)) {  // optional 1x1 head
    fuzz_conv(b, rng, serial, cur, c, rint(rng, 2, 4), false);
  }
  return b.build();
}

/// Node-by-node evaluation on one per-op oracle -- the "obviously correct"
/// wiring of the same topology (builder order is topological by
/// construction, so plain list order works).
Tensor eval_hand_wired(const GraphModel& g, const Tensor& input,
                       PerOpOracle& oracle, const LayerPrecision& precision) {
  std::vector<Tensor> acts(g.nodes().size());
  for (size_t i = 0; i < g.nodes().size(); ++i) {
    const GraphNode& nd = g.nodes()[i];
    Tensor y;
    switch (nd.op) {
      case GraphNode::Op::kInput:
        acts[i] = input;
        continue;
      case GraphNode::Op::kConv: {
        const Tensor& x = acts[static_cast<size_t>(nd.inputs[0])];
        y = precision.kind == LayerPrecision::Kind::kInt
                ? oracle.conv_int(x, nd.filters, nd.spec, precision.a_bits,
                                  precision.w_bits)
                : oracle.conv_fp16(x, nd.filters, nd.spec, precision.accum);
        break;
      }
      case GraphNode::Op::kAdd:
      case GraphNode::Op::kConcat: {
        std::vector<const Tensor*> parts;
        for (int p : nd.inputs) {
          parts.push_back(&acts[static_cast<size_t>(p)]);
        }
        y = nd.op == GraphNode::Op::kAdd ? tensor_add(parts)
                                         : channel_concat(parts);
        break;
      }
    }
    acts[i] = apply_post_ops(std::move(y), nd.relu, nd.pool);
  }
  return acts.back();
}

TEST(FuzzDifferential, RandomDagsAgreeAcrossSchemesModesAndExecutors) {
  Rng rng(0xF0026);
  for (int trial = 0; trial < 12; ++trial) {
    int input_c = 0, input_h = 0, input_w = 0;
    const GraphModel graph = random_dag(rng, input_c, input_h, input_w);
    const Tensor input = random_tensor(rng, input_c, input_h, input_w,
                                       ValueDist::kHalfNormal, 1.0);

    for (DecompositionScheme scheme :
         {DecompositionScheme::kTemporal, DecompositionScheme::kSerial,
          DecompositionScheme::kSpatial}) {
      for (const LayerPrecision& precision :
           {LayerPrecision::fp16(AccumKind::kFp32),
            LayerPrecision::fp16(AccumKind::kFp16),
            LayerPrecision::int_bits(8, 8)}) {
        if (precision.kind == LayerPrecision::Kind::kInt &&
            scheme == DecompositionScheme::kSpatial) {
          continue;  // spatial is FP-only
        }
        RunSpec spec;
        spec.datapath = DatapathConfig::for_scheme(scheme);
        spec.datapath.n_inputs = 16;
        spec.datapath.adder_tree_width = 16;
        spec.datapath.software_precision = 28;
        spec.datapath.multi_cycle = true;
        spec.policy.set_default(precision);
        spec.threads = 1;

        Session session(spec);
        const RunReport via_session = session.run(graph, input);

        const CompiledModel compiled =
            session.compile(graph, {input_h, input_w});
        const RunReport via_compiled = compiled.run(input);

        PerOpOracle oracle(spec.datapath);
        const Tensor expected =
            eval_hand_wired(graph, input, oracle, precision);

        ASSERT_EQ(via_session.output.data.size(), expected.data.size())
            << "trial " << trial << " " << scheme_name(scheme);
        for (size_t i = 0; i < expected.data.size(); ++i) {
          ASSERT_EQ(via_session.output.data[i], expected.data[i])
              << "trial " << trial << " " << scheme_name(scheme) << " "
              << precision.to_string() << " elt " << i;
        }
        ASSERT_EQ(via_session.to_json(), via_compiled.to_json())
            << "trial " << trial << " " << scheme_name(scheme) << " "
            << precision.to_string();
        ASSERT_EQ(via_session.totals, oracle.stats())
            << "trial " << trial << " " << scheme_name(scheme) << " "
            << precision.to_string();
      }
    }
  }
}

TEST(FuzzDifferential, Fp8FormatsWorkThroughTheGenericMachinery) {
  // The Soft<> template and nibble decomposition are format-generic: FP8
  // e4m3 / e5m2 (not in the paper, a modern extension) decompose into one
  // 5-bit lane and run exactly.
  constexpr FpFormat kE4M3{4, 3};
  constexpr FpFormat kE5M2{5, 2};
  static_assert(fp_nibble_count(kE4M3) == 1);
  static_assert(fp_nibble_count(kE5M2) == 1);
  Rng rng(0xF0025);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 40;
  cfg.software_precision = 40;
  cfg.multi_cycle = false;
  cfg.accumulator.frac_bits = 100;
  cfg.accumulator.lossless = true;
  Ipu ipu(cfg);
  for (int t = 0; t < 2000; ++t) {
    std::vector<Soft<kE4M3>> a, b;
    for (int k = 0; k < 16; ++k) {
      a.push_back(Soft<kE4M3>::from_double(rng.normal(0.0, 2.0)));
      b.push_back(Soft<kE4M3>::from_double(rng.normal(0.0, 2.0)));
    }
    ipu.reset_accumulator();
    const int cycles = ipu.fp_accumulate<kE4M3>(a, b);
    EXPECT_EQ(cycles, 1);  // 1x1 nibble iteration: FP8 is single-cycle
    EXPECT_TRUE(ipu.read_raw() == exact_fp_inner_product<kE4M3>(a, b)) << t;
  }
  // Round-trip sanity for both FP8 flavors.
  for (uint32_t raw = 0; raw < 0x100; ++raw) {
    const auto e43 = Soft<kE4M3>::from_bits(raw);
    if (e43.is_finite()) {
      EXPECT_EQ(Soft<kE4M3>::from_double(e43.to_double()).raw_bits(), raw);
    }
    const auto e52 = Soft<kE5M2>::from_bits(raw);
    if (e52.is_finite()) {
      EXPECT_EQ(Soft<kE5M2>::from_double(e52.to_double()).raw_bits(), raw);
    }
  }
}

}  // namespace
}  // namespace mpipu
