// Differential tests for the prepared-operand fast path (core/prepared.h):
// the prepared pipeline must be bit- AND cycle-identical to the per-op
// reference paths it replaces, for
//
//   * all three decomposition schemes x {FP16, FP32} accumulation regimes
//     (software precision 16 / 28 with the matching readout),
//   * INT mode (temporal digit planes, serial raw-value streaming),
//   * full convolutions including border-pixel clip classes (pad/stride
//     combinations) and the skip_zero_iterations sparse ablation: a
//     one-layer CompiledModel against the per-op oracle (per_op_conv.h)
//     driven through the scheme units' per-op reference entries,
//   * the allocation-free EHU overloads (Decoded spans, exponent planes,
//     and scratch reuse across calls) against the allocating one.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "api/compiled_model.h"
#include "common/rng.h"
#include "core/datapath.h"
#include "core/ipu.h"
#include "core/simd/simd.h"
#include "per_op_conv.h"

namespace mpipu {
namespace {

constexpr auto kAllSchemes = {DecompositionScheme::kTemporal,
                              DecompositionScheme::kSerial,
                              DecompositionScheme::kSpatial};

std::vector<Fp16> random_fp16_bits(Rng& rng, int n, double zero_prob = 0.0) {
  std::vector<Fp16> v;
  while (static_cast<int>(v.size()) < n) {
    if (zero_prob > 0.0 && rng.uniform(0.0, 1.0) < zero_prob) {
      v.push_back(Fp16::zero(rng.uniform(0.0, 1.0) < 0.5));
      continue;
    }
    const Fp16 f = Fp16::from_bits(static_cast<uint32_t>(rng.next_u64()));
    if (f.is_finite()) v.push_back(f);
  }
  return v;
}

DatapathConfig base_config(DecompositionScheme scheme, int w, int software_precision) {
  DatapathConfig cfg = DatapathConfig::for_scheme(scheme);
  cfg.n_inputs = 16;
  cfg.adder_tree_width = w;
  cfg.software_precision = software_precision;
  cfg.multi_cycle = true;
  return cfg;
}

// --- EHU overloads -----------------------------------------------------------

Decoded dec(int exp) {
  Decoded d;
  d.exp = exp;
  d.magnitude = 1;
  return d;
}

TEST(PreparedEhu, ScratchAndPlaneOverloadsMatchAllocating) {
  Rng rng(21);
  EhuResult scratch;  // deliberately reused across trials: stale state must
                      // never leak into a later, smaller op
  for (int t = 0; t < 2000; ++t) {
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    std::vector<Decoded> a, b;
    std::vector<int32_t> ea, eb;
    for (int k = 0; k < n; ++k) {
      a.push_back(dec(static_cast<int>(rng.uniform_int(-28, 16))));
      b.push_back(dec(static_cast<int>(rng.uniform_int(-28, 16))));
      ea.push_back(a.back().exp);
      eb.push_back(b.back().exp);
    }
    EhuOptions opts;
    opts.software_precision = static_cast<int>(rng.uniform_int(4, 32));
    opts.safe_precision = static_cast<int>(rng.uniform_int(1, 20));

    const EhuResult ref = run_ehu(a, b, opts);
    run_ehu(std::span<const Decoded>(a), std::span<const Decoded>(b), opts,
            scratch);
    EXPECT_EQ(scratch.product_exp, ref.product_exp);
    EXPECT_EQ(scratch.max_exp, ref.max_exp);
    EXPECT_EQ(scratch.align, ref.align);
    EXPECT_EQ(scratch.masked, ref.masked);
    EXPECT_EQ(scratch.band, ref.band);
    EXPECT_EQ(scratch.mc_cycles, ref.mc_cycles);
    EXPECT_EQ(scratch.mc_cycles_skip_empty, ref.mc_cycles_skip_empty);

    run_ehu(std::span<const int32_t>(ea), std::span<const int32_t>(eb), opts,
            scratch);
    EXPECT_EQ(scratch.product_exp, ref.product_exp);
    EXPECT_EQ(scratch.max_exp, ref.max_exp);
    EXPECT_EQ(scratch.align, ref.align);
    EXPECT_EQ(scratch.masked, ref.masked);
    EXPECT_EQ(scratch.band, ref.band);
    EXPECT_EQ(scratch.mc_cycles, ref.mc_cycles);
    EXPECT_EQ(scratch.mc_cycles_skip_empty, ref.mc_cycles_skip_empty);
  }
}

TEST(PreparedEhu, ProductAlignmentsMatchesRunEhuStages) {
  Rng rng(22);
  for (int t = 0; t < 500; ++t) {
    const int n = static_cast<int>(rng.uniform_int(1, 16));
    std::vector<Decoded> a, b;
    for (int k = 0; k < n; ++k) {
      a.push_back(dec(static_cast<int>(rng.uniform_int(-28, 16))));
      b.push_back(dec(static_cast<int>(rng.uniform_int(-28, 16))));
    }
    EhuOptions opts;  // defaults; alignments do not depend on the options
    EXPECT_EQ(product_alignments(a, b), run_ehu(a, b, opts).align);
  }
}

// --- Datapath prepared vs per-op, all schemes x accumulation regimes --------

/// Restores the startup backend selection on scope exit.
struct BackendGuard {
  ~BackendGuard() { simd::reset_backend(); }
};

// The prepared datapath against the per-op template entries of a second
// unit: every scheme x window x accumulation regime x alignment
// regime x accumulator kind, fed op by op (fp16_accumulate_prepared) or as
// whole output-element streams (fp16_accumulate_stream), on each backend.
// w = 10 is the narrowest MC window, 33 the widest the temporal stream
// kernel admits and 34 the first past it; stream lengths are ragged against
// n_inputs, so the last op of most streams is short.
TEST(PreparedDatapath, BitAndCycleIdenticalToPerOpAllSchemesBothRegimes) {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::backend_compiled(simd::Backend::kAvx2)) {
    backends.push_back(simd::Backend::kAvx2);
  }
  BackendGuard guard;
  Rng rng(23);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::force_backend(backend));
    for (auto scheme : kAllSchemes) {
      for (int w : {10, 16, 28, 33, 34}) {
        for (int soft_prec : {16, 28}) {  // FP16- vs FP32-accumulation regime
          for (bool mc : {true, false}) {  // MC banding vs single-cycle window
            for (bool lossless : {false, true}) {
              for (bool stream : {false, true}) {
                DatapathConfig cfg = base_config(scheme, w, soft_prec);
                cfg.multi_cycle = mc;
                cfg.accumulator.lossless = lossless;
                auto dp = make_datapath(cfg);
                auto ref_unit = make_datapath(cfg);
                const Fp16PerOpUnit ref = per_op_reference(*ref_unit);
                const std::string what =
                    std::string(simd::backend_name(backend)) + " " +
                    scheme_name(scheme) + " w=" + std::to_string(w) +
                    " sp=" + std::to_string(soft_prec) +
                    " mc=" + std::to_string(mc) +
                    " lossless=" + std::to_string(lossless) +
                    (stream ? " stream" : " per-op");

                for (int t = 0; t < 40; ++t) {
                  const int len = static_cast<int>(rng.uniform_int(1, 48));
                  const auto a = random_fp16_bits(rng, len);
                  const auto b = random_fp16_bits(rng, len);
                  PreparedFp16 pa(a), pb(b);
                  dp->reset_accumulator();
                  ref.reset();
                  int64_t dp_cycles = 0, ref_cycles = 0;
                  if (stream) {
                    dp_cycles = dp->fp16_accumulate_stream(pa.view(), pb.view());
                  }
                  for (size_t c0 = 0; c0 < a.size(); c0 += 16) {
                    const size_t n = std::min<size_t>(16, a.size() - c0);
                    if (!stream) {
                      dp_cycles += dp->fp16_accumulate_prepared(pa.view(c0, n),
                                                                pb.view(c0, n));
                    }
                    ref_cycles += ref.accumulate(
                        std::span<const Fp16>(a).subspan(c0, n),
                        std::span<const Fp16>(b).subspan(c0, n));
                  }
                  ASSERT_TRUE(dp->read_raw() == ref.read())
                      << what << " trial " << t;
                  ASSERT_EQ(dp_cycles, ref_cycles) << what << " trial " << t;
                  // Both accumulation destinations round from the same raw
                  // bits.
                  EXPECT_EQ(dp->read_fp16().raw_bits(),
                            Fp16::round_from_fixed(ref.read()).raw_bits());
                  EXPECT_EQ(dp->read_fp32().raw_bits(),
                            Fp32::round_from_fixed(ref.read()).raw_bits());
                }
                EXPECT_TRUE(dp->stats() == ref_unit->stats()) << what;
              }
            }
          }
        }
      }
    }
  }
}

// A narrow register clamps, and its overflow flag is sticky: it survives
// reset_accumulator.  The stream path carries the flag across streams
// exactly as the per-op template path does, on every backend.
TEST(PreparedDatapath, StreamKeepsTheStickyOverflowFlag) {
  std::vector<simd::Backend> backends = {simd::Backend::kScalar};
  if (simd::backend_compiled(simd::Backend::kAvx2)) {
    backends.push_back(simd::Backend::kAvx2);
  }
  BackendGuard guard;
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.accumulator.t = 0;  // 33-bit register: below 4 * 2^exponent
  cfg.accumulator.l = 0;
  const std::vector<Fp16> big(40, Fp16::from_double(3.0));
  const std::vector<Fp16> small(3, Fp16::from_double(0.25));
  const PreparedFp16 pbig(big), psmall(small);
  for (simd::Backend backend : backends) {
    ASSERT_TRUE(simd::force_backend(backend));
    Ipu ref(cfg), dut(cfg);
    for (const auto* v : {&big, &small}) {
      ref.reset_accumulator();
      dut.reset_accumulator();
      for (size_t c0 = 0; c0 < v->size(); c0 += 16) {
        const size_t n = std::min<size_t>(16, v->size() - c0);
        const auto op = std::span<const Fp16>(*v).subspan(c0, n);
        ref.fp_accumulate<kFp16Format>(op, op);
      }
      const PreparedFp16& p = v == &big ? pbig : psmall;
      dut.fp16_accumulate_stream(p.view(), p.view());
      EXPECT_TRUE(dut.read_raw() == ref.read_raw())
          << simd::backend_name(backend);
      EXPECT_TRUE(ref.accumulator_overflowed());
      EXPECT_EQ(dut.accumulator_overflowed(), ref.accumulator_overflowed())
          << simd::backend_name(backend);
    }
  }
}

// --- Sparse ablation ---------------------------------------------------------

TEST(PreparedDatapath, SkipZeroIterationsAblationMatchesTemplatePath) {
  Rng rng(24);
  DatapathConfig cfg;
  cfg.n_inputs = 16;
  cfg.adder_tree_width = 16;
  cfg.skip_zero_iterations = true;
  Ipu template_path(cfg);
  Ipu prepared_path(cfg);
  for (int t = 0; t < 400; ++t) {
    const auto a = random_fp16_bits(rng, 16, /*zero_prob=*/0.6);
    const auto b = random_fp16_bits(rng, 16, /*zero_prob=*/0.6);
    PreparedFp16 pa(a), pb(b);
    template_path.reset_accumulator();
    prepared_path.reset_accumulator();
    const int ct = template_path.fp_accumulate<kFp16Format>(a, b);
    const int cp = prepared_path.fp16_accumulate_prepared(pa.view(), pb.view());
    EXPECT_EQ(cp, ct) << t;
    EXPECT_TRUE(prepared_path.read_raw() == template_path.read_raw()) << t;
  }
  // Whole-run statistics agree counter for counter (including the skipped-
  // iteration and masked-product counts the ablation is about).
  EXPECT_EQ(prepared_path.stats().skipped_iterations,
            template_path.stats().skipped_iterations);
  EXPECT_GT(prepared_path.stats().skipped_iterations, 0);
  EXPECT_EQ(prepared_path.stats().cycles, template_path.stats().cycles);
  EXPECT_EQ(prepared_path.stats().nibble_iterations,
            template_path.stats().nibble_iterations);
  EXPECT_EQ(prepared_path.stats().masked_products,
            template_path.stats().masked_products);
  EXPECT_EQ(prepared_path.stats().multi_cycle_ops,
            template_path.stats().multi_cycle_ops);
}

// --- INT mode ----------------------------------------------------------------

// The temporal prepared INT path against the per-op reference; the serial
// scheme has one INT path (raw value planes), checked against the exact
// inner product and its b_bits cycle cost.
TEST(PreparedDatapath, IntPreparedMatchesPerOpTemporalAndSerial) {
  Rng rng(25);
  for (auto scheme :
       {DecompositionScheme::kTemporal, DecompositionScheme::kSerial}) {
    for (bool skip_zero : {false, true}) {
      DatapathConfig cfg = base_config(scheme, 16, 28);
      cfg.skip_zero_iterations = skip_zero;
      auto dp = make_datapath(cfg);
      auto ref_unit = make_datapath(cfg);
      for (int t = 0; t < 300; ++t) {
        std::vector<int32_t> a, b;
        for (int k = 0; k < 16; ++k) {
          // Mix in zeros so the temporal skip-zero ablation actually skips.
          a.push_back(rng.uniform(0.0, 1.0) < 0.3
                          ? 0
                          : static_cast<int32_t>(rng.uniform_int(-128, 127)));
          b.push_back(rng.uniform(0.0, 1.0) < 0.3
                          ? 0
                          : static_cast<int32_t>(rng.uniform_int(-128, 127)));
        }
        PreparedInt pa, pb;
        pa.assign(a, 8);
        pb.assign(b, 8);
        dp->reset_accumulator();
        const int cp = dp->int_accumulate_prepared(pa.view(), pb.view(), 8, 8);
        int cr;
        int64_t ref_val;
        if (scheme == DecompositionScheme::kTemporal) {
          auto& ipu = static_cast<Ipu&>(*ref_unit);
          ipu.reset_accumulator();
          cr = ipu.int_accumulate_reference(a, b, 8, 8);
          ref_val = ipu.read_int();
        } else {
          cr = 8;  // b_bits bit-serial steps
          ref_val = exact_int_inner_product(a, b);
        }
        EXPECT_EQ(cp, cr) << "skip_zero=" << skip_zero << " trial " << t;
        EXPECT_EQ(dp->read_int(), ref_val) << scheme_name(scheme) << " " << t;
      }
    }
  }
}

// --- Convolution: clip classes, strides, both accumulation destinations -----

/// The INT unit behind the per-op oracle: the temporal per-op reference,
/// or the serial scheme's one INT path through its compatibility entry.
IntPerOpUnit make_int_ref(Datapath& unit, int a_bits, int w_bits) {
  std::function<int(std::span<const int32_t>, std::span<const int32_t>)> acc;
  if (unit.config().scheme == DecompositionScheme::kTemporal) {
    acc = [&u = static_cast<Ipu&>(unit), a_bits, w_bits](auto a, auto b) {
      return u.int_accumulate_reference(a, b, a_bits, w_bits);
    };
  } else {
    acc = [&unit, a_bits, w_bits](auto a, auto b) {
      return unit.int_accumulate(a, b, a_bits, w_bits);
    };
  }
  return {[&unit] { unit.reset_accumulator(); }, acc,
          [&unit] { return unit.read_int(); }};
}

/// One conv as a one-layer CompiledModel run on `threads` workers.
RunReport run_compiled_conv(const DatapathConfig& cfg,
                            const PrecisionPolicy& policy, int threads,
                            const Tensor& input, const FilterBank& filters,
                            const ConvSpec& spec) {
  RunSpec rs;
  rs.datapath = cfg;
  rs.policy = policy;
  rs.threads = threads;
  const GraphModel model =
      GraphModel::from_layers("conv", {ModelLayer{"conv", filters, spec}});
  RunOptions opts;
  opts.compare_reference = false;
  return CompiledModel::compile(model, rs, {input.h, input.w}).run(input, opts);
}

TEST(PreparedConv, BorderClipClassesAndStridesMatchPerOpAllSchemes) {
  Rng rng(26);
  const Tensor input = random_tensor(rng, 5, 7, 9, ValueDist::kNormal, 1.0);
  const FilterBank filters =
      random_filters(rng, 4, 5, 3, 3, ValueDist::kNormal, 0.3);
  struct Geometry {
    int stride, pad;
  };
  for (const Geometry g : {Geometry{1, 0}, Geometry{1, 1}, Geometry{1, 2},
                           Geometry{2, 1}}) {
    ConvSpec spec;
    spec.stride = g.stride;
    spec.pad = g.pad;
    for (auto scheme : kAllSchemes) {
      for (AccumKind accum : {AccumKind::kFp16, AccumKind::kFp32}) {
        const DatapathConfig cfg = base_config(scheme, 16, 28);
        auto ref_unit = make_datapath(cfg);
        int64_t ref_cycles = 0;
        const Tensor expect =
            per_op_conv_fp16(per_op_reference(*ref_unit), cfg.n_inputs,
                             accum, input, filters, spec, &ref_cycles);

        for (int threads : {1, 3}) {
          const RunReport got =
              run_compiled_conv(cfg, PrecisionPolicy::all_fp16(accum), threads,
                                input, filters, spec);
          ASSERT_EQ(got.output.data.size(), expect.data.size());
          for (size_t i = 0; i < expect.data.size(); ++i) {
            EXPECT_EQ(got.output.data[i], expect.data[i])
                << scheme_name(scheme) << " stride=" << g.stride
                << " pad=" << g.pad << " threads=" << threads << " elt " << i;
          }
          EXPECT_EQ(got.totals.cycles, ref_cycles)
              << scheme_name(scheme) << " stride=" << g.stride
              << " pad=" << g.pad << " threads=" << threads;
        }
      }
    }
  }
}

TEST(PreparedConv, SparseAblationConvMatchesPerOp) {
  Rng rng(27);
  // Half the activations are exactly zero (post-ReLU-style sparsity).
  Tensor input = random_tensor(rng, 4, 6, 6, ValueDist::kNormal, 1.0);
  for (auto& v : input.data) {
    if (rng.uniform(0.0, 1.0) < 0.5) v = 0.0;
  }
  const FilterBank filters =
      random_filters(rng, 3, 4, 3, 3, ValueDist::kNormal, 0.3);
  ConvSpec spec;
  spec.pad = 1;
  DatapathConfig cfg = base_config(DecompositionScheme::kTemporal, 16, 28);
  cfg.skip_zero_iterations = true;

  Ipu ipu(cfg);
  int64_t ref_cycles = 0;
  const Tensor expect =
      per_op_conv_fp16(per_op_reference(ipu), cfg.n_inputs, AccumKind::kFp32,
                       input, filters, spec, &ref_cycles);

  const RunReport got =
      run_compiled_conv(cfg, PrecisionPolicy::all_fp16(AccumKind::kFp32), 1,
                        input, filters, spec);
  for (size_t i = 0; i < expect.data.size(); ++i) {
    EXPECT_EQ(got.output.data[i], expect.data[i]) << i;
  }
  EXPECT_EQ(got.totals.cycles, ref_cycles);
  EXPECT_EQ(got.totals.skipped_iterations, ipu.stats().skipped_iterations);
  EXPECT_GT(got.totals.skipped_iterations, 0);
}

TEST(PreparedConv, IntConvMatchesPerOpQuantizedLoop) {
  Rng rng(28);
  const Tensor input = random_tensor(rng, 4, 6, 7, ValueDist::kHalfNormal, 1.0);
  const FilterBank filters =
      random_filters(rng, 3, 4, 3, 3, ValueDist::kNormal, 0.2);
  ConvSpec spec;
  spec.pad = 1;
  for (auto scheme :
       {DecompositionScheme::kTemporal, DecompositionScheme::kSerial}) {
    const DatapathConfig cfg = base_config(scheme, 16, 28);
    auto ref_unit = make_datapath(cfg);
    int64_t ref_cycles = 0;
    const Tensor expect =
        per_op_conv_int(make_int_ref(*ref_unit, 8, 8), cfg.n_inputs, 8, 8,
                        input, filters, spec, &ref_cycles);

    const RunReport got = run_compiled_conv(
        cfg, PrecisionPolicy::all_int(8), 2, input, filters, spec);
    ASSERT_EQ(got.output.data.size(), expect.data.size());
    for (size_t i = 0; i < expect.data.size(); ++i) {
      EXPECT_EQ(got.output.data[i], expect.data[i]) << scheme_name(scheme) << " " << i;
    }
    EXPECT_EQ(got.totals.cycles, ref_cycles) << scheme_name(scheme);
  }
}

// --- Prepared plane plumbing -------------------------------------------------

TEST(PreparedPlanes, GatherMatchesDirectPreparation) {
  Rng rng(29);
  const auto pool = random_fp16_bits(rng, 256);
  PreparedFp16 planes(pool);
  Ipu a_path{DatapathConfig{}}, b_path{DatapathConfig{}};
  for (int t = 0; t < 200; ++t) {
    std::vector<int32_t> rel;
    std::vector<Fp16> direct;
    const int32_t base = static_cast<int32_t>(rng.uniform_int(0, 64));
    for (int k = 0; k < 16; ++k) {
      rel.push_back(static_cast<int32_t>(rng.uniform_int(0, 191)));
      direct.push_back(pool[static_cast<size_t>(base + rel.back())]);
    }
    PreparedFp16 gathered;
    gathered.resize(16);
    gathered.gather(planes, rel, base);
    const PreparedFp16 prepared(direct);
    a_path.reset_accumulator();
    b_path.reset_accumulator();
    const int ca = a_path.fp16_accumulate_prepared(gathered.view(), gathered.view());
    const int cb = b_path.fp16_accumulate_prepared(prepared.view(), prepared.view());
    EXPECT_EQ(ca, cb) << t;
    EXPECT_TRUE(a_path.read_raw() == b_path.read_raw()) << t;
  }
}

}  // namespace
}  // namespace mpipu
