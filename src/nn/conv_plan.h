// ConvPlan: the one bit-accurate convolution path.  CompiledModel
// (api/compiled_model.h) builds a plan per conv layer at compile time and
// runs it through the executors below.
//
// A plan captures everything about one conv layer that does not depend on
// the activation values: the output geometry, the clip classes (in-bounds
// kernel-window shapes) with their base-relative input gather offsets, and
// -- the expensive part -- each class's per-output-channel *filter* operand
// streams packed into contiguous prepared planes (core/prepared.h).  It is
// built once and shared `const` across any number of concurrent
// executions.
//
// The execution half is stateless with respect to the plan:
// `run_conv_plan_shard` streams per-call prepared activation planes against a `const` plan, using
// caller-supplied scratch (a thread pool plus one private Datapath per
// worker slot).  Nothing in the plan is written during execution, so one
// plan serves N threads and M concurrent calls.  Every output element is
// accumulated exactly as the per-op loop would feed it (same operand
// order, same n_inputs chunks, accumulator reset per pixel), so outputs
// and stats are bit-identical to it for any thread count.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/datapath.h"
#include "nn/conv.h"
#include "nn/tensor.h"
#include "workload/quantizer.h"

namespace mpipu {

/// One in-bounds kernel-window shape ("clip class") and everything the
/// per-(pixel, co) loop needs for it, computed once per plan:
///
///   * `rel_input`: base-relative input offsets of the window's taps in the
///     canonical ky -> kx -> ci gather order (the order the per-op loop
///     streams operands in, so results stay bit-identical); a pixel's
///     absolute tap index is rel_input[t] + (iy0*W + ix0);
///   * `filters`: the per-output-channel filter operand streams, packed
///     into contiguous prepared planes (co's stream = [co*len, (co+1)*len))
///     -- packed once here instead of re-gathered for every pixel.
///
/// Interior pixels all share one class; border pixels fall into at most
/// (kh+1) x (kw+1) distinct ky-range x kx-range combinations, so the
/// packing cost is a handful of filter-bank sweeps.
template <typename Planes>
struct ClipClass {
  std::vector<int32_t> rel_input;
  Planes filters;
  int len = 0;
};

/// Axis factorization of the clip classes: the in-bounds kernel range along
/// y depends only on y (likewise x), so class(y, x) = y_class[y] * nx +
/// x_class[x] over the cross product of distinct per-axis ranges.
struct AxisRanges {
  std::vector<int32_t> class_of;          // output coordinate -> range id
  std::vector<std::pair<int, int>> uniq;  // range id -> [k0, k1)

  void build(int out, int stride, int pad, int k, int in) {
    class_of.resize(static_cast<size_t>(out));
    uniq.clear();
    for (int o = 0; o < out; ++o) {
      const int i0 = o * stride - pad;
      const std::pair<int, int> r{std::max(0, -i0), std::min(k, in - i0)};
      size_t id = 0;
      while (id < uniq.size() && uniq[id] != r) ++id;
      if (id == uniq.size()) uniq.push_back(r);
      class_of[static_cast<size_t>(o)] = static_cast<int32_t>(id);
    }
  }
};

/// The immutable per-layer plan: geometry + clip classes + packed filter
/// streams for one (filter bank, conv spec, input dims) triple.  Built once
/// (build()), then only read -- safe to share `const` across threads.
template <typename Planes>
struct ConvPlan {
  int in_c = 0, in_h = 0, in_w = 0;  ///< activation dims the plan was built for
  int ho = 0, wo = 0, cout = 0;      ///< conv output geometry
  int stride = 1, pad = 0;
  std::vector<ClipClass<Planes>> classes;
  AxisRanges ys, xs;

  /// Bytes held by the clip classes: gather offsets plus packed planes.
  size_t bytes() const {
    size_t n = 0;
    for (const ClipClass<Planes>& cls : classes) {
      n += cls.rel_input.size() * sizeof(int32_t) + cls.filters.bytes();
    }
    return n;
  }

  int class_of(int y, int x) const {
    return ys.class_of[static_cast<size_t>(y)] *
               static_cast<int>(xs.uniq.size()) +
           xs.class_of[static_cast<size_t>(x)];
  }

  void build(int input_c, int input_h, int input_w, const FilterBank& f,
             const ConvSpec& spec, const Planes& flt_planes) {
    assert(input_c == f.cin);
    in_c = input_c;
    in_h = input_h;
    in_w = input_w;
    ho = spec.out_dim(input_h, f.kh);
    wo = spec.out_dim(input_w, f.kw);
    cout = f.cout;
    stride = spec.stride;
    pad = spec.pad;
    ys.build(ho, spec.stride, spec.pad, f.kh, input_h);
    xs.build(wo, spec.stride, spec.pad, f.kw, input_w);
    const size_t filter_block =
        static_cast<size_t>(f.cin) * f.kh * f.kw;
    classes.clear();
    classes.resize(ys.uniq.size() * xs.uniq.size());
    std::vector<int32_t> rel_filter;
    for (size_t yr = 0; yr < ys.uniq.size(); ++yr) {
      for (size_t xr = 0; xr < xs.uniq.size(); ++xr) {
        ClipClass<Planes>& cls = classes[yr * xs.uniq.size() + xr];
        rel_filter.clear();
        for (int ky = ys.uniq[yr].first; ky < ys.uniq[yr].second; ++ky) {
          for (int kx = xs.uniq[xr].first; kx < xs.uniq[xr].second; ++kx) {
            for (int ci = 0; ci < input_c; ++ci) {
              cls.rel_input.push_back(static_cast<int32_t>(
                  (static_cast<size_t>(ci) * input_h + ky) *
                      static_cast<size_t>(input_w) +
                  kx));
              rel_filter.push_back(static_cast<int32_t>(
                  (static_cast<size_t>(ci) * f.kh + ky) *
                      static_cast<size_t>(f.kw) +
                  kx));
            }
          }
        }
        cls.len = static_cast<int>(cls.rel_input.size());
        cls.filters.match_layout(flt_planes);
        cls.filters.resize(static_cast<size_t>(cls.len) * f.cout);
        for (int co = 0; co < f.cout; ++co) {
          cls.filters.gather(flt_planes, rel_filter,
                             static_cast<int64_t>(co) * static_cast<int64_t>(filter_block),
                             static_cast<size_t>(co) * static_cast<size_t>(cls.len));
        }
      }
    }
  }
};

/// The stateless conv executor over a const plan and prepared activation
/// planes, restricted to the output shard [co_begin, co_end) x
/// [y_begin, y_end) (x is never split -- rows are the spatial shard unit).
/// Per pixel, one plane-copy gather stages the input patch (shared across
/// the shard's output channels); per (pixel, co) one `accumulate` call gets
/// the output element's whole operand streams -- the staged input and the
/// clip class's packed filter stream, contiguous, zero gathers, zero
/// allocations, zero re-decodes -- and feeds them to the datapath in
/// n_inputs chunks (FP16: one Datapath::fp16_accumulate_stream call; INT:
/// a chunk loop over int_accumulate_prepared).  `readout` extracts the
/// finished pixel.  All mutable state lives in the caller's scratch
/// (`pool` + one private `Datapath` per worker slot + per-slot staging
/// planes), so concurrent calls against the same plan never interfere.
/// Every output element's accumulate sequence depends only on its own
/// (co, y, x) -- the datapath accumulator is reset per (pixel, co) -- so a
/// shard computes exactly the bytes the full-range call would, and
/// concatenating shards reproduces the unsharded output bit for bit.
///
/// The returned tensor holds only the shard: (co_end-co_begin) channels x
/// (y_end-y_begin) rows x wo cols.
template <typename Planes, typename AccumulateFn, typename ReadoutFn>
Tensor run_conv_plan_shard(const ConvPlan<Planes>& plan,
                           const Planes& in_planes, ThreadPool& pool,
                           std::span<const std::unique_ptr<Datapath>> units,
                           int co_begin, int co_end, int y_begin, int y_end,
                           AccumulateFn&& accumulate,
                           ReadoutFn&& readout) {
  assert(static_cast<int>(units.size()) >= pool.size());
  assert(0 <= co_begin && co_begin <= co_end && co_end <= plan.cout);
  assert(0 <= y_begin && y_begin <= y_end && y_end <= plan.ho);
  const int rows = y_end - y_begin;
  const int wo = plan.wo;
  Tensor out(co_end - co_begin, rows, wo);

  pool.parallel_for(
      static_cast<int64_t>(rows) * wo,
      [&](int64_t begin, int64_t end, int slot) {
        Datapath& dp = *units[static_cast<size_t>(slot)];
        Planes staged;  // per-slot staging planes, reused across pixels
        staged.match_layout(in_planes);
        for (int64_t p = begin; p < end; ++p) {
          const int y = y_begin + static_cast<int>(p / wo);
          const int x = static_cast<int>(p % wo);
          const ClipClass<Planes>& cls =
              plan.classes[static_cast<size_t>(plan.class_of(y, x))];
          const int len = cls.len;
          const int64_t base =
              static_cast<int64_t>(y * plan.stride - plan.pad) * plan.in_w +
              (x * plan.stride - plan.pad);
          staged.resize(static_cast<size_t>(len));
          staged.gather(in_planes, cls.rel_input, base);
          for (int co = co_begin; co < co_end; ++co) {
            const auto stream_base =
                static_cast<size_t>(co) * static_cast<size_t>(len);
            dp.reset_accumulator();
            accumulate(dp, staged.view(),
                       cls.filters.view(stream_base, static_cast<size_t>(len)));
            out.at(co - co_begin, y - y_begin, x) = readout(dp);
          }
        }
      });
  return out;
}

// ---------------------------------------------------------------------------
// Concrete plane preparation and FP16 / INT plan executors (what
// CompiledModel calls per conv node).
// ---------------------------------------------------------------------------

/// Round a double tensor to FP16 and decode + nibble-decompose it into
/// prepared SoA planes (exactly once).  This is the one place workload
/// values enter the FP16 datapath, which has no inf/NaN support: a value
/// whose FP16 rounding is not finite (|v| >= 65520, inf, NaN) throws
/// std::invalid_argument naming `context`, its index and its value.
PreparedFp16 prepare_fp16_planes(std::span<const double> values,
                                 std::string_view context);

/// Quantize a double tensor to `params` and pack prepared INT planes.
/// `with_digits` = false skips the radix-16 digit planes (the bit-serial
/// scheme streams raw values and never reads them).
PreparedInt prepare_int_planes(std::span<const double> values,
                               const QuantParams& params, bool with_digits);

/// FP16 plan executor over the output shard [co_begin, co_end) x
/// [y_begin, y_end): every inner product on the scheme datapath, partial
/// sums in the datapath accumulator, rounded to `accum` once per pixel.
/// The whole output is the shard [0, cout) x [0, ho); concatenating shard
/// outputs is byte-identical to it (see run_conv_plan_shard).  Operand
/// streams are served in ops of the units' config().n_inputs lanes.
Tensor execute_fp16_plan_shard(const ConvPlan<PreparedFp16>& plan,
                               const PreparedFp16& in_planes, ThreadPool& pool,
                               std::span<const std::unique_ptr<Datapath>> units,
                               AccumKind accum, int co_begin, int co_end,
                               int y_begin, int y_end);

/// INT plan executor over the same shard: quantized operands through the
/// datapath's INT mode, dequantized on readout with the two quant scales.
Tensor execute_int_plan_shard(const ConvPlan<PreparedInt>& plan,
                              const PreparedInt& in_planes, ThreadPool& pool,
                              std::span<const std::unique_ptr<Datapath>> units,
                              int a_bits, int w_bits, const QuantParams& qa,
                              const QuantParams& qw, int co_begin, int co_end,
                              int y_begin, int y_end);

}  // namespace mpipu
