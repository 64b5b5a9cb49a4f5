#include "core/ehu.h"

#include <algorithm>
#include <cassert>

namespace mpipu {

namespace {

/// Stages 2-3 from an already-filled product_exp plane.
void alignment_from_product_exps(EhuResult& r) {
  assert(!r.product_exp.empty());  // an op has at least one operand pair
  r.max_exp = *std::max_element(r.product_exp.begin(), r.product_exp.end());
  const size_t n = r.product_exp.size();
  r.align.resize(n);
  for (size_t k = 0; k < n; ++k) r.align[k] = r.max_exp - r.product_exp[k];
}

/// Stages 4-5 (masking + serve-loop band assignment) on top of stages 1-3.
void mask_and_band(EhuResult& r, const EhuOptions& opts) {
  assert(opts.safe_precision >= 1);
  const size_t n = r.product_exp.size();
  r.masked.assign(n, 0);
  r.band.assign(n, -1);
  r.band_used.clear();

  int max_band = 0;
  for (size_t k = 0; k < n; ++k) {
    if (r.align[k] > opts.software_precision) {
      r.masked[k] = 1;
      continue;
    }
    const int c = r.align[k] / opts.safe_precision;
    r.band[k] = c;
    max_band = std::max(max_band, c);
    if (static_cast<size_t>(c) >= r.band_used.size()) {
      r.band_used.resize(static_cast<size_t>(c) + 1, 0);
    }
    r.band_used[static_cast<size_t>(c)] = 1;
  }
  r.mc_cycles = max_band + 1;
  r.mc_cycles_skip_empty = static_cast<int>(
      std::count(r.band_used.begin(), r.band_used.end(), uint8_t{1}));
  if (r.mc_cycles_skip_empty == 0) r.mc_cycles_skip_empty = 1;  // all masked
}

}  // namespace

void ehu_alignment_stages(std::span<const Decoded> a, std::span<const Decoded> b,
                          EhuResult& r) {
  assert(a.size() == b.size());
  const size_t n = a.size();
  r.product_exp.resize(n);
  for (size_t k = 0; k < n; ++k) r.product_exp[k] = a[k].exp + b[k].exp;
  alignment_from_product_exps(r);
}

void run_ehu(std::span<const Decoded> a, std::span<const Decoded> b,
             const EhuOptions& opts, EhuResult& out) {
  ehu_alignment_stages(a, b, out);
  mask_and_band(out, opts);
}

void run_ehu(std::span<const int32_t> a_exp, std::span<const int32_t> b_exp,
             const EhuOptions& opts, EhuResult& out) {
  assert(a_exp.size() == b_exp.size());
  const size_t n = a_exp.size();
  out.product_exp.resize(n);
  for (size_t k = 0; k < n; ++k) out.product_exp[k] = a_exp[k] + b_exp[k];
  alignment_from_product_exps(out);
  mask_and_band(out, opts);
}

EhuResult run_ehu(std::span<const Decoded> a, std::span<const Decoded> b,
                  const EhuOptions& opts) {
  EhuResult r;
  run_ehu(a, b, opts, r);
  return r;
}

std::vector<int> product_alignments(std::span<const Decoded> a, std::span<const Decoded> b) {
  EhuResult r;
  ehu_alignment_stages(a, b, r);
  return std::move(r.align);
}

}  // namespace mpipu
