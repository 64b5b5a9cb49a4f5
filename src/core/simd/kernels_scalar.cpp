// Scalar reference implementations of the SIMD kernel set.  These are the
// semantics the vector backends must match bit-for-bit; they also back any
// table entry a vector backend chooses not to implement.
#include <algorithm>
#include <bit>

#include "core/simd/kernels.h"

namespace mpipu::simd {
namespace scalar {

void serve_shifts_i32(const int32_t* align, const int32_t* band, size_t n,
                      int32_t guard, int32_t sp, int single_cycle,
                      int32_t window, int32_t* serve_band, int32_t* up,
                      int32_t* down) {
  for (size_t k = 0; k < n; ++k) {
    if (band[k] < 0) {  // masked lane
      serve_band[k] = -1;
      up[k] = 0;
      down[k] = 0;
      continue;
    }
    const int32_t local = single_cycle ? std::min(align[k], window)
                                       : align[k] - band[k] * sp;
    const int32_t net = guard - local;
    serve_band[k] = single_cycle ? 0 : band[k];
    up[k] = net >= 0 ? net : 0;
    down[k] = net >= 0 ? 0 : -net;
  }
}

void serial_lanes_i32(const int32_t* a_sm, const int32_t* b_sm, size_t n,
                      uint32_t* mag, int32_t* lane_p) {
  for (size_t k = 0; k < n; ++k) {
    const int32_t smb = b_sm[k];
    mag[k] = static_cast<uint32_t>(smb < 0 ? -smb : smb) << 1;
    lane_p[k] = smb < 0 ? -a_sm[k] : a_sm[k];
  }
}

void shifted_lanes_i32(const int32_t* p, const int32_t* up, const int32_t* down,
                       size_t n, int32_t* v) {
  for (size_t k = 0; k < n; ++k) v[k] = (p[k] >> down[k]) << up[k];
}

bool ehu_fused_i32(const int32_t* ea, const int32_t* eb, size_t n, int32_t soft,
                   int32_t sp, int32_t* align, int32_t* band, int32_t* max_exp,
                   uint32_t* occupancy, int32_t* max_band,
                   int32_t* n_masked) {
  int32_t mx = INT32_MIN, mn = INT32_MAX;
  for (size_t k = 0; k < n; ++k) {
    const int32_t s = ea[k] + eb[k];
    mx = std::max(mx, s);
    mn = std::min(mn, s);
  }
  if (soft >= 65536 ||
      static_cast<int64_t>(mx) - static_cast<int64_t>(mn) >= 65536) {
    return false;
  }
  uint32_t occ = 0;
  int32_t mb = -1, masked = 0;
  for (size_t k = 0; k < n; ++k) {
    const int32_t al = mx - (ea[k] + eb[k]);
    align[k] = al;
    if (al > soft) {
      band[k] = -1;
      ++masked;
      continue;
    }
    const int32_t c = al / sp;
    band[k] = c;
    occ |= 1u << std::min(c, 31);
    mb = std::max(mb, c);
  }
  *max_exp = mx;
  *occupancy = occ;
  *max_band = mb;
  *n_masked = masked;
  return true;
}

/// Band sums of all nine nibble iterations of one op:
/// sums[c*9 + i*3 + j] = sum over k with band[k] == c of
/// ((a_i[k] * b_j[k]) >> down[k]) << up[k], c < bands; bit i*3 + j of *nz
/// is set when some lane with band[k] >= 0 has a_i[k] * b_j[k] != 0.
void nibble_sums3x3(const int8_t* a, size_t a_stride, const int8_t* b,
                    size_t b_stride, const int32_t* band, const int32_t* up,
                    const int32_t* down, size_t n, int bands, int64_t* sums,
                    uint32_t* nz) {
  uint32_t nzm = 0;
  for (int c = 0; c < 9 * bands; ++c) sums[c] = 0;
  for (int i = 0; i < 3; ++i) {
    const int8_t* pa = a + static_cast<size_t>(i) * a_stride;
    for (int j = 0; j < 3; ++j) {
      const int8_t* pb = b + static_cast<size_t>(j) * b_stride;
      const int it = i * 3 + j;
      for (size_t k = 0; k < n; ++k) {
        if (band[k] < 0) continue;
        const int32_t p =
            static_cast<int32_t>(pa[k]) * static_cast<int32_t>(pb[k]);
        if (p != 0) nzm |= 1u << it;
        sums[band[k] * 9 + it] += (p >> down[k]) << up[k];
      }
    }
  }
  *nz = nzm;
}

/// Accumulator::add of tree * 2^rescale at exponent in_exp on the stream
/// state, one add at a time, in int64 (the driver checks fast64_ok).
void add_tree(int64_t tree, int32_t rescale, int32_t in_exp,
              int32_t register_width, TemporalStreamState* st) {
  const int64_t hi = (int64_t{1} << (register_width - 1)) - 1;
  const int64_t lo = -hi - 1;
  const auto clamp = [&](int64_t v) {
    if (v > hi || v < lo) st->overflowed = 1;
    return std::clamp(v, lo, hi);
  };
  const int64_t m = rescale >= 0 ? tree << rescale : tree >> -rescale;
  if (st->empty) {
    if (m == 0) return;
    st->empty = 0;
    st->exp = in_exp;
    st->reg = clamp(m);
    return;
  }
  const int64_t lead = int64_t{in_exp} - st->exp;
  if (lead > 0) {
    // Swap: shift the old register down to the new exponent.
    st->reg = clamp((st->reg >> std::min<int64_t>(lead, 63)) + m);
    st->exp = in_exp;
  } else {
    st->reg = clamp(st->reg + (m >> std::min<int64_t>(-lead, 63)));
  }
}

void serial_fused_i32(const int32_t* v, const uint32_t* mag,
                      const int32_t* band, size_t n, int bands, int64_t* sums) {
  for (int c = 0; c < bands; ++c) {
    for (int t = 0; t < kSerialSteps; ++t) sums[c * kSerialSteps + t] = 0;
  }
  for (size_t k = 0; k < n; ++k) {
    if (band[k] < 0) continue;
    int64_t* s = sums + static_cast<size_t>(band[k]) * kSerialSteps;
    for (int t = 0; t < kSerialSteps; ++t) {
      if ((mag[k] >> t) & 1u) s[t] += v[k];
    }
  }
}

bool spatial_fused_i32(const int8_t* a, size_t a_stride, const int8_t* b,
                       size_t b_stride, const int32_t* align,
                       const int32_t* band, size_t n, int32_t offs0,
                       int32_t sp, int32_t guard, int single_cycle,
                       int32_t window, int64_t* sums, int32_t* max_band,
                       uint32_t* occupancy) {
  // Serve band and net window shift of diagonal s on lane k.
  auto serve = [&](size_t k, int s, int32_t* c, int32_t* net) {
    const int32_t shift = align[k] + offs0 - 4 * s;
    *c = single_cycle ? 0 : shift / sp;
    *net = guard - (single_cycle ? std::min(shift, window) : shift - *c * sp);
  };
  int32_t mb = -1;
  uint32_t occ = 0;
  for (size_t k = 0; k < n; ++k) {
    if (band[k] < 0) continue;
    for (int s = 0; s < 5; ++s) {
      int32_t c, net;
      serve(k, s, &c, &net);
      mb = std::max(mb, c);
      occ |= 1u << std::min(c, 31);
    }
  }
  *max_band = mb;
  *occupancy = occ;
  if (mb >= kMaxBands) return false;
  for (int c = 0; c <= std::max(mb, 0); ++c) sums[c] = 0;
  for (size_t k = 0; k < n; ++k) {
    if (band[k] < 0) continue;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        int32_t c, net;
        serve(k, i + j, &c, &net);
        const int32_t p =
            static_cast<int32_t>(a[static_cast<size_t>(i) * a_stride + k]) *
            static_cast<int32_t>(b[static_cast<size_t>(j) * b_stride + k]);
        sums[c] += net >= 0 ? p << net : p >> -net;
      }
    }
  }
  return true;
}

size_t temporal_stream_i32(const TemporalStreamArgs* args,
                           TemporalStreamState* st) {
  const TemporalStreamArgs& g = *args;
  int32_t align[kFusedLanes], band[kFusedLanes];
  int32_t serve_band[kFusedLanes], up[kFusedLanes], down[kFusedLanes];
  for (size_t c0 = 0; c0 < g.len; c0 += g.chunk) {
    const size_t n = std::min(g.chunk, g.len - c0);
    int32_t max_exp, max_band, n_masked;
    uint32_t occ;
    if (!ehu_fused_i32(g.a_exp + c0, g.b_exp + c0, n, g.soft,
                       std::max(g.sp, 1), align, band, &max_exp, &occ,
                       &max_band, &n_masked)) {
      return c0;
    }
    const int bands = g.single_cycle ? 1 : std::max(max_band, 0) + 1;
    if (bands > kMaxBands) return c0;
    serve_shifts_i32(align, band, n, g.guard, g.sp, g.single_cycle, g.window,
                     serve_band, up, down);
    int64_t sums[9 * kMaxBands];
    uint32_t nz;
    nibble_sums3x3(g.a_nib + c0, g.a_stride, g.b_nib + c0, g.b_stride,
                   serve_band, up, down, n, bands, sums, &nz);
    const int cycles_per_iter =
        g.single_cycle ? 1
                       : (g.skip_empty_bands ? std::max(std::popcount(occ), 1)
                                             : bands);
    for (int it = 0; it < 9; ++it) {
      if (g.skip_zero_iterations && ((nz >> it) & 1u) == 0) {
        ++st->skipped_iterations;
        continue;
      }
      for (int c = 0; c < bands; ++c) {
        add_tree(sums[c * 9 + it], g.rescale[c * 9 + it], max_exp,
                 g.register_width, st);
      }
      st->cycles += cycles_per_iter;
      if (cycles_per_iter > 1) ++st->multi_cycle_iterations;
    }
    ++st->ops;
    st->masked_products += n_masked;
  }
  return g.len;
}

int64_t dot_i8(const int8_t* a, const int8_t* b, size_t n) {
  int64_t s = 0;
  for (size_t k = 0; k < n; ++k) {
    s += static_cast<int32_t>(a[k]) * static_cast<int32_t>(b[k]);
  }
  return s;
}

int64_t bit_masked_sum_i32(const int32_t* a, const int32_t* b, int t,
                           size_t n) {
  int64_t s = 0;
  for (size_t k = 0; k < n; ++k) {
    if ((b[k] >> t) & 1) s += a[k];
  }
  return s;
}

// mt19937_64 as the C++ standard fixes it ([rand.predef]): w = 64, n = 312,
// m = 156, r = 31, a = 0xB5026F5AA96619E9, then the (u, d), (s, b), (t, c)
// and l tempering steps.
void mt19937_64_refill(uint64_t* state, uint64_t* out) {
  constexpr size_t n = kMt64Words;
  constexpr size_t m = 156;
  constexpr uint64_t upper = ~uint64_t{0} << 31;
  constexpr uint64_t lower = ~upper;
  constexpr uint64_t matrix = 0xB5026F5AA96619E9ULL;
  for (size_t k = 0; k < n; ++k) {
    // state[k + 1] and state[k + m] wrap to words already twisted this step.
    const uint64_t y = (state[k] & upper) | (state[(k + 1) % n] & lower);
    state[k] = state[(k + m) % n] ^ (y >> 1) ^ ((y & 1) ? matrix : 0);
  }
  for (size_t k = 0; k < n; ++k) {
    uint64_t z = state[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
    z ^= (z << 37) & 0xFFF7EEE000000000ULL;
    z ^= z >> 43;
    out[k] = z;
  }
}

}  // namespace scalar

const KernelTable* scalar_kernel_table() {
  static const KernelTable t = {
      .serve_shifts_i32 = scalar::serve_shifts_i32,
      .serial_lanes_i32 = scalar::serial_lanes_i32,
      .shifted_lanes_i32 = scalar::shifted_lanes_i32,
      .ehu_fused_i32 = scalar::ehu_fused_i32,
      .temporal_stream_i32 = scalar::temporal_stream_i32,
      .serial_fused_i32 = scalar::serial_fused_i32,
      .spatial_fused_i32 = scalar::spatial_fused_i32,
      .dot_i8 = scalar::dot_i8,
      .bit_masked_sum_i32 = scalar::bit_masked_sum_i32,
      .mt19937_64_refill = scalar::mt19937_64_refill,
  };
  return &t;
}

}  // namespace mpipu::simd
