// AVX2 implementations of the SIMD kernel set (see simd.h for contracts).
//
// Compiled into every x86-64 build, and the one TU of the library built
// with -mavx2 (a per-file flag in CMakeLists.txt).  simd.cpp hands out
// avx2_kernel_table() only after __builtin_cpu_supports("avx2"), so the
// binary still runs on x86-64 CPUs without AVX2.  On other hosts this TU
// is empty and avx2_kernel_table() returns nullptr.
//
// ISA isolation: every function this TU emits may contain AVX2
// instructions.  An inline or template function from a shared header (say
// std::max<int>, emitted as a weak symbol at -O0) could be picked by the
// linker for scalar callers elsewhere and fault on a CPU without AVX2.  So
// the TU includes only <immintrin.h>, <cstddef>, <cstdint> and core/simd
// headers, and uses no std:: names: min/max/copy are the local helpers
// below.  tools/lint (rule isa-isolation) enforces this.
//
// Bit-identity notes:
//   * every kernel processes floor(n / V) whole vectors and finishes with
//     the scalar reference loop -- no reads past n on caller planes;
//   * integer band sums are order-independent, so accumulating 8 lanes in
//     parallel and horizontally reducing at the end equals the scalar
//     left-to-right sum exactly;
//   * masked lanes carry band == -1 (never equal to a served band) and
//     up == down == 0 (shift counts stay in range), so their lane values
//     are computed and then discarded by the band mask;
//   * the fused kernels hold int32 lane values (exact under the drivers'
//     guard bounds) and sum their 16-bit halves in int32, recombined into
//     exact int64 band sums;
//   * the temporal stream kernel adds an op's 9 x bands values to the
//     accumulator register in one sum only when a magnitude bound shows
//     that no partial sum of the in-order adds could clamp; otherwise it
//     adds them in order, clamping each (the scalar reference always
//     does);
//   * band = x / sp uses the magic-multiply m = ceil(2^32 / sp):
//     floor(x * m / 2^32) == floor(x / sp) exactly whenever x * (sp - 1)
//     < 2^32, so for 0 <= x < 2^16 with 2 <= sp < 2^16 (the EHU) and for
//     0 <= x < 2^17 with 2 <= sp <= 2^15 (the spatial shifts); sp == 1
//     short-circuits to a copy.
#if defined(__x86_64__)

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "core/simd/kernels.h"

namespace mpipu::simd {
namespace {

template <typename T>
inline T min_of(T a, T b) {
  return b < a ? b : a;
}

template <typename T>
inline T max_of(T a, T b) {
  return a < b ? b : a;
}

inline void copy_bytes(void* dst, const void* src, size_t n) {
  __builtin_memcpy(dst, src, n);
}

inline int32_t hsum8_i32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline int32_t hmax8_i32(__m256i v) {
  __m128i s = _mm_max_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_max_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_max_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline int32_t hmin8_i32(__m256i v) {
  __m128i s = _mm_min_epi32(_mm256_castsi256_si128(v),
                            _mm256_extracti128_si256(v, 1));
  s = _mm_min_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_min_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline int32_t hor8_i32(__m256i v) {
  __m128i s = _mm_or_si128(_mm256_castsi256_si128(v),
                           _mm256_extracti128_si256(v, 1));
  s = _mm_or_si128(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_or_si128(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

inline int64_t hsum4_i64(__m256i v) {
  const __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v),
                                  _mm256_extracti128_si256(v, 1));
  return _mm_cvtsi128_si64(_mm_add_epi64(s, _mm_unpackhi_epi64(s, s)));
}

inline int64_t hor4_i64(__m256i v) {
  const __m128i s = _mm_or_si128(_mm256_castsi256_si128(v),
                                 _mm256_extracti128_si256(v, 1));
  return _mm_cvtsi128_si64(_mm_or_si128(s, _mm_unpackhi_epi64(s, s)));
}

/// Packs two 8-lane i32 vectors (every value fits int16) into one 16-lane
/// i16 vector in source order: lanes 0-7 from `lo`, 8-15 from `hi`.
inline __m256i pack32_16(__m256i lo, __m256i hi) {
  return _mm256_permute4x64_epi64(_mm256_packs_epi32(lo, hi), 0xD8);
}

inline __m256i load8(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

/// Transposed reduction of four 8-lane i32 vectors:
/// returns [hsum(r0), hsum(r1), hsum(r2), hsum(r3)].
inline __m128i red4_i32(__m256i r0, __m256i r1, __m256i r2, __m256i r3) {
  const __m256i h01 = _mm256_hadd_epi32(r0, r1);
  const __m256i h23 = _mm256_hadd_epi32(r2, r3);
  const __m256i h = _mm256_hadd_epi32(h01, h23);
  return _mm_add_epi32(_mm256_castsi256_si128(h),
                       _mm256_extracti128_si256(h, 1));
}

/// out[k] = rh[k] * 2^16 + rl[k] summed over the 8 lanes, exact int64, for
/// k < count rounded up to a multiple of 4 (rh/rl are padded with zero
/// vectors up to there).
inline void store_half_sums(__m256i* rh, __m256i* rl, int count,
                            int64_t* out) {
  while (count % 4 != 0) {
    rh[count] = rl[count] = _mm256_setzero_si256();
    ++count;
  }
  for (int k = 0; k < count; k += 4) {
    const __m256i h = _mm256_cvtepi32_epi64(
        red4_i32(rh[k], rh[k + 1], rh[k + 2], rh[k + 3]));
    const __m256i l = _mm256_cvtepi32_epi64(
        red4_i32(rl[k], rl[k + 1], rl[k + 2], rl[k + 3]));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k),
                        _mm256_add_epi64(_mm256_slli_epi64(h, 16), l));
  }
}

/// Band sums of `sets` 16-lane int32 value sets (lo[s] = lanes 0-7, hi[s] =
/// lanes 8-15): out[c*sets + s] = sum over lanes with band == c, c < bands,
/// exact in int64 for any int32 lane values.  With one band every lane is
/// summed, so callers zero the masked lanes' values first.  Each lane splits
/// exactly as v = (v >> 16) * 2^16 + (v & 0xFFFF); sixteen of either half
/// sum in int32 without overflow (|high sum| <= 2^19, low sum < 2^20), so
/// both halves reduce in int32 and only the recombination is int64.  Writes
/// out through bands*sets rounded up to a multiple of 4;
/// bands*sets <= kMaxBands*kSerialSteps.
inline void band_sums16(const __m256i* lo, const __m256i* hi, int sets,
                        __m256i band_lo, __m256i band_hi, int bands,
                        int64_t* out) {
  const __m256i low16 = _mm256_set1_epi32(0xFFFF);
  __m256i rh[kMaxBands * kSerialSteps + 3], rl[kMaxBands * kSerialSteps + 3];
  int count = 0;
  for (int c = 0; c < bands; ++c) {
    const __m256i vc = _mm256_set1_epi32(c);
    const __m256i m_lo = _mm256_cmpeq_epi32(band_lo, vc);
    const __m256i m_hi = _mm256_cmpeq_epi32(band_hi, vc);
    for (int s = 0; s < sets; ++s) {
      __m256i x = lo[s], y = hi[s];
      if (bands > 1) {
        x = _mm256_and_si256(x, m_lo);
        y = _mm256_and_si256(y, m_hi);
      }
      rh[count] = _mm256_add_epi32(_mm256_srai_epi32(x, 16),
                                   _mm256_srai_epi32(y, 16));
      rl[count] = _mm256_add_epi32(_mm256_and_si256(x, low16),
                                   _mm256_and_si256(y, low16));
      ++count;
    }
  }
  store_half_sums(rh, rl, count, out);
}

/// floor(x / d) for 8 unsigned lanes < 2^16, 2 <= d < 2^16, via the magic
/// multiplier m = ceil(2^32 / d).
inline __m256i divq_u32(__m256i x, __m256i m) {
  const __m256i pe = _mm256_mul_epu32(x, m);
  const __m256i po = _mm256_mul_epu32(_mm256_srli_epi64(x, 32), m);
  const __m256i hi_e = _mm256_srli_epi64(pe, 32);
  const __m256i hi_o = _mm256_and_si256(
      po, _mm256_set1_epi64x(static_cast<long long>(0xFFFFFFFF00000000ULL)));
  return _mm256_or_si256(hi_e, hi_o);
}

inline uint32_t magic_for(int32_t d) {
  return static_cast<uint32_t>(((uint64_t{1} << 32) + static_cast<uint64_t>(d) -
                                1) /
                               static_cast<uint64_t>(d));
}

/// The three nibble planes of one operand, widened to 16 int16 lanes.
/// Operand planes are only readable through n (bytes past the view are
/// live neighbor data); short views go through zero-filled staging.
inline void load_nibbles16(const int8_t* p, size_t stride, size_t n,
                           __m256i out[3]) {
  if (n == kFusedLanes) {
    for (int i = 0; i < 3; ++i) {
      out[i] = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(p + static_cast<size_t>(i) * stride)));
    }
    return;
  }
  alignas(16) int8_t buf[3][kFusedLanes] = {};
  for (int i = 0; i < 3; ++i) {
    copy_bytes(buf[i], p + static_cast<size_t>(i) * stride, n);
    out[i] = _mm256_cvtepi8_epi16(
        _mm_load_si128(reinterpret_cast<const __m128i*>(buf[i])));
  }
}

}  // namespace

namespace avx2 {

void serve_shifts_i32(const int32_t* align, const int32_t* band, size_t n,
                      int32_t guard, int32_t sp, int single_cycle,
                      int32_t window, int32_t* serve_band, int32_t* up,
                      int32_t* down) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i neg1 = _mm256_set1_epi32(-1);
  const __m256i vguard = _mm256_set1_epi32(guard);
  const __m256i vsp = _mm256_set1_epi32(sp);
  const __m256i vwin = _mm256_set1_epi32(window);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i al =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(align + k));
    const __m256i bd =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(band + k));
    const __m256i msk = _mm256_cmpgt_epi32(zero, bd);  // masked: band < 0
    __m256i sb, local;
    if (single_cycle) {
      sb = zero;
      local = _mm256_min_epi32(al, vwin);
    } else {
      sb = bd;
      local = _mm256_sub_epi32(al, _mm256_mullo_epi32(bd, vsp));
    }
    const __m256i net = _mm256_sub_epi32(vguard, local);
    __m256i upv = _mm256_max_epi32(net, zero);
    __m256i dnv = _mm256_max_epi32(_mm256_sub_epi32(zero, net), zero);
    sb = _mm256_blendv_epi8(sb, neg1, msk);
    upv = _mm256_andnot_si256(msk, upv);
    dnv = _mm256_andnot_si256(msk, dnv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(serve_band + k), sb);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(up + k), upv);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(down + k), dnv);
  }
  for (; k < n; ++k) {
    if (band[k] < 0) {
      serve_band[k] = -1;
      up[k] = 0;
      down[k] = 0;
      continue;
    }
    const int32_t local =
        single_cycle ? min_of(align[k], window) : align[k] - band[k] * sp;
    const int32_t net = guard - local;
    serve_band[k] = single_cycle ? 0 : band[k];
    up[k] = net >= 0 ? net : 0;
    down[k] = net >= 0 ? 0 : -net;
  }
}

void serial_lanes_i32(const int32_t* a_sm, const int32_t* b_sm, size_t n,
                      uint32_t* mag, int32_t* lane_p) {
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i b =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b_sm + k));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a_sm + k));
    const __m256i sgn = _mm256_srai_epi32(b, 31);  // -1 where b < 0
    const __m256i absb =
        _mm256_sub_epi32(_mm256_xor_si256(b, sgn), sgn);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(mag + k),
                        _mm256_slli_epi32(absb, 1));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(lane_p + k),
        _mm256_sub_epi32(_mm256_xor_si256(a, sgn), sgn));
  }
  for (; k < n; ++k) {
    const int32_t smb = b_sm[k];
    mag[k] = static_cast<uint32_t>(smb < 0 ? -smb : smb) << 1;
    lane_p[k] = smb < 0 ? -a_sm[k] : a_sm[k];
  }
}

void shifted_lanes_i32(const int32_t* p, const int32_t* up, const int32_t* down,
                       size_t n, int32_t* v) {
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256i x = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + k));
    x = _mm256_srav_epi32(
        x, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(down + k)));
    x = _mm256_sllv_epi32(
        x, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(up + k)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(v + k), x);
  }
  for (; k < n; ++k) v[k] = (p[k] >> down[k]) << up[k];
}

bool ehu_fused_i32(const int32_t* ea, const int32_t* eb, size_t n, int32_t soft,
                   int32_t sp, int32_t* align, int32_t* band, int32_t* max_exp,
                   uint32_t* occupancy, int32_t* max_band,
                   int32_t* n_masked) {
  // Pass 1: product exponents (staged in the align buffer) and max/min.
  __m256i vmx = _mm256_set1_epi32(INT32_MIN);
  __m256i vmn = _mm256_set1_epi32(INT32_MAX);
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i s = _mm256_add_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(ea + k)),
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(eb + k)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(align + k), s);
    vmx = _mm256_max_epi32(vmx, s);
    vmn = _mm256_min_epi32(vmn, s);
  }
  int32_t mx = hmax8_i32(vmx), mn = hmin8_i32(vmn);
  for (; k < n; ++k) {
    const int32_t s = ea[k] + eb[k];
    align[k] = s;
    mx = max_of(mx, s);
    mn = min_of(mn, s);
  }
  if (soft >= 65536 ||
      static_cast<int64_t>(mx) - static_cast<int64_t>(mn) >= 65536) {
    return false;
  }
  // Pass 2: alignments, bands and every wrap-up reduction.
  const __m256i zero = _mm256_setzero_si256();
  const __m256i neg1 = _mm256_set1_epi32(-1);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i v31 = _mm256_set1_epi32(31);
  const __m256i vmxv = _mm256_set1_epi32(mx);
  const __m256i vsoft = _mm256_set1_epi32(soft);
  const __m256i vm =
      sp >= 2 ? _mm256_set1_epi32(static_cast<int32_t>(magic_for(sp)))
              : _mm256_setzero_si256();
  __m256i occ_acc = zero, mb_acc = neg1, cnt_acc = zero;
  k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m256i al = _mm256_sub_epi32(
        vmxv, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(align + k)));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(align + k), al);
    const __m256i msk = _mm256_cmpgt_epi32(al, vsoft);
    const __m256i q = sp >= 2 ? divq_u32(al, vm) : al;
    const __m256i bd = _mm256_blendv_epi8(q, neg1, msk);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(band + k), bd);
    occ_acc = _mm256_or_si256(
        occ_acc, _mm256_sllv_epi32(one, _mm256_min_epi32(bd, v31)));
    mb_acc = _mm256_max_epi32(mb_acc, bd);
    cnt_acc = _mm256_sub_epi32(cnt_acc, msk);  // masked lanes are -1
  }
  uint32_t occ = static_cast<uint32_t>(hor8_i32(occ_acc));
  int32_t mb = hmax8_i32(mb_acc);
  int32_t masked = hsum8_i32(cnt_acc);
  for (; k < n; ++k) {
    const int32_t al = mx - align[k];
    align[k] = al;
    if (al > soft) {
      band[k] = -1;
      ++masked;
      continue;
    }
    const int32_t c = al / sp;
    band[k] = c;
    occ |= 1u << min_of(c, 31);
    mb = max_of(mb, c);
  }
  *max_exp = mx;
  *occupancy = occ;
  *max_band = mb;
  *n_masked = masked;
  return true;
}

size_t temporal_stream_i32(const TemporalStreamArgs* args,
                           TemporalStreamState* st) {
  const TemporalStreamArgs& g = *args;
  const bool mc = g.single_cycle == 0;
  const __m256i zero = _mm256_setzero_si256();
  const __m256i ones = _mm256_set1_epi32(-1);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i v31 = _mm256_set1_epi32(31);
  const __m256i vmin32 = _mm256_set1_epi32(INT32_MIN);
  const __m256i iota = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256i vsoft = _mm256_set1_epi32(g.soft);
  const __m256i vsp = _mm256_set1_epi32(g.sp);
  const __m256i vguard = _mm256_set1_epi32(g.guard);
  const __m256i vwin = _mm256_set1_epi32(g.window);
  const __m256i vm =
      mc && g.sp >= 2
          ? _mm256_set1_epi32(static_cast<int32_t>(magic_for(g.sp)))
          : zero;
  const int64_t reg_hi = (int64_t{1} << (g.register_width - 1)) - 1;
  const int64_t reg_lo = -reg_hi - 1;

  // The registers of the whole stream.
  int64_t reg = st->reg;
  int32_t acc_exp = st->exp;
  bool empty = st->empty != 0;
  bool overflowed = st->overflowed != 0;
  int64_t ops = 0, cycles = 0, multi = 0, skipped = 0;
  __m256i masked_acc = zero;

  size_t c0 = 0;
  for (; c0 < g.len; c0 += g.chunk) {
    const size_t n = min_of(g.chunk, g.len - c0);
    // EHU: product exponents over the n valid lanes (short ops staged
    // through zero-filled buffers; lanes past n are invalid).
    __m256i e[2], valid[2];
    if (n == kFusedLanes) {
      for (int h = 0; h < 2; ++h) {
        e[h] = _mm256_add_epi32(load8(g.a_exp + c0 + 8 * h),
                                load8(g.b_exp + c0 + 8 * h));
        valid[h] = ones;
      }
    } else {
      int32_t ea[kFusedLanes] = {}, eb[kFusedLanes] = {};
      copy_bytes(ea, g.a_exp + c0, n * sizeof(int32_t));
      copy_bytes(eb, g.b_exp + c0, n * sizeof(int32_t));
      const __m256i vn = _mm256_set1_epi32(static_cast<int32_t>(n));
      for (int h = 0; h < 2; ++h) {
        e[h] = _mm256_add_epi32(load8(ea + 8 * h), load8(eb + 8 * h));
        valid[h] = _mm256_cmpgt_epi32(
            vn, _mm256_add_epi32(iota, _mm256_set1_epi32(8 * h)));
      }
    }
    const int32_t max_exp = hmax8_i32(
        _mm256_max_epi32(_mm256_blendv_epi8(vmin32, e[0], valid[0]),
                         _mm256_blendv_epi8(vmin32, e[1], valid[1])));
    const __m256i vmx = _mm256_set1_epi32(max_exp);
    __m256i al[2], masked[2];
    for (int h = 0; h < 2; ++h) {
      al[h] = _mm256_sub_epi32(vmx, e[h]);
      masked[h] = _mm256_or_si256(_mm256_cmpgt_epi32(al[h], vsoft),
                                  _mm256_xor_si256(valid[h], ones));
    }
    // Spread bail: max - min >= 2^16 <=> some valid alignment, read as
    // unsigned, has a bit at or above 16.
    const __m256i wide = _mm256_or_si256(
        _mm256_and_si256(_mm256_srli_epi32(al[0], 16), valid[0]),
        _mm256_and_si256(_mm256_srli_epi32(al[1], 16), valid[1]));
    if (!_mm256_testz_si256(wide, wide)) break;

    // Bands (MC) and the per-lane window shifts: up/down = max(+-net, 0)
    // with net = guard - local.  Masked lanes get band -1 and zeroed a
    // operands below, so their shifts never matter.
    int bands = 1;
    uint32_t occ = 0;
    __m256i bd[2] = {zero, zero}, up[2], down[2];
    for (int h = 0; h < 2; ++h) {
      __m256i local;
      if (mc) {
        const __m256i q = g.sp >= 2 ? divq_u32(al[h], vm) : al[h];
        bd[h] = _mm256_or_si256(q, masked[h]);
        local = _mm256_sub_epi32(al[h], _mm256_mullo_epi32(q, vsp));
      } else {
        local = _mm256_min_epi32(al[h], vwin);
      }
      const __m256i net = _mm256_sub_epi32(vguard, local);
      up[h] = _mm256_max_epi32(net, zero);
      down[h] = _mm256_max_epi32(_mm256_sub_epi32(zero, net), zero);
    }
    if (mc) {
      bands = max_of(hmax8_i32(_mm256_max_epi32(bd[0], bd[1])), 0) + 1;
      if (bands > kMaxBands) break;
      if (g.skip_empty_bands) {
        // Masked lanes: min(-1, 31) = -1 is a shift count past 31, so
        // they drop out of the occupancy OR.
        occ = static_cast<uint32_t>(hor8_i32(_mm256_or_si256(
            _mm256_sllv_epi32(one, _mm256_min_epi32(bd[0], v31)),
            _mm256_sllv_epi32(one, _mm256_min_epi32(bd[1], v31)))));
      }
    }
    for (int h = 0; h < 2; ++h) {
      masked_acc = _mm256_sub_epi32(masked_acc,
                                    _mm256_and_si256(masked[h], valid[h]));
    }

    // The nine nibble products, their skip-zero mask (when skipping) and
    // the shifted int32 lane values (exact under the guard bound); masked
    // lanes are zeroed through the a operands.
    __m256i a16[3], b16[3];
    load_nibbles16(g.a_nib + c0, g.a_stride, n, a16);
    load_nibbles16(g.b_nib + c0, g.b_stride, n, b16);
    const __m256i masked16 = pack32_16(masked[0], masked[1]);
    for (int i = 0; i < 3; ++i) a16[i] = _mm256_andnot_si256(masked16, a16[i]);
    __m256i lo[9], hi[9];
    uint32_t nz = 0;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        const int it = i * 3 + j;
        const __m256i p = _mm256_mullo_epi16(a16[i], b16[j]);
        if (g.skip_zero_iterations && !_mm256_testz_si256(p, p)) {
          nz |= 1u << it;
        }
        __m256i x = _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p));
        __m256i y = _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p, 1));
        if (!mc) {
          // MC locals stay below sp = guard + 1, so only single-cycle
          // windows shift down.
          x = _mm256_srav_epi32(x, down[0]);
          y = _mm256_srav_epi32(y, down[1]);
        }
        lo[it] = _mm256_sllv_epi32(x, up[0]);
        hi[it] = _mm256_sllv_epi32(y, up[1]);
      }
    }
    int64_t sums[9 * kMaxBands];
    band_sums16(lo, hi, 9, bd[0], bd[1], bands, sums);

    // Cycles, then the 9 x bands accumulator adds in (i, j, c) order.
    const uint32_t served = g.skip_zero_iterations ? nz : 0x1FFu;
    const int iters = __builtin_popcount(served);
    const int cycles_per_iter =
        mc ? (g.skip_empty_bands ? max_of(__builtin_popcount(occ), 1) : bands)
           : 1;
    skipped += 9 - iters;
    cycles += static_cast<int64_t>(iters) * cycles_per_iter;
    if (cycles_per_iter > 1) multi += iters;
    ++ops;
    if (served == 0) continue;
    // Every add of this op is at in_exp = max_exp: a register below it
    // shifts down once, at the first add; one at or above it shifts each
    // add down by its lead s.  An empty register is a zero register at
    // in_exp that stays empty until a nonzero add lands.
    int s = 0;
    if (empty) {
      reg = 0;
    } else {
      const int64_t lead = int64_t{max_exp} - acc_exp;
      if (lead > 0) {
        reg >>= min_of<int64_t>(lead, 63);
        acc_exp = max_exp;
      } else {
        s = static_cast<int>(min_of<int64_t>(-lead, 63));
      }
    }
    // The added values v = (tree << rescale) >> s, four sums per vector:
    // a left shift by max(rescale, 0), then one arithmetic right shift by
    // min(max(-rescale, 0) + s, 63) (arithmetic shifts compose).  Slots
    // past 9 * bands hold zero sums; so do the iterations skip-zero skips,
    // and adding zero never changes a register inside its width.
    const int vecs = (9 * bands + 3) / 4;
    const __m128i vs = _mm_set1_epi32(s);
    __m256i total = zero, magnitude = zero;
    for (int q = 0; q < vecs; ++q) {
      const __m128i r = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(g.rescale + 4 * q));
      const __m128i z128 = _mm_setzero_si128();
      const __m256i lsh = _mm256_cvtepu32_epi64(_mm_max_epi32(r, z128));
      const __m256i rsh = _mm256_cvtepu32_epi64(_mm_min_epi32(
          _mm_add_epi32(_mm_max_epi32(_mm_sub_epi32(z128, r), z128), vs),
          _mm_set1_epi32(63)));
      const __m256i x = _mm256_sllv_epi64(load8(sums + 4 * q), lsh);
      const __m256i sign = _mm256_cmpgt_epi64(zero, x);
      const __m256i v = _mm256_xor_si256(
          _mm256_srlv_epi64(_mm256_xor_si256(x, sign), rsh), sign);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(sums + 4 * q), v);
      total = _mm256_add_epi64(total, v);
      magnitude = _mm256_or_si256(
          magnitude, _mm256_sub_epi64(_mm256_xor_si256(v, sign), sign));
    }
    // Each |v| < 2^k: when |reg| + 4 * vecs * 2^k fits the register, no
    // partial sum in (i, j, c) order can clamp, and one add of the total
    // is exact.  Otherwise add in that order, clamping each partial sum.
    const auto mag = static_cast<uint64_t>(hor4_i64(magnitude));
    const int k = mag != 0 ? 64 - __builtin_clzll(mag) : 0;
    const int64_t reg_abs = reg < 0 ? -reg : reg;
    if (k <= 52 && reg_abs + (int64_t{4 * vecs} << k) <= reg_hi) {
      reg += hsum4_i64(total);
    } else {
      for (int it = 0; it < 9; ++it) {
        for (int c = 0; c < bands; ++c) {
          int64_t v = reg + sums[c * 9 + it];
          if (v > reg_hi || v < reg_lo) {
            overflowed = true;
            v = v > reg_hi ? reg_hi : reg_lo;
          }
          reg = v;
        }
      }
    }
    if (empty && mag != 0) {
      empty = false;
      acc_exp = max_exp;
    }
  }

  st->reg = reg;
  st->exp = acc_exp;
  st->empty = empty ? 1 : 0;
  st->overflowed = overflowed ? 1 : 0;
  st->ops += ops;
  st->cycles += cycles;
  st->masked_products += hsum8_i32(masked_acc);
  st->multi_cycle_iterations += multi;
  st->skipped_iterations += skipped;
  return min_of(c0, g.len);
}

void serial_fused_i32(const int32_t* v, const uint32_t* mag,
                      const int32_t* band, size_t n, int bands, int64_t* sums) {
  static_cast<void>(n);  // serve planes are driver-padded through kFusedLanes
  const __m256i band_lo = load8(band), band_hi = load8(band + 8);
  // Masked lanes (band -1) drop out here, so one band needs no band mask.
  const __m256i neg1 = _mm256_set1_epi32(-1);
  const __m256i v_lo =
      _mm256_and_si256(load8(v), _mm256_cmpgt_epi32(band_lo, neg1));
  const __m256i v_hi =
      _mm256_and_si256(load8(v + 8), _mm256_cmpgt_epi32(band_hi, neg1));
  const __m256i m_lo = load8(mag), m_hi = load8(mag + 8);
  // x[t] = v on the lanes whose mag bit t is set: -1 masks from
  // (mag << (31 - t)) >> 31 arithmetically.
  __m256i x_lo[kSerialSteps], x_hi[kSerialSteps];
  for (int t = 0; t < kSerialSteps; ++t) {
    const __m128i lsh = _mm_cvtsi32_si128(31 - t);
    x_lo[t] = _mm256_and_si256(
        v_lo, _mm256_srai_epi32(_mm256_sll_epi32(m_lo, lsh), 31));
    x_hi[t] = _mm256_and_si256(
        v_hi, _mm256_srai_epi32(_mm256_sll_epi32(m_hi, lsh), 31));
  }
  band_sums16(x_lo, x_hi, kSerialSteps, band_lo, band_hi, bands, sums);
}

bool spatial_fused_i32(const int8_t* a, size_t a_stride, const int8_t* b,
                       size_t b_stride, const int32_t* align,
                       const int32_t* band, size_t n, int32_t offs0,
                       int32_t sp, int32_t guard, int single_cycle,
                       int32_t window, int64_t* sums, int32_t* max_band,
                       uint32_t* occupancy) {
  __m256i a16[3], b16[3];
  load_nibbles16(a, a_stride, n, a16);
  load_nibbles16(b, b_stride, n, b16);
  // Masked lanes (band -1, pads included) get all-ones masks and zeroed a
  // operands: their products drop out of every value.
  const __m256i zero = _mm256_setzero_si256();
  const __m256i masked[2] = {_mm256_cmpgt_epi32(zero, load8(band)),
                             _mm256_cmpgt_epi32(zero, load8(band + 8))};
  const __m256i masked16 = pack32_16(masked[0], masked[1]);
  for (int i = 0; i < 3; ++i) a16[i] = _mm256_andnot_si256(masked16, a16[i]);
  const __m256i al[2] = {load8(align), load8(align + 8)};

  const __m256i one = _mm256_set1_epi32(1);
  const __m256i v31 = _mm256_set1_epi32(31);
  const __m256i vsp = _mm256_set1_epi32(sp);
  const __m256i vguard = _mm256_set1_epi32(guard);
  const __m256i vwin = _mm256_set1_epi32(window);
  const __m256i vm =
      !single_cycle && sp >= 2
          ? _mm256_set1_epi32(static_cast<int32_t>(magic_for(sp)))
          : zero;
  // Per diagonal s and half h (lanes 0-7, 8-15): serve band bd and the
  // int32 lane value v of the diagonal.
  __m256i bd[5][2], v[5][2];
  __m256i mb_acc = _mm256_set1_epi32(-1), occ_acc = zero;
  for (int s = 0; s < 5; ++s) {
    const __m256i voffs = _mm256_set1_epi32(offs0 - 4 * s);
    __m256i up[2], down[2];
    for (int h = 0; h < 2; ++h) {
      const __m256i shift = _mm256_add_epi32(al[h], voffs);
      __m256i c = zero, local;
      if (single_cycle) {
        local = _mm256_min_epi32(shift, vwin);
      } else {
        c = sp >= 2 ? divq_u32(shift, vm) : shift;
        local = _mm256_sub_epi32(shift, _mm256_mullo_epi32(c, vsp));
      }
      const __m256i net = _mm256_sub_epi32(vguard, local);
      up[h] = _mm256_max_epi32(net, zero);
      down[h] = _mm256_max_epi32(_mm256_sub_epi32(zero, net), zero);
      bd[s][h] = _mm256_or_si256(c, masked[h]);
      mb_acc = _mm256_max_epi32(mb_acc, bd[s][h]);
      // Masked lanes: min(bd, 31) = -1, and sllv with a count > 31 yields
      // zero, so they drop out of the occupancy OR.
      occ_acc = _mm256_or_si256(
          occ_acc, _mm256_sllv_epi32(one, _mm256_min_epi32(bd[s][h], v31)));
    }
    const int i0 = s < 2 ? 0 : s - 2, i1 = s < 2 ? s : 2;
    if (!single_cycle) {
      // MC mode: local < sp <= guard + 1, so down == 0 and the shift
      // distributes over the diagonal, pre-summed in int16 (|d| <= 675).
      __m256i d = _mm256_mullo_epi16(a16[i0], b16[s - i0]);
      for (int i = i0 + 1; i <= i1; ++i) {
        d = _mm256_add_epi16(d, _mm256_mullo_epi16(a16[i], b16[s - i]));
      }
      v[s][0] = _mm256_sllv_epi32(
          _mm256_cvtepi16_epi32(_mm256_castsi256_si128(d)), up[0]);
      v[s][1] = _mm256_sllv_epi32(
          _mm256_cvtepi16_epi32(_mm256_extracti128_si256(d, 1)), up[1]);
      continue;
    }
    // Single-cycle mode truncates each product before the shift up.
    v[s][0] = v[s][1] = zero;
    for (int i = i0; i <= i1; ++i) {
      const __m256i p = _mm256_mullo_epi16(a16[i], b16[s - i]);
      v[s][0] = _mm256_add_epi32(
          v[s][0],
          _mm256_sllv_epi32(
              _mm256_srav_epi32(
                  _mm256_cvtepi16_epi32(_mm256_castsi256_si128(p)), down[0]),
              up[0]));
      v[s][1] = _mm256_add_epi32(
          v[s][1],
          _mm256_sllv_epi32(
              _mm256_srav_epi32(
                  _mm256_cvtepi16_epi32(_mm256_extracti128_si256(p, 1)),
                  down[1]),
              up[1]));
    }
  }
  const int32_t mb = hmax8_i32(mb_acc);
  *max_band = mb;
  *occupancy = static_cast<uint32_t>(hor8_i32(occ_acc));
  if (mb >= kMaxBands) return false;

  // Band sums over the ten value vectors, split into 16-bit halves as in
  // band_sums16 (80 halves of either kind sum in int32 without overflow).
  // With one band every served value is in it and masked values are zero.
  const int bands = max_of(mb, 0) + 1;
  const __m256i low16 = _mm256_set1_epi32(0xFFFF);
  __m256i rh[kMaxBands + 3], rl[kMaxBands + 3];
  for (int c = 0; c < bands; ++c) {
    const __m256i vc = _mm256_set1_epi32(c);
    __m256i h = zero, l = zero;
    for (int s = 0; s < 5; ++s) {
      for (int x = 0; x < 2; ++x) {
        __m256i y = v[s][x];
        if (bands > 1) y = _mm256_and_si256(y, _mm256_cmpeq_epi32(bd[s][x], vc));
        h = _mm256_add_epi32(h, _mm256_srai_epi32(y, 16));
        l = _mm256_add_epi32(l, _mm256_and_si256(y, low16));
      }
    }
    rh[c] = h;
    rl[c] = l;
  }
  store_half_sums(rh, rl, bands, sums);
  return true;
}

int64_t dot_i8(const int8_t* a, const int8_t* b, size_t n) {
  // int32 lane accumulators are safe up to ~2^22 blocks (madd pairs are
  // <= 2*225); chunk defensively far below that.
  int64_t total = 0;
  size_t k = 0;
  while (k + 16 <= n) {
    const size_t chunk_end = min_of(n, k + (size_t{1} << 20));
    __m256i acc = _mm256_setzero_si256();
    for (; k + 16 <= chunk_end; k += 16) {
      const __m256i va = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + k)));
      const __m256i vb = _mm256_cvtepi8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + k)));
      acc = _mm256_add_epi32(acc, _mm256_madd_epi16(va, vb));
    }
    total += hsum8_i32(acc);
  }
  for (; k < n; ++k) {
    total += static_cast<int32_t>(a[k]) * static_cast<int32_t>(b[k]);
  }
  return total;
}

int64_t bit_masked_sum_i32(const int32_t* a, const int32_t* b, int t,
                           size_t n) {
  // |a| < 2^12 keeps int32 lane accumulators exact up to 2^19 lanes; chunk.
  const __m128i lsh = _mm_cvtsi32_si128(31 - t);
  int64_t total = 0;
  size_t k = 0;
  while (k + 8 <= n) {
    const size_t chunk_end = min_of(n, k + (size_t{1} << 18));
    __m256i acc = _mm256_setzero_si256();
    for (; k + 8 <= chunk_end; k += 8) {
      const __m256i vb =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + k));
      const __m256i bit = _mm256_srai_epi32(_mm256_sll_epi32(vb, lsh), 31);
      acc = _mm256_add_epi32(
          acc, _mm256_and_si256(
                   _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + k)),
                   bit));
    }
    total += hsum8_i32(acc);
  }
  for (; k < n; ++k) {
    if ((b[k] >> t) & 1) total += a[k];
  }
  return total;
}

// mt19937_64, four state words per vector.  The first 156 words twist
// against still-old words (k + 1, k + 156 < 312); the next ones against
// words already twisted this step (k - 156), and the last word's k + 1
// wraps to the new state[0], so the final four run in the scalar form.
// Each vector of new words is tempered as it is stored.
inline __m256i mt64_temper(__m256i z) {
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_srli_epi64(z, 29),
                          _mm256_set1_epi64x(0x5555555555555555LL)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 17),
                          _mm256_set1_epi64x(0x71D67FFFEDA60000LL)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 37),
                          _mm256_set1_epi64x(
                              static_cast<long long>(0xFFF7EEE000000000ULL))));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
}

inline __m256i mt64_twist(const uint64_t* cur, const uint64_t* far) {
  const __m256i upper = _mm256_set1_epi64x(
      static_cast<long long>(~uint64_t{0} << 31));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i matrix = _mm256_set1_epi64x(
      static_cast<long long>(0xB5026F5AA96619E9ULL));
  const __m256i y = _mm256_or_si256(
      _mm256_and_si256(load8(cur), upper),
      _mm256_andnot_si256(upper, load8(cur + 1)));
  // (y & 1) ? matrix : 0, as an all-ones / all-zeros lane mask.
  const __m256i odd =
      _mm256_cmpeq_epi64(_mm256_and_si256(y, one), one);
  return _mm256_xor_si256(
      load8(far), _mm256_xor_si256(_mm256_srli_epi64(y, 1),
                                   _mm256_and_si256(odd, matrix)));
}

void mt19937_64_refill(uint64_t* state, uint64_t* out) {
  constexpr size_t n = kMt64Words;
  constexpr size_t m = 156;
  size_t k = 0;
  for (; k < n - m; k += 4) {
    const __m256i v = mt64_twist(state + k, state + k + m);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + k), v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), mt64_temper(v));
  }
  for (; k + 4 < n; k += 4) {
    const __m256i v = mt64_twist(state + k, state + k - (n - m));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(state + k), v);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + k), mt64_temper(v));
  }
  constexpr uint64_t upper = ~uint64_t{0} << 31;
  for (; k < n; ++k) {
    const uint64_t next = k + 1 < n ? state[k + 1] : state[0];
    const uint64_t y = (state[k] & upper) | (next & ~upper);
    state[k] = state[k - (n - m)] ^ (y >> 1) ^
               ((y & 1) ? 0xB5026F5AA96619E9ULL : 0);
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + n - 4),
                      mt64_temper(load8(state + n - 4)));
}

}  // namespace avx2

const KernelTable* avx2_kernel_table() {
  static const KernelTable t = {
      .serve_shifts_i32 = avx2::serve_shifts_i32,
      .serial_lanes_i32 = avx2::serial_lanes_i32,
      .shifted_lanes_i32 = avx2::shifted_lanes_i32,
      .ehu_fused_i32 = avx2::ehu_fused_i32,
      .temporal_stream_i32 = avx2::temporal_stream_i32,
      .serial_fused_i32 = avx2::serial_fused_i32,
      .spatial_fused_i32 = avx2::spatial_fused_i32,
      .dot_i8 = avx2::dot_i8,
      .bit_masked_sum_i32 = avx2::bit_masked_sum_i32,
      .mt19937_64_refill = avx2::mt19937_64_refill,
  };
  return &t;
}

}  // namespace mpipu::simd

#else  // !__x86_64__

#include "core/simd/kernels.h"

namespace mpipu::simd {
const KernelTable* avx2_kernel_table() { return nullptr; }
}  // namespace mpipu::simd

#endif
