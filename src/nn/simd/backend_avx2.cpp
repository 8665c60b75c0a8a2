// AVX2 backend: the generic kernels of kernels_impl.hpp compiled with -mavx2
// (set in src/nn/CMakeLists.txt) so the auto-vectorizer maps the 8-float
// lane groups onto single 256-bit vectors and the GEMM register tiles onto
// ymm accumulators — plus hand-vectorized rasterization rows below (GCC
// cannot auto-vectorize their rotating-lane accumulation). No FMA anywhere:
// the backend TUs force -ffp-contract=off and -mavx2 does not enable -mfma,
// so every mul/add stays a separate correctly-rounded op and results match
// the scalar backend bit for bit.
//
// The intrinsic kernels reproduce the scalar per-element operation sequence
// exactly:
//  - vmin/vmax below implement std::min/std::max semantics (operand order on
//    ties/NaNs) with cmp+blendv rather than vminpd/vmaxpd, whose +-0
//    behavior differs;
//  - masked terms are built with and(mask, value), which yields the same
//    exact +0.0 the scalar ternaries produce in untaken branches;
//  - tile j folds into virtual lane j % 8, i.e. double-lane j % 4 of the
//    low/high ymm half — identical per-lane accumulation order to the
//    scalar rolling-lane loop;
//  - remainder tiles (mcount % vector width) run the shared per-tile scalar
//    bodies (rudy_tile / overlap_tile / soft_bwd_tile_k), so the tail is the
//    same code the scalar backend runs.
//
// Only compiled on x86-64 when the DCO3D_SIMD CMake option allows it;
// dispatch.cpp checks at runtime (cpuid) that the host can execute it.

#ifndef __AVX2__
#error "backend_avx2.cpp must be compiled with -mavx2"
#endif

#include <immintrin.h>

#define DCO3D_SIMD_NS avx2_impl
#include "nn/simd/kernels_impl.hpp"

namespace dco3d::nn::simd {
namespace {

using i64 = std::int64_t;

/// std::min(a, b) = (b < a) ? b : a, bit-exact including +-0 and NaN cases.
inline __m256d vmin(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(b, a, _CMP_LT_OQ));
}
/// std::max(a, b) = (a < b) ? b : a.
inline __m256d vmax(__m256d a, __m256d b) {
  return _mm256_blendv_pd(a, b, _mm256_cmp_pd(a, b, _CMP_LT_OQ));
}
/// cond ? v : +0.0 for all-ones/all-zeros compare masks.
inline __m256d vmask(__m256d mask, __m256d v) {
  return _mm256_and_pd(mask, v);
}
/// -v (sign-bit flip, same as scalar unary minus).
inline __m256d vneg(__m256d v) {
  return _mm256_xor_pd(v, _mm256_set1_pd(-0.0));
}

/// x extents of tiles m..m+3: txlo = txlo0 + m * tw (same op order as the
/// scalar tiles; the int -> double conversions are exact).
inline __m256d tile_xlo(i64 m, double txlo0, double tw) {
  const __m256d md = _mm256_add_pd(_mm256_set1_pd(static_cast<double>(m)),
                                   _mm256_setr_pd(0.0, 1.0, 2.0, 3.0));
  return _mm256_add_pd(_mm256_set1_pd(txlo0),
                       _mm256_mul_pd(md, _mm256_set1_pd(tw)));
}

/// Load/store mask selecting float lanes [0, cnt) of an xmm vector. Partial
/// row groups use vmaskmovps so lanes past the row end are neither read nor
/// written; masked loads yield 0.0f, which the kernels below turn into exact
/// +-0 contributions (a bitwise no-op on any accumulator).
inline __m128i tail_mask(int cnt) {
  return _mm_cmpgt_epi32(_mm_set1_epi32(cnt), _mm_setr_epi32(0, 1, 2, 3));
}

void rudy_row_scaled_avx2(i64 mcount, double txlo0, double tw, double th,
                          double A, double bxlo, double bxhi, double wy,
                          int nrows, const double* kfs, float* const* rows) {
  const double wy_pos = std::max(wy, 0.0);
  const __m256d vtw = _mm256_set1_pd(tw), vth = _mm256_set1_pd(th);
  const __m256d vA = _mm256_set1_pd(A);
  const __m256d vbxlo = _mm256_set1_pd(bxlo), vbxhi = _mm256_set1_pd(bxhi);
  const __m256d vwy = _mm256_set1_pd(wy), vwyp = _mm256_set1_pd(wy_pos);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d wy_gt = _mm256_cmp_pd(vwy, zero, _CMP_GT_OQ);
  const __m256d wy_ge = _mm256_cmp_pd(vwy, zero, _CMP_GE_OQ);
  for (i64 m = 0; m < mcount; m += 4) {
    const __m256d txlo = tile_xlo(m, txlo0, tw);
    const __m256d wx = _mm256_sub_pd(vmin(_mm256_add_pd(txlo, vtw), vbxhi),
                                     vmax(txlo, vbxlo));
    const __m256d wx_gt = _mm256_cmp_pd(wx, zero, _CMP_GT_OQ);
    const __m256d ov =
        vmask(_mm256_and_pd(wx_gt, wy_gt), _mm256_mul_pd(wx, vwy));
    __m256d area1d = _mm256_add_pd(_mm256_mul_pd(vmax(wx, zero), vth),
                                   _mm256_mul_pd(vwyp, vtw));
    area1d = _mm256_blendv_pd(area1d, vA,
                              _mm256_cmp_pd(area1d, zero, _CMP_EQ_OQ));
    const __m256d area =
        _mm256_blendv_pd(area1d, ov, _mm256_cmp_pd(ov, zero, _CMP_GT_OQ));
    const __m256d ok =
        _mm256_and_pd(_mm256_cmp_pd(wx, zero, _CMP_GE_OQ), wy_ge);
    if (m + 4 <= mcount) {
      for (int r = 0; r < nrows; ++r) {
        const __m128 c = _mm256_cvtpd_ps(
            vmask(ok, _mm256_mul_pd(_mm256_set1_pd(kfs[r]), area)));
        _mm_storeu_ps(rows[r] + m, _mm_add_ps(_mm_loadu_ps(rows[r] + m), c));
      }
    } else {
      const __m128i mk = tail_mask(static_cast<int>(mcount - m));
      for (int r = 0; r < nrows; ++r) {
        const __m128 c = _mm256_cvtpd_ps(
            vmask(ok, _mm256_mul_pd(_mm256_set1_pd(kfs[r]), area)));
        _mm_maskstore_ps(rows[r] + m, mk,
                         _mm_add_ps(_mm_maskload_ps(rows[r] + m, mk), c));
      }
    }
  }
}

void overlap_row_scaled_avx2(i64 mcount, double txlo0, double tw, double bxlo,
                             double bxhi, double oy, double A, int nrows,
                             const double* weights, float* const* rows) {
  const __m256d vtw = _mm256_set1_pd(tw), vA = _mm256_set1_pd(A);
  const __m256d vbxlo = _mm256_set1_pd(bxlo), vbxhi = _mm256_set1_pd(bxhi);
  const __m256d voy = _mm256_set1_pd(oy);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d oy_gt = _mm256_cmp_pd(voy, zero, _CMP_GT_OQ);
  for (i64 m = 0; m < mcount; m += 4) {
    const __m256d txlo = tile_xlo(m, txlo0, tw);
    const __m256d wx = _mm256_sub_pd(vmin(_mm256_add_pd(txlo, vtw), vbxhi),
                                     vmax(txlo, vbxlo));
    const __m256d ov = vmask(
        _mm256_and_pd(_mm256_cmp_pd(wx, zero, _CMP_GT_OQ), oy_gt),
        _mm256_mul_pd(wx, voy));
    const __m256d ovA = _mm256_div_pd(ov, vA);
    if (m + 4 <= mcount) {
      for (int r = 0; r < nrows; ++r) {
        const __m128 c =
            _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_set1_pd(weights[r]), ovA));
        _mm_storeu_ps(rows[r] + m, _mm_add_ps(_mm_loadu_ps(rows[r] + m), c));
      }
    } else {
      const __m128i mk = tail_mask(static_cast<int>(mcount - m));
      for (int r = 0; r < nrows; ++r) {
        const __m128 c =
            _mm256_cvtpd_ps(_mm256_mul_pd(_mm256_set1_pd(weights[r]), ovA));
        _mm_maskstore_ps(rows[r] + m, mk,
                         _mm_add_ps(_mm_maskload_ps(rows[r] + m, mk), c));
      }
    }
  }
}

/// Constants of one backward row, broadcast once per row.
struct SoftBwdKConsts {
  __m256d tw, bxlo, bxhi, oy, k, inv_a, w3d, invK, wwA, hhA, zero;
  __m256d oy_gt;
  __m256d prod[kMaxTiers];
};

/// One 4-tile half of an 8-tile lane group: tiles j..j+3 accumulate into
/// double lanes j%8 .. j%8+3, i.e. one ymm half of each quantity. acc2
/// points at the caller's per-tier RUDY2D ymm accumulators, acc5 at
/// {a3d, gxh, gxl, gyh, gyl}.
template <bool kMasked, int K>
inline void soft_bwd_k_half(const SoftBwdRowKArgs& a, const SoftBwdKConsts& c,
                            i64 j, __m128i mk, __m256d* acc2, __m256d* acc5) {
  // Partial halves maskload the upstream grad rows, so lanes past the row
  // end read 0.0f: their A-terms become exact +-0 and t_w == +-0 turns the
  // `on` mask off, so every lane update is a bitwise no-op.
  const auto load = [&](const float* p) {
    return _mm256_cvtps_pd(kMasked ? _mm_maskload_ps(p + j, mk)
                                   : _mm_loadu_ps(p + j));
  };
  const __m256d txlo = tile_xlo(j, a.txlo0, a.tw);
  const __m256d txhi = _mm256_add_pd(txlo, c.tw);
  const __m256d wx = _mm256_sub_pd(vmin(txhi, c.bxhi), vmax(txlo, c.bxlo));
  const __m256d wx_gt = _mm256_cmp_pd(wx, c.zero, _CMP_GT_OQ);
  const __m256d ov =
      vmask(_mm256_and_pd(wx_gt, c.oy_gt), _mm256_mul_pd(wx, c.oy));
  // c = (k * ov) * inv_a — exact +0 when masked, like the scalar tile.
  const __m256d cv = _mm256_mul_pd(_mm256_mul_pd(c.k, ov), c.inv_a);
  // Tier sums from the top tier down — the scalar tile's order.
  constexpr int top = K - 1;
  const __m256d g2_top = load(a.g2[top]);
  acc2[top] = _mm256_add_pd(acc2[top], _mm256_mul_pd(g2_top, cv));
  __m256d t_w = _mm256_mul_pd(g2_top, c.prod[top]);
  __m256d g3_sum = load(a.g3[top]);
  for (int t = top - 1; t >= 0; --t) {
    const __m256d g2 = load(a.g2[t]);
    acc2[t] = _mm256_add_pd(acc2[t], _mm256_mul_pd(g2, cv));
    t_w = _mm256_add_pd(t_w, _mm256_mul_pd(g2, c.prod[t]));
    g3_sum = _mm256_add_pd(g3_sum, load(a.g3[t]));
  }
  const __m256d h3 = _mm256_mul_pd(g3_sum, c.invK);
  acc5[0] = _mm256_add_pd(acc5[0], _mm256_mul_pd(h3, cv));
  if (!a.want_pos) return;
  t_w = _mm256_add_pd(t_w, _mm256_mul_pd(h3, c.w3d));
  const __m256d on = _mm256_and_pd(
      _mm256_cmp_pd(ov, c.zero, _CMP_GT_OQ),
      _mm256_cmp_pd(t_w, c.zero, _CMP_NEQ_UQ));
  const __m256d negov = vneg(ov);
  if (!a.clamped_x) {
    const __m256d dk = _mm256_div_pd(negov, c.wwA);
    const __m256d term = vmask(on, _mm256_mul_pd(t_w, dk));
    acc5[1] = _mm256_add_pd(acc5[1], term);
    acc5[2] = _mm256_sub_pd(acc5[2], term);
    const __m256d edge = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_mul_pd(t_w, c.k), c.oy), c.inv_a);
    const __m256d mhi = _mm256_and_pd(
        on, _mm256_and_pd(_mm256_cmp_pd(c.bxhi, txlo, _CMP_GE_OQ),
                          _mm256_cmp_pd(c.bxhi, txhi, _CMP_LT_OQ)));
    acc5[1] = _mm256_add_pd(acc5[1], vmask(mhi, edge));
    const __m256d mlo = _mm256_and_pd(
        on, _mm256_and_pd(_mm256_cmp_pd(c.bxlo, txlo, _CMP_GT_OQ),
                          _mm256_cmp_pd(c.bxlo, txhi, _CMP_LE_OQ)));
    acc5[2] = _mm256_sub_pd(acc5[2], vmask(mlo, edge));
  }
  if (!a.clamped_y) {
    const __m256d dk = _mm256_div_pd(negov, c.hhA);
    const __m256d term = vmask(on, _mm256_mul_pd(t_w, dk));
    acc5[3] = _mm256_add_pd(acc5[3], term);
    acc5[4] = _mm256_sub_pd(acc5[4], term);
    // The y-edge flags are row constants; skipping the add when a flag is 0
    // matches the scalar "+= 0.0" bitwise because lane accumulators can
    // never be -0.0 (they start at +0 and x +- (+0) under round-to-nearest
    // preserves that).
    const __m256d edge = _mm256_mul_pd(
        _mm256_mul_pd(_mm256_mul_pd(t_w, c.k), wx), c.inv_a);
    if (a.y_edge_hi != 0.0)
      acc5[3] = _mm256_add_pd(acc5[3], vmask(on, edge));
    if (a.y_edge_lo != 0.0)
      acc5[4] = _mm256_sub_pd(acc5[4], vmask(on, edge));
  }
}

template <int K>
void soft_bwd_row_avx2(const SoftBwdRowKArgs& a, SoftBwdAccK& acc) {
  const double inv_a = 1.0 / a.A;
  SoftBwdKConsts c;
  c.tw = _mm256_set1_pd(a.tw);
  c.bxlo = _mm256_set1_pd(a.bxlo);
  c.bxhi = _mm256_set1_pd(a.bxhi);
  c.oy = _mm256_set1_pd(a.oy);
  c.k = _mm256_set1_pd(a.k);
  c.inv_a = _mm256_set1_pd(inv_a);
  c.w3d = _mm256_set1_pd(a.w3d);
  c.invK = _mm256_set1_pd(a.invK);
  c.wwA = _mm256_set1_pd(a.w * a.w * a.A);
  c.hhA = _mm256_set1_pd(a.h * a.h * a.A);
  c.zero = _mm256_setzero_pd();
  c.oy_gt = _mm256_cmp_pd(c.oy, c.zero, _CMP_GT_OQ);
  for (int t = 0; t < K; ++t) c.prod[t] = _mm256_set1_pd(a.prod[t]);
  __m256d a2lo[kMaxTiers], a2hi[kMaxTiers], lo5[5], hi5[5];
  for (int t = 0; t < K; ++t) {
    a2lo[t] = _mm256_loadu_pd(acc.a2[t]);
    a2hi[t] = _mm256_loadu_pd(acc.a2[t] + 4);
  }
  double* const q5[5] = {acc.a3d, acc.gxh, acc.gxl, acc.gyh, acc.gyl};
  for (int q = 0; q < 5; ++q) {
    lo5[q] = _mm256_loadu_pd(q5[q]);
    hi5[q] = _mm256_loadu_pd(q5[q] + 4);
  }
  const __m128i full = tail_mask(4);
  const i64 n8 = a.mcount & ~i64{7};
  for (i64 j = 0; j < n8; j += 8) {
    soft_bwd_k_half<false, K>(a, c, j, full, a2lo, lo5);
    soft_bwd_k_half<false, K>(a, c, j + 4, full, a2hi, hi5);
  }
  const int rem = static_cast<int>(a.mcount - n8);  // 0..7 tail tiles
  const int rem_lo = rem < 4 ? rem : 4;
  if (rem_lo == 4)
    soft_bwd_k_half<false, K>(a, c, n8, full, a2lo, lo5);
  else if (rem_lo > 0)
    soft_bwd_k_half<true, K>(a, c, n8, tail_mask(rem_lo), a2lo, lo5);
  if (rem > 4)
    soft_bwd_k_half<true, K>(a, c, n8 + 4, tail_mask(rem - 4), a2hi, hi5);
  for (int t = 0; t < K; ++t) {
    _mm256_storeu_pd(acc.a2[t], a2lo[t]);
    _mm256_storeu_pd(acc.a2[t] + 4, a2hi[t]);
  }
  for (int q = 0; q < 5; ++q) {
    _mm256_storeu_pd(q5[q], lo5[q]);
    _mm256_storeu_pd(q5[q] + 4, hi5[q]);
  }
}

void soft_bwd_row_k_avx2(const SoftBwdRowKArgs& a, SoftBwdAccK& acc) {
  if (a.mcount <= 0) return;
  with_tier_count(a.K, [&](auto k) {
    soft_bwd_row_avx2<decltype(k)::value>(a, acc);
  });
}

}  // namespace

const Kernels& avx2_kernels() {
  static const Kernels table = [] {
    Kernels t = avx2_impl::make_table("avx2");
    t.rudy_row_scaled = rudy_row_scaled_avx2;
    t.overlap_row_scaled = overlap_row_scaled_avx2;
    t.soft_bwd_row_k = soft_bwd_row_k_avx2;
    return t;
  }();
  return table;
}

}  // namespace dco3d::nn::simd
