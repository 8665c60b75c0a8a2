// Generic lane-array implementations of every Kernels entry, included once
// per backend translation unit. The including TU defines DCO3D_SIMD_NS (the
// backend namespace) and is compiled with that backend's ISA flags; the
// compiler's auto-vectorizer maps the explicit 8/16-wide accumulator arrays
// and ternary selects onto native vectors (AVX2: one 256-bit vector per
// 8-float lane group; NEON: two 4-lane vectors; scalar: plain arrays).
//
// Because every backend compiles THIS SAME SOURCE, and every floating-point
// operation below is expressed as a fixed sequence of IEEE single ops (the
// project builds with -ffp-contract=off, so no FMA contraction, and the
// auto-vectorizer may not reassociate without -ffast-math), the backends are
// bit-identical by construction. test_simd.cpp asserts it.
//
// Branchless masking note: several kernels replace the scalar idiom
// `if (cond) continue;` with `acc += cond ? value : 0.0`. Accumulators that
// start at +0.0 can never become -0.0 under round-to-nearest (x + (-x) = +0,
// and +0 + (-0) = +0), and x +/- (+-0.0) == x bitwise for every finite or
// infinite x, so a masked-to-zero contribution is a bitwise no-op — identical
// to skipping the iteration.
//
// NOT a public header: include only from src/nn/simd/backend_*.cpp.

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "nn/simd/simd.hpp"

#ifndef DCO3D_SIMD_NS
#error "backend TU must define DCO3D_SIMD_NS before including kernels_impl.hpp"
#endif

namespace dco3d::nn::simd {
namespace DCO3D_SIMD_NS {

using i64 = std::int64_t;

// ---------------------------------------------------------------------------
// GEMM microkernels. Register tile: kMR C rows x 16 C columns (two 8-float
// vector accumulators per row under AVX2). Per-element accumulation runs k
// ascending into the register tile, and the tile is flushed to C with one add
// per element, so every (i, j) sees the same op sequence regardless of how
// the caller chunks rows.
// ---------------------------------------------------------------------------

inline constexpr i64 kMR = 4;    // rows per register tile
inline constexpr i64 kNR = 16;   // columns per register tile
inline constexpr i64 kKB = 256;  // packed k-panel length for gemm_tn

// C[i0+r][j..j+16) += sum_k a_row[r][k] * b[k][j..j+16), r < ROWS.
template <int ROWS>
inline void nn_tile16(i64 n, i64 k, const float* const* ar, const float* b,
                      i64 j, float* const* cr) {
  float acc[ROWS][kNR] = {};
  for (i64 kk = 0; kk < k; ++kk) {
    const float* brow = b + kk * n + j;
    for (int r = 0; r < ROWS; ++r) {
      const float av = ar[r][kk];
      for (i64 jj = 0; jj < kNR; ++jj) acc[r][jj] += av * brow[jj];
    }
  }
  for (int r = 0; r < ROWS; ++r)
    for (i64 jj = 0; jj < kNR; ++jj) cr[r][j + jj] += acc[r][jj];
}

// Remainder columns [j0, j1): same per-element order (k ascending into a
// fresh accumulator, one add to C).
template <int ROWS>
inline void nn_edge(i64 n, i64 k, const float* const* ar, const float* b,
                    i64 j0, i64 j1, float* const* cr) {
  for (i64 j = j0; j < j1; ++j) {
    float acc[ROWS] = {};
    for (i64 kk = 0; kk < k; ++kk) {
      const float bv = b[kk * n + j];
      for (int r = 0; r < ROWS; ++r) acc[r] += ar[r][kk] * bv;
    }
    for (int r = 0; r < ROWS; ++r) cr[r][j] += acc[r];
  }
}

template <int ROWS>
inline void nn_block(i64 n, i64 k, const float* const* ar, const float* b,
                     float* const* cr) {
  const i64 n16 = n & ~(kNR - 1);
  for (i64 j = 0; j < n16; j += kNR) nn_tile16<ROWS>(n, k, ar, b, j, cr);
  nn_edge<ROWS>(n, k, ar, b, n16, n, cr);
}

inline void gemm_nn_rows(i64 i0, i64 i1, i64 n, i64 k, const float* a,
                         const float* b, float* c) {
  for (i64 i = i0; i < i1; i += kMR) {
    const int rows = static_cast<int>(std::min<i64>(kMR, i1 - i));
    const float* ar[kMR];
    float* cr[kMR];
    for (int r = 0; r < rows; ++r) {
      ar[r] = a + (i + r) * k;
      cr[r] = c + (i + r) * n;
    }
    switch (rows) {
      case 4: nn_block<4>(n, k, ar, b, cr); break;
      case 3: nn_block<3>(n, k, ar, b, cr); break;
      case 2: nn_block<2>(n, k, ar, b, cr); break;
      default: nn_block<1>(n, k, ar, b, cr); break;
    }
  }
}

// gemm_tn: A is stored (K, M), so C rows read strided A columns. Pack each
// row's k-block into its own contiguous stack panel, then run the nn
// microkernel on the panels — same codegen as gemm_nn (interleaved panels
// defeat GCC's broadcast pattern and produce a shuffle-bound loop).
// Per-element order: one add to C per k-block, each block accumulated k
// ascending in registers (blocks walked ascending).
inline void gemm_tn_rows(i64 i0, i64 i1, i64 m, i64 n, i64 k, const float* a,
                         const float* b, float* c) {
  float ap[kMR][kKB];  // packed row panels, stack-resident (no arena traffic)
  for (i64 i = i0; i < i1; i += kMR) {
    const int rows = static_cast<int>(std::min<i64>(kMR, i1 - i));
    const float* ar[kMR];
    float* cr[kMR];
    for (int r = 0; r < rows; ++r) {
      ar[r] = ap[r];
      cr[r] = c + (i + r) * n;
    }
    for (i64 kb = 0; kb < k; kb += kKB) {
      const i64 kl = std::min(k - kb, kKB);
      for (i64 kk = 0; kk < kl; ++kk)
        for (int r = 0; r < rows; ++r) ap[r][kk] = a[(kb + kk) * m + i + r];
      const float* bblk = b + kb * n;
      switch (rows) {
        case 4: nn_block<4>(n, kl, ar, bblk, cr); break;
        case 3: nn_block<3>(n, kl, ar, bblk, cr); break;
        case 2: nn_block<2>(n, kl, ar, bblk, cr); break;
        default: nn_block<1>(n, kl, ar, bblk, cr); break;
      }
    }
  }
}

// gemm_nt: dot products over k. Element kk folds into virtual lane kk % 8;
// lanes merge with the fixed combine8f tree — the reduction contract.
inline void gemm_nt_rows(i64 i0, i64 i1, i64 n, i64 k, const float* a,
                         const float* b, float* c) {
  const i64 k8 = k & ~i64{7};
  for (i64 i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    float* crow = c + i * n;
    for (i64 j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float lanes[kLanes] = {};
      for (i64 kk = 0; kk < k8; kk += kLanes)
        for (int l = 0; l < kLanes; ++l)
          lanes[l] += arow[kk + l] * brow[kk + l];
      for (i64 kk = k8; kk < k; ++kk) lanes[kk - k8] += arow[kk] * brow[kk];
      crow[j] += combine8f(lanes);
    }
  }
}

// ---------------------------------------------------------------------------
// Elementwise
// ---------------------------------------------------------------------------

inline void ew_add(i64 n, const float* a, const float* b, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = a[i] + b[i];
}
inline void ew_sub(i64 n, const float* a, const float* b, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = a[i] - b[i];
}
inline void ew_mul(i64 n, const float* a, const float* b, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = a[i] * b[i];
}
inline void ew_scale(i64 n, float s, const float* a, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = s * a[i];
}
inline void ew_adds(i64 n, float s, const float* a, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = a[i] + s;
}
inline void ew_axpy(i64 n, float s, const float* x, float* y) {
  for (i64 i = 0; i < n; ++i) y[i] += s * x[i];
}
inline void ew_acc(i64 n, const float* src, float* dst) {
  for (i64 i = 0; i < n; ++i) dst[i] += src[i];
}
inline void ew_scale_mul(i64 n, float s, const float* a, const float* b,
                         float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = (s * a[i]) * b[i];
}
inline void ew_relu(i64 n, const float* a, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : 0.0f;
}
inline void ew_relu_bwd(i64 n, const float* g, const float* v, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = v[i] > 0.0f ? g[i] : 0.0f;
}
inline void ew_lrelu(i64 n, float s, const float* a, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = a[i] > 0.0f ? a[i] : s * a[i];
}
inline void ew_lrelu_bwd(i64 n, float s, const float* g, const float* v,
                         float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = v[i] > 0.0f ? g[i] : s * g[i];
}
inline void ew_div_eps(i64 n, float eps, const float* a, const float* b,
                       float* o) {
  for (i64 i = 0; i < n; ++i)
    o[i] = a[i] / (b[i] + (b[i] >= 0.0f ? eps : -eps));
}
inline void ew_div_eps_bwd(i64 n, float eps, const float* a, const float* b,
                           float* o) {
  for (i64 i = 0; i < n; ++i) {
    const float d = b[i] + (b[i] >= 0.0f ? eps : -eps);
    o[i] = -a[i] / (d * d);
  }
}
inline void ew_sig_bwd(i64 n, const float* g, const float* s, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = (g[i] * s[i]) * (1.0f - s[i]);
}
inline void ew_tanh_bwd(i64 n, const float* g, const float* t, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = g[i] * (1.0f - t[i] * t[i]);
}
inline void ew_sqrt_nn(i64 n, const float* a, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = std::sqrt(std::max(a[i], 0.0f));
}
inline void ew_sqrt_bwd(i64 n, const float* g, const float* s, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = (g[i] * 0.5f) / std::max(s[i], 1e-6f);
}
inline void ew_abs(i64 n, const float* a, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = std::fabs(a[i]);
}
inline void ew_abs_bwd(i64 n, const float* g, const float* v, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = v[i] >= 0.0f ? g[i] : -g[i];
}
inline void ew_clamp01(i64 n, const float* a, float* o) {
  for (i64 i = 0; i < n; ++i) o[i] = std::clamp(a[i], 0.0f, 1.0f);
}
inline void ew_clamp01_bwd(i64 n, const float* g, const float* v, float* o) {
  for (i64 i = 0; i < n; ++i)
    o[i] = (v[i] > 0.0f && v[i] < 1.0f) ? g[i] : 0.0f;
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

inline double red_sum(i64 n, const float* x) {
  double lanes[kLanes] = {};
  const i64 n8 = n & ~i64{7};
  for (i64 i = 0; i < n8; i += kLanes)
    for (int l = 0; l < kLanes; ++l)
      lanes[l] += static_cast<double>(x[i + l]);
  for (i64 i = n8; i < n; ++i) lanes[i - n8] += static_cast<double>(x[i]);
  return combine8(lanes);
}

// ---------------------------------------------------------------------------
// Rasterization rows
// ---------------------------------------------------------------------------

// Per-tile bodies of the raster rows, shared by the generic loops below and
// by the vector backends' remainder tails — one definition of the exact
// per-element operation sequence (the determinism contract).

// Tile m of an add_net_rudy row fanned into nrows channel rows (see
// feature_maps.cpp for the scalar origin). The tile geometry is shared —
// it does not depend on the per-channel factor — so each channel sees the
// exact value an independent sweep would produce. wy is the row's clipped
// 1-D y extent against the bbox (may be negative); wy_pos = max(wy, 0) is
// hoisted by the caller.
inline void rudy_tile(i64 m, double txlo0, double tw, double th, double A,
                      double bxlo, double bxhi, double wy, double wy_pos,
                      int nrows, const double* kfs, float* const* rows) {
  const double txlo = txlo0 + static_cast<double>(m) * tw;
  const double wx = std::min(txlo + tw, bxhi) - std::max(txlo, bxlo);
  const double ov = (wx > 0.0 && wy > 0.0) ? wx * wy : 0.0;
  // Degenerate boxes: 1-D extent times one tile dimension; a true point
  // net falls back to a full tile. Tiles the box misses entirely on either
  // axis contribute exactly +0 (bitwise no-op on the accumulator).
  double area1d = std::max(wx, 0.0) * th + wy_pos * tw;
  area1d = area1d == 0.0 ? A : area1d;
  const double area = ov > 0.0 ? ov : area1d;
  const bool ok = wx >= 0.0 && wy >= 0.0;
  for (int r = 0; r < nrows; ++r)
    rows[r][m] += static_cast<float>(ok ? kfs[r] * area : 0.0);
}

inline void raster_rudy_row_scaled(i64 mcount, double txlo0, double tw,
                                   double th, double A, double bxlo,
                                   double bxhi, double wy, int nrows,
                                   const double* kfs, float* const* rows) {
  const double wy_pos = std::max(wy, 0.0);
  for (i64 m = 0; m < mcount; ++m)
    rudy_tile(m, txlo0, tw, th, A, bxlo, bxhi, wy, wy_pos, nrows, kfs, rows);
}

// Tile m of a box rasterized into nrows channel rows with per-channel
// weights: rows[r][m] += float(weights[r] * ov_m / A).
inline void overlap_tile(i64 m, double txlo0, double tw, double bxlo,
                         double bxhi, double oy, double A, int nrows,
                         const double* weights, float* const* rows) {
  const double txlo = txlo0 + static_cast<double>(m) * tw;
  const double wx = std::min(txlo + tw, bxhi) - std::max(txlo, bxlo);
  const double ov = (wx > 0.0 && oy > 0.0) ? wx * oy : 0.0;
  const double ovA = ov / A;
  for (int r = 0; r < nrows; ++r)
    rows[r][m] += static_cast<float>(weights[r] * ovA);
}

inline void raster_overlap_row_scaled(i64 mcount, double txlo0, double tw,
                                      double bxlo, double bxhi, double oy,
                                      double A, int nrows,
                                      const double* weights,
                                      float* const* rows) {
  for (i64 m = 0; m < mcount; ++m)
    overlap_tile(m, txlo0, tw, bxlo, bxhi, oy, A, nrows, weights, rows);
}

// Tile j of the Eq. 6 backward sweep (soft_maps.cpp), folded into lane
// j % 8 of every accumulator: one RUDY2D term per tier and the tier-summed
// RUDY3D term, both summed from the top tier down (at K = 2 exactly the
// two-die order). Masked tiles (no overlap, or zero upstream weight for the
// position terms) contribute exact +-0, which never changes lane bits (see
// header note).
template <int K>
inline void soft_bwd_tile_k(const SoftBwdRowKArgs& a, double inv_a, i64 j,
                            SoftBwdAccK& acc) {
  const int lane = static_cast<int>(j & 7);
  const double txlo = a.txlo0 + static_cast<double>(j) * a.tw;
  const double wx = std::min(txlo + a.tw, a.bxhi) - std::max(txlo, a.bxlo);
  const double ov = (wx > 0.0 && a.oy > 0.0) ? wx * a.oy : 0.0;
  const double c = a.k * ov * inv_a;  // exact +0 when masked
  constexpr int top = K - 1;
  const double g2_top = static_cast<double>(a.g2[top][j]);
  acc.a2[top][lane] += g2_top * c;
  double t_w = g2_top * a.prod[top];
  double g3_sum = static_cast<double>(a.g3[top][j]);
  for (int t = top - 1; t >= 0; --t) {
    const double g2 = static_cast<double>(a.g2[t][j]);
    acc.a2[t][lane] += g2 * c;
    t_w += g2 * a.prod[t];
    g3_sum += static_cast<double>(a.g3[t][j]);
  }
  const double h3 = g3_sum * a.invK;
  acc.a3d[lane] += h3 * c;
  if (!a.want_pos) return;
  t_w += h3 * a.w3d;
  const bool on = ov > 0.0 && t_w != 0.0;
  if (!a.clamped_x) {
    const double dk = -ov / (a.w * a.w * a.A);
    acc.gxh[lane] += on ? t_w * dk : 0.0;
    acc.gxl[lane] -= on ? t_w * dk : 0.0;
    const double edge = t_w * a.k * a.oy * inv_a;
    acc.gxh[lane] +=
        (on && a.bxhi >= txlo && a.bxhi < txlo + a.tw) ? edge : 0.0;
    acc.gxl[lane] -=
        (on && a.bxlo > txlo && a.bxlo <= txlo + a.tw) ? edge : 0.0;
  }
  if (!a.clamped_y) {
    const double dk = -ov / (a.h * a.h * a.A);
    acc.gyh[lane] += on ? t_w * dk : 0.0;
    acc.gyl[lane] -= on ? t_w * dk : 0.0;
    const double edge = t_w * a.k * wx * inv_a;
    acc.gyh[lane] += (on && a.y_edge_hi != 0.0) ? edge : 0.0;
    acc.gyl[lane] -= (on && a.y_edge_lo != 0.0) ? edge : 0.0;
  }
}

inline void raster_soft_bwd_row_k(const SoftBwdRowKArgs& a, SoftBwdAccK& acc) {
  const double inv_a = 1.0 / a.A;
  with_tier_count(a.K, [&](auto k) {
    for (i64 j = 0; j < a.mcount; ++j)
      soft_bwd_tile_k<decltype(k)::value>(a, inv_a, j, acc);
  });
}

// ---------------------------------------------------------------------------

inline Kernels make_table(const char* name) {
  Kernels t{};
  t.name = name;
  t.gemm_nn_rows = &gemm_nn_rows;
  t.gemm_tn_rows = &gemm_tn_rows;
  t.gemm_nt_rows = &gemm_nt_rows;
  t.add = &ew_add;
  t.sub = &ew_sub;
  t.mul = &ew_mul;
  t.scale = &ew_scale;
  t.adds = &ew_adds;
  t.axpy = &ew_axpy;
  t.acc = &ew_acc;
  t.scale_mul = &ew_scale_mul;
  t.relu = &ew_relu;
  t.relu_bwd = &ew_relu_bwd;
  t.lrelu = &ew_lrelu;
  t.lrelu_bwd = &ew_lrelu_bwd;
  t.div_eps = &ew_div_eps;
  t.div_eps_bwd = &ew_div_eps_bwd;
  t.sig_bwd = &ew_sig_bwd;
  t.tanh_bwd = &ew_tanh_bwd;
  t.sqrt_nn = &ew_sqrt_nn;
  t.sqrt_bwd = &ew_sqrt_bwd;
  t.abs_f = &ew_abs;
  t.abs_bwd = &ew_abs_bwd;
  t.clamp01_f = &ew_clamp01;
  t.clamp01_bwd = &ew_clamp01_bwd;
  t.reduce_sum = &red_sum;
  t.rudy_row_scaled = &raster_rudy_row_scaled;
  t.overlap_row_scaled = &raster_overlap_row_scaled;
  t.soft_bwd_row_k = &raster_soft_bwd_row_k;
  return t;
}

}  // namespace DCO3D_SIMD_NS
}  // namespace dco3d::nn::simd
