#pragma once
// SIMD microkernel layer: one runtime-dispatched table of vectorized kernels
// with compile-time scalar / AVX2 / NEON backends. Every hot inner loop in
// the library (blocked GEMM, im2col/col2im, CSR SpMM, elementwise map/zip,
// soft-map rasterization) routes through this table instead of hand-rolled
// loops, so the backend can be swapped without touching call sites.
//
// Determinism contract (the reason this layer exists as more than a speed
// hack): every kernel produces bit-identical results on every backend.
//
//  * Elementwise kernels and GEMM accumulate each output element along k in
//    ascending order with separate IEEE mul and add (no FMA contraction:
//    the whole project builds with -ffp-contract=off), so vector width is
//    free to differ between ISAs without changing a single bit.
//
//  * Reductions accumulate into a fixed EIGHT-WIDE VIRTUAL LANE layout:
//    element i folds into lane (i % 8) of an 8-lane accumulator (AVX2 maps
//    it onto one native 256-bit vector, NEON onto two 4-lane vectors, the
//    scalar backend onto a plain 8-element array), and the lanes are always
//    merged with the fixed combine tree
//        ((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))
//    implemented by combine8(). Chunking above this layer (util::parallel_*)
//    is already thread-count independent, so results are bit-identical
//    across thread counts AND across backends/ISAs.
//
// Backend selection: compiled-in backends are registered at static-init
// time; the active one is resolved on first use as
//   DCO3D_SIMD env var ("scalar" | "avx2" | "neon" | "auto")
//   > best backend the host supports (cpuid-checked for AVX2)
//   > scalar.
// Tests can re-resolve with reset() or pin a backend with select().
//
// See docs/performance.md, "SIMD backends".

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/geometry.hpp"

namespace dco3d::nn::simd {

/// Virtual lane count for reductions (fixed: part of the numeric contract).
inline constexpr int kLanes = 8;

/// Fixed lane-combine order for 8-lane reduction accumulators. Every
/// backend funnels its native accumulator vectors through this exact tree.
inline double combine8(const double* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}
inline float combine8f(const float* l) {
  return ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]));
}

/// One grid row of the Eq. 6 backward sweep of the soft maps: per-net
/// constants plus one RUDY2D/RUDY3D upstream row per tier, offset to the
/// first tile (m0).
struct SoftBwdRowKArgs {
  std::int64_t mcount = 0;  ///< tiles in this row segment
  double txlo0 = 0.0;       ///< low x edge of the first tile
  double tw = 0.0;          ///< tile width
  double oy = 0.0;          ///< y-overlap of this row with the bbox
  double A = 0.0;           ///< tile area
  double k = 0.0;           ///< net RUDY factor (1/w + 1/h)
  double bxlo = 0.0, bxhi = 0.0;  ///< bbox x extent
  double w = 0.0, h = 0.0;        ///< bbox dimensions
  double w3d = 0.0, invK = 0.0;
  double y_edge_hi = 0.0;   ///< 1.0 iff bbox.yhi lies in this row's tiles
  double y_edge_lo = 0.0;   ///< 1.0 iff bbox.ylo lies in this row's tiles
  bool clamped_x = false, clamped_y = false;
  bool want_pos = false;    ///< x/y position grads requested
  int K = 0;                ///< tier count, 2..kMaxTiers
  double prod[kMaxTiers] = {};       ///< per-tier pin-probability product
  const float* g2[kMaxTiers] = {};   ///< upstream RUDY2D rows at (m0, n)
  const float* g3[kMaxTiers] = {};   ///< upstream RUDY3D rows at (m0, n)
};

/// 8-lane accumulators for one net's backward sweep (zero-init by caller);
/// merge each quantity with combine8().
struct SoftBwdAccK {
  double a2[kMaxTiers][kLanes] = {};  ///< per-tier RUDY2D times k*ov/A
  double a3d[kLanes] = {};            ///< shared RUDY3D sum times k*ov/A
  double gxh[kLanes] = {}, gxl[kLanes] = {};  ///< x position grads
  double gyh[kLanes] = {}, gyl[kLanes] = {};  ///< y position grads
};

/// The dispatch table. All pointers are non-null in every backend. Output
/// ranges never overlap inputs unless noted; all loads/stores are unaligned.
struct Kernels {
  const char* name;  ///< "scalar" | "avx2" | "neon"

  // --- GEMM row panels (C row-major M x N, accumulating: += semantics).
  // Each computes rows [i0, i1) of C; per-element accumulation order is k
  // ascending. gemm_tn reads A as (K, M) column-slices and packs panels.
  void (*gemm_nn_rows)(std::int64_t i0, std::int64_t i1, std::int64_t n,
                       std::int64_t k, const float* a, const float* b,
                       float* c);
  void (*gemm_tn_rows)(std::int64_t i0, std::int64_t i1, std::int64_t m,
                       std::int64_t n, std::int64_t k, const float* a,
                       const float* b, float* c);
  // C[i, j] += dot(A row i, B row j); 8-lane virtual accumulator over k.
  void (*gemm_nt_rows)(std::int64_t i0, std::int64_t i1, std::int64_t n,
                       std::int64_t k, const float* a, const float* b,
                       float* c);

  // --- Elementwise (out may alias an input at the same offset).
  void (*add)(std::int64_t n, const float* a, const float* b, float* o);
  void (*sub)(std::int64_t n, const float* a, const float* b, float* o);
  void (*mul)(std::int64_t n, const float* a, const float* b, float* o);
  void (*scale)(std::int64_t n, float s, const float* a, float* o);  ///< o=s*a
  void (*adds)(std::int64_t n, float s, const float* a, float* o);   ///< o=a+s
  void (*axpy)(std::int64_t n, float s, const float* x, float* y);   ///< y+=s*x
  void (*acc)(std::int64_t n, const float* src, float* dst);         ///< dst+=src
  void (*scale_mul)(std::int64_t n, float s, const float* a, const float* b,
                    float* o);  ///< o = s*a*b (e.g. square backward, s = 2)
  void (*relu)(std::int64_t n, const float* a, float* o);
  void (*relu_bwd)(std::int64_t n, const float* g, const float* v, float* o);
  void (*lrelu)(std::int64_t n, float slope, const float* a, float* o);
  void (*lrelu_bwd)(std::int64_t n, float slope, const float* g,
                    const float* v, float* o);
  void (*div_eps)(std::int64_t n, float eps, const float* a, const float* b,
                  float* o);  ///< o = a / (b + (b>=0 ? eps : -eps))
  void (*div_eps_bwd)(std::int64_t n, float eps, const float* a,
                      const float* b, float* o);  ///< o = -a / d^2, d as above
  void (*sig_bwd)(std::int64_t n, const float* g, const float* s, float* o);
  void (*tanh_bwd)(std::int64_t n, const float* g, const float* t, float* o);
  void (*sqrt_nn)(std::int64_t n, const float* a, float* o);  ///< sqrt(max(a,0))
  void (*sqrt_bwd)(std::int64_t n, const float* g, const float* s, float* o);
  void (*abs_f)(std::int64_t n, const float* a, float* o);
  void (*abs_bwd)(std::int64_t n, const float* g, const float* v, float* o);
  void (*clamp01_f)(std::int64_t n, const float* a, float* o);
  void (*clamp01_bwd)(std::int64_t n, const float* g, const float* v,
                      float* o);

  // --- Reductions (8-lane virtual layout; see the header contract).
  double (*reduce_sum)(std::int64_t n, const float* x);  ///< double lanes

  // --- Rasterization rows (uniform-grid row segments, double geometry).
  // One grid row of add_net_rudy fanned into `nrows` channel rows that share
  // the net's bbox: rows[r][m] += float(kfs[r] * area_m), with the exact
  // degenerate-bbox handling of feature_maps.cpp. The per-tile geometry is
  // computed once; per-channel values and accumulation order are identical
  // to nrows independent sweeps.
  void (*rudy_row_scaled)(std::int64_t mcount, double txlo0, double tw,
                          double th, double A, double bxlo, double bxhi,
                          double wy, int nrows, const double* kfs,
                          float* const* rows);
  // One grid row of a box rasterized into `nrows` channel rows:
  // rows[r][m] += float(weights[r] * ov_m / A). Tiles without overlap
  // contribute exactly +0.
  void (*overlap_row_scaled)(std::int64_t mcount, double txlo0, double tw,
                             double bxlo, double bxhi, double oy, double A,
                             int nrows, const double* weights,
                             float* const* rows);
  // One grid row of the Eq. 6 backward sweep; folds tile j (0-based within
  // the row) into lane j % 8 of every accumulator. Tier sums run from the
  // top tier down, so K = 2 keeps the two-die operation order.
  void (*soft_bwd_row_k)(const SoftBwdRowKArgs& a, SoftBwdAccK& acc);
};

/// The active backend (resolved on first use; see header comment).
const Kernels& active();

/// Name of the active backend.
const char* backend_name();

/// Pin a backend by name ("scalar", "avx2", "neon"). Returns false (and
/// leaves the active backend unchanged) if it is not compiled in or the
/// host cannot run it. "auto" re-resolves the default.
bool select(std::string_view name);

/// Re-resolve from DCO3D_SIMD / host detection (tests use this after
/// setenv to exercise the env override path).
void reset();

/// All compiled-in backends this host can execute (scalar is always first).
std::vector<const Kernels*> backends();

/// Best instruction set the host supports among compiled backends — the
/// backend "auto" resolves to. Independent of select()/env overrides.
const char* host_isa();

}  // namespace dco3d::nn::simd
