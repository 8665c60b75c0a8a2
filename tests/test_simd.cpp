// SIMD microkernel layer tests (nn/simd):
//  - dispatch: scalar always compiled in, DCO3D_SIMD env override honored by
//    reset(), select() rejects unknown backends, auto resolves to host_isa;
//  - backend parity: every compiled-in backend produces bit-identical
//    results to the scalar backend on ragged (non-multiple-of-tile) shapes —
//    GEMM panels, elementwise kernels, the 8-lane reduction, and the
//    rasterization row kernels (the determinism contract of simd.hpp);
//  - end-to-end invariance: UNet forward/backward and the K = 2 soft-map
//    gradients are bit-identical across 1/2/8 threads AND across backends.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <array>
#include <vector>

#include <gtest/gtest.h>

#include "grid/soft_maps.hpp"
#include "netlist/generators.hpp"
#include "nn/autograd.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/simd/simd.hpp"
#include "nn/unet.hpp"
#include "place/placer3d.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dco3d {
namespace {

using testing::ThreadGuard;
using testing::tiny_design;

/// Restores the active SIMD backend on scope exit so parity tests cannot
/// leak a pinned backend into the rest of the suite.
// Saves/restores the active backend, and keeps DCO3D_SIMD out of the
// environment for the test body so "auto" resolution is host-determined
// even when the suite itself was launched with a backend forced.
struct BackendGuard {
  std::string saved = nn::simd::backend_name();
  const char* env = std::getenv("DCO3D_SIMD");
  std::string saved_env = env ? env : "";
  BackendGuard() { unsetenv("DCO3D_SIMD"); }
  ~BackendGuard() {
    if (env) setenv("DCO3D_SIMD", saved_env.c_str(), 1);
    nn::simd::select(saved);
  }
};

std::vector<std::string> backend_names() {
  std::vector<std::string> names;
  for (const nn::simd::Kernels* k : nn::simd::backends())
    names.emplace_back(k->name);
  return names;
}

/// Deterministic fill in [-1, 1] with a few exact zeros and denormal-free
/// values; independent of the nn RNG so shapes can vary freely.
void fill(std::vector<float>& v, std::uint64_t seed) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ull + 1;
  for (float& x : v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const auto u = static_cast<std::uint32_t>(s >> 33);
    x = (u % 17 == 0) ? 0.0f
                      : (static_cast<float>(u) / 2147483648.0f) - 1.0f;
  }
}

// ---------------------------------------------------------------------------
// Dispatch

TEST(SimdDispatch, ScalarAlwaysCompiledInAndFirst) {
  const std::vector<std::string> names = backend_names();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names[0], "scalar");
}

TEST(SimdDispatch, SelectPinsAndAutoReresolves) {
  BackendGuard guard;
  ASSERT_TRUE(nn::simd::select("scalar"));
  EXPECT_STREQ(nn::simd::backend_name(), "scalar");
  EXPECT_FALSE(nn::simd::select("avx512"));  // unknown: active unchanged
  EXPECT_STREQ(nn::simd::backend_name(), "scalar");
  ASSERT_TRUE(nn::simd::select("auto"));
  EXPECT_STREQ(nn::simd::backend_name(), nn::simd::host_isa());
}

TEST(SimdDispatch, EnvOverrideHonoredByReset) {
  BackendGuard guard;
  ASSERT_EQ(setenv("DCO3D_SIMD", "scalar", 1), 0);
  nn::simd::reset();
  EXPECT_STREQ(nn::simd::backend_name(), "scalar");
  ASSERT_EQ(unsetenv("DCO3D_SIMD"), 0);
  nn::simd::reset();
  EXPECT_STREQ(nn::simd::backend_name(), nn::simd::host_isa());
}

// ---------------------------------------------------------------------------
// Backend parity on ragged shapes. Exact float equality throughout: the
// contract is bit-identity across backends, not tolerance.

TEST(SimdParity, GemmPanelsBitExactAcrossBackends) {
  BackendGuard guard;
  const struct { std::int64_t m, n, k; } shapes[] = {
      {1, 1, 1}, {3, 17, 5}, {4, 16, 8}, {5, 33, 7},
      {8, 64, 31}, {17, 19, 23}, {32, 48, 259},
  };
  for (const auto& sh : shapes) {
    SCOPED_TRACE(::testing::Message()
                 << "m=" << sh.m << " n=" << sh.n << " k=" << sh.k);
    std::vector<float> a(static_cast<std::size_t>(sh.m * sh.k));
    std::vector<float> at(static_cast<std::size_t>(sh.k * sh.m));
    std::vector<float> b(static_cast<std::size_t>(sh.k * sh.n));
    std::vector<float> bt(static_cast<std::size_t>(sh.n * sh.k));
    fill(a, 1);
    fill(at, 2);
    fill(b, 3);
    fill(bt, 4);
    std::vector<float> ref_nn, ref_tn, ref_nt;
    for (const std::string& name : backend_names()) {
      SCOPED_TRACE(::testing::Message() << "backend=" << name);
      ASSERT_TRUE(nn::simd::select(name));
      const nn::simd::Kernels& kern = nn::simd::active();
      std::vector<float> c_nn(static_cast<std::size_t>(sh.m * sh.n), 0.5f);
      std::vector<float> c_tn = c_nn, c_nt = c_nn;
      kern.gemm_nn_rows(0, sh.m, sh.n, sh.k, a.data(), b.data(), c_nn.data());
      kern.gemm_tn_rows(0, sh.m, sh.m, sh.n, sh.k, at.data(), b.data(),
                        c_tn.data());
      kern.gemm_nt_rows(0, sh.m, sh.n, sh.k, a.data(), bt.data(),
                        c_nt.data());
      if (name == "scalar") {
        ref_nn = std::move(c_nn);
        ref_tn = std::move(c_tn);
        ref_nt = std::move(c_nt);
        continue;
      }
      EXPECT_EQ(c_nn, ref_nn);
      EXPECT_EQ(c_tn, ref_tn);
      EXPECT_EQ(c_nt, ref_nt);
    }
  }
}

TEST(SimdParity, ElementwiseAndReduceBitExactAcrossBackends) {
  BackendGuard guard;
  for (const std::int64_t n : {std::int64_t{0}, std::int64_t{1},
                               std::int64_t{5}, std::int64_t{8},
                               std::int64_t{13}, std::int64_t{64},
                               std::int64_t{100}, std::int64_t{1003}}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    std::vector<float> a(static_cast<std::size_t>(n));
    std::vector<float> b(static_cast<std::size_t>(n));
    fill(a, 7);
    fill(b, 8);
    struct Out {
      std::vector<float> add, mul, axpy, scale_mul, relu_bwd, div_eps;
      double sum = 0.0;
    };
    Out ref;
    bool have_ref = false;
    for (const std::string& name : backend_names()) {
      SCOPED_TRACE(::testing::Message() << "backend=" << name);
      ASSERT_TRUE(nn::simd::select(name));
      const nn::simd::Kernels& kern = nn::simd::active();
      Out out;
      out.add.resize(a.size());
      out.mul.resize(a.size());
      out.scale_mul.resize(a.size());
      out.relu_bwd.resize(a.size());
      out.div_eps.resize(a.size());
      out.axpy = b;
      kern.add(n, a.data(), b.data(), out.add.data());
      kern.mul(n, a.data(), b.data(), out.mul.data());
      kern.axpy(n, 0.37f, a.data(), out.axpy.data());
      kern.scale_mul(n, 2.0f, a.data(), b.data(), out.scale_mul.data());
      kern.relu_bwd(n, a.data(), b.data(), out.relu_bwd.data());
      kern.div_eps(n, 1e-12f, a.data(), b.data(), out.div_eps.data());
      out.sum = kern.reduce_sum(n, a.data());
      if (!have_ref) {
        ref = std::move(out);
        have_ref = true;
        continue;
      }
      EXPECT_EQ(out.add, ref.add);
      EXPECT_EQ(out.mul, ref.mul);
      EXPECT_EQ(out.axpy, ref.axpy);
      EXPECT_EQ(out.scale_mul, ref.scale_mul);
      EXPECT_EQ(out.relu_bwd, ref.relu_bwd);
      EXPECT_EQ(out.div_eps, ref.div_eps);
      EXPECT_EQ(out.sum, ref.sum);  // exact double equality
    }
  }
}

TEST(SimdParity, RasterRowKernelsBitExactAcrossBackends) {
  BackendGuard guard;
  // A synthetic grid row: 13 tiles of width 2.5 starting at x = 1.0, with a
  // bbox that starts/ends mid-tile (both edge branches taken) plus a
  // degenerate zero-width bbox (the area1d == 0 fallback).
  const std::int64_t mcount = 13;
  const double txlo0 = 1.0, tw = 2.5, th = 2.0, A = tw * th;
  for (const double bxhi : {27.3, 4.2, 4.2000000000000002}) {
    SCOPED_TRACE(::testing::Message() << "bxhi=" << bxhi);
    const double bxlo = 4.2;
    std::vector<float> ref_rudy, ref_rudy_b, ref_ov0, ref_ov1;
    nn::simd::SoftBwdAccK ref_acc;
    nn::simd::SoftBwdAccK ref_acck;
    bool have_ref = false;
    for (const std::string& name : backend_names()) {
      SCOPED_TRACE(::testing::Message() << "backend=" << name);
      ASSERT_TRUE(nn::simd::select(name));
      const nn::simd::Kernels& kern = nn::simd::active();

      std::vector<float> rudy(static_cast<std::size_t>(mcount), 0.25f);
      std::vector<float> rudy_b(static_cast<std::size_t>(mcount), 0.5f);
      const double rudy_kfs[2] = {0.31, 1.9};
      float* rudy_rows[2] = {rudy.data(), rudy_b.data()};
      kern.rudy_row_scaled(mcount, txlo0, tw, th, A, bxlo, bxhi, 1.7, 2,
                           rudy_kfs, rudy_rows);

      std::vector<float> ov0(static_cast<std::size_t>(mcount), 0.125f);
      std::vector<float> ov1 = ov0;
      const double weights[2] = {0.3, 0.7};
      float* rows[2] = {ov0.data(), ov1.data()};
      kern.overlap_row_scaled(mcount, txlo0, tw, bxlo, bxhi, 1.2, A, 2,
                              weights, rows);

      std::vector<float> gt2(static_cast<std::size_t>(mcount));
      std::vector<float> gb2(static_cast<std::size_t>(mcount));
      std::vector<float> gt3(static_cast<std::size_t>(mcount));
      std::vector<float> gb3(static_cast<std::size_t>(mcount));
      fill(gt2, 11);
      fill(gb2, 12);
      fill(gt3, 13);
      fill(gb3, 14);
      // The backward row at K = 2 and at K = 3 (the third tier mixes the
      // row buffers), on the same geometry and upstream maps.
      nn::simd::SoftBwdRowKArgs row;
      row.mcount = mcount;
      row.txlo0 = txlo0;
      row.tw = tw;
      row.oy = 1.3;
      row.A = A;
      row.k = 0.9;
      row.bxlo = bxlo;
      row.bxhi = bxhi;
      row.w = bxhi - bxlo;
      row.h = 3.7;
      row.w3d = 0.2;
      row.invK = 0.5;
      row.y_edge_hi = 1.0;
      row.y_edge_lo = 0.0;
      row.clamped_x = false;
      row.clamped_y = false;
      row.want_pos = true;
      row.K = 2;
      row.prod[0] = 0.2;
      row.prod[1] = 0.6;
      row.g2[0] = gb2.data();
      row.g2[1] = gt2.data();
      row.g3[0] = gb3.data();
      row.g3[1] = gt3.data();
      nn::simd::SoftBwdAccK acc;
      kern.soft_bwd_row_k(row, acc);

      nn::simd::SoftBwdRowKArgs rowk = row;
      rowk.invK = 1.0 / 3.0;
      rowk.K = 3;
      rowk.prod[2] = 0.15;
      rowk.g2[2] = gt3.data();
      rowk.g3[1] = gt3.data();
      rowk.g3[2] = gb2.data();
      nn::simd::SoftBwdAccK acck;
      kern.soft_bwd_row_k(rowk, acck);

      if (!have_ref) {
        ref_rudy = std::move(rudy);
        ref_rudy_b = std::move(rudy_b);
        ref_ov0 = std::move(ov0);
        ref_ov1 = std::move(ov1);
        ref_acc = acc;
        ref_acck = acck;
        have_ref = true;
        continue;
      }
      EXPECT_EQ(rudy, ref_rudy);
      EXPECT_EQ(rudy_b, ref_rudy_b);
      EXPECT_EQ(ov0, ref_ov0);
      EXPECT_EQ(ov1, ref_ov1);
      EXPECT_EQ(std::memcmp(&acc, &ref_acc, sizeof(acc)), 0);
      EXPECT_EQ(std::memcmp(&acck, &ref_acck, sizeof(acck)), 0);
    }
  }
}

// ---------------------------------------------------------------------------
// End-to-end invariance: the same bits for any thread count and any backend.

std::vector<float> param_grads(const std::vector<nn::Var>& params) {
  std::vector<float> out;
  for (const nn::Var& p : params)
    out.insert(out.end(), p->grad.data().begin(), p->grad.data().end());
  return out;
}

TEST(SimdInvariance, UNetFwdBwdBitIdenticalAcrossThreadsAndBackends) {
  ThreadGuard tguard;
  BackendGuard bguard;
  Rng rng(42);
  nn::UNetConfig cfg;
  nn::SiameseUNet net(cfg, rng);
  const std::vector<nn::Var> params = net.parameters();
  nn::Tensor top_t({1, cfg.in_channels, 16, 16});
  nn::Tensor bot_t({1, cfg.in_channels, 16, 16});
  {
    std::vector<float> buf(static_cast<std::size_t>(top_t.numel()));
    fill(buf, 21);
    std::copy(buf.begin(), buf.end(), top_t.data().begin());
    fill(buf, 22);
    std::copy(buf.begin(), buf.end(), bot_t.data().begin());
  }
  const nn::Var f_top = nn::make_leaf(top_t);
  const nn::Var f_bot = nn::make_leaf(bot_t);

  std::vector<float> ref_value, ref_grads;
  bool have_ref = false;
  for (const std::string& name : backend_names()) {
    ASSERT_TRUE(nn::simd::select(name));
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "backend=" << name << " threads=" << threads);
      util::set_num_threads(threads);
      nn::zero_grad(params);
      const auto [pt, pb] = net.forward(f_top, f_bot);
      std::vector<float> value(pt->value.data().begin(),
                               pt->value.data().end());
      ASSERT_GT(value.size(), 0u);
      nn::backward(nn::add(nn::sum(pt), nn::sum(pb)));
      std::vector<float> grads = param_grads(params);
      if (!have_ref) {
        ref_value = std::move(value);
        ref_grads = std::move(grads);
        have_ref = true;
        continue;
      }
      EXPECT_EQ(value, ref_value);
      EXPECT_EQ(grads, ref_grads);
    }
  }
}

TEST(SimdInvariance, SoftMapsK2GradsBitIdenticalAcrossThreadsAndBackends) {
  ThreadGuard tguard;
  BackendGuard bguard;
  const Netlist nl = tiny_design(200, 5);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3, true, 2);
  const GCellGrid grid(pl.outline, 16, 16);
  const auto n = static_cast<std::int64_t>(pl.size());
  nn::Tensor tx({n}), ty({n}), tz({n});
  for (std::int64_t i = 0; i < n; ++i) {
    tx.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].x);
    ty.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].y);
    tz.data()[i] = pl.tier[static_cast<std::size_t>(i)] == 1 ? 0.8f : 0.2f;
  }
  nn::Var x = nn::make_leaf(std::move(tx), /*requires_grad=*/true);
  nn::Var y = nn::make_leaf(std::move(ty), /*requires_grad=*/true);
  nn::Var z = nn::make_leaf(std::move(tz), /*requires_grad=*/true);

  std::vector<float> ref_value, ref_grads;
  bool have_ref = false;
  for (const std::string& name : backend_names()) {
    ASSERT_TRUE(nn::simd::select(name));
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "backend=" << name << " threads=" << threads);
      util::set_num_threads(threads);
      nn::zero_grad({x, y, z});
      const SoftMaps maps = soft_feature_maps(nl, grid, x, y, z);
      std::vector<float> value(maps.stacked->value.data().begin(),
                               maps.stacked->value.data().end());
      ASSERT_GT(value.size(), 0u);
      nn::backward(nn::sum(maps.stacked));
      std::vector<float> grads;
      for (const nn::Var& v : {x, y, z})
        grads.insert(grads.end(), v->grad.data().begin(),
                     v->grad.data().end());
      if (!have_ref) {
        ref_value = std::move(value);
        ref_grads = std::move(grads);
        have_ref = true;
        continue;
      }
      EXPECT_EQ(value, ref_value);
      EXPECT_EQ(grads, ref_grads);
    }
  }
}

TEST(SimdInvariance, SoftMapsK3GradsBitIdenticalAcrossThreadsAndBackends) {
  ThreadGuard tguard;
  BackendGuard bguard;
  const Netlist nl = tiny_design(200, 5);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3, true, 3);
  const GCellGrid grid(pl.outline, 16, 16);
  const auto n = static_cast<std::int64_t>(pl.size());
  constexpr int kTiers = 3;
  nn::Tensor tx({n}), ty({n});
  // Survival vectors above[j] = P(T > j) of 0.6 on the own tier and 0.2 on
  // each other one.
  std::array<nn::Tensor, kTiers - 1> ta;
  for (auto& t : ta) t = nn::Tensor({n});
  for (std::int64_t i = 0; i < n; ++i) {
    tx.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].x);
    ty.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].y);
    const int tier = pl.tier[static_cast<std::size_t>(i)] % kTiers;
    for (int j = 0; j + 1 < kTiers; ++j) {
      float a = 0.0f;
      for (int t = j + 1; t < kTiers; ++t) a += t == tier ? 0.6f : 0.2f;
      ta[static_cast<std::size_t>(j)].data()[i] = a;
    }
  }
  nn::Var x = nn::make_leaf(std::move(tx), /*requires_grad=*/true);
  nn::Var y = nn::make_leaf(std::move(ty), /*requires_grad=*/true);
  std::vector<nn::Var> p;
  for (auto& t : ta) p.push_back(nn::make_leaf(std::move(t), true));

  std::vector<float> ref_value, ref_grads;
  bool have_ref = false;
  for (const std::string& name : backend_names()) {
    ASSERT_TRUE(nn::simd::select(name));
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message()
                   << "backend=" << name << " threads=" << threads);
      util::set_num_threads(threads);
      nn::zero_grad({x, y});
      nn::zero_grad(p);
      const SoftMaps maps = soft_feature_maps(nl, grid, x, y, p);
      std::vector<float> value(maps.stacked->value.data().begin(),
                               maps.stacked->value.data().end());
      ASSERT_GT(value.size(), 0u);
      nn::backward(nn::sum(maps.stacked));
      std::vector<float> grads;
      grads.insert(grads.end(), x->grad.data().begin(), x->grad.data().end());
      grads.insert(grads.end(), y->grad.data().begin(), y->grad.data().end());
      for (const nn::Var& v : p)
        grads.insert(grads.end(), v->grad.data().begin(),
                     v->grad.data().end());
      if (!have_ref) {
        ref_value = std::move(value);
        ref_grads = std::move(grads);
        have_ref = true;
        continue;
      }
      EXPECT_EQ(value, ref_value);
      EXPECT_EQ(grads, ref_grads);
    }
  }
}

}  // namespace
}  // namespace dco3d
