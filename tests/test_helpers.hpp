#pragma once
// Shared test utilities: numerical gradient checking for autograd nodes and
// small-design factories.

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include <gtest/gtest.h>

#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "nn/autograd.hpp"
#include "nn/ops.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dco3d::testing {

/// Weighted-sum scalarization of an arbitrary output node so any op can be
/// gradient-checked through a scalar loss.
inline nn::Var scalarize(const nn::Var& v, Rng& rng,
                         std::vector<float>* weights_out = nullptr) {
  nn::Tensor w(v->value.shape());
  for (std::int64_t i = 0; i < w.numel(); ++i)
    w[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  if (weights_out) weights_out->assign(w.data().begin(), w.data().end());
  return nn::sum(nn::mul(v, nn::make_leaf(w)));
}

/// Central-difference gradient check: builds the graph via `forward` (which
/// must return a scalar node), backprops, and compares each input's gradient
/// against finite differences. `inputs` are leaves with requires_grad=true.
inline void check_gradients(
    const std::function<nn::Var()>& forward, const std::vector<nn::Var>& inputs,
    double eps = 1e-3, double rtol = 5e-2, double atol = 1e-4) {
  nn::Var loss = forward();
  ASSERT_EQ(loss->value.numel(), 1);
  nn::zero_grad(inputs);
  nn::backward(loss);

  for (std::size_t k = 0; k < inputs.size(); ++k) {
    nn::Var in = inputs[k];
    for (std::int64_t i = 0; i < in->value.numel(); ++i) {
      const float orig = in->value[i];
      in->value[i] = orig + static_cast<float>(eps);
      const double up = forward()->value[0];
      in->value[i] = orig - static_cast<float>(eps);
      const double dn = forward()->value[0];
      in->value[i] = orig;
      const double numeric = (up - dn) / (2.0 * eps);
      const double analytic = in->grad[i];
      const double err = std::abs(numeric - analytic);
      const double tol = atol + rtol * std::max(std::abs(numeric), std::abs(analytic));
      EXPECT_LE(err, tol) << "input " << k << " element " << i << ": analytic "
                          << analytic << " vs numeric " << numeric;
    }
  }
}

/// Random leaf tensor with requires_grad.
inline nn::Var random_leaf(nn::Shape shape, Rng& rng, double scale = 1.0) {
  nn::Tensor t(std::move(shape));
  for (std::int64_t i = 0; i < t.numel(); ++i)
    t[i] = static_cast<float>(rng.normal(0.0, scale));
  return nn::make_leaf(std::move(t), /*requires_grad=*/true);
}

/// Restores the worker-pool size on scope exit so a test that sweeps thread
/// counts cannot leak its last setting into the rest of the suite.
struct ThreadGuard {
  int saved = util::num_threads();
  ~ThreadGuard() { util::set_num_threads(saved); }
};

/// FNV-1a over raw bytes, for golden hashes of results.
inline std::uint64_t fnv1a(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

/// Golden hash of a placement: every coordinate and tier, bit for bit.
inline std::uint64_t placement_hash(const Placement3D& pl) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::size_t i = 0; i < pl.size(); ++i) {
    h = fnv1a(h, &pl.xy[i].x, sizeof(double));
    h = fnv1a(h, &pl.xy[i].y, sizeof(double));
    h = fnv1a(h, &pl.tier[i], sizeof(int));
  }
  return h;
}

/// A tiny but fully-featured design for unit tests.
inline Netlist tiny_design(std::size_t cells = 240, std::uint64_t seed = 5) {
  DesignSpec spec = spec_for(DesignKind::kDma, 0.01);
  spec.target_cells = cells;
  spec.target_ios = 16;
  spec.seed = seed;
  return generate_design(spec);
}

}  // namespace dco3d::testing
