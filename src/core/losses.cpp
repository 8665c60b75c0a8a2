#include "core/losses.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <utility>

#include "nn/ops.hpp"

#include "util/parallel.hpp"

namespace dco3d {

namespace {

// Scatter-accumulating loops (edge -> cell, cell -> bin) use per-chunk
// buffers merged in fixed chunk order; the cap bounds buffer memory and keeps
// results independent of the thread count.
constexpr std::int64_t kScatterChunks = 8;

void add_vec(std::vector<double>& into, const std::vector<double>& from) {
  for (std::size_t i = 0; i < into.size(); ++i) into[i] += from[i];
}

}  // namespace

nn::Var displacement_loss(const nn::Var& x, const nn::Var& y,
                          const nn::Tensor& x0, const nn::Tensor& y0,
                          const Rect& outline) {
  nn::Var x0v = nn::make_leaf(x0);
  nn::Var y0v = nn::make_leaf(y0);
  nn::Var dx = nn::mul_scalar(nn::sub(x, x0v), static_cast<float>(1.0 / outline.width()));
  nn::Var dy = nn::mul_scalar(nn::sub(y, y0v), static_cast<float>(1.0 / outline.height()));
  return nn::add(nn::mean_op(nn::square(dx)), nn::mean_op(nn::square(dy)));
}

namespace {

using EdgeList = std::vector<std::pair<std::int64_t, std::int64_t>>;

template <int K>
nn::Var cutsize_loss_k(const std::vector<nn::Var>& above,
                       std::shared_ptr<const EdgeList> edges,
                       const TierState& ts) {
  const std::size_t n = ts.size();

  // Degrees.
  auto degree = std::make_shared<std::vector<double>>(n, 0.0);
  for (auto [u, v] : *edges) {
    (*degree)[static_cast<std::size_t>(u)] += 1.0;
    (*degree)[static_cast<std::size_t>(v)] += 1.0;
  }

  // cut = sum_edges E|T_u - T_v|: boundary j is crossed with probability
  // G_u (1 - G_v) + G_v (1 - G_u), G = above[j].
  const auto n_edges = static_cast<std::int64_t>(edges->size());
  const double cut = util::parallel_reduce(
      0, n_edges, 4096, 0.0,
      [&](std::int64_t b, std::int64_t e, double& acc) {
        for (std::int64_t i = b; i < e; ++i) {
          const auto [u, v] = (*edges)[static_cast<std::size_t>(i)];
          for (int j = 0; j + 1 < K; ++j) {
            const double gu = ts.above(j, static_cast<std::size_t>(u));
            const double gv = ts.above(j, static_cast<std::size_t>(v));
            acc += gu * (1.0 - gv) + gv * (1.0 - gu);
          }
        }
      },
      [](double& into, const double& from) { into += from; });

  // Per-tier expected connectivity deg(t) = sum_u deg_u p_t(u).
  struct DegSums {
    double d[kMaxTiers] = {};
  };
  const DegSums sums = util::parallel_reduce(
      0, static_cast<std::int64_t>(n), 8192, DegSums{},
      [&](std::int64_t b, std::int64_t e, DegSums& acc) {
        double p[kMaxTiers];
        for (std::int64_t i = b; i < e; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          ts.probs<K>(ci, p);
          for (int t = 0; t < K; ++t) acc.d[t] += (*degree)[ci] * p[t];
        }
      },
      [](DegSums& into, const DegSums& from) {
        for (int t = 0; t < K; ++t) into.d[t] += from.d[t];
      });
  constexpr double kEps = 1e-6;
  std::array<double, kMaxTiers> deg{};
  for (int t = 0; t < K; ++t) deg[t] = std::max(sums.d[t], kEps);
  // L = sum_t cut / deg(t), from the top tier down.
  double loss = cut / deg[K - 1];
  for (int t = K - 2; t >= 0; --t) loss += cut / deg[t];

  auto backward = [edges, degree, cut, deg](nn::Node& node) {
    bool any = false;
    for (auto& par : node.parents) any = any || par->requires_grad;
    if (!any) return;
    const float g = node.grad[0];
    const std::size_t n = degree->size();
    const TierState ts(node.parents, n);
    double inv = 1.0 / deg[K - 1];
    for (int t = K - 2; t >= 0; --t) inv += 1.0 / deg[t];
    // d(cut)/d above_j(i) = sum_{v in N(i)} (1 - 2 above_j(v)); the per-edge
    // scatter hits arbitrary cells, so chunks accumulate private vectors
    // (boundary-major) merged in order.
    const auto n_edges = static_cast<std::int64_t>(edges->size());
    std::vector<double> dcut = util::parallel_reduce(
        0, n_edges, util::grain_for_chunks(n_edges, kScatterChunks),
        std::vector<double>(static_cast<std::size_t>(K - 1) * n, 0.0),
        [&](std::int64_t b, std::int64_t e, std::vector<double>& acc) {
          for (std::int64_t i = b; i < e; ++i) {
            const auto [u, v] = (*edges)[static_cast<std::size_t>(i)];
            for (int j = 0; j + 1 < K; ++j) {
              const double gu = ts.above(j, static_cast<std::size_t>(u));
              const double gv = ts.above(j, static_cast<std::size_t>(v));
              double* dj = acc.data() + static_cast<std::size_t>(j) * n;
              dj[static_cast<std::size_t>(u)] += 1.0 - 2.0 * gv;
              dj[static_cast<std::size_t>(v)] += 1.0 - 2.0 * gu;
            }
          }
        },
        add_vec);
    for (int j = 0; j + 1 < K; ++j) {
      nn::Node& pj = *node.parents[static_cast<std::size_t>(j)];
      if (!pj.requires_grad) continue;
      pj.ensure_grad();
      auto gz = pj.grad.data();
      const double* dj = dcut.data() + static_cast<std::size_t>(j) * n;
      const double deg_u = deg[j + 1], deg_l = deg[j];
      util::parallel_for(
          0, static_cast<std::int64_t>(n), 8192,
          [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
              const auto ci = static_cast<std::size_t>(i);
              const double d_deg = (*degree)[ci];
              // d(1/deg(t))/dp_t(i) = -deg_i/deg(t)^2, and above_j raises
              // p_{j+1} and lowers p_j.
              const double term =
                  dj[ci] * inv +
                  cut * (-d_deg / (deg_u * deg_u) + d_deg / (deg_l * deg_l));
              gz[ci] += g * static_cast<float>(term);
            }
          });
    }
  };
  return nn::make_node(nn::Tensor::scalar(static_cast<float>(loss)),
                       std::vector<nn::Var>(above.begin(), above.end()),
                       std::move(backward));
}

}  // namespace

nn::Var cutsize_loss(const std::vector<nn::Var>& above,
                     std::shared_ptr<const EdgeList> edges) {
  assert(edges);
  // An empty state (K = 1) is rejected by TierState.
  const auto n = above.empty()
                     ? std::size_t{0}
                     : static_cast<std::size_t>(above[0]->value.numel());
  const TierState ts(above, n);
  return with_tier_count(ts.num_tiers(), [&](auto k) {
    return cutsize_loss_k<decltype(k)::value>(above, std::move(edges), ts);
  });
}

double bell_potential(double d, double wb, double wv) {
  d = std::abs(d);
  const double r1 = wb + wv * 0.5;
  const double r2 = 2.0 * wb + wv * 0.5;
  if (d <= r1) {
    const double a = 4.0 / ((wv + 2.0 * wb) * (wv + 4.0 * wb));
    return 1.0 - a * d * d;
  }
  if (d <= r2) {
    const double b = 2.0 / (wb * (wv + 4.0 * wb));
    return b * (d - r2) * (d - r2);
  }
  return 0.0;
}

double bell_potential_grad(double d, double wb, double wv) {
  const double sign = d >= 0 ? 1.0 : -1.0;
  d = std::abs(d);
  const double r1 = wb + wv * 0.5;
  const double r2 = 2.0 * wb + wv * 0.5;
  if (d <= r1) {
    const double a = 4.0 / ((wv + 2.0 * wb) * (wv + 4.0 * wb));
    return sign * (-2.0 * a * d);
  }
  if (d <= r2) {
    const double b = 2.0 / (wb * (wv + 4.0 * wb));
    return sign * (2.0 * b * (d - r2));
  }
  return 0.0;
}

namespace {

/// Shared bell-potential scatter machinery for the K-tier density-style
/// losses (overlap / thermal). Computes per-cell geometry, bin windows, and
/// the area-normalization constant c_v of Eq. (10).
struct BellGeom {
  double cx, cy, wb_x, wb_y, c_norm;
  int b0x, b1x, b0y, b1y;
  bool active;
};

BellGeom bell_geometry(const Netlist& netlist, std::size_t ci, double x,
                       double y, const Rect& outline, int bins_x, int bins_y,
                       double wv_x, double wv_y) {
  BellGeom g{};
  const auto id = static_cast<CellId>(ci);
  const CellType& t = netlist.cell_type(id);
  g.active = netlist.is_movable(id) && t.area() > 0.0;
  if (!g.active) return g;
  g.wb_x = std::max(t.width * 0.5, 1e-6);
  g.wb_y = std::max(t.height * 0.5, 1e-6);
  g.cx = x + t.width * 0.5;
  g.cy = y + t.height * 0.5;
  const double rx = 2.0 * g.wb_x + wv_x * 0.5;
  const double ry = 2.0 * g.wb_y + wv_y * 0.5;
  g.b0x = std::clamp(static_cast<int>((g.cx - rx - outline.xlo) / wv_x), 0, bins_x - 1);
  g.b1x = std::clamp(static_cast<int>((g.cx + rx - outline.xlo) / wv_x), 0, bins_x - 1);
  g.b0y = std::clamp(static_cast<int>((g.cy - ry - outline.ylo) / wv_y), 0, bins_y - 1);
  g.b1y = std::clamp(static_cast<int>((g.cy + ry - outline.ylo) / wv_y), 0, bins_y - 1);
  double raw = 0.0;
  for (int bx = g.b0x; bx <= g.b1x; ++bx)
    for (int by = g.b0y; by <= g.b1y; ++by)
      raw += bell_potential(g.cx - (outline.xlo + (bx + 0.5) * wv_x), g.wb_x, wv_x) *
             bell_potential(g.cy - (outline.ylo + (by + 0.5) * wv_y), g.wb_y, wv_y);
  g.c_norm = raw > 1e-12 ? t.area() / raw : 0.0;
  return g;
}

}  // namespace

namespace {

template <int K>
nn::Var overlap_loss_k(const Netlist& netlist, const nn::Var& x,
                       const nn::Var& y, const std::vector<nn::Var>& above,
                       const TierState& ts, const Rect& outline, int bins_x,
                       int bins_y, double target_util) {
  const std::size_t n = ts.size();
  const double wv_x = outline.width() / bins_x;
  const double wv_y = outline.height() / bins_y;
  const double bin_area = wv_x * wv_y;
  const std::size_t n_bins = static_cast<std::size_t>(bins_x) * bins_y;
  const std::size_t all_bins = static_cast<std::size_t>(K) * n_bins;

  auto xs = std::as_const(x->value).data();
  auto ys = std::as_const(y->value).data();

  auto geoms = std::make_shared<std::vector<BellGeom>>(n);
  // Per-cell tier probabilities, cell-major: probs[i * K + t].
  auto probs = std::make_shared<std::vector<double>>(n * static_cast<std::size_t>(K));
  auto bin_center_x = [&](int b) { return outline.xlo + (b + 0.5) * wv_x; };
  auto bin_center_y = [&](int b) { return outline.ylo + (b + 0.5) * wv_y; };

  // Forward: accumulate per-tier smoothed densities. Each cell's geometry
  // slot is private to its chunk, but the bell potentials scatter onto
  // shared bins, so densities go through per-chunk buffers merged in chunk
  // order. Layout is [tier0 bins..., tier1 bins..., ...].
  std::vector<double> density = util::parallel_reduce(
      0, static_cast<std::int64_t>(n),
      util::grain_for_chunks(static_cast<std::int64_t>(n), kScatterChunks),
      std::vector<double>(all_bins, 0.0),
      [&](std::int64_t cb, std::int64_t ce, std::vector<double>& acc) {
        for (std::int64_t i = cb; i < ce; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          BellGeom& g = (*geoms)[ci];
          g = bell_geometry(netlist, ci, xs[ci], ys[ci], outline, bins_x,
                            bins_y, wv_x, wv_y);
          if (!g.active) continue;
          double* p = probs->data() + ci * static_cast<std::size_t>(K);
          ts.probs<K>(ci, p);
          for (int bx = g.b0x; bx <= g.b1x; ++bx) {
            const double px = bell_potential(g.cx - bin_center_x(bx), g.wb_x, wv_x);
            for (int by = g.b0y; by <= g.b1y; ++by) {
              const double py = bell_potential(g.cy - bin_center_y(by), g.wb_y, wv_y);
              const auto bi = static_cast<std::size_t>(by) * bins_x + bx;
              const double mass = g.c_norm * px * py;
              for (int t = 0; t < K; ++t)
                acc[static_cast<std::size_t>(t) * n_bins + bi] += mass * p[t];
            }
          }
        }
      },
      add_vec);

  // Penalty: mean squared utilization excess over all tiers. Excess slots
  // are per-bin (disjoint writes); the loss itself is a deterministic
  // chunked sum.
  auto excess = std::make_shared<std::vector<double>>(all_bins, 0.0);
  double loss = util::parallel_reduce(
      0, static_cast<std::int64_t>(all_bins), 8192, 0.0,
      [&](std::int64_t b, std::int64_t e, double& acc) {
        for (std::int64_t i = b; i < e; ++i) {
          const auto bi = static_cast<std::size_t>(i);
          const double rho = density[bi] / bin_area;
          const double ex = std::max(rho - target_util, 0.0);
          (*excess)[bi] = ex;
          acc += ex * ex;
        }
      },
      [](double& into, const double& from) { into += from; });
  loss /= static_cast<double>(all_bins);

  auto backward = [geoms, probs, excess, outline, bins_x, bins_y, wv_x, wv_y,
                   bin_area, n_bins, all_bins](nn::Node& node) {
    nn::Node& px_node = *node.parents[0];
    nn::Node& py_node = *node.parents[1];
    const float g = node.grad[0];
    const double scale = 2.0 / (static_cast<double>(all_bins) * bin_area);

    auto bin_center_x = [&](int b) { return outline.xlo + (b + 0.5) * wv_x; };
    auto bin_center_y = [&](int b) { return outline.ylo + (b + 0.5) * wv_y; };

    const auto n = geoms->size();
    // Survival gradients, boundary-major: ga[j * n + i].
    std::vector<double> gx(n, 0.0), gy(n, 0.0),
        ga(static_cast<std::size_t>(K - 1) * n, 0.0);
    // Each cell reads shared excess bins but writes only its own gradient
    // slots, so the chunks are disjoint without buffering.
    util::parallel_for(
        0, static_cast<std::int64_t>(n), 256,
        [&](std::int64_t cb, std::int64_t ce) {
          for (std::int64_t i = cb; i < ce; ++i) {
            const auto ci = static_cast<std::size_t>(i);
            const BellGeom& geo = (*geoms)[ci];
            if (!geo.active || geo.c_norm == 0.0) continue;
            const double* p = probs->data() + ci * static_cast<std::size_t>(K);
            for (int bx = geo.b0x; bx <= geo.b1x; ++bx) {
              const double dx = geo.cx - bin_center_x(bx);
              const double pxv = bell_potential(dx, geo.wb_x, wv_x);
              const double dpx = bell_potential_grad(dx, geo.wb_x, wv_x);
              for (int by = geo.b0y; by <= geo.b1y; ++by) {
                const double dy = geo.cy - bin_center_y(by);
                const double pyv = bell_potential(dy, geo.wb_y, wv_y);
                const double dpy = bell_potential_grad(dy, geo.wb_y, wv_y);
                const auto bi = static_cast<std::size_t>(by) * bins_x + bx;
                // w_mix = sum_t e_t p_t (tier 0 first); boundary j sees
                // e_{j+1} - e_j.
                double e_lo = (*excess)[bi];
                double w_mix = e_lo * p[0];
                for (int j = 0; j + 1 < K; ++j) {
                  const double e_hi =
                      (*excess)[static_cast<std::size_t>(j + 1) * n_bins + bi];
                  w_mix += e_hi * p[j + 1];
                  ga[static_cast<std::size_t>(j) * n + ci] +=
                      scale * (e_hi - e_lo) * geo.c_norm * pxv * pyv;
                  e_lo = e_hi;
                }
                gx[ci] += scale * w_mix * geo.c_norm * dpx * pyv;
                gy[ci] += scale * w_mix * geo.c_norm * pxv * dpy;
              }
            }
          }
        });
    auto flush = [g](nn::Node& pnode, const double* vec, std::size_t len) {
      if (!pnode.requires_grad) return;
      pnode.ensure_grad();
      auto dst = pnode.grad.data();
      for (std::size_t i = 0; i < len; ++i)
        dst[i] += g * static_cast<float>(vec[i]);
    };
    flush(px_node, gx.data(), n);
    flush(py_node, gy.data(), n);
    for (int j = 0; j + 1 < K; ++j)
      flush(*node.parents[static_cast<std::size_t>(2 + j)],
            ga.data() + static_cast<std::size_t>(j) * n, n);
  };

  std::vector<nn::Var> parents = {x, y};
  parents.insert(parents.end(), above.begin(), above.end());
  return nn::make_node(nn::Tensor::scalar(static_cast<float>(loss)), parents,
                       std::move(backward));
}

}  // namespace

nn::Var overlap_loss(const Netlist& netlist, const nn::Var& x, const nn::Var& y,
                     const std::vector<nn::Var>& above, const Rect& outline,
                     int bins_x, int bins_y, double target_util) {
  const auto n = static_cast<std::size_t>(netlist.num_cells());
  assert(x->value.numel() == static_cast<std::int64_t>(n));
  const TierState ts(above, n);
  return with_tier_count(ts.num_tiers(), [&](auto k) {
    return overlap_loss_k<decltype(k)::value>(netlist, x, y, above, ts, outline,
                                              bins_x, bins_y, target_util);
  });
}

nn::Var thermal_density_loss(const Netlist& netlist, const nn::Var& x,
                             const nn::Var& y, const std::vector<nn::Var>& above,
                             const nn::Tensor& cell_power, const Rect& outline,
                             int bins_x, int bins_y) {
  const auto n = static_cast<std::size_t>(netlist.num_cells());
  assert(cell_power.numel() == static_cast<std::int64_t>(n));
  const TierState ts(above, n);
  const int K = ts.num_tiers();
  const double wv_x = outline.width() / bins_x;
  const double wv_y = outline.height() / bins_y;
  const double bin_area = wv_x * wv_y;
  const std::size_t n_bins = static_cast<std::size_t>(bins_x) * bins_y;

  auto xs = std::as_const(x->value).data();
  auto ys = std::as_const(y->value).data();

  // Expected tier-depth weight per cell: depth_i = E[T_i + 1] / K =
  // (1 + sum_j above_j(i)) / K.
  auto depth = std::make_shared<std::vector<double>>(n, 0.0);
  auto power = std::make_shared<std::vector<double>>(n, 0.0);
  for (std::size_t ci = 0; ci < n; ++ci) {
    double d = 1.0;
    for (int j = 0; j + 1 < K; ++j) d += ts.above(j, ci);
    (*depth)[ci] = d / static_cast<double>(K);
    (*power)[ci] = static_cast<double>(cell_power[static_cast<std::int64_t>(ci)]);
  }

  auto geoms = std::make_shared<std::vector<BellGeom>>(n);
  auto bin_center_x = [&](int b) { return outline.xlo + (b + 0.5) * wv_x; };
  auto bin_center_y = [&](int b) { return outline.ylo + (b + 0.5) * wv_y; };

  // Normalize potentials to unit mass times power (c_norm is area-normalized;
  // rescale by power/area so the scattered mass integrates to cell power).
  std::vector<double> heat = util::parallel_reduce(
      0, static_cast<std::int64_t>(n),
      util::grain_for_chunks(static_cast<std::int64_t>(n), kScatterChunks),
      std::vector<double>(n_bins, 0.0),
      [&](std::int64_t cb, std::int64_t ce, std::vector<double>& acc) {
        for (std::int64_t i = cb; i < ce; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          BellGeom& g = (*geoms)[ci];
          g = bell_geometry(netlist, ci, xs[ci], ys[ci], outline, bins_x,
                            bins_y, wv_x, wv_y);
          if (!g.active || g.c_norm == 0.0 || (*power)[ci] <= 0.0) continue;
          const CellType& t = netlist.cell_type(static_cast<CellId>(ci));
          const double q = g.c_norm * (*power)[ci] / t.area();
          for (int bx = g.b0x; bx <= g.b1x; ++bx) {
            const double px = bell_potential(g.cx - bin_center_x(bx), g.wb_x, wv_x);
            for (int by = g.b0y; by <= g.b1y; ++by) {
              const double py = bell_potential(g.cy - bin_center_y(by), g.wb_y, wv_y);
              const auto bi = static_cast<std::size_t>(by) * bins_x + bx;
              acc[bi] += q * (*depth)[ci] * px * py / bin_area;
            }
          }
        }
      },
      add_vec);

  auto heat_sh = std::make_shared<std::vector<double>>(std::move(heat));
  double loss = 0.0;
  for (double hv : *heat_sh) loss += hv * hv;
  loss /= static_cast<double>(n_bins);

  auto backward = [geoms, heat_sh, depth, power, outline, bins_x, bins_y, wv_x,
                   wv_y, bin_area, n_bins, K, nlp = &netlist](nn::Node& node) {
    nn::Node& px_node = *node.parents[0];
    nn::Node& py_node = *node.parents[1];
    const float g = node.grad[0];
    const double scale = 2.0 / (static_cast<double>(n_bins) * bin_area);

    auto bin_center_x = [&](int b) { return outline.xlo + (b + 0.5) * wv_x; };
    auto bin_center_y = [&](int b) { return outline.ylo + (b + 0.5) * wv_y; };

    const auto n = geoms->size();
    std::vector<double> gx(n, 0.0), gy(n, 0.0), gd(n, 0.0);
    util::parallel_for(
        0, static_cast<std::int64_t>(n), 256,
        [&](std::int64_t cb, std::int64_t ce) {
          for (std::int64_t i = cb; i < ce; ++i) {
            const auto ci = static_cast<std::size_t>(i);
            const BellGeom& geo = (*geoms)[ci];
            if (!geo.active || geo.c_norm == 0.0 || (*power)[ci] <= 0.0) continue;
            const CellType& t = nlp->cell_type(static_cast<CellId>(ci));
            const double q = geo.c_norm * (*power)[ci] / t.area();
            for (int bx = geo.b0x; bx <= geo.b1x; ++bx) {
              const double dx = geo.cx - bin_center_x(bx);
              const double pxv = bell_potential(dx, geo.wb_x, wv_x);
              const double dpx = bell_potential_grad(dx, geo.wb_x, wv_x);
              for (int by = geo.b0y; by <= geo.b1y; ++by) {
                const double dy = geo.cy - bin_center_y(by);
                const double pyv = bell_potential(dy, geo.wb_y, wv_y);
                const double dpy = bell_potential_grad(dy, geo.wb_y, wv_y);
                const auto bi = static_cast<std::size_t>(by) * bins_x + bx;
                const double hv = (*heat_sh)[bi];
                gx[ci] += scale * hv * q * (*depth)[ci] * dpx * pyv;
                gy[ci] += scale * hv * q * (*depth)[ci] * pxv * dpy;
                gd[ci] += scale * hv * q * pxv * pyv;
              }
            }
          }
        });
    auto flush = [g](nn::Node& pnode, const std::vector<double>& vec) {
      if (!pnode.requires_grad) return;
      pnode.ensure_grad();
      auto dst = pnode.grad.data();
      for (std::size_t i = 0; i < vec.size(); ++i)
        dst[i] += g * static_cast<float>(vec[i]);
    };
    flush(px_node, gx);
    flush(py_node, gy);
    // d(depth_i)/d above_j(i) = 1/K.
    const double wt = 1.0 / static_cast<double>(K);
    for (int j = 0; j + 1 < K; ++j) {
      nn::Node& pj = *node.parents[static_cast<std::size_t>(2 + j)];
      if (!pj.requires_grad) continue;
      pj.ensure_grad();
      auto dst = pj.grad.data();
      for (std::size_t i = 0; i < n; ++i)
        dst[i] += g * static_cast<float>(gd[i] * wt);
    }
  };

  std::vector<nn::Var> parents = {x, y};
  parents.insert(parents.end(), above.begin(), above.end());
  return nn::make_node(nn::Tensor::scalar(static_cast<float>(loss)), parents,
                       std::move(backward));
}

namespace {

/// Eq. (4) against all-zero targets over one feature stack per tier.
nn::Var zero_target_loss(const nn::SiameseUNet& model,
                         const std::vector<nn::Var>& f) {
  std::vector<nn::Var> preds = model.forward_n(f);
  std::vector<nn::Var> zeros;
  zeros.reserve(preds.size());
  for (const nn::Var& c : preds)
    zeros.push_back(nn::make_leaf(nn::Tensor(c->value.shape())));
  return nn::siamese_loss_n(preds, zeros);
}

}  // namespace

nn::Var congestion_loss(const nn::SiameseUNet& model, const SoftMaps& maps) {
  std::vector<nn::Var> f;
  f.reserve(static_cast<std::size_t>(maps.num_tiers));
  for (int t = 0; t < maps.num_tiers; ++t) f.push_back(maps.tier(t));
  return zero_target_loss(model, f);
}

nn::Var congestion_loss(const Predictor& predictor, const SoftMaps& maps) {
  std::vector<nn::Var> f;
  f.reserve(static_cast<std::size_t>(maps.num_tiers));
  for (int t = 0; t < maps.num_tiers; ++t)
    f.push_back(predictor.normalize_features(maps.tier(t)));
  return zero_target_loss(*predictor.model, f);
}

}  // namespace dco3d
