#include "grid/soft_maps.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <string>
#include <utility>

#include "nn/simd/simd.hpp"
#include "util/parallel.hpp"

namespace dco3d {

namespace {

// Per-net/per-cell rasterization scatters into shared tile maps, so the
// parallel form runs fixed chunks of the index range into chunk-private
// accumulation buffers and merges them in ascending chunk order. Chunk count
// is capped (buffers are map-sized), and never depends on the thread count —
// results are bit-identical from 1 to N threads.
constexpr std::int64_t kScatterChunks = 8;

struct NetGeom {
  Rect bbox;          // effective bbox (clamped below to tile dims)
  bool clamped_x = false;
  bool clamped_y = false;
  std::size_t argmin_x = 0, argmax_x = 0, argmin_y = 0, argmax_y = 0;  // pin idx
  double k = 0.0;     // 1/w + 1/h on the effective bbox
  double prod[kMaxTiers];  // per-tier product of the pins' tier probabilities
  double w3d = 0.0;   // 3D weight 1 - sum_t prod[t]
};

struct PinPos {
  CellId cell;
  double px, py;         // absolute pin position
  double p[kMaxTiers];   // tier probabilities of the owning cell
};

/// Gather pins of a net with positions and tier probabilities. Stored pin
/// order is driver-first, preserving the legacy argmin/argmax indices.
template <int K>
void collect_pins(const Netlist& nl, NetId ni, std::span<const float> x,
                  std::span<const float> y, const TierState& ts,
                  std::vector<PinPos>& pins) {
  pins.clear();
  for (const Pin& p : nl.net_pins(ni)) {
    const auto c = static_cast<std::size_t>(p.cell);
    PinPos& pp = pins.emplace_back();
    pp.cell = p.cell;
    pp.px = x[c] + p.offset.x;
    pp.py = y[c] + p.offset.y;
    ts.probs<K>(c, pp.p);
  }
}

template <int K>
NetGeom net_geometry(const std::vector<PinPos>& pins, const GCellGrid& grid) {
  NetGeom g;
  std::fill(g.prod, g.prod + K, 1.0);
  double xl = pins[0].px, xh = pins[0].px, yl = pins[0].py, yh = pins[0].py;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const auto& p = pins[i];
    if (p.px < xl) { xl = p.px; g.argmin_x = i; }
    if (p.px > xh) { xh = p.px; g.argmax_x = i; }
    if (p.py < yl) { yl = p.py; g.argmin_y = i; }
    if (p.py > yh) { yh = p.py; g.argmax_y = i; }
    for (int t = 0; t < K; ++t) g.prod[t] *= p.p[t];
  }
  // ((1 - prod_{K-1}) - ...) - prod_0: at K = 2, 1 - prod_top - prod_bot.
  double rest = 1.0;
  for (int t = K - 1; t >= 0; --t) rest -= g.prod[t];
  g.w3d = std::max(rest, 0.0);
  const double tw = grid.tile_width(), th = grid.tile_height();
  if (xh - xl < tw) {
    const double pad = (tw - (xh - xl)) * 0.5;
    xl -= pad;
    xh += pad;
    g.clamped_x = true;
  }
  if (yh - yl < th) {
    const double pad = (th - (yh - yl)) * 0.5;
    yl -= pad;
    yh += pad;
    g.clamped_y = true;
  }
  g.bbox = {xl, yl, xh, yh};
  g.k = 1.0 / (xh - xl) + 1.0 / (yh - yl);
  return g;
}

void add_tensor(nn::Tensor& into, const nn::Tensor& from) {
  auto dst = into.data();
  auto src = from.data();
  nn::simd::active().acc(static_cast<std::int64_t>(dst.size()), src.data(),
                         dst.data());
}

}  // namespace

TierState::TierState(std::span<const nn::Var> above, std::size_t n)
    : K_(static_cast<int>(above.size()) + 1), n_(n) {
  if (K_ < 2 || K_ > kMaxTiers)
    throw StatusError(Status::invalid_argument(
        "soft tier state: tier count must be in [2, " +
        std::to_string(kMaxTiers) + "] (got " + std::to_string(K_) + ")"));
  for (int j = 0; j + 1 < K_; ++j) {
    const nn::Var& a = above[static_cast<std::size_t>(j)];
    if (a->value.numel() != static_cast<std::int64_t>(n))
      throw StatusError(Status::invalid_argument(
          "soft tier state: survival vector size mismatch"));
    a_[j] = std::as_const(a->value).data();
  }
}

namespace {

template <int K>
SoftMaps soft_maps_k(const Netlist& netlist, const GCellGrid& grid,
                     const nn::Var& x, const nn::Var& y,
                     const std::vector<nn::Var>& above, const TierState& ts) {
  const auto N = static_cast<std::size_t>(netlist.num_cells());
  const std::int64_t H = grid.ny(), W = grid.nx();
  const double A = grid.tile_area();
  const double invK = 1.0 / static_cast<double>(K);

  auto channel = [H, W](nn::Tensor& t, int tier, FeatureChannel ch) {
    return t.data().subspan(
        static_cast<std::size_t>((tier * kNumFeatureChannels + ch) * H * W),
        static_cast<std::size_t>(H * W));
  };

  auto xs = std::as_const(x->value).data();
  auto ys = std::as_const(y->value).data();

  const nn::Tensor zero({1, K * kNumFeatureChannels, H, W});

  // --- cell density & macro blockage ---
  // Each cell splits its area overlap across the tiers by its tier
  // probabilities; rows rasterize through the SIMD layer with per-tier
  // weights p_t (missed tiles contribute exact +0).
  const auto overlap_row = nn::simd::active().overlap_row_scaled;
  nn::Tensor out = util::parallel_reduce(
      0, static_cast<std::int64_t>(N),
      util::grain_for_chunks(static_cast<std::int64_t>(N), kScatterChunks), zero,
      [&](std::int64_t b, std::int64_t e, nn::Tensor& acc) {
        for (std::int64_t i = b; i < e; ++i) {
          const auto ci = static_cast<std::size_t>(i);
          const auto id = static_cast<CellId>(ci);
          const CellType& t = netlist.cell_type(id);
          if (t.area() <= 0.0) continue;
          double weights[kMaxTiers];
          ts.probs<K>(ci, weights);
          const Rect r{xs[ci], ys[ci], xs[ci] + t.width, ys[ci] + t.height};
          const FeatureChannel ch =
              netlist.is_macro(id) ? kMacroBlockage : kCellDensity;
          const int m0 = grid.col_of(r.xlo), m1 = grid.col_of(r.xhi);
          const int n0 = grid.row_of(r.ylo), n1 = grid.row_of(r.yhi);
          const double txlo0 = grid.tile_rect(m0, n0).xlo;
          for (int n = n0; n <= n1; ++n) {
            const Rect tr = grid.tile_rect(m0, n);
            const double oy = std::min(tr.yhi, r.yhi) - std::max(tr.ylo, r.ylo);
            float* rows[kMaxTiers];
            for (int tier = 0; tier < K; ++tier)
              rows[tier] = channel(acc, tier, ch).data() + grid.index(m0, n);
            overlap_row(m1 - m0 + 1, txlo0, grid.tile_width(), r.xlo, r.xhi,
                        oy, A, K, weights, rows);
          }
        }
      },
      add_tensor);

  // --- net-driven maps ---
  const auto n_nets = static_cast<std::int64_t>(netlist.num_nets());
  nn::Tensor net_maps = util::parallel_reduce(
      0, n_nets, util::grain_for_chunks(n_nets, kScatterChunks),
      zero,
      [&](std::int64_t b, std::int64_t e, nn::Tensor& acc) {
        std::vector<PinPos> pins;
        for (std::int64_t i = b; i < e; ++i) {
          collect_pins<K>(netlist, static_cast<NetId>(i), xs, ys, ts, pins);
          if (pins.empty()) continue;
          const NetGeom g = net_geometry<K>(pins, grid);

          // RUDY channels: one fused geometry sweep for all 2K channels.
          double ws[2 * kMaxTiers];
          std::span<float> rmaps[2 * kMaxTiers];
          for (int t = 0; t < K; ++t) {
            ws[2 * t] = g.prod[t];
            rmaps[2 * t] = channel(acc, t, kRudy2D);
            ws[2 * t + 1] = invK * g.w3d;
            rmaps[2 * t + 1] = channel(acc, t, kRudy3D);
          }
          add_net_rudy_multi(grid, g.bbox, 2 * K, ws, rmaps);

          // Pin channels.
          for (const PinPos& p : pins) {
            const auto ti = static_cast<std::size_t>(grid.tile_of({p.px, p.py}));
            for (int t = 0; t < K; ++t) {
              channel(acc, t, kPinDensity)[ti] += static_cast<float>(p.p[t] / A);
              channel(acc, t, kPinRudy2D)[ti] += static_cast<float>(g.k * g.prod[t]);
              channel(acc, t, kPinRudy3D)[ti] +=
                  static_cast<float>(g.k * p.p[t] * g.w3d);
            }
          }
        }
      },
      add_tensor);
  add_tensor(out, net_maps);

  // --- custom backward: Eq. (6) subgradients ---
  const Netlist* nlp = &netlist;
  auto backward = [nlp, grid, H, W, A, invK](nn::Node& node) {
    const auto n_cells = static_cast<std::size_t>(nlp->num_cells());
    nn::Node& px = *node.parents[0];
    nn::Node& py = *node.parents[1];
    const auto above_node = [&](int j) -> nn::Node& {
      return *node.parents[static_cast<std::size_t>(2 + j)];
    };
    bool any_above_grad = false;
    for (int j = 0; j + 1 < K; ++j)
      any_above_grad = any_above_grad || above_node(j).requires_grad;
    const TierState ts(std::span<const nn::Var>(node.parents).subspan(2),
                       n_cells);

    auto gch = [&](int tier, FeatureChannel ch) {
      return std::as_const(node.grad).data().subspan(
          static_cast<std::size_t>((tier * kNumFeatureChannels + ch) * H * W),
          static_cast<std::size_t>(H * W));
    };
    auto xs = std::as_const(px.value).data();
    auto ys = std::as_const(py.value).data();
    // Survival gradients, boundary-major: ga[j * n_cells + i].
    std::vector<double> gx(n_cells, 0.0), gy(n_cells, 0.0),
        ga(static_cast<std::size_t>(K - 1) * n_cells, 0.0);

    // Upstream maps, hoisted out of the per-cell and per-net sweeps.
    std::span<const float> gcd[kMaxTiers], gp2[kMaxTiers], gp3[kMaxTiers],
        gpd[kMaxTiers];
    const float* g2base[kMaxTiers];
    const float* g3base[kMaxTiers];
    for (int t = 0; t < K; ++t) {
      gcd[t] = gch(t, kCellDensity);
      gp2[t] = gch(t, kPinRudy2D);
      gp3[t] = gch(t, kPinRudy3D);
      gpd[t] = gch(t, kPinDensity);
      g2base[t] = gch(t, kRudy2D).data();
      g3base[t] = gch(t, kRudy3D).data();
    }

    // Cell density: tier t's map weights p_t, so boundary j receives the
    // upstream difference of tiers j+1 and j. Each cell writes only its own
    // slots, so plain parallel_for chunks are already disjoint.
    if (any_above_grad) {
      util::parallel_for(
          0, static_cast<std::int64_t>(n_cells), 256,
          [&](std::int64_t b, std::int64_t e) {
            for (std::int64_t i = b; i < e; ++i) {
              const auto ci = static_cast<std::size_t>(i);
              const auto id = static_cast<CellId>(ci);
              const CellType& t = nlp->cell_type(id);
              if (t.area() <= 0.0 || nlp->is_macro(id)) continue;
              const Rect r{xs[ci], ys[ci], xs[ci] + t.width, ys[ci] + t.height};
              const int m0 = grid.col_of(r.xlo), m1 = grid.col_of(r.xhi);
              const int n0 = grid.row_of(r.ylo), n1 = grid.row_of(r.yhi);
              for (int n = n0; n <= n1; ++n)
                for (int m = m0; m <= m1; ++m) {
                  const double ov = grid.tile_rect(m, n).overlap_area(r);
                  if (ov <= 0.0) continue;
                  const auto ti = static_cast<std::size_t>(grid.index(m, n));
                  for (int j = 0; j + 1 < K; ++j)
                    ga[static_cast<std::size_t>(j) * n_cells + ci] +=
                        (gcd[j + 1][ti] - gcd[j][ti]) * ov / A;
                }
            }
          });
    }

    // Net subgradients scatter onto the extreme pins' cells, which chunks
    // share — per-chunk gradient buffers, merged in chunk order.
    struct PosGrads {
      std::vector<double> gx, gy, ga;
    };
    const auto bw_nets = static_cast<std::int64_t>(nlp->num_nets());
    PosGrads net_grads = util::parallel_reduce(
        0, bw_nets, util::grain_for_chunks(bw_nets, kScatterChunks),
        PosGrads{std::vector<double>(n_cells, 0.0),
                 std::vector<double>(n_cells, 0.0),
                 std::vector<double>(ga.size(), 0.0)},
        [&](std::int64_t nb, std::int64_t ne, PosGrads& acc) {
          std::vector<PinPos> pins;
          for (std::int64_t nn_i = nb; nn_i < ne; ++nn_i) {
            collect_pins<K>(*nlp, static_cast<NetId>(nn_i), xs, ys, ts, pins);
            if (pins.empty()) continue;
            const NetGeom g = net_geometry<K>(pins, grid);
            const Rect& bb = g.bbox;
            const int m0 = grid.col_of(bb.xlo), m1 = grid.col_of(bb.xhi);
            const int n0 = grid.row_of(bb.ylo), n1 = grid.row_of(bb.yhi);

            // Accumulate per-tier tile-weighted grads for the RUDY channels,
            // plus the position gradient of the extreme pins (Eq. 6). Each
            // grid row is one SIMD sweep (tile j of the row folds into lane
            // j % 8); the per-net 8-lane accumulators merge once with the
            // fixed combine8 tree. Masked tiles (no overlap, or zero
            // upstream weight for the position terms — the delta_ih /
            // delta_il edge indicators of Eq. 6 included) contribute exact
            // +-0, a bitwise no-op.
            const bool want_pos = (px.requires_grad || py.requires_grad);
            const auto bwd_row = nn::simd::active().soft_bwd_row_k;
            nn::simd::SoftBwdAccK lanes;
            nn::simd::SoftBwdRowKArgs row;
            row.mcount = m1 - m0 + 1;
            row.txlo0 = grid.tile_rect(m0, n0).xlo;
            row.tw = grid.tile_width();
            row.A = A;
            row.k = g.k;
            row.bxlo = bb.xlo;
            row.bxhi = bb.xhi;
            row.w = bb.width();
            row.h = bb.height();
            row.w3d = g.w3d;
            row.invK = invK;
            row.clamped_x = g.clamped_x;
            row.clamped_y = g.clamped_y;
            row.want_pos = want_pos;
            row.K = K;
            std::copy(g.prod, g.prod + K, row.prod);
            for (int n = n0; n <= n1; ++n) {
              const Rect tr = grid.tile_rect(m0, n);
              row.oy = std::min(tr.yhi, bb.yhi) - std::max(tr.ylo, bb.ylo);
              row.y_edge_hi = (bb.yhi >= tr.ylo && bb.yhi < tr.yhi) ? 1.0 : 0.0;
              row.y_edge_lo = (bb.ylo > tr.ylo && bb.ylo <= tr.yhi) ? 1.0 : 0.0;
              const auto off = static_cast<std::size_t>(grid.index(m0, n));
              for (int t = 0; t < K; ++t) {
                row.g2[t] = g2base[t] + off;
                row.g3[t] = g3base[t] + off;
              }
              bwd_row(row, lanes);
            }
            if (want_pos) {
              acc.gx[static_cast<std::size_t>(pins[g.argmax_x].cell)] +=
                  nn::simd::combine8(lanes.gxh);
              acc.gx[static_cast<std::size_t>(pins[g.argmin_x].cell)] +=
                  nn::simd::combine8(lanes.gxl);
              acc.gy[static_cast<std::size_t>(pins[g.argmax_y].cell)] +=
                  nn::simd::combine8(lanes.gyh);
              acc.gy[static_cast<std::size_t>(pins[g.argmin_y].cell)] +=
                  nn::simd::combine8(lanes.gyl);
            }

            if (!any_above_grad) continue;
            double a2[kMaxTiers];
            for (int t = 0; t < K; ++t) a2[t] = nn::simd::combine8(lanes.a2[t]);
            const double a_3d = nn::simd::combine8(lanes.a3d);

            // Pin-channel sums shared across all pins of this net.
            double s2[kMaxTiers] = {};
            double s_3z = 0.0;
            for (const PinPos& p : pins) {
              const auto ti = static_cast<std::size_t>(grid.tile_of({p.px, p.py}));
              for (int t = 0; t < K; ++t) s2[t] += gp2[t][ti] * g.k;
              double s3 = gp3[K - 1][ti] * g.k * p.p[K - 1];
              for (int t = K - 2; t >= 0; --t) s3 += gp3[t][ti] * g.k * p.p[t];
              s_3z += s3;
            }

            // Per-pin survival gradients with excluded products: boundary j
            // takes d/dp_{j+1} - d/dp_j of every term.
            for (std::size_t i = 0; i < pins.size(); ++i) {
              const PinPos& pi = pins[i];
              double ex[kMaxTiers];
              std::fill(ex, ex + K, 1.0);
              for (std::size_t q = 0; q < pins.size(); ++q) {
                if (q == i) continue;
                for (int t = 0; t < K; ++t) ex[t] *= pins[q].p[t];
              }
              const auto ti = static_cast<std::size_t>(grid.tile_of({pi.px, pi.py}));
              for (int j = 0; j + 1 < K; ++j) {
                const int u = j + 1, l = j;
                const double d3d = ex[l] - ex[u];  // d(w3d)/d above_j
                double gzi = 0.0;
                // RUDY channels.
                gzi += a2[u] * ex[u] - a2[l] * ex[l] + a_3d * d3d;
                // 2D PinRUDY (every pin's contribution carries the full product).
                gzi += s2[u] * ex[u] - s2[l] * ex[l];
                // 3D PinRUDY: own-pin direct term + shared w3d term.
                gzi += (gp3[u][ti] - gp3[l][ti]) * g.k * g.w3d + s_3z * d3d;
                // Pin density.
                gzi += (gpd[u][ti] - gpd[l][ti]) / A;
                acc.ga[static_cast<std::size_t>(j) * n_cells +
                       static_cast<std::size_t>(pi.cell)] += gzi;
              }
            }
          }
        },
        [](PosGrads& into, const PosGrads& from) {
          for (std::size_t i = 0; i < into.gx.size(); ++i) {
            into.gx[i] += from.gx[i];
            into.gy[i] += from.gy[i];
          }
          for (std::size_t i = 0; i < into.ga.size(); ++i) into.ga[i] += from.ga[i];
        });
    // Merge net contributions after the cell-density ones (the legacy order),
    // still in double precision, before the single float flush below.
    for (std::size_t i = 0; i < n_cells; ++i) {
      gx[i] += net_grads.gx[i];
      gy[i] += net_grads.gy[i];
    }
    for (std::size_t i = 0; i < ga.size(); ++i) ga[i] += net_grads.ga[i];

    auto flush = [](nn::Node& p, const double* g, std::size_t n) {
      if (!p.requires_grad) return;
      p.ensure_grad();
      auto dst = p.grad.data();
      for (std::size_t i = 0; i < n; ++i) dst[i] += static_cast<float>(g[i]);
    };
    flush(px, gx.data(), n_cells);
    flush(py, gy.data(), n_cells);
    for (int j = 0; j + 1 < K; ++j)
      flush(above_node(j), ga.data() + static_cast<std::size_t>(j) * n_cells,
            n_cells);
  };

  std::vector<nn::Var> parents = {x, y};
  parents.insert(parents.end(), above.begin(), above.end());
  SoftMaps result;
  result.num_tiers = K;
  result.stacked = nn::make_node(std::move(out), parents, std::move(backward));
  return result;
}

}  // namespace

SoftMaps soft_feature_maps(const Netlist& netlist, const GCellGrid& grid,
                           const nn::Var& x, const nn::Var& y,
                           const std::vector<nn::Var>& above) {
  const auto N = static_cast<std::size_t>(netlist.num_cells());
  assert(x->value.numel() == static_cast<std::int64_t>(N));
  assert(y->value.numel() == static_cast<std::int64_t>(N));
  const TierState ts(above, N);
  return with_tier_count(ts.num_tiers(), [&](auto k) {
    return soft_maps_k<decltype(k)::value>(netlist, grid, x, y, above, ts);
  });
}

}  // namespace dco3d
