#include "core/spreader.hpp"

#include <algorithm>

#include "core/features.hpp"
#include "grid/soft_maps.hpp"
#include "nn/ops.hpp"

namespace dco3d {

GnnSpreader::GnnSpreader(const Netlist& netlist, const Placement3D& initial,
                         const SpreaderConfig& cfg, Rng& rng)
    : netlist_(netlist),
      cfg_(cfg),
      num_tiers_(initial.num_tiers),
      // Output head: (dx, dy) plus K-1 stick logits — 3 columns for the
      // classic two-tier stack, so weight shapes and RNG draws are unchanged.
      gcn_(kGnnFeatureDim, cfg.hidden,
           2 + static_cast<std::int64_t>(initial.num_tiers - 1), rng),
      outline_(initial.outline) {
  adj_ = std::make_shared<const nn::Csr>(nn::normalized_adjacency(
      static_cast<std::int64_t>(netlist.num_cells()), netlist.cell_graph_edges()));

  const auto n = static_cast<std::int64_t>(netlist.num_cells());
  x0_ = nn::Tensor({n});
  y0_ = nn::Tensor({n});
  mask_ = nn::Tensor({n});
  const auto boundaries = static_cast<std::size_t>(num_tiers_ - 1);
  stick_bias_.assign(boundaries, nn::Tensor({n}));
  hard_above_.assign(boundaries, nn::Tensor({n}));
  fixed_above_.assign(boundaries, nn::Tensor({n}));
  for (std::int64_t i = 0; i < n; ++i) {
    const auto ci = static_cast<std::size_t>(i);
    x0_[i] = static_cast<float>(initial.xy[ci].x);
    y0_[i] = static_cast<float>(initial.xy[ci].y);
    const bool movable = netlist.is_movable(static_cast<CellId>(i));
    mask_[i] = movable ? 1.0f : 0.0f;
    const int tier = std::clamp(initial.tier[ci], 0, num_tiers_ - 1);
    for (std::size_t j = 0; j < boundaries; ++j) {
      const bool above = tier > static_cast<int>(j);
      // Bias each stick so the chain starts at the cell's initial tier (the
      // Pin-3D partition) rather than at a uniform split.
      stick_bias_[j][i] = above ? 1.2f : -1.2f;
      hard_above_[j][i] = above ? 1.0f : 0.0f;
      fixed_above_[j][i] = (1.0f - mask_[i]) * hard_above_[j][i];
    }
  }
}

SpreaderOutput GnnSpreader::forward(const nn::Var& features) const {
  nn::Var out = gcn_.forward(adj_, features);  // [N, 3]

  nn::Var mask = nn::make_leaf(mask_);
  nn::Var x0 = nn::make_leaf(x0_);
  nn::Var y0 = nn::make_leaf(y0_);

  const auto max_dx = static_cast<float>(cfg_.max_disp_frac * outline_.width());
  const auto max_dy = static_cast<float>(cfg_.max_disp_frac * outline_.height());

  // dx, dy: bounded by tanh; zeroed on fixed cells via the mask.
  nn::Var dx = nn::mul(nn::mul_scalar(nn::tanh_op(nn::select_column(out, 0)), max_dx), mask);
  nn::Var dy = nn::mul(nn::mul_scalar(nn::tanh_op(nn::select_column(out, 1)), max_dy), mask);

  SpreaderOutput so;
  so.x = nn::add(x0, dx);
  so.y = nn::add(y0, dy);

  const auto boundaries = static_cast<std::size_t>(num_tiers_ - 1);
  so.above.resize(boundaries);
  if (cfg_.freeze_tier) {
    // 2D ablation: every cell keeps its input tier (hard 0/1 survival).
    for (std::size_t j = 0; j < boundaries; ++j)
      so.above[j] = nn::make_leaf(hard_above_[j]);
  } else {
    // Stick-breaking relaxation: s_j = sigmoid(logit_j + bias_j) is the odds
    // of passing boundary j given T >= j, and above_j = prod_{q<=j} s_q; at
    // K = 2, above_0 is the single-sigmoid z. Fixed cells are pinned to
    // their hard values.
    nn::Var survival;
    for (std::size_t j = 0; j < boundaries; ++j) {
      nn::Var s = nn::sigmoid(nn::add(
          nn::select_column(out, 2 + static_cast<std::int64_t>(j)),
          nn::make_leaf(stick_bias_[j])));
      survival = j == 0 ? s : nn::mul(survival, s);
      so.above[j] =
          nn::add(nn::mul(survival, mask), nn::make_leaf(fixed_above_[j]));
    }
  }
  so.z = so.above[0];
  return so;
}

void GnnSpreader::commit(const SpreaderOutput& out, Placement3D& placement) const {
  const auto n = static_cast<std::size_t>(netlist_.num_cells());
  const TierState ts(out.above, n);
  for (std::size_t ci = 0; ci < n; ++ci) {
    const auto id = static_cast<CellId>(ci);
    if (!netlist_.is_movable(id)) continue;
    placement.xy[ci].x = std::clamp(static_cast<double>(out.x->value[static_cast<std::int64_t>(ci)]),
                                    outline_.xlo, outline_.xhi);
    placement.xy[ci].y = std::clamp(static_cast<double>(out.y->value[static_cast<std::int64_t>(ci)]),
                                    outline_.ylo, outline_.yhi);
    // Hard tier assignment: the most probable tier, ties to the higher one
    // (z >= 0.5 -> top die at K = 2, §IV-A).
    double p[kMaxTiers];
    ts.probs(ci, p);
    int best = 0;
    for (int t = 1; t < num_tiers_; ++t)
      if (p[t] >= p[best]) best = t;
    placement.tier[ci] = best;
  }
}

}  // namespace dco3d
