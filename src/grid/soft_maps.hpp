#pragma once
// Differentiable ("soft") feature-map generation for the DCO loop (§IV-A).
//
// A soft tier state is the survival form of a K-tier stack: K-1 per-cell
// vectors above[j][i] = P(T_i > j), j = 0..K-2, non-increasing in j (the
// stick-breaking chain of GnnSpreader). Each op derives the tier
// probabilities in double,
//   p_0 = 1 - above[0],  p_t = above[t-1] - above[t],  p_{K-1} = above[K-2],
// so the gradient into above[j] is d/dp_{j+1} - d/dp_j. The classic two-die
// stack is K = 2 with above[0] = z, the probability of the TOP die: p_0 =
// 1 - z (bottom), p_1 = z (top), and the gradient into z is (top - bottom).
//
// Given per-cell positions x, y and the survival vectors, produces the
// 7-channel feature stacks of every tier as one autograd node, so the
// congestion loss can be backpropagated through the Siamese UNet into cell
// coordinates (Eq. 5).
//
// Tier softness follows the paper: a net's 2D contribution on tier t is
// weighted by prod_pins p_t; its 3D contribution (weight 1 - sum_t prod_pins
// p_t, at K = 2 the paper's 1 - prod z - prod (1-z)) is spread as w3d/K per
// tier.
//
// The backward implements the custom subgradients of Eq. (6):
//  * RUDY channels propagate gradients to x/y through the net bounding box —
//    only the cells holding the extreme (argmin/argmax) pins receive a
//    position gradient (the Kronecker delta_ih - delta_il term) — and to the
//    tier state through the tier-weight products.
//  * Pin-level and density channels propagate gradients to the tier state
//    only; their position dependence is a step function of the containing
//    tile, whose subgradient we take as zero (cell spreading in x/y is driven
//    by the RUDY channels and the overlap loss, as in the paper).
//  * Where a bbox dimension is clamped below by the tile size, the clamp's
//    subgradient zeroes that axis' position gradient.
//
// Every K-general expression sums over tiers in the order that makes K = 2
// execute the original two-die float operations (top tier first where the
// two-die form wrote top before bottom), so K = 2 results are unchanged.

#include <algorithm>
#include <span>
#include <vector>

#include "grid/feature_maps.hpp"
#include "grid/gcell_grid.hpp"
#include "netlist/netlist.hpp"
#include "nn/autograd.hpp"
#include "nn/ops.hpp"

namespace dco3d {

/// Result of soft map generation: a single [1, K*7, H, W] node (channels
/// t*7 .. t*7+6 = tier t, bottom first) plus convenience slices. The classic
/// two-die stack is K = 2 ([1, 14, H, W], channels 0..6 bottom, 7..13 top).
struct SoftMaps {
  nn::Var stacked;
  int num_tiers = 2;

  nn::Var tier(int t) const {
    return nn::slice_channels(stacked, t * kNumFeatureChannels,
                              (t + 1) * kNumFeatureChannels);
  }
  nn::Var bottom() const { return tier(0); }
  nn::Var top() const { return tier(num_tiers - 1); }
};

/// Read-only view of a survival-form tier state (K - 1 vectors). Throws
/// kInvalidArgument unless 2 <= K <= kMaxTiers and every vector holds `n`
/// entries.
class TierState {
 public:
  TierState(std::span<const nn::Var> above, std::size_t n);

  int num_tiers() const { return K_; }
  std::size_t size() const { return n_; }
  /// above[j][i] clamped to [0, 1], in double.
  double above(int j, std::size_t i) const {
    return std::clamp(static_cast<double>(a_[j][i]), 0.0, 1.0);
  }
  /// Tier probabilities p[0..K-1] of cell i (see the header comment).
  /// kTiers, when nonzero, is K as a compile-time constant.
  template <int kTiers = 0>
  void probs(std::size_t i, double* p) const {
    const int K = kTiers != 0 ? kTiers : K_;
    double prev = 1.0;
    for (int j = 0; j + 1 < K; ++j) {
      const double a = above(j, i);
      p[j] = prev - a;
      prev = a;
    }
    p[K - 1] = prev;
  }

 private:
  int K_ = 2;
  std::size_t n_ = 0;
  std::span<const float> a_[kMaxTiers - 1];
};

/// Build soft feature maps. x, y are [N] vectors over all cells (N =
/// netlist.num_cells()); `above` holds the K-1 survival vectors. Fixed cells
/// should carry their hard coordinates and hard 0/1 survival values.
/// Gradients flow into whichever of x, y and above[j] require grad.
SoftMaps soft_feature_maps(const Netlist& netlist, const GCellGrid& grid,
                           const nn::Var& x, const nn::Var& y,
                           const std::vector<nn::Var>& above);

/// Two-die form: z = above[0], the soft top-die probability.
inline SoftMaps soft_feature_maps(const Netlist& netlist, const GCellGrid& grid,
                                  const nn::Var& x, const nn::Var& y,
                                  const nn::Var& z) {
  return soft_feature_maps(netlist, grid, x, y, std::vector<nn::Var>{z});
}

}  // namespace dco3d
