#pragma once
// The differentiable loss functions of §IV:
//   * displacement loss (Eq. 11) — keep cells near their optimized 2D spots,
//   * cutsize loss (Eq. 7) — normalized expected cut under the soft tiers,
//   * overlap loss (Eq. 8-10) — bell-shaped smoothed density,
//   * congestion loss — RMS of the Siamese UNet's predicted congestion.

#include <memory>
#include <vector>

#include "core/trainer.hpp"
#include "grid/soft_maps.hpp"
#include "netlist/netlist.hpp"
#include "nn/autograd.hpp"
#include "nn/unet.hpp"

namespace dco3d {

/// Displacement loss (Eq. 11): sum_i (x_i - x_i^o)^2 + (y_i - y_i^o)^2,
/// normalized by cell count and die dimensions so weights are scale-free.
nn::Var displacement_loss(const nn::Var& x, const nn::Var& y,
                          const nn::Tensor& x0, const nn::Tensor& y0,
                          const Rect& outline);

// The tier-relaxed losses take a soft tier state in survival form: K-1
// vectors above[j][i] = P(T_i > j) (grid/soft_maps.hpp), with the tier
// probabilities p_t derived in double inside each op. The classic two-die
// stack is K = 2 with above = {z}, z the soft top-die probability; the
// single-z overloads forward to that case.

/// Soft cutsize loss (Eq. 7) over the cell graph: the expected inter-tier
/// cut normalized by the expected per-tier connectivity,
///   L = sum_t cut/deg(t),   deg(t) = sum_u deg_u p_t(u),
/// where an edge (u, v) crosses boundary j with probability
/// G_u(1-G_v) + G_v(1-G_u), G = above[j] — so cut is the expected tier
/// distance E|T_u - T_v| and a move across two boundaries costs two via
/// stacks. At K = 2: cut = sum_(u,v) [z_u(1-z_v) + z_v(1-z_u)] and L =
/// cut/deg(T) + cut/deg(B). A custom autograd node with analytic gradients.
nn::Var cutsize_loss(const std::vector<nn::Var>& above,
                     std::shared_ptr<const std::vector<std::pair<std::int64_t, std::int64_t>>> edges);
inline nn::Var cutsize_loss(
    const nn::Var& z,
    std::shared_ptr<const std::vector<std::pair<std::int64_t, std::int64_t>>> edges) {
  return cutsize_loss(std::vector<nn::Var>{z}, std::move(edges));
}

/// Overlap (density) loss, Eq. (8)-(10): per-tier bin densities accumulated
/// through the bell-shaped potentials p_x p_y with the paper's a, b
/// smoothing constants, each cell weighted by its tier probabilities; the
/// penalty is the mean squared excess over `target_util` across all K * bins
/// bins. Differentiable in x, y (through the potentials) and the tier state.
nn::Var overlap_loss(const Netlist& netlist, const nn::Var& x, const nn::Var& y,
                     const std::vector<nn::Var>& above, const Rect& outline,
                     int bins_x, int bins_y, double target_util);
inline nn::Var overlap_loss(const Netlist& netlist, const nn::Var& x,
                            const nn::Var& y, const nn::Var& z,
                            const Rect& outline, int bins_x, int bins_y,
                            double target_util) {
  return overlap_loss(netlist, x, y, std::vector<nn::Var>{z}, outline, bins_x,
                      bins_y, target_util);
}

/// Thermal-density loss (optional channel for stacked dies): per-cell power
/// is scattered through the same bell potentials as the overlap loss, each
/// cell weighted by its expected tier depth E[T+1]/K = (1 + sum_j above_j)/K
/// — tiers farther from the tier-0 heat sink count more. The penalty is the
/// mean squared depth-weighted power density, so gradient descent both
/// spreads hot cells laterally and pulls them toward the heat sink.
/// Differentiable in x, y and the tier state. `cell_power` is a [N] tensor
/// of per-cell power (mW).
nn::Var thermal_density_loss(const Netlist& netlist, const nn::Var& x,
                             const nn::Var& y, const std::vector<nn::Var>& above,
                             const nn::Tensor& cell_power, const Rect& outline,
                             int bins_x, int bins_y);

/// Congestion loss: Eq. (4) against an all-zero target — the RMS of the
/// predicted post-route congestion of every tier, backpropagated through the
/// frozen Siamese UNet and the soft feature maps (Eq. 5/6 chain), one
/// prediction per tier through the N-way forward.
nn::Var congestion_loss(const nn::SiameseUNet& model, const SoftMaps& maps);

/// Same, but routed through a trained Predictor so the soft maps receive the
/// per-channel input normalization the model was trained with.
nn::Var congestion_loss(const Predictor& predictor, const SoftMaps& maps);

/// The bell-shaped 1D potential of Eq. (8) with smoothing constants of
/// Eq. (9); exposed for unit tests. `d` is the center-to-center distance,
/// `wb` the block (cell) width, `wv` the bin width.
double bell_potential(double d, double wb, double wv);
/// Its derivative with respect to d.
double bell_potential_grad(double d, double wb, double wv);

}  // namespace dco3d
