#pragma once
// GNN-based 3D cell spreader (§IV-A): three shared-weight GCN layers over
// the netlist graph predict, per cell, a bounded (dx, dy) refinement of the
// 2D position and a soft tier state in survival form: K-1 stick logits give
// above[j] = P(T > j) through a stick-breaking chain (grid/soft_maps.hpp).
// At K = 2 this is the paper's single soft z in [0, 1], the probability of
// the top die. Optimizing the GNN's weights instead of raw per-cell
// coordinates keeps the parameter count independent of design size and lets
// connected cells move coherently.

#include <memory>

#include "netlist/netlist.hpp"
#include "nn/gcn.hpp"

namespace dco3d {

struct SpreaderConfig {
  std::int64_t hidden = 32;
  double max_disp_frac = 0.12;  // max |dx| as a fraction of die width
  // Ablation switch: freeze tier assignments at their input values, reducing
  // DCO to 2D spreading (used by bench_ablation_z to quantify the paper's
  // z-dimension contribution).
  bool freeze_tier = false;
};

/// Decoded spreader output: differentiable coordinate vectors over all cells.
/// Fixed cells (IOs, macros) are pinned to their original position and hard
/// tier via masking, so no gradient moves them.
struct SpreaderOutput {
  nn::Var x;  // [N] absolute x
  nn::Var y;  // [N] absolute y
  // K-1 survival vectors above[j][i] = P(cell i on a tier > j).
  std::vector<nn::Var> above;
  nn::Var z;  // = above[0]: the soft top-die probability at K = 2
};

class GnnSpreader {
 public:
  GnnSpreader(const Netlist& netlist, const Placement3D& initial,
              const SpreaderConfig& cfg, Rng& rng);

  /// Forward pass: GNN over (adjacency, features) -> decoded coordinates.
  SpreaderOutput forward(const nn::Var& features) const;

  std::vector<nn::Var> parameters() const { return gcn_.parameters(); }
  const std::shared_ptr<const nn::Csr>& adjacency() const { return adj_; }

  /// Write the hard assignment (the most probable tier, ties to the higher
  /// tier: z >= 0.5 -> top die at K = 2) of an output back into a placement,
  /// clamping positions into the outline.
  void commit(const SpreaderOutput& out, Placement3D& placement) const;

  int num_tiers() const { return num_tiers_; }

 private:
  const Netlist& netlist_;
  SpreaderConfig cfg_;
  int num_tiers_ = 2;
  nn::GcnStack gcn_;
  std::shared_ptr<const nn::Csr> adj_;
  nn::Tensor x0_, y0_;      // initial positions
  nn::Tensor mask_;         // 1 for movable cells
  // Per boundary j (K-1 each): +/- stick logit bias toward the initial tier,
  // the hard survival value [tier > j] of every cell, and its (1 - mask)
  // share that pins fixed cells.
  std::vector<nn::Tensor> stick_bias_;
  std::vector<nn::Tensor> hard_above_;
  std::vector<nn::Tensor> fixed_above_;
  Rect outline_;
};

}  // namespace dco3d
