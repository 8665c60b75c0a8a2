#pragma once
// DCO-3D: Differentiable Congestion Optimization (Algorithm 2).
//
// Starting from a Pin-3D 3D global placement, a GNN spreader proposes
// refined (x, y, z) per cell; soft feature maps of both dies are built from
// the proposal and pushed through a frozen, pre-trained Siamese UNet to
// predict post-route congestion. The total loss
//   L = alpha * L_disp + beta * L_ovlp + gamma * L_cut + delta * L_cong
// is backpropagated (through the custom Eq. (6) map gradients) into the GNN
// weights and minimized with Adam. The best iterate is committed with hard
// tier assignment z >= 0.5.

#include <vector>

#include "core/guard.hpp"
#include "core/spreader.hpp"
#include "place/params.hpp"
#include "route/router.hpp"
#include "core/trainer.hpp"
#include "grid/gcell_grid.hpp"
#include "netlist/netlist.hpp"
#include "nn/unet.hpp"
#include "timing/sta.hpp"

namespace dco3d {

struct DcoConfig {
  int max_iter = 80;
  float lr = 1.2e-2f;
  // Loss weights of Algorithm 2, tuned on the LDPC benchmark (see
  // bench_table3_main): displacement keeps the optimizer near the Pin-3D
  // placement (preserving QoR), a light overlap term guards density, the
  // cutsize term regularizes cross-die moves, and the congestion term
  // (through the frozen predictor) drives the actual optimization. The
  // exploration can afford to be aggressive because candidate commitment is
  // gated by trial routing (select_by_route below).
  float alpha_disp = 2.0f;
  float beta_ovlp = 0.5f;
  float gamma_cut = 1.5f;
  float delta_cong = 10.0f;
  SpreaderConfig spreader;
  // Map resolution; must match the predictor's input H/W.
  int grid_nx = 64;
  int grid_ny = 64;
  double overlap_target_util = 0.75;
  int overlap_bins = 24;
  // Optional thermal-density channel (any tier count): weight of the
  // depth-weighted power-density penalty. 0 disables it (the default, which
  // keeps the paper's loss composition).
  float epsilon_thermal = 0.0f;
  double convergence_eps = 1e-4;  // stop when the loss plateaus
  int patience = 50;
  // Candidate-evaluation cadence: every eval_every iterations the current
  // hard assignment is scored (see run_dco); the best-scoring candidate
  // (including the untouched input) is committed.
  int eval_every = 5;
  // Independent GNN re-initializations; the best candidate across all
  // restarts is committed (trial-route gated, so restarts only add upside).
  int restarts = 2;
  // Candidate scoring. The gradient steps follow the paper exactly (losses
  // through the frozen predictor); which iterate to COMMIT is decided by a
  // trial global route of the hard assignment when select_by_route is true
  // (cheap in a global-routing flow, and immune to the adversarial drift a
  // learned proxy is subject to), falling back to the predictor's score on
  // hard feature maps otherwise.
  bool select_by_route = true;
  RouterConfig router;             // used when select_by_route
  PlacementParams legalize_params; // legalization before the trial route
  std::uint64_t seed = 17;
  // Wall-clock budget for the whole call (all restarts); 0 = unlimited. On
  // expiry the best candidate committed so far (at minimum the input
  // placement) is returned. The budget is checked before each iteration;
  // when scoring overlaps the iterations, a handed-off candidate whose
  // scoring has not started is dropped unscored, so only a trial route
  // already running overshoots it (docs/robustness.md).
  double deadline_ms = 0.0;
  // Non-finite recovery (docs/robustness.md): a diverged iterate never
  // touches the committed candidate; depending on policy the step is
  // skipped, the spreader is rolled back with a halved LR, or — once the
  // backoff budget is spent — the offending restart is re-initialized with
  // fresh weights (bounded by guard.max_reseeds).
  GuardConfig guard;
};

struct DcoIterate {
  int iter = 0;
  double total = 0.0, disp = 0.0, ovlp = 0.0, cut = 0.0, cong = 0.0;
  double therm = 0.0;  // thermal-density term (0 unless epsilon_thermal > 0)
};

/// One scored candidate: the decision record of Alg. 2's commit gate.
struct DcoCandidate {
  int restart = -1;  // -1 for the input placement
  int iter = -1;     // -1 for the input placement
  double score = 0.0;
};

struct DcoResult {
  Placement3D placement;            // optimized 3D placement (hard tiers)
  std::vector<DcoIterate> trace;    // per-iteration losses
  std::vector<DcoCandidate> candidates;  // every scored candidate, in scoring
                                         // order; the input first
  int best_iter = 0;                // iteration of the committed candidate
  double best_loss = 0.0;           // score of the committed result
  double initial_score = 0.0;       // score of the input placement
  bool improved = false;            // false = input returned unchanged
  std::size_t cells_moved_tier = 0; // cells whose tier changed vs input
  GuardStats guard;                 // recovery events during the run
};

/// Run Algorithm 2. `predictor` is the trained congestion predictor (frozen:
/// its parameters receive no updates, only gradients flow *through* it; its
/// feature normalization is applied to the soft maps). `timing_cfg` supplies
/// the Table-II node features.
///
/// With more than one worker thread (and outside a parallel region or
/// inline lane) the gradient loop runs on a helper thread that drives the
/// pool, while the calling thread scores candidates in hand-off order; the
/// result is bit-identical to the serial run (docs/performance.md).
DcoResult run_dco(const Netlist& netlist, const Placement3D& initial,
                  const Predictor& predictor, const TimingConfig& timing_cfg,
                  const DcoConfig& cfg);

}  // namespace dco3d
