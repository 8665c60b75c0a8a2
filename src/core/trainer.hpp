#pragma once
// Training loop for the Siamese congestion predictor (Algorithm 1) plus the
// Fig. 5 evaluation metrics (NRMSE / SSIM over a held-out test split).

#include <memory>
#include <vector>

#include "core/guard.hpp"
#include "flow/dataset.hpp"
#include "nn/optimizer.hpp"
#include "nn/unet.hpp"
#include "util/rng.hpp"

namespace dco3d {

struct TrainConfig {
  int epochs = 12;
  float lr = 2e-3f;
  bool augment = true;        // 8x dihedral augmentation (§III-B3)
  double test_fraction = 0.2; // §V-A holds out 20%
  nn::UNetConfig unet;        // in_channels fixed to 7 by the data
  std::uint64_t seed = 23;
  // Normalization: labels are divided by this scale before training so the
  // regression target is O(1); predictions are scaled back for metrics.
  float label_scale = 0.0f;   // 0 = auto (set to the max label value)
  // Wall-clock budget for the whole training run; 0 = unlimited. On expiry
  // training stops gracefully and returns the model trained so far (rolled
  // back to the last finite state if the current one is poisoned).
  double deadline_ms = 0.0;
  // Non-finite recovery policy (docs/robustness.md). Snapshots are taken at
  // the end of every epoch that finished with finite losses and parameters.
  GuardConfig guard;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double test_loss = 0.0;
};

struct EvalStats {
  std::vector<float> nrmse;  // one entry per test map (every tier)
  std::vector<float> ssim;
  double frac_nrmse_below_02 = 0.0;
  double frac_ssim_above_07 = 0.0;
  double frac_ssim_above_08 = 0.0;
};

struct Predictor {
  std::shared_ptr<nn::SiameseUNet> model;
  float label_scale = 1.0f;
  /// Per-channel input normalization (divide channel c by feature_scale[c]).
  /// The raw feature maps have wildly different magnitudes (pin density is
  /// O(100), macro blockage O(1)); training and every inference path —
  /// including the differentiable soft maps inside the DCO loop — must apply
  /// the same scaling.
  nn::Tensor feature_scale;  // [7]
  std::vector<EpochStats> curve;  // Fig. 5(a)
  /// Guardrail events of the training run that produced this predictor
  /// (all-zero for checkpoints loaded from disk).
  GuardStats guard;

  /// Predict congestion maps (label scale restored) for a sample's features,
  /// one map per tier (index 0 = bottom).
  std::vector<nn::Tensor> predict(const DataSample& sample) const;

  /// Normalize a raw [1,7,H,W] feature tensor (copy).
  nn::Tensor normalize_features(const nn::Tensor& f) const;
  /// Differentiable normalization of a [1,7,H,W] feature node.
  nn::Var normalize_features(const nn::Var& f) const;
};

/// Train on the given dataset (Alg. 1). Deterministic in cfg.seed.
Predictor train_predictor(const std::vector<DataSample>& dataset,
                          const TrainConfig& cfg);

/// Fig. 5(b) metrics on a set of samples.
EvalStats evaluate_predictor(const Predictor& predictor,
                             const std::vector<const DataSample*>& samples);

}  // namespace dco3d
