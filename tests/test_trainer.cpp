// Trainer-specific tests: feature normalization, label scaling, dihedral
// augmentation consistency, and training determinism.

#include <gtest/gtest.h>

#include "core/trainer.hpp"
#include "grid/feature_maps.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

std::vector<DataSample> tiny_dataset(int layouts = 3, int perturbed = 0) {
  const Netlist design = testing::tiny_design(250);
  DatasetConfig cfg;
  cfg.layouts = layouts;
  cfg.perturbed_per_layout = perturbed;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.net_h = cfg.net_w = 16;
  return build_dataset(design, cfg);
}

TrainConfig tiny_train_config(int epochs = 2) {
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  return cfg;
}

TEST(Trainer, FeatureScaleCoversDatasetMax) {
  const auto data = tiny_dataset();
  const Predictor p = train_predictor(data, tiny_train_config(1));
  ASSERT_EQ(p.feature_scale.numel(), kNumFeatureChannels);
  // After normalization every feature value lies in [0, 1].
  for (const DataSample& s : data) {
    for (int die = 0; die < 2; ++die) {
      const nn::Tensor norm = p.normalize_features(s.features[die]);
      for (std::int64_t i = 0; i < norm.numel(); ++i) {
        EXPECT_GE(norm[i], 0.0f);
        EXPECT_LE(norm[i], 1.0f + 1e-5);
      }
    }
  }
}

TEST(Trainer, NormalizeVariantsAgree) {
  const auto data = tiny_dataset();
  const Predictor p = train_predictor(data, tiny_train_config(1));
  // Tensor-path and Var-path normalization must produce identical values.
  const nn::Tensor direct = p.normalize_features(data[0].features[0]);
  const nn::Var graph = p.normalize_features(nn::make_leaf(data[0].features[0]));
  for (std::int64_t i = 0; i < direct.numel(); ++i)
    EXPECT_FLOAT_EQ(graph->value[i], direct[i]);
}

TEST(Trainer, DeterministicForSeed) {
  const auto data = tiny_dataset();
  const Predictor a = train_predictor(data, tiny_train_config(2));
  const Predictor b = train_predictor(data, tiny_train_config(2));
  const std::vector<nn::Tensor> out_a = a.predict(data[0]);
  const std::vector<nn::Tensor> out_b = b.predict(data[0]);
  ASSERT_EQ(out_a.size(), 2u);
  ASSERT_EQ(out_b.size(), 2u);
  for (std::int64_t i = 0; i < out_a[0].numel(); ++i)
    EXPECT_FLOAT_EQ(out_a[0][i], out_b[0][i]);
}

TEST(Trainer, DifferentSeedsDifferentModels) {
  const auto data = tiny_dataset();
  TrainConfig c1 = tiny_train_config(1), c2 = tiny_train_config(1);
  c2.seed = c1.seed + 1;
  const Predictor a = train_predictor(data, c1);
  const Predictor b = train_predictor(data, c2);
  const std::vector<nn::Tensor> out_a = a.predict(data[0]);
  const std::vector<nn::Tensor> out_b = b.predict(data[0]);
  ASSERT_EQ(out_a.size(), 2u);
  ASSERT_EQ(out_b.size(), 2u);
  double diff = 0.0;
  for (std::int64_t i = 0; i < out_a[0].numel(); ++i)
    diff += std::abs(out_a[0][i] - out_b[0][i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Trainer, AugmentationOffStillTrains) {
  const auto data = tiny_dataset();
  TrainConfig cfg = tiny_train_config(2);
  cfg.augment = false;
  const Predictor p = train_predictor(data, cfg);
  EXPECT_EQ(p.curve.size(), 2u);
  EXPECT_TRUE(std::isfinite(p.curve.back().train_loss));
}

TEST(Trainer, LabelScalePositiveAndApplied) {
  const auto data = tiny_dataset();
  const Predictor p = train_predictor(data, tiny_train_config(1));
  EXPECT_GT(p.label_scale, 0.0f);
  // Predictions come back in label units: same order of magnitude as labels.
  const std::vector<nn::Tensor> out = p.predict(data[0]);
  ASSERT_EQ(out.size(), 2u);
  float label_max = 0.0f, pred_max = 0.0f;
  for (const DataSample& s : data)
    for (int die = 0; die < 2; ++die)
      for (std::int64_t i = 0; i < s.labels[die].numel(); ++i)
        label_max = std::max(label_max, s.labels[die][i]);
  for (int die = 0; die < 2; ++die)
    for (std::int64_t i = 0; i < out[die].numel(); ++i)
      pred_max = std::max(pred_max, out[die][i]);
  if (label_max > 0.0f) {
    EXPECT_LT(pred_max, label_max * 10.0f);
  }
}

TEST(Trainer, EvaluateHandlesEmptySampleList) {
  const auto data = tiny_dataset();
  const Predictor p = train_predictor(data, tiny_train_config(1));
  const EvalStats ev = evaluate_predictor(p, {});
  EXPECT_TRUE(ev.nrmse.empty());
  EXPECT_EQ(ev.frac_nrmse_below_02, 0.0);
}

TEST(Augment, FeatureLabelConsistency) {
  // Applying the same dihedral transform to features and labels preserves
  // their spatial correspondence: transform-then-compare equals
  // compare-then-transform for the per-pixel difference map.
  const auto data = tiny_dataset(1);
  const DataSample& s = data[0];
  for (int which = 0; which < 8; ++which) {
    const nn::Tensor f = augment_dihedral(s.features[0], which);
    const nn::Tensor l = augment_dihedral(s.labels[0], which);
    // Check one channel of f against the untransformed pair through the
    // inverse mapping: total mass of both must be preserved.
    double fm0 = 0.0, fm1 = 0.0, lm0 = 0.0, lm1 = 0.0;
    for (std::int64_t i = 0; i < s.features[0].numel(); ++i) {
      fm0 += s.features[0][i];
      fm1 += f[i];
    }
    for (std::int64_t i = 0; i < s.labels[0].numel(); ++i) {
      lm0 += s.labels[0][i];
      lm1 += l[i];
    }
    EXPECT_NEAR(fm0, fm1, 1e-2 * std::max(1.0, fm0));
    EXPECT_NEAR(lm0, lm1, 1e-3 * std::max(1.0, lm0));
  }
}

}  // namespace
}  // namespace dco3d
