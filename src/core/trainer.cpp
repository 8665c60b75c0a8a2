#include "core/trainer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <string>

#include "grid/feature_maps.hpp"
#include "nn/ops.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace dco3d {

namespace {

nn::Tensor scaled(const nn::Tensor& t, float s) {
  // clone() (not the aliasing copy ctor) since every element is rewritten.
  nn::Tensor out = t.clone();
  for (float& v : out.data()) v *= s;
  return out;
}

/// Forward one sample and return the Eq. (4) loss node (per-tier feature and
/// label stacks, index 0 = bottom). Features must already be normalized.
nn::Var sample_loss(const nn::SiameseUNet& model,
                    const std::vector<nn::Tensor>& features,
                    const std::vector<nn::Tensor>& labels) {
  std::vector<nn::Var> f;
  f.reserve(features.size());
  for (const nn::Tensor& t : features) f.push_back(nn::make_leaf(t));
  std::vector<nn::Var> preds = model.forward_n(f);
  std::vector<nn::Var> l;
  l.reserve(labels.size());
  for (const nn::Tensor& t : labels) l.push_back(nn::make_leaf(t));
  return nn::siamese_loss_n(preds, l);
}

}  // namespace

nn::Tensor Predictor::normalize_features(const nn::Tensor& f) const {
  assert(f.rank() == 4 && f.dim(1) == kNumFeatureChannels);
  nn::Tensor out = f.clone();
  auto od = out.data();
  const auto hw = static_cast<std::int64_t>(f.dim(2) * f.dim(3));
  for (std::int64_t c = 0; c < kNumFeatureChannels; ++c) {
    const float inv = 1.0f / std::max(feature_scale[c], 1e-9f);
    for (std::int64_t i = 0; i < hw; ++i)
      od[static_cast<std::size_t>(c * hw + i)] *= inv;
  }
  return out;
}

nn::Var Predictor::normalize_features(const nn::Var& f) const {
  assert(f->value.rank() == 4 && f->value.dim(1) == kNumFeatureChannels);
  nn::Tensor scale(f->value.shape());
  auto sd = scale.data();
  const auto hw = static_cast<std::int64_t>(f->value.dim(2) * f->value.dim(3));
  for (std::int64_t c = 0; c < kNumFeatureChannels; ++c) {
    const float inv = 1.0f / std::max(feature_scale[c], 1e-9f);
    for (std::int64_t i = 0; i < hw; ++i)
      sd[static_cast<std::size_t>(c * hw + i)] = inv;
  }
  return nn::mul(f, nn::make_leaf(scale));
}

std::vector<nn::Tensor> Predictor::predict(const DataSample& sample) const {
  std::vector<nn::Var> f;
  f.reserve(sample.features.size());
  for (const nn::Tensor& t : sample.features)
    f.push_back(nn::make_leaf(normalize_features(t)));
  std::vector<nn::Var> preds = model->forward_n(f);
  std::vector<nn::Tensor> out;
  out.reserve(preds.size());
  for (const nn::Var& p : preds) out.push_back(scaled(p->value, label_scale));
  return out;
}

Predictor train_predictor(const std::vector<DataSample>& dataset,
                          const TrainConfig& cfg) {
  Rng rng(cfg.seed);
  Predictor pred;

  // Auto label scale: normalize targets to O(1).
  float lmax = 1e-6f;
  for (const DataSample& s : dataset)
    for (const nn::Tensor& label : s.labels)
      for (std::int64_t i = 0; i < label.numel(); ++i)
        lmax = std::max(lmax, label[i]);
  pred.label_scale = cfg.label_scale > 0.0f ? cfg.label_scale : lmax;
  const float inv_scale = 1.0f / pred.label_scale;

  // Per-channel input scale: the max magnitude of each feature channel over
  // the whole dataset.
  pred.feature_scale = nn::Tensor({kNumFeatureChannels}, 1e-6f);
  for (const DataSample& s : dataset) {
    for (const nn::Tensor& feat : s.features) {
      const auto hw = static_cast<std::int64_t>(feat.dim(2) * feat.dim(3));
      for (std::int64_t c = 0; c < kNumFeatureChannels; ++c)
        for (std::int64_t i = 0; i < hw; ++i)
          pred.feature_scale[c] =
              std::max(pred.feature_scale[c], std::abs(feat[c * hw + i]));
    }
  }

  nn::UNetConfig ucfg = cfg.unet;
  ucfg.in_channels = kNumFeatureChannels;
  ucfg.out_channels = 1;
  pred.model = std::make_shared<nn::SiameseUNet>(ucfg, rng);
  const std::vector<nn::Var> params = pred.model->parameters();
  nn::Adam adam(params, cfg.lr);

  std::vector<const DataSample*> train, test;
  split_dataset(dataset, cfg.test_fraction, train, test);

  // Guardrail state: the last known-good parameter snapshot (initialized to
  // the pre-training weights, refreshed after every clean epoch), the
  // wall-clock deadline, and the bounded LR backoff budget.
  const Deadline deadline(cfg.deadline_ms);
  GuardStats& gs = pred.guard;
  ParamSnapshot good(params);
  FaultInjector& faults = FaultInjector::instance();
  int halvings = 0;

  // Shared recovery for a non-finite loss/gradient/parameter event at one
  // training step. `poisoned` = model parameters may already hold non-finite
  // values (a rollback is mandatory regardless of policy).
  auto recover = [&](int epoch, const char* what, bool poisoned) {
    ++gs.nan_events;
    if (cfg.guard.strict)
      throw StatusError(Status::numerical(
          "train_predictor: non-finite " + std::string(what) + " at epoch " +
          std::to_string(epoch)));
    const bool rollback = poisoned || cfg.guard.nan_policy == NanPolicy::kRollback;
    const bool halve = rollback || cfg.guard.nan_policy == NanPolicy::kHalveLr;
    if (rollback) {
      good.restore(params);
      adam.reset_state();
      ++gs.rollbacks;
    } else {
      ++gs.skipped_steps;
    }
    if (halve && halvings < cfg.guard.max_lr_halvings) {
      adam.set_lr(adam.lr() * 0.5f);
      ++halvings;
      ++gs.lr_halvings;
    }
    log_warn("trainer: non-finite ", what, " at epoch ", epoch,
             rollback ? "; rolled back to last good snapshot" : "; step skipped",
             halve ? " (lr now " : "", halve ? std::to_string(adam.lr()) : "",
             halve ? ")" : "");
  };

  for (int epoch = 0; epoch < cfg.epochs && !gs.deadline_hit; ++epoch) {
    // Shuffle training order each epoch.
    std::vector<const DataSample*> order = train;
    rng.shuffle(order);

    double train_loss = 0.0;
    std::size_t counted = 0;
    for (const DataSample* s : order) {
      if (deadline.expired()) {
        gs.deadline_hit = true;
        log_warn("trainer: deadline (", cfg.deadline_ms,
                 " ms) hit at epoch ", epoch, "; committing model as-is");
        break;
      }
      const auto tiers = s->features.size();
      std::vector<nn::Tensor> feats(tiers), labels(tiers);
      for (std::size_t t = 0; t < tiers; ++t) {
        feats[t] = pred.normalize_features(s->features[t]);
        labels[t] = scaled(s->labels[t], inv_scale);
      }
      if (cfg.augment) {
        // One random dihedral transform per step (the full 8x set is swept
        // across epochs), applied consistently to every tier.
        const int which = static_cast<int>(rng.uniform_int(0, 7));
        for (std::size_t t = 0; t < tiers; ++t) {
          feats[t] = augment_dihedral(feats[t], which);
          labels[t] = augment_dihedral(labels[t], which);
        }
      }
      nn::Var loss = sample_loss(*pred.model, feats, labels);
      faults.maybe_corrupt(FaultSite::kTrainerLoss, loss->value);
      if (!std::isfinite(loss->value[0])) {
        recover(epoch, "loss", /*poisoned=*/false);
        continue;
      }
      train_loss += loss->value[0];
      ++counted;
      adam.zero_grad();
      nn::backward(loss);
      if (faults.should_fire(FaultSite::kTrainerGrad) && !params.empty()) {
        params[0]->ensure_grad();
        params[0]->grad[0] = std::numeric_limits<float>::quiet_NaN();
      }
      if (!adam.step_checked()) {
        recover(epoch, "gradient", /*poisoned=*/false);
        continue;
      }
      if (!params_finite(params))
        recover(epoch, "parameter update", /*poisoned=*/true);
    }
    train_loss /= std::max<std::size_t>(counted, 1);

    double test_loss = 0.0;
    std::size_t test_counted = 0;
    for (const DataSample* s : test) {
      const auto tiers = s->features.size();
      std::vector<nn::Tensor> feats(tiers), labels(tiers);
      for (std::size_t t = 0; t < tiers; ++t) {
        feats[t] = pred.normalize_features(s->features[t]);
        labels[t] = scaled(s->labels[t], inv_scale);
      }
      nn::Var loss = sample_loss(*pred.model, feats, labels);
      if (!std::isfinite(loss->value[0])) continue;
      test_loss += loss->value[0];
      ++test_counted;
    }
    test_loss /= std::max<std::size_t>(test_counted, 1);
    pred.curve.push_back({epoch, train_loss, test_loss});

    // Refresh the rollback point only from a provably clean state.
    if (std::isfinite(train_loss) && std::isfinite(test_loss) &&
        params_finite(params))
      good.capture(params);
  }

  // Never hand back a poisoned model: a final non-finite state (however it
  // slipped past the per-step checks) falls back to the last good snapshot.
  if (!params_finite(params)) {
    good.restore(params);
    ++gs.rollbacks;
    log_warn("trainer: final parameters non-finite; restored last good snapshot");
  }
  return pred;
}

EvalStats evaluate_predictor(const Predictor& predictor,
                             const std::vector<const DataSample*>& samples) {
  EvalStats ev;
  for (const DataSample* s : samples) {
    const std::vector<nn::Tensor> out = predictor.predict(*s);
    for (std::size_t die = 0; die < out.size(); ++die) {
      const auto h = static_cast<std::size_t>(s->labels[die].dim(2));
      const auto w = static_cast<std::size_t>(s->labels[die].dim(3));
      ev.nrmse.push_back(
          static_cast<float>(nrmse(out[die].data(), s->labels[die].data())));
      ev.ssim.push_back(
          static_cast<float>(ssim(out[die].data(), s->labels[die].data(), h, w)));
    }
  }
  ev.frac_nrmse_below_02 = fraction_below(ev.nrmse, 0.2);
  ev.frac_ssim_above_07 = fraction_above(ev.ssim, 0.7);
  ev.frac_ssim_above_08 = fraction_above(ev.ssim, 0.8);
  return ev;
}

}  // namespace dco3d
