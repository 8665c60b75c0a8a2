// End-to-end integration tests: the full DCO-3D pipeline (dataset -> train
// -> Alg. 2 -> flow) on a small design, checking the paper's headline claim
// (congestion drops without wrecking QoR) and whole-flow determinism.

#include <gtest/gtest.h>

#include "core/dco.hpp"
#include "core/trainer.hpp"
#include "flow/pin3d.hpp"
#include "place/legalize.hpp"
#include "test_helpers.hpp"
#include "util/stats.hpp"

namespace dco3d {
namespace {

/// Shared expensive fixture: one trained predictor per suite run.
class DcoPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    DesignSpec spec = spec_for(DesignKind::kLdpc, 0.015);
    spec.seed = 21;
    design_ = new Netlist(generate_design(spec));

    // Tight routing capacities so the scaled-down test design actually
    // congests and the labels carry signal.
    RouterConfig tight;
    tight.h_capacity = 4.0;
    tight.v_capacity = 3.5;

    DatasetConfig dcfg;
    dcfg.layouts = 10;
    dcfg.grid_nx = dcfg.grid_ny = 32;
    dcfg.net_h = dcfg.net_w = 32;
    dcfg.router = tight;
    dataset_ = new std::vector<DataSample>(build_dataset(*design_, dcfg));

    TrainConfig tcfg;
    tcfg.epochs = 10;
    tcfg.unet.base_channels = 8;
    tcfg.unet.depth = 2;
    predictor_ = new Predictor(train_predictor(*dataset_, tcfg));

    clock_ps_ = spec.clock_period_ps;
  }
  static void TearDownTestSuite() {
    delete predictor_;
    delete dataset_;
    delete design_;
    predictor_ = nullptr;
    dataset_ = nullptr;
    design_ = nullptr;
  }

  static Netlist* design_;
  static std::vector<DataSample>* dataset_;
  static Predictor* predictor_;
  static double clock_ps_;
};

Netlist* DcoPipeline::design_ = nullptr;
std::vector<DataSample>* DcoPipeline::dataset_ = nullptr;
Predictor* DcoPipeline::predictor_ = nullptr;
double DcoPipeline::clock_ps_ = 200.0;

TEST_F(DcoPipeline, TrainingConverged) {
  ASSERT_FALSE(predictor_->curve.empty());
  // Normalized inputs start training near a good operating point, so the
  // relative drop is modest; require monotone-ish improvement and a healthy
  // final test loss (labels are normalized to [0, 1]).
  EXPECT_LE(predictor_->curve.back().train_loss,
            predictor_->curve.front().train_loss);
  EXPECT_LT(predictor_->curve.back().test_loss, 0.2);
}

TEST_F(DcoPipeline, PredictorBeatsRudyOnHeldOut) {
  // Fig. 5(c): the trained model should correlate with ground truth at least
  // as well as the raw RUDY estimate. (On tiny datasets we only require it
  // to be competitive, not strictly better.)
  std::vector<const DataSample*> train, test;
  split_dataset(*dataset_, 0.2, train, test);
  ASSERT_FALSE(test.empty());
  const DataSample& s = *test[0];
  nn::Tensor out[2];
  predictor_->predict(s, out);
  // RUDY proxy: 2D + 3D RUDY channels of the input features.
  const auto hw = static_cast<std::size_t>(s.features[0].dim(2) *
                                           s.features[0].dim(3));
  double corr_model = 0.0, corr_rudy = 0.0;
  for (int die = 0; die < 2; ++die) {
    std::vector<float> rudy(hw);
    auto f = s.features[die].data();
    for (std::size_t i = 0; i < hw; ++i)
      rudy[i] = f[static_cast<std::size_t>(kRudy2D) * hw + i] +
                f[static_cast<std::size_t>(kRudy3D) * hw + i];
    corr_model += pearson(out[die].data(), s.labels[die].data());
    corr_rudy += pearson(rudy, s.labels[die].data());
  }
  EXPECT_GT(corr_model, corr_rudy - 0.35);
  EXPECT_GT(corr_model, 0.0);
}

TEST_F(DcoPipeline, DcoReducesPredictedAndRoutedCongestion) {
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  cfg.timing.clock_period_ps = clock_ps_;
  cfg.router.h_capacity = 4.0;
  cfg.router.v_capacity = 3.5;
  cfg.seed = 33;

  const FlowResult base = run_pin3d_flow(*design_, cfg);

  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.max_iter = 30;
  dcfg.router = cfg.router;
  const TimingConfig tcfg = cfg.timing;
  DcoResult dco_out;
  const FlowResult ours = run_pin3d_flow(
      *design_, cfg, [&](const Netlist& nl, Placement3D& pl) {
        dco_out = run_dco(nl, pl, *predictor_, tcfg, dcfg);
        pl = dco_out.placement;
      });

  // Alg. 2 must have run and the trial-route gate must hold: the committed
  // result never scores worse than the input...
  ASSERT_GE(dco_out.trace.size(), 2u);
  EXPECT_LE(dco_out.best_loss, dco_out.initial_score + 1e-6);
  // ...and the end-of-flow routed overflow must not regress (the trial
  // gate scores candidates on the post-CTS route, so signoff overflow is
  // the quantity it guards; equality allowed when no candidate wins).
  EXPECT_LT(ours.signoff.overflow, base.signoff.overflow * 1.05);
}

TEST_F(DcoPipeline, DcoKeepsPlacementLegalizable) {
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 32;
  cfg.timing.clock_period_ps = clock_ps_;
  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.max_iter = 10;
  dcfg.router = cfg.router;
  dcfg.restarts = 1;
  const TimingConfig tcfg = cfg.timing;
  const FlowResult ours = run_pin3d_flow(
      *design_, cfg, [&](const Netlist& nl, Placement3D& pl) {
        pl = run_dco(nl, pl, *predictor_, tcfg, dcfg).placement;
      });
  // Flow completed: finite metrics, nonzero wirelength, power present.
  EXPECT_GT(ours.signoff.wirelength_um, 0.0);
  EXPECT_GT(ours.signoff.power_mw, 0.0);
  EXPECT_TRUE(std::isfinite(ours.signoff.tns_ps));
}

TEST_F(DcoPipeline, DcoDeterministic) {
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(*design_, params, 9, false);
  TimingConfig tcfg;
  tcfg.clock_period_ps = clock_ps_;
  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.max_iter = 5;
  dcfg.restarts = 1;
  const DcoResult a = run_dco(*design_, pl, *predictor_, tcfg, dcfg);
  const DcoResult b = run_dco(*design_, pl, *predictor_, tcfg, dcfg);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    EXPECT_DOUBLE_EQ(a.trace[i].total, b.trace[i].total);
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.placement.xy[i].x, b.placement.xy[i].x);
    EXPECT_EQ(a.placement.tier[i], b.placement.tier[i]);
  }
}

TEST_F(DcoPipeline, LossTraceRecordsAllTerms) {
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(*design_, params, 9, false);
  TimingConfig tcfg;
  tcfg.clock_period_ps = clock_ps_;
  DcoConfig dcfg;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.max_iter = 3;
  dcfg.restarts = 1;
  const DcoResult r = run_dco(*design_, pl, *predictor_, tcfg, dcfg);
  ASSERT_GE(r.trace.size(), 1u);
  for (const DcoIterate& it : r.trace) {
    EXPECT_GE(it.cong, 0.0);
    EXPECT_GE(it.ovlp, 0.0);
    EXPECT_GE(it.cut, 0.0);
    EXPECT_GE(it.disp, 0.0);
    EXPECT_NEAR(it.total,
                dcfg.alpha_disp * it.disp + dcfg.beta_ovlp * it.ovlp +
                    dcfg.gamma_cut * it.cut + dcfg.delta_cong * it.cong,
                1e-2 * std::max(1.0, it.total));
  }
}

// ---------------------------------------------------------------------------
// DCO's commit contract, checked from outside run_dco: candidates are gated by
// a trial route (CTS on a netlist copy, legalization, global route), so a
// placement DCO commits must never route worse than its input, and a run that
// reports no improvement must hand the input back untouched.

/// Independent re-score with the same public calls as DCO's trial route.
double trial_route_score(const Netlist& netlist, const Placement3D& pl,
                         const DcoConfig& cfg) {
  Netlist work = netlist;
  Placement3D legal = pl;
  run_cts(work, legal);
  legalize_all(work, legal, cfg.legalize_params);
  const GCellGrid grid(pl.outline, cfg.grid_nx, cfg.grid_ny);
  const RouteResult r = global_route(work, legal, grid, cfg.router);
  return r.total_overflow + 1e-5 * r.wirelength;
}

TEST(DcoContract, CommitNeverRoutesWorseThanInput) {
  DesignSpec spec = spec_for(DesignKind::kLdpc, 0.008);
  spec.seed = 21;
  const Netlist design = generate_design(spec);
  const Placement3D input =
      place_pseudo3d(design, PlacementParams{}, 5, /*legalized=*/false);

  // Untrained predictor with a fixed init: the gradient steps still move
  // cells, and the trial route alone decides what is committed.
  Predictor pred;
  Rng rng(99);
  pred.model = std::make_shared<nn::SiameseUNet>(nn::UNetConfig{}, rng);
  pred.feature_scale = nn::Tensor({7});
  for (int i = 0; i < 7; ++i) pred.feature_scale[i] = 1.0f;

  DcoConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.max_iter = 6;
  cfg.eval_every = 2;
  cfg.restarts = 1;
  cfg.select_by_route = true;
  // Tight capacities: the trial routes overflow, so rip-up-and-reroute runs
  // the maze router on every candidate.
  cfg.router.h_capacity = 3.0;
  cfg.router.v_capacity = 3.0;
  const double input_score = trial_route_score(design, input, cfg);
  ASSERT_GT(input_score, 1.0) << "router must be congested";

  int improved = 0;
  for (std::uint64_t seed : {17, 18, 19, 20}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    cfg.seed = seed;
    const DcoResult r = run_dco(design, input, pred, TimingConfig{}, cfg);
    EXPECT_EQ(r.initial_score, input_score);
    const double committed = trial_route_score(design, r.placement, cfg);
    EXPECT_LE(committed, input_score);
    EXPECT_EQ(committed, r.best_loss);
    if (r.improved) {
      ++improved;
      EXPECT_LT(committed, input_score);
    } else {
      EXPECT_EQ(r.placement.xy, input.xy);
      EXPECT_EQ(r.placement.tier, input.tier);
      EXPECT_EQ(r.cells_moved_tier, 0u);
    }
  }
  // The seeds cover both branches of the contract.
  EXPECT_GT(improved, 0);
  EXPECT_LT(improved, 4);
}

}  // namespace
}  // namespace dco3d
