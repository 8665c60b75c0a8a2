// End-to-end integration tests: the full DCO-3D pipeline (dataset -> train
// -> Alg. 2 -> flow) on a small design, checking the paper's headline claim
// (congestion drops without wrecking QoR) and whole-flow determinism.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <thread>

#include <gtest/gtest.h>

#include "core/dco.hpp"
#include "core/guard.hpp"
#include "core/trainer.hpp"
#include "flow/pin3d.hpp"
#include "place/legalize.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "util/status.hpp"

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
  const std::vector<nn::Tensor> out = predictor_->predict(s);
  ASSERT_EQ(out.size(), 2u);
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

/// Untrained predictor with a fixed init: the gradient steps still move
/// cells, and the trial route alone decides what is committed.
Predictor fixed_init_predictor() {
  Predictor pred;
  Rng rng(99);
  pred.model = std::make_shared<nn::SiameseUNet>(nn::UNetConfig{}, rng);
  pred.feature_scale = nn::Tensor({7});
  for (int i = 0; i < 7; ++i) pred.feature_scale[i] = 1.0f;
  return pred;
}

/// Small LDPC with tight router capacities, so every trial route overflows
/// and rip-up-and-reroute runs the maze router on each candidate.
DcoConfig congested_route_config() {
  DcoConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.max_iter = 6;
  cfg.eval_every = 2;
  cfg.restarts = 2;
  cfg.select_by_route = true;
  cfg.router.h_capacity = 3.0;
  cfg.router.v_capacity = 3.0;
  return cfg;
}

Netlist congested_ldpc() {
  DesignSpec spec = spec_for(DesignKind::kLdpc, 0.008);
  spec.seed = 21;
  return generate_design(spec);
}

TEST(DcoContract, CommitNeverRoutesWorseThanInput) {
  const Netlist design = congested_ldpc();
  const Placement3D input =
      place_pseudo3d(design, PlacementParams{}, 5, /*legalized=*/false);
  const Predictor pred = fixed_init_predictor();
  DcoConfig cfg = congested_route_config();
  cfg.restarts = 1;
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

// Restarts and deadlines never commit an unscored candidate. A stalled
// scorer keeps candidates in flight when the deadline expires: the one
// waiting at the hand-off is dropped, and whatever was committed was scored.

/// Arms a fault site for the scope of a test and disarms every site after.
struct ArmedFault {
  ArmedFault(FaultSite site, int step, int count, double param = 0.0) {
    FaultInjector::instance().disarm();
    FaultInjector::instance().arm(site, step, count, param);
  }
  ~ArmedFault() { FaultInjector::instance().disarm(); }
};

/// Threads of this process, or -1 where /proc/self/task is not available.
int process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return -1;
  return static_cast<int>(std::distance(it, std::filesystem::directory_iterator{}));
}

/// Threads of this process once joined threads have left the task list (the
/// kernel may still list one for a moment after join returns), waiting at
/// most a second for the count to fall to `expected`. A thread still running
/// keeps the count above it.
int settled_threads(int expected) {
  int n = process_threads();
  for (int i = 0; i < 100 && n > expected; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = process_threads();
  }
  return n;
}

/// Scored candidates, input first, each one a trial route that ran: the
/// record's length is the number of scorer calls and its minimum is the
/// committed score.
void expect_candidate_record(const DcoResult& r, int scorer_calls) {
  ASSERT_EQ(r.candidates.size(), static_cast<std::size_t>(scorer_calls));
  EXPECT_EQ(r.candidates[0].restart, -1);
  EXPECT_EQ(r.candidates[0].iter, -1);
  EXPECT_EQ(r.candidates[0].score, r.initial_score);
  double lowest = r.candidates[0].score;
  for (const DcoCandidate& c : r.candidates) lowest = std::min(lowest, c.score);
  EXPECT_EQ(lowest, r.best_loss);
}

TEST(DcoContract, DeadlineWithCandidatesInFlightCommitsOnlyScored) {
  testing::ThreadGuard threads;
  const Netlist design = congested_ldpc();
  const Placement3D input =
      place_pseudo3d(design, PlacementParams{}, 5, /*legalized=*/false);
  const Predictor pred = fixed_init_predictor();
  DcoConfig cfg = congested_route_config();
  cfg.seed = 18;
  cfg.max_iter = 400;
  cfg.eval_every = 1;
  cfg.deadline_ms = 1200.0;
  const double input_score = trial_route_score(design, input, cfg);

  for (int n : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << n);
    util::set_num_threads(n);
    // Every scoring takes at least 300 ms, far longer than an iteration, so
    // the optimizer waits at the hand-off when the deadline expires.
    const ArmedFault stall(FaultSite::kDcoScoreStall, 0, 1 << 20, 300.0);
    const DcoResult r = run_dco(design, input, pred, TimingConfig{}, cfg);
    EXPECT_TRUE(r.guard.deadline_hit);
    const double committed = trial_route_score(design, r.placement, cfg);
    EXPECT_EQ(committed, r.best_loss);
    EXPECT_LE(committed, input_score);
    const int scored = FaultInjector::instance().fired(FaultSite::kDcoScoreStall);
    expect_candidate_record(r, scored);
    // Candidates reached the scorer in iteration order, and none came from
    // past the last iteration the optimizer ran.
    for (std::size_t i = 2; i < r.candidates.size(); ++i) {
      const DcoCandidate& a = r.candidates[i - 1];
      const DcoCandidate& b = r.candidates[i];
      EXPECT_TRUE(a.restart < b.restart ||
                  (a.restart == b.restart && a.iter < b.iter));
    }
    // Serially each iteration scores its own candidate before the next
    // deadline check; overlapped, the candidate waiting at the hand-off (or
    // still waiting to be handed off) when the deadline expired was dropped.
    if (n == 1)
      EXPECT_EQ(static_cast<std::size_t>(scored), r.trace.size() + 1);
    else
      EXPECT_LT(static_cast<std::size_t>(scored), r.trace.size() + 1);
  }
}

TEST(DcoContract, StrictFailureDuringTrialRouteStopsBothSides) {
  testing::ThreadGuard threads;
  const Netlist design = congested_ldpc();
  const Placement3D input =
      place_pseudo3d(design, PlacementParams{}, 5, /*legalized=*/false);
  const Predictor pred = fixed_init_predictor();
  DcoConfig cfg = congested_route_config();
  cfg.guard.strict = true;

  util::set_num_threads(4);
  util::parallel_for(0, 4, 1, [](std::int64_t, std::int64_t) {});
  const int before = process_threads();
  {
    // The scorer is still busy with the input's (stalled) trial scoring when
    // the optimizer's second iteration hits a non-finite loss.
    const ArmedFault stall(FaultSite::kDcoScoreStall, 0, 1 << 20, 200.0);
    FaultInjector::instance().arm(FaultSite::kDcoLoss, /*step=*/1);
    try {
      run_dco(design, input, pred, TimingConfig{}, cfg);
      FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kNumericalError);
    }
    EXPECT_EQ(FaultInjector::instance().fired(FaultSite::kDcoLoss), 1);
  }
  EXPECT_LE(settled_threads(before), before);

  {
    // The other direction: the scorer throws on the first candidate after
    // the input, and the optimizer stops at its next hand-off or iteration.
    const ArmedFault fail(FaultSite::kDcoScoreFail, 1, 1);
    try {
      run_dco(design, input, pred, TimingConfig{}, cfg);
      FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kInternal);
    }
  }
  EXPECT_LE(settled_threads(before), before);
}

// The decision record: every trial-scored candidate in scoring order, the
// same at any thread count, one entry per trial route.
TEST(DcoCandidates, RecordListsEveryTrialRouteInScoringOrder) {
  testing::ThreadGuard threads;
  const Netlist design = congested_ldpc();
  const Placement3D input =
      place_pseudo3d(design, PlacementParams{}, 5, /*legalized=*/false);
  const Predictor pred = fixed_init_predictor();
  DcoConfig cfg = congested_route_config();
  cfg.seed = 18;

  std::vector<DcoCandidate> serial;
  for (int n : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << n);
    util::set_num_threads(n);
    const ArmedFault count(FaultSite::kDcoScoreStall, 0, 1 << 20, 0.0);
    const DcoResult r = run_dco(design, input, pred, TimingConfig{}, cfg);
    expect_candidate_record(
        r, FaultInjector::instance().fired(FaultSite::kDcoScoreStall));
    // Input + iterations 0, 2, 4 and the last one (5) of each restart.
    ASSERT_EQ(r.candidates.size(), 9u);
    const int iters[] = {0, 2, 4, 5};
    for (std::size_t i = 1; i < r.candidates.size(); ++i) {
      EXPECT_EQ(r.candidates[i].restart, static_cast<int>((i - 1) / 4));
      EXPECT_EQ(r.candidates[i].iter, iters[(i - 1) % 4]);
    }
    // The committed iterate is the first to reach the best score.
    for (const DcoCandidate& c : r.candidates)
      if (c.score == r.best_loss) {
        EXPECT_EQ(c.iter, r.improved ? r.best_iter : -1);
        break;
      }
    if (serial.empty()) {
      serial = r.candidates;
    } else {
      for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(r.candidates[i].restart, serial[i].restart);
        EXPECT_EQ(r.candidates[i].iter, serial[i].iter);
        EXPECT_EQ(r.candidates[i].score, serial[i].score);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// select_by_route golden: the default candidate scorer (trial CTS + legalize +
// global route of every hard candidate) across restarts, recorded from the
// serial scorer. The committed placement, the iterate it came from and both
// trial-route scores must not depend on the worker-pool size.

// The same contract on a three-tier stack, where the survival-form tier
// relaxation has no two-die special case: thread-invariant decisions, a
// commit that never routes worse than its input, and an untouched input
// when nothing improved. The free runs improve; the frozen run (no tier
// freedom and no displacement, so every candidate is the input up to float
// rounding) cannot.
TEST(DcoContract, ThreeTierCommitIsThreadInvariantAndGated) {
  testing::ThreadGuard guard;
  const Netlist design = congested_ldpc();
  const Placement3D input = place_pseudo3d(design, PlacementParams{}, 5,
                                           /*legalized=*/false, /*tiers=*/3);
  const Predictor pred = fixed_init_predictor();
  const double input_score =
      trial_route_score(design, input, congested_route_config());

  struct Run {
    std::uint64_t seed;
    bool frozen;
  };
  for (const Run run : {Run{17, false}, Run{18, false}, Run{17, true}}) {
    DcoConfig cfg = congested_route_config();
    cfg.restarts = 1;
    cfg.seed = run.seed;
    cfg.spreader.freeze_tier = run.frozen;
    cfg.spreader.max_disp_frac = run.frozen ? 0.0 : cfg.spreader.max_disp_frac;
    std::uint64_t ref_hash = 0;
    int ref_best_iter = 0;
    std::vector<DcoCandidate> ref_candidates;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << run.seed << " frozen="
                                        << run.frozen << " threads=" << threads);
      util::set_num_threads(threads);
      const DcoResult r = run_dco(design, input, pred, TimingConfig{}, cfg);
      ASSERT_EQ(r.placement.num_tiers, 3);
      const std::uint64_t hash = testing::placement_hash(r.placement);
      if (threads > 1) {
        EXPECT_EQ(hash, ref_hash);
        EXPECT_EQ(r.best_iter, ref_best_iter);
        ASSERT_EQ(r.candidates.size(), ref_candidates.size());
        for (std::size_t c = 0; c < ref_candidates.size(); ++c) {
          EXPECT_EQ(r.candidates[c].restart, ref_candidates[c].restart);
          EXPECT_EQ(r.candidates[c].iter, ref_candidates[c].iter);
          EXPECT_EQ(r.candidates[c].score, ref_candidates[c].score);
        }
        continue;
      }
      ref_hash = hash;
      ref_best_iter = r.best_iter;
      ref_candidates = r.candidates;
      EXPECT_EQ(r.initial_score, input_score);
      const double committed = trial_route_score(design, r.placement, cfg);
      EXPECT_LE(committed, input_score);
      EXPECT_EQ(committed, r.best_loss);
      EXPECT_EQ(r.improved, !run.frozen);
      if (r.improved) {
        EXPECT_LT(committed, input_score);
      } else {
        EXPECT_EQ(r.placement.xy, input.xy);
        EXPECT_EQ(r.placement.tier, input.tier);
        EXPECT_EQ(r.cells_moved_tier, 0u);
      }
    }
  }
}

TEST(DcoGolden, SelectByRouteBitIdenticalAcrossThreads) {
  testing::ThreadGuard guard;
  const Netlist design = congested_ldpc();
  const Placement3D input =
      place_pseudo3d(design, PlacementParams{}, 5, /*legalized=*/false);
  const Predictor pred = fixed_init_predictor();
  DcoConfig cfg = congested_route_config();
  cfg.seed = 18;

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    util::set_num_threads(threads);
    const DcoResult r = run_dco(design, input, pred, TimingConfig{}, cfg);
    EXPECT_EQ(testing::placement_hash(r.placement), 0x446e2974e2a58099ull);
    EXPECT_TRUE(r.improved);
    EXPECT_EQ(r.best_iter, 4);
    EXPECT_EQ(r.best_loss, 0x1.bb806738f7c1cp+10);
    EXPECT_EQ(r.initial_score, 0x1.c940681aca87ep+10);
    EXPECT_EQ(r.cells_moved_tier, 6u);
    ASSERT_EQ(r.trace.size(), 12u);
    std::uint64_t th = 1469598103934665603ull;
    for (const DcoIterate& it : r.trace)
      th = testing::fnv1a(th, &it.total, sizeof(double));
    EXPECT_EQ(th, 0x44c45c3deb342235ull);
  }
}

}  // namespace
}  // namespace dco3d
