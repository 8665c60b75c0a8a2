// Run-guardrail tests: the Status taxonomy, non-finite detection and
// recovery policies in the trainer and the DCO loop (driven deterministically
// by the FaultInjector), wall-clock deadlines with graceful early commit,
// and crash-safe checkpointing. Every fault scenario asserts that the run
// still completes with a usable, finite result.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <limits>
#include <sstream>
#include <thread>

#include "core/dco.hpp"
#include "core/guard.hpp"
#include "core/trainer.hpp"
#include "io/design_io.hpp"
#include "io/model_io.hpp"
#include "place/placer3d.hpp"
#include "test_helpers.hpp"
#include "util/status.hpp"

namespace dco3d {
namespace {

using testing::tiny_design;

// The injector is global state: every test in this file runs disarmed at
// entry and exit, even when an assertion throws mid-test.
class GuardTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm(); }
  void TearDown() override { FaultInjector::instance().disarm(); }
};

// ---------------------------------------------------------------------------
// Status / primitives.

TEST(Status, CodesNamesAndExitCodes) {
  EXPECT_STREQ(status_code_name(StatusCode::kDataLoss), "data_loss");
  EXPECT_STREQ(status_code_name(StatusCode::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_EQ(status_exit_code(StatusCode::kOk), 0);
  EXPECT_EQ(status_exit_code(StatusCode::kInvalidArgument), 2);
  EXPECT_EQ(status_exit_code(StatusCode::kNotFound), 3);
  EXPECT_EQ(status_exit_code(StatusCode::kDataLoss), 4);
  EXPECT_EQ(status_exit_code(StatusCode::kNumericalError), 6);
  EXPECT_EQ(status_exit_code(StatusCode::kDeadlineExceeded), 7);
}

TEST(Status, ThrowIfErrorCarriesStatus) {
  Status().throw_if_error();  // OK status: no-op
  const Status bad = Status::data_loss("truncated thing");
  try {
    bad.throw_if_error();
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(std::string(e.what()).find("truncated thing"), std::string::npos);
  }
  // StatusError stays catchable as std::runtime_error (compat).
  EXPECT_THROW(bad.throw_if_error(), std::runtime_error);
}

TEST(Guard, AllFiniteDetectsNanAndInf) {
  nn::Tensor t({4}, {1.0f, -2.0f, 0.0f, 3.0f});
  EXPECT_TRUE(all_finite(t));
  t[2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(all_finite(t));
  t[2] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(all_finite(t));
}

TEST(Guard, DeadlineExpiresAndUnlimitedNever) {
  const Deadline unlimited(0.0);
  EXPECT_TRUE(unlimited.unlimited());
  EXPECT_FALSE(unlimited.expired());
  const Deadline tight(1.0);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(tight.expired());
  EXPECT_GE(tight.elapsed_ms(), 1.0);
}

TEST(Guard, ParamSnapshotRoundTrip) {
  std::vector<nn::Var> params = {
      nn::make_leaf(nn::Tensor({3}, {1.0f, 2.0f, 3.0f}), true),
      nn::make_leaf(nn::Tensor({2}, {4.0f, 5.0f}), true)};
  const ParamSnapshot snap(params);
  params[0]->value[1] = std::numeric_limits<float>::quiet_NaN();
  params[1]->value[0] = -99.0f;
  snap.restore(params);
  EXPECT_FLOAT_EQ(params[0]->value[1], 2.0f);
  EXPECT_FLOAT_EQ(params[1]->value[0], 4.0f);
}

TEST_F(GuardTest, FaultInjectorFiresDeterministically) {
  FaultInjector& fi = FaultInjector::instance();
  EXPECT_FALSE(fi.should_fire(FaultSite::kDcoLoss));  // disarmed
  fi.arm(FaultSite::kDcoLoss, /*step=*/2, /*count=*/2);
  EXPECT_FALSE(fi.should_fire(FaultSite::kDcoLoss));  // consult 0
  EXPECT_FALSE(fi.should_fire(FaultSite::kDcoLoss));  // consult 1
  EXPECT_TRUE(fi.should_fire(FaultSite::kDcoLoss));   // consult 2: fires
  EXPECT_TRUE(fi.should_fire(FaultSite::kDcoLoss));   // consult 3: fires
  EXPECT_FALSE(fi.should_fire(FaultSite::kDcoLoss));  // count exhausted
  EXPECT_EQ(fi.fired(FaultSite::kDcoLoss), 2);
  // Arming one site leaves the others inert.
  EXPECT_FALSE(fi.should_fire(FaultSite::kTrainerLoss));
  fi.disarm();
  EXPECT_FALSE(fi.should_fire(FaultSite::kDcoLoss));
}

// ---------------------------------------------------------------------------
// Trainer recovery.

std::vector<DataSample> tiny_dataset(int layouts = 3) {
  const Netlist design = tiny_design(250);
  DatasetConfig cfg;
  cfg.layouts = layouts;
  cfg.perturbed_per_layout = 0;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.net_h = cfg.net_w = 16;
  return build_dataset(design, cfg);
}

TrainConfig tiny_train_config(int epochs = 3) {
  TrainConfig cfg;
  cfg.epochs = epochs;
  cfg.unet.base_channels = 4;
  cfg.unet.depth = 2;
  return cfg;
}

void expect_finite_run(const Predictor& p, int epochs) {
  ASSERT_EQ(p.curve.size(), static_cast<std::size_t>(epochs));
  for (const EpochStats& e : p.curve) {
    EXPECT_TRUE(std::isfinite(e.train_loss)) << "epoch " << e.epoch;
    EXPECT_TRUE(std::isfinite(e.test_loss)) << "epoch " << e.epoch;
  }
  ASSERT_TRUE(p.model);
  EXPECT_TRUE(params_finite(p.model->parameters()));
}

TEST_F(GuardTest, TrainerRecoversFromNanLossSkipPolicy) {
  const auto data = tiny_dataset();
  TrainConfig cfg = tiny_train_config(3);
  cfg.guard.nan_policy = NanPolicy::kSkip;
  FaultInjector::instance().arm(FaultSite::kTrainerLoss, /*step=*/1);
  const Predictor p = train_predictor(data, cfg);
  EXPECT_EQ(FaultInjector::instance().fired(FaultSite::kTrainerLoss), 1);
  expect_finite_run(p, 3);
  EXPECT_GE(p.guard.nan_events, 1);
  EXPECT_GE(p.guard.skipped_steps, 1);
  EXPECT_EQ(p.guard.lr_halvings, 0);
}

TEST_F(GuardTest, TrainerRecoversFromNanGradHalveLrPolicy) {
  const auto data = tiny_dataset();
  TrainConfig cfg = tiny_train_config(3);
  cfg.guard.nan_policy = NanPolicy::kHalveLr;
  FaultInjector::instance().arm(FaultSite::kTrainerGrad, /*step=*/1);
  const Predictor p = train_predictor(data, cfg);
  EXPECT_EQ(FaultInjector::instance().fired(FaultSite::kTrainerGrad), 1);
  expect_finite_run(p, 3);
  EXPECT_GE(p.guard.nan_events, 1);
  EXPECT_GE(p.guard.lr_halvings, 1);
}

TEST_F(GuardTest, TrainerRollbackPolicyRestoresSnapshot) {
  const auto data = tiny_dataset();
  TrainConfig cfg = tiny_train_config(3);
  cfg.guard.nan_policy = NanPolicy::kRollback;
  // Fire in the second epoch so a clean end-of-epoch snapshot exists.
  FaultInjector::instance().arm(FaultSite::kTrainerLoss, /*step=*/3);
  const Predictor p = train_predictor(data, cfg);
  expect_finite_run(p, 3);
  EXPECT_GE(p.guard.nan_events, 1);
  EXPECT_GE(p.guard.rollbacks, 1);
}

TEST_F(GuardTest, TrainerStrictModeEscalates) {
  const auto data = tiny_dataset();
  TrainConfig cfg = tiny_train_config(2);
  cfg.guard.strict = true;
  FaultInjector::instance().arm(FaultSite::kTrainerLoss, /*step=*/0);
  try {
    train_predictor(data, cfg);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kNumericalError);
  }
}

TEST_F(GuardTest, TrainerDeadlineCommitsUsableModel) {
  const auto data = tiny_dataset();
  TrainConfig cfg = tiny_train_config(500);  // would run for a long time
  cfg.deadline_ms = 1.0;
  const Predictor p = train_predictor(data, cfg);
  EXPECT_TRUE(p.guard.deadline_hit);
  EXPECT_LT(p.curve.size(), 500u);
  ASSERT_TRUE(p.model);
  EXPECT_TRUE(params_finite(p.model->parameters()));
  // The committed model must be usable.
  const std::vector<nn::Tensor> out = p.predict(data[0]);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_TRUE(all_finite(out[0]));
  EXPECT_TRUE(all_finite(out[1]));
}

// ---------------------------------------------------------------------------
// DCO recovery. One shared (expensive) predictor for the suite.

class DcoGuard : public GuardTest {
 protected:
  static void SetUpTestSuite() {
    design_ = new Netlist(tiny_design(250));
    DatasetConfig dcfg;
    dcfg.layouts = 3;
    dcfg.perturbed_per_layout = 0;
    dcfg.grid_nx = dcfg.grid_ny = 16;
    dcfg.net_h = dcfg.net_w = 16;
    const auto data = build_dataset(*design_, dcfg);
    TrainConfig tcfg;
    tcfg.epochs = 1;
    tcfg.unet.base_channels = 4;
    tcfg.unet.depth = 2;
    predictor_ = new Predictor(train_predictor(data, tcfg));
    PlacementParams params;
    placement_ = new Placement3D(place_pseudo3d(*design_, params, 3));
  }
  static void TearDownTestSuite() {
    delete placement_;
    delete predictor_;
    delete design_;
    placement_ = nullptr;
    predictor_ = nullptr;
    design_ = nullptr;
  }

  static DcoConfig fast_config() {
    DcoConfig cfg;
    cfg.grid_nx = cfg.grid_ny = 16;
    cfg.max_iter = 8;
    cfg.eval_every = 3;
    cfg.restarts = 1;
    cfg.select_by_route = false;  // predictor-scored commits: much faster
    return cfg;
  }

  static void expect_legal_result(const DcoResult& r) {
    EXPECT_TRUE(std::isfinite(r.best_loss));
    EXPECT_TRUE(std::isfinite(r.initial_score));
    // The input placement is always a candidate: never return worse.
    EXPECT_LE(r.best_loss, r.initial_score + 1e-9);
    ASSERT_EQ(r.placement.size(), design_->num_cells());
    for (std::size_t i = 0; i < design_->num_cells(); ++i) {
      EXPECT_TRUE(std::isfinite(r.placement.xy[i].x));
      EXPECT_TRUE(std::isfinite(r.placement.xy[i].y));
      EXPECT_TRUE(r.placement.tier[i] == 0 || r.placement.tier[i] == 1);
      if (design_->is_movable(static_cast<CellId>(i))) {
        EXPECT_TRUE(r.placement.outline.contains(r.placement.xy[i]));
      }
    }
  }

  static Netlist* design_;
  static Predictor* predictor_;
  static Placement3D* placement_;
};

Netlist* DcoGuard::design_ = nullptr;
Predictor* DcoGuard::predictor_ = nullptr;
Placement3D* DcoGuard::placement_ = nullptr;

TEST_F(DcoGuard, NanLossRecoveryKeepsLegalPlacement) {
  DcoConfig cfg = fast_config();
  FaultInjector::instance().arm(FaultSite::kDcoLoss, /*step=*/2);
  const DcoResult r = run_dco(*design_, *placement_, *predictor_, {}, cfg);
  EXPECT_EQ(FaultInjector::instance().fired(FaultSite::kDcoLoss), 1);
  EXPECT_GE(r.guard.nan_events, 1);
  expect_legal_result(r);
}

TEST_F(DcoGuard, NanGradientSkipPolicyRecovers) {
  DcoConfig cfg = fast_config();
  cfg.guard.nan_policy = NanPolicy::kSkip;
  FaultInjector::instance().arm(FaultSite::kDcoGrad, /*step=*/1);
  const DcoResult r = run_dco(*design_, *placement_, *predictor_, {}, cfg);
  EXPECT_GE(r.guard.nan_events, 1);
  EXPECT_GE(r.guard.skipped_steps, 1);
  expect_legal_result(r);
}

TEST_F(DcoGuard, PersistentDivergenceReseedsRestart) {
  DcoConfig cfg = fast_config();
  cfg.guard.nan_policy = NanPolicy::kHalveLr;
  cfg.guard.max_lr_halvings = 1;
  cfg.guard.max_reseeds = 1;
  // Poison every iterate of the first attempt: backoff budget (1 halving)
  // exhausts, the restart reseeds, and the second attempt runs clean.
  FaultInjector::instance().arm(FaultSite::kDcoLoss, /*step=*/0, /*count=*/3);
  const DcoResult r = run_dco(*design_, *placement_, *predictor_, {}, cfg);
  EXPECT_GE(r.guard.reseeds, 1);
  EXPECT_GE(r.guard.lr_halvings, 1);
  expect_legal_result(r);
}

TEST_F(DcoGuard, DeadlineCommitsBestSoFar) {
  DcoConfig cfg = fast_config();
  cfg.max_iter = 100000;
  cfg.restarts = 4;
  cfg.deadline_ms = 1.0;
  const DcoResult r = run_dco(*design_, *placement_, *predictor_, {}, cfg);
  EXPECT_TRUE(r.guard.deadline_hit);
  expect_legal_result(r);
}

TEST_F(DcoGuard, StrictModeEscalates) {
  DcoConfig cfg = fast_config();
  cfg.guard.strict = true;
  FaultInjector::instance().arm(FaultSite::kDcoLoss, /*step=*/0);
  try {
    run_dco(*design_, *placement_, *predictor_, {}, cfg);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kNumericalError);
  }
}

// ---------------------------------------------------------------------------
// Crash-safe checkpointing.

class CheckpointGuard : public DcoGuard {
 protected:
  void SetUp() override {
    DcoGuard::SetUp();
    dir_ = std::filesystem::temp_directory_path() /
           ("dco3d_guard_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
    DcoGuard::TearDown();
  }

  static nn::UNetConfig saved_config() {
    nn::UNetConfig cfg;
    cfg.base_channels = 4;
    cfg.depth = 2;
    return cfg;
  }

  std::filesystem::path dir_;
};

TEST_F(CheckpointGuard, InterruptedSaveNeverCorruptsExistingCheckpoint) {
  const std::string path = (dir_ / "pred.ckpt").string();
  save_predictor_file(path, *predictor_, saved_config());
  const Predictor baseline = load_predictor_file(path);

  // A save that dies mid-stream must leave the committed file untouched.
  FaultInjector::instance().arm(FaultSite::kCheckpointWrite, /*step=*/2);
  EXPECT_THROW(save_predictor_file(path, *predictor_, saved_config()),
               StatusError);
  FaultInjector::instance().disarm();
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));  // no litter

  const Predictor reloaded = load_predictor_file(path);
  const auto a = baseline.model->parameters();
  const auto b = reloaded.model->parameters();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    for (std::int64_t j = 0; j < a[i]->value.numel(); ++j)
      ASSERT_FLOAT_EQ(a[i]->value[j], b[i]->value[j]);
}

TEST_F(CheckpointGuard, InterruptedFirstSaveLeavesNoFile) {
  const std::string path = (dir_ / "fresh.ckpt").string();
  FaultInjector::instance().arm(FaultSite::kCheckpointWrite, /*step=*/0);
  EXPECT_THROW(save_predictor_file(path, *predictor_, saved_config()),
               StatusError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST_F(CheckpointGuard, SuccessfulSaveRoundTripsAndDropsTmp) {
  const std::string path = (dir_ / "ok.ckpt").string();
  save_predictor_file(path, *predictor_, saved_config());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  const Predictor loaded = load_predictor_file(path);
  EXPECT_FLOAT_EQ(loaded.label_scale, predictor_->label_scale);
}

TEST_F(CheckpointGuard, TruncatedStreamsFailWithDataLossNamingField) {
  std::ostringstream full;
  save_predictor(full, *predictor_, saved_config());
  const std::string text = full.str();
  // Cut the checkpoint at several depths; every prefix must be rejected with
  // a kDataLoss status, never silently yield a partial model.
  for (double frac : {0.05, 0.3, 0.6, 0.9, 0.99}) {
    std::istringstream cut(
        text.substr(0, static_cast<std::size_t>(text.size() * frac)));
    try {
      load_predictor(cut);
      FAIL() << "expected StatusError at fraction " << frac;
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kDataLoss) << "frac " << frac;
      EXPECT_FALSE(e.status().message().empty());
    }
  }
}

TEST_F(CheckpointGuard, CorruptValuesRejected) {
  std::ostringstream full;
  save_predictor(full, *predictor_, saved_config());
  // Implausible architecture (would OOM on reconstruction if trusted).
  {
    std::istringstream bad(
        "dco3d-predictor v1\nunet 7 1 999999999 9\nlabel_scale 1\n");
    EXPECT_THROW(load_predictor(bad), StatusError);
  }
  // Non-finite weight smuggled into the tensor payload: overwrite the first
  // value of the last tensor record with "nan".
  {
    std::string text = full.str();
    const auto pos = text.rfind("tensor");
    ASSERT_NE(pos, std::string::npos);
    const auto hdr_end = text.find('\n', pos);
    ASSERT_NE(hdr_end, std::string::npos);
    const auto val_end = text.find_first_of(" \n", hdr_end + 1);
    ASSERT_NE(val_end, std::string::npos);
    text.replace(hdr_end + 1, val_end - hdr_end - 1, "nan");
    std::istringstream bad(text);
    EXPECT_THROW(load_predictor(bad), StatusError);
  }
  // Missing load file maps to kNotFound.
  try {
    load_predictor_file((dir_ / "does_not_exist.ckpt").string());
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
  }
}

TEST_F(GuardTest, DesignIoFailuresCarryTaxonomy) {
  std::istringstream bad("not a design file\n");
  try {
    read_design(bad);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kDataLoss);
  }
}

}  // namespace
}  // namespace dco3d
