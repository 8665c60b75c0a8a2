// Core DCO-3D tests: Table-II features, the four losses (with gradient
// checks on the custom nodes), the GNN spreader, and the trainer.

#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/dco.hpp"
#include "core/features.hpp"
#include "core/losses.hpp"
#include "core/spreader.hpp"
#include "core/trainer.hpp"
#include "place/placer3d.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

using testing::tiny_design;

TEST(GnnFeatures, ShapeAndNormalization) {
  const Netlist nl = tiny_design(300);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3);
  TimingConfig tcfg;
  const nn::Tensor f = build_gnn_features(nl, pl, tcfg);
  ASSERT_EQ(f.shape(), (nn::Shape{static_cast<std::int64_t>(nl.num_cells()),
                                  kGnnFeatureDim}));
  // Table-II columns are z-scored over movable cells: mean ~ 0, std ~ 1.
  for (std::int64_t c = 0; c < 8; ++c) {
    double mean = 0.0, count = 0.0;
    for (std::int64_t i = 0; i < f.dim(0); ++i) {
      if (!nl.is_movable(static_cast<CellId>(i))) continue;
      mean += f.at(i, c);
      count += 1.0;
    }
    mean /= count;
    EXPECT_NEAR(mean, 0.0, 0.05) << "column " << c;
  }
  // Tier encoding is +/-1.
  for (std::int64_t i = 0; i < f.dim(0); ++i)
    EXPECT_TRUE(f.at(i, 10) == 1.0f || f.at(i, 10) == -1.0f);
}

TEST(DisplacementLoss, ZeroAtOrigin) {
  Rng rng(1);
  nn::Tensor x0({5}), y0({5});
  for (std::int64_t i = 0; i < 5; ++i) {
    x0[i] = static_cast<float>(rng.uniform(0, 10));
    y0[i] = static_cast<float>(rng.uniform(0, 10));
  }
  nn::Var x = nn::make_leaf(x0, true);
  nn::Var y = nn::make_leaf(y0, true);
  nn::Var l = displacement_loss(x, y, x0, y0, Rect{0, 0, 10, 10});
  EXPECT_NEAR(l->value[0], 0.0, 1e-9);
}

TEST(DisplacementLoss, QuadraticInDisplacement) {
  nn::Tensor x0({1}, {0.0f}), y0({1}, {0.0f});
  auto loss_at = [&](float dx) {
    nn::Var x = nn::make_leaf(nn::Tensor({1}, {dx}));
    nn::Var y = nn::make_leaf(y0);
    return displacement_loss(x, y, x0, y0, Rect{0, 0, 10, 10})->value[0];
  };
  EXPECT_NEAR(loss_at(2.0f), 4.0 * loss_at(1.0f), 1e-5);
}

TEST(CutsizeLoss, MatchesHardCutAtBinaryZ) {
  // 4 nodes, edges (0-1), (1-2), (2-3); z = [0,0,1,1] -> cut = 1,
  // degT = deg2*1 + deg3*1 = 2+1 = 3, degB = deg0+deg1 = 1+2 = 3.
  auto edges = std::make_shared<const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      std::vector<std::pair<std::int64_t, std::int64_t>>{{0, 1}, {1, 2}, {2, 3}});
  nn::Var z = nn::make_leaf(nn::Tensor({4}, {0, 0, 1, 1}));
  nn::Var l = cutsize_loss(z, edges);
  EXPECT_NEAR(l->value[0], 1.0 / 3.0 + 1.0 / 3.0, 1e-6);
}

TEST(CutsizeLoss, ZeroWhenUncut) {
  auto edges = std::make_shared<const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      std::vector<std::pair<std::int64_t, std::int64_t>>{{0, 1}, {1, 2}});
  nn::Var z = nn::make_leaf(nn::Tensor({3}, {1, 1, 1}));
  nn::Var l = cutsize_loss(z, edges);
  EXPECT_NEAR(l->value[0], 0.0, 1e-5);
}

TEST(CutsizeLoss, GradientNumerical) {
  auto edges = std::make_shared<const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      std::vector<std::pair<std::int64_t, std::int64_t>>{
          {0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}});
  nn::Var z = nn::make_leaf(nn::Tensor({4}, {0.3f, 0.6f, 0.45f, 0.8f}), true);
  nn::Var l = cutsize_loss(z, edges);
  nn::zero_grad({z});
  nn::backward(l);
  constexpr double eps = 1e-4;
  for (std::int64_t i = 0; i < 4; ++i) {
    const float orig = z->value[i];
    z->value[i] = orig + static_cast<float>(eps);
    const double up = cutsize_loss(z, edges)->value[0];
    z->value[i] = orig - static_cast<float>(eps);
    const double dn = cutsize_loss(z, edges)->value[0];
    z->value[i] = orig;
    const double numeric = (up - dn) / (2 * eps);
    EXPECT_NEAR(z->grad[i], numeric, 5e-3 + 0.05 * std::abs(numeric)) << i;
  }
}

TEST(BellPotential, ContinuityAndSupport) {
  const double wb = 0.5, wv = 2.0;
  const double r1 = wb + wv / 2, r2 = 2 * wb + wv / 2;
  EXPECT_NEAR(bell_potential(0.0, wb, wv), 1.0, 1e-12);
  // Continuity at both knees.
  EXPECT_NEAR(bell_potential(r1 - 1e-9, wb, wv), bell_potential(r1 + 1e-9, wb, wv),
              1e-6);
  EXPECT_NEAR(bell_potential(r2, wb, wv), 0.0, 1e-9);
  EXPECT_DOUBLE_EQ(bell_potential(r2 + 0.1, wb, wv), 0.0);
  // Symmetry.
  EXPECT_DOUBLE_EQ(bell_potential(-0.7, wb, wv), bell_potential(0.7, wb, wv));
}

TEST(BellPotential, GradientMatchesFiniteDifference) {
  const double wb = 0.3, wv = 1.5;
  for (double d : {-1.4, -0.9, -0.4, 0.2, 0.6, 1.1, 1.6}) {
    const double eps = 1e-6;
    const double numeric =
        (bell_potential(d + eps, wb, wv) - bell_potential(d - eps, wb, wv)) /
        (2 * eps);
    EXPECT_NEAR(bell_potential_grad(d, wb, wv), numeric, 1e-5) << "d=" << d;
  }
}

TEST(OverlapLoss, ZeroForSpreadCells) {
  // Cells far apart in a big outline: density everywhere below target.
  Netlist nl(Library::make_default());
  const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
  for (int i = 0; i < 4; ++i) nl.add_cell("c", inv);
  nn::Var x = nn::make_leaf(nn::Tensor({4}, {1, 5, 9, 13}), true);
  nn::Var y = nn::make_leaf(nn::Tensor({4}, {1, 5, 9, 13}), true);
  nn::Var z = nn::make_leaf(nn::Tensor({4}, {0, 0, 1, 1}), true);
  nn::Var l = overlap_loss(nl, x, y, z, Rect{0, 0, 16, 16}, 8, 8, 0.7);
  EXPECT_NEAR(l->value[0], 0.0, 1e-9);
}

TEST(OverlapLoss, PositiveForStackedCells) {
  Netlist nl(Library::make_default());
  const CellTypeId dff = nl.library().find(CellFunction::kDff, 2);  // biggest
  for (int i = 0; i < 64; ++i) nl.add_cell("c", dff);
  nn::Tensor same({64}, 1.0f);
  nn::Var x = nn::make_leaf(same, true);
  nn::Var y = nn::make_leaf(same, true);
  nn::Var z = nn::make_leaf(nn::Tensor({64}, 0.0f), true);
  nn::Var l = overlap_loss(nl, x, y, z, Rect{0, 0, 2, 2}, 4, 4, 0.5);
  EXPECT_GT(l->value[0], 0.0);
  // Gradient should push the stacked cells apart (non-zero x gradient).
  nn::zero_grad({x, y, z});
  nn::backward(l);
  double gx = 0.0;
  for (std::int64_t i = 0; i < 64; ++i) gx += std::abs(x->grad[i]);
  EXPECT_GT(gx, 0.0);
}

TEST(OverlapLoss, GradientNumerical) {
  Netlist nl(Library::make_default());
  const CellTypeId dff = nl.library().find(CellFunction::kDff, 2);
  for (int i = 0; i < 3; ++i) nl.add_cell("c", dff);
  nn::Var x = nn::make_leaf(nn::Tensor({3}, {0.8f, 1.0f, 1.3f}), true);
  nn::Var y = nn::make_leaf(nn::Tensor({3}, {1.0f, 1.05f, 0.9f}), true);
  nn::Var z = nn::make_leaf(nn::Tensor({3}, {0.4f, 0.5f, 0.6f}), true);
  const Rect outline{0, 0, 2, 2};
  // Near-zero target utilization so every occupied bin contributes excess.
  auto loss = [&]() { return overlap_loss(nl, x, y, z, outline, 4, 4, 0.01); };
  nn::Var l = loss();
  ASSERT_GT(l->value[0], 0.0);
  nn::zero_grad({x, y, z});
  nn::backward(l);
  constexpr double eps = 1e-4;
  for (nn::Var v : {x, y, z}) {
    for (std::int64_t i = 0; i < 3; ++i) {
      const float orig = v->value[i];
      v->value[i] = orig + static_cast<float>(eps);
      const double up = loss()->value[0];
      v->value[i] = orig - static_cast<float>(eps);
      const double dn = loss()->value[0];
      v->value[i] = orig;
      const double numeric = (up - dn) / (2 * eps);
      // The c_norm renormalization is treated as constant in the analytic
      // gradient (a subgradient choice), so allow a loose tolerance.
      EXPECT_NEAR(v->grad[i], numeric,
                  2e-3 + 0.25 * std::abs(numeric));
    }
  }
}

TEST(Spreader, FixedCellsPinned) {
  const Netlist nl = tiny_design(250);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3, false);
  Rng rng(5);
  SpreaderConfig cfg;
  GnnSpreader spreader(nl, pl, cfg, rng);
  TimingConfig tcfg;
  nn::Var features = nn::make_leaf(build_gnn_features(nl, pl, tcfg));
  const SpreaderOutput out = spreader.forward(features);
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const auto id = static_cast<CellId>(i);
    if (nl.is_movable(id)) continue;
    EXPECT_FLOAT_EQ(out.x->value[static_cast<std::int64_t>(i)],
                    static_cast<float>(pl.xy[i].x));
    EXPECT_FLOAT_EQ(out.z->value[static_cast<std::int64_t>(i)],
                    static_cast<float>(pl.tier[i]));
  }
}

TEST(Spreader, DisplacementBounded) {
  const Netlist nl = tiny_design(250);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3, false);
  Rng rng(7);
  SpreaderConfig cfg;
  cfg.max_disp_frac = 0.1;
  GnnSpreader spreader(nl, pl, cfg, rng);
  TimingConfig tcfg;
  nn::Var features = nn::make_leaf(build_gnn_features(nl, pl, tcfg));
  const SpreaderOutput out = spreader.forward(features);
  const double max_dx = cfg.max_disp_frac * pl.outline.width() + 1e-6;
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    EXPECT_LE(std::abs(out.x->value[static_cast<std::int64_t>(i)] - pl.xy[i].x),
              max_dx);
  }
}

TEST(Spreader, ZInUnitInterval) {
  const Netlist nl = tiny_design(250);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3, false);
  Rng rng(9);
  GnnSpreader spreader(nl, pl, {}, rng);
  TimingConfig tcfg;
  nn::Var features = nn::make_leaf(build_gnn_features(nl, pl, tcfg));
  const SpreaderOutput out = spreader.forward(features);
  for (std::int64_t i = 0; i < out.z->value.numel(); ++i) {
    EXPECT_GE(out.z->value[i], 0.0f);
    EXPECT_LE(out.z->value[i], 1.0f);
  }
}

TEST(Spreader, CommitBreaksExactTiesTowardTheHigherTier) {
  const Netlist nl = tiny_design(120);
  PlacementParams params;
  for (const auto& [tiers, above, want] :
       std::vector<std::tuple<int, std::vector<float>, int>>{
           {2, {0.5f}, 1},          // z = 0.5: p = {0.5, 0.5}
           {3, {0.8f, 0.4f}, 2},    // p = {0.2, 0.4, 0.4}
           {3, {0.5f, 0.0f}, 1}}) { // p = {0.5, 0.5, 0}
    SCOPED_TRACE(::testing::Message() << "K=" << tiers << " want=" << want);
    const Placement3D pl = place_pseudo3d(nl, params, 3, false, tiers);
    Rng rng(11);
    GnnSpreader spreader(nl, pl, {}, rng);
    const auto n = static_cast<std::int64_t>(pl.size());
    SpreaderOutput out;
    nn::Tensor x({n}), y({n});
    for (std::int64_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].x);
      y[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].y);
    }
    out.x = nn::make_leaf(x);
    out.y = nn::make_leaf(y);
    for (const float a : above)
      out.above.push_back(nn::make_leaf(nn::Tensor({n}, a)));
    out.z = out.above[0];
    Placement3D committed = pl;
    spreader.commit(out, committed);
    for (std::size_t i = 0; i < nl.num_cells(); ++i)
      EXPECT_EQ(committed.tier[i],
                nl.is_movable(static_cast<CellId>(i)) ? want : pl.tier[i])
          << "cell " << i;
  }
}

TEST(Spreader, CommitWritesHardTiers) {
  const Netlist nl = tiny_design(250);
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl, params, 3, false);
  Rng rng(11);
  GnnSpreader spreader(nl, pl, {}, rng);
  TimingConfig tcfg;
  nn::Var features = nn::make_leaf(build_gnn_features(nl, pl, tcfg));
  const SpreaderOutput out = spreader.forward(features);
  Placement3D committed = pl;
  spreader.commit(out, committed);
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    EXPECT_TRUE(committed.tier[i] == 0 || committed.tier[i] == 1);
    EXPECT_TRUE(committed.outline.contains(committed.xy[i]) ||
                !nl.is_movable(static_cast<CellId>(i)));
  }
}

TEST(Trainer, LossDecreasesOnTinyDataset) {
  const Netlist design = tiny_design(250);
  DatasetConfig dcfg;
  dcfg.layouts = 4;
  dcfg.grid_nx = dcfg.grid_ny = 16;
  dcfg.net_h = dcfg.net_w = 16;
  const auto data = build_dataset(design, dcfg);
  TrainConfig tcfg;
  tcfg.epochs = 5;
  tcfg.unet.base_channels = 4;
  tcfg.unet.depth = 2;
  const Predictor p = train_predictor(data, tcfg);
  ASSERT_EQ(p.curve.size(), 5u);
  EXPECT_LT(p.curve.back().train_loss, p.curve.front().train_loss);
  EXPECT_GT(p.label_scale, 0.0f);
}

TEST(Trainer, PredictionShapesMatchLabels) {
  const Netlist design = tiny_design(250);
  DatasetConfig dcfg;
  dcfg.layouts = 2;
  dcfg.grid_nx = dcfg.grid_ny = 16;
  dcfg.net_h = dcfg.net_w = 16;
  const auto data = build_dataset(design, dcfg);
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.unet.base_channels = 4;
  const Predictor p = train_predictor(data, tcfg);
  const std::vector<nn::Tensor> out = p.predict(data[0]);
  ASSERT_EQ(out.size(), 2u);
  for (int die = 0; die < 2; ++die)
    EXPECT_EQ(out[die].shape(), data[0].labels[die].shape());
  const auto ev = evaluate_predictor(p, {&data[0], &data[1]});
  EXPECT_EQ(ev.nrmse.size(), 4u);  // 2 samples x 2 dies
  EXPECT_EQ(ev.ssim.size(), 4u);
}

TEST(CongestionLoss, BackpropReachesCoordinates) {
  const Netlist nl = tiny_design(200);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3, false);
  const GCellGrid grid(pl.outline, 16, 16);
  Rng rng(13);
  nn::UNetConfig ucfg;
  ucfg.base_channels = 4;
  ucfg.depth = 2;
  const nn::SiameseUNet model(ucfg, rng);

  const auto n = static_cast<std::int64_t>(nl.num_cells());
  nn::Tensor tx({n}), ty({n}), tz({n});
  for (std::int64_t i = 0; i < n; ++i) {
    tx[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].x);
    ty[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].y);
    tz[i] = pl.tier[static_cast<std::size_t>(i)] ? 0.8f : 0.2f;
  }
  nn::Var x = nn::make_leaf(tx, true);
  nn::Var y = nn::make_leaf(ty, true);
  nn::Var z = nn::make_leaf(tz, true);
  const SoftMaps maps = soft_feature_maps(nl, grid, x, y, z);
  nn::Var loss = congestion_loss(model, maps);
  EXPECT_GE(loss->value[0], 0.0f);
  nn::zero_grad({x, y, z});
  nn::backward(loss);
  double gx = 0.0, gz = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    gx += std::abs(x->grad[i]);
    gz += std::abs(z->grad[i]);
  }
  // The Eq. (5) chain must deliver gradient all the way to cell coordinates.
  EXPECT_GT(gx, 0.0);
  EXPECT_GT(gz, 0.0);
}

}  // namespace
}  // namespace dco3d
