// Placement stack tests: quadratic solver, B2B model, spreading, FM
// partitioner, Abacus legalizer, and the pseudo-3D driver.

#include <gtest/gtest.h>

#include "place/fm_partitioner.hpp"
#include "place/legalize.hpp"
#include "place/placer3d.hpp"
#include "place/quadratic.hpp"
#include "place/spreading.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

TEST(SpdSystem, SolvesSmallSystem) {
  // Two nodes connected to each other (w=1) and anchored to 0 and 10
  // (w=1 each): solution is x0=10/3, x1=20/3.
  SpdSystem sys(2);
  sys.add_edge(0, 1, 1.0);
  sys.add_fixed(0, 1.0, 0.0);
  sys.add_fixed(1, 1.0, 10.0);
  std::vector<double> x(2, 0.0);
  sys.solve_cg(x);
  EXPECT_NEAR(x[0], 10.0 / 3.0, 1e-5);
  EXPECT_NEAR(x[1], 20.0 / 3.0, 1e-5);
}

TEST(SpdSystem, MultiplyMatchesManual) {
  SpdSystem sys(3);
  sys.add_edge(0, 1, 2.0);
  sys.add_edge(1, 2, 3.0);
  sys.add_fixed(0, 1.0, 5.0);
  std::vector<double> x{1.0, 2.0, 3.0}, y;
  sys.multiply(x, y);
  // Row 0: (2+1)*1 - 2*2 = -1 ; Row 1: 5*2 -2*1 -3*3 = -1 ; Row 2: 3*3-3*2=3.
  EXPECT_NEAR(y[0], -1.0, 1e-12);
  EXPECT_NEAR(y[1], -1.0, 1e-12);
  EXPECT_NEAR(y[2], 3.0, 1e-12);
}

TEST(MovableIndex, ExcludesFixedAndFiltered) {
  const Netlist nl = testing::tiny_design();
  const MovableIndex all = MovableIndex::build(nl);
  std::size_t expected = 0;
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (nl.is_movable(static_cast<CellId>(i))) ++expected;
  EXPECT_EQ(all.size(), expected);
  for (CellId c : all.idx_to_cell) EXPECT_TRUE(nl.is_movable(c));

  std::vector<bool> none(nl.num_cells(), false);
  EXPECT_EQ(MovableIndex::build(nl, &none).size(), 0u);
}

TEST(Quadratic, ReducesHpwl) {
  const Netlist nl = testing::tiny_design(400);
  Rng rng(3);
  Placement3D pl = floorplan(nl, {}, rng);
  // Scatter movables randomly, then solve: HPWL must drop a lot.
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    if (!nl.is_movable(static_cast<CellId>(i))) continue;
    pl.xy[i] = {rng.uniform(0.0, pl.outline.xhi), rng.uniform(0.0, pl.outline.yhi)};
  }
  const double before = total_hpwl(nl, pl);
  const MovableIndex idx = MovableIndex::build(nl);
  solve_quadratic(nl, pl, idx, {}, nullptr, 0.0, 2);
  const double after = total_hpwl(nl, pl);
  EXPECT_LT(after, 0.6 * before);
}

TEST(Quadratic, AnchorsPullTowardTargets) {
  const Netlist nl = testing::tiny_design(300);
  Rng rng(5);
  Placement3D pl = floorplan(nl, {}, rng);
  const MovableIndex idx = MovableIndex::build(nl);
  solve_quadratic(nl, pl, idx, {}, nullptr, 0.0, 1);

  // Anchor everything to the top-right corner with huge weight.
  std::vector<Point> target(nl.num_cells(), Point{pl.outline.xhi, pl.outline.yhi});
  solve_quadratic(nl, pl, idx, {}, &target, 1e6, 1);
  for (std::size_t k = 0; k < idx.size(); ++k) {
    const auto ci = static_cast<std::size_t>(idx.idx_to_cell[k]);
    EXPECT_NEAR(pl.xy[ci].x, pl.outline.xhi, pl.outline.width() * 0.02);
    EXPECT_NEAR(pl.xy[ci].y, pl.outline.yhi, pl.outline.height() * 0.02);
  }
}

TEST(Quadratic, KeepsCellsInsideOutline) {
  const Netlist nl = testing::tiny_design(300);
  Rng rng(7);
  Placement3D pl = floorplan(nl, {}, rng);
  const MovableIndex idx = MovableIndex::build(nl);
  solve_quadratic(nl, pl, idx, {}, nullptr, 0.0, 3);
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    EXPECT_GE(pl.xy[i].x, pl.outline.xlo - 1e-9);
    EXPECT_LE(pl.xy[i].x, pl.outline.xhi + 1e-9);
  }
}

TEST(Spreading, ReducesPeakUtilization) {
  const Netlist nl = testing::tiny_design(500);
  Rng rng(9);
  Placement3D pl = floorplan(nl, {}, rng);
  // Everything clumped near the center (small jitter: the CDF equalizer
  // maps coordinates, so coincident points cannot separate — the analytic
  // placer always provides distinct positions).
  const Point c = pl.outline.center();
  for (std::size_t i = 0; i < nl.num_cells(); ++i)
    if (nl.is_movable(static_cast<CellId>(i)))
      pl.xy[i] = {c.x + rng.normal(0.0, 0.02 * pl.outline.width()),
                  c.y + rng.normal(0.0, 0.02 * pl.outline.height())};

  SpreadConfig cfg;
  cfg.bins_x = cfg.bins_y = 8;
  const double before = peak_bin_utilization(nl, pl, cfg);
  const MovableIndex idx = MovableIndex::build(nl);
  for (int round = 0; round < 4; ++round) {
    const auto target = compute_spread_targets(nl, pl, idx, {}, cfg);
    for (std::size_t k = 0; k < idx.size(); ++k) {
      const auto ci = static_cast<std::size_t>(idx.idx_to_cell[k]);
      pl.xy[ci] = target[ci];
    }
  }
  const double after = peak_bin_utilization(nl, pl, cfg);
  EXPECT_LT(after, 0.5 * before);
}

TEST(Spreading, InflationTargetsCongestedCells) {
  const Netlist nl = testing::tiny_design(400);
  PlacementParams params;
  params.cong_restruct_effort = 4;
  params.cong_restruct_iterations = 8;
  params.target_routing_density = 0.4;
  const Placement3D pl = place_pseudo3d(nl, params, 2, false);
  const GCellGrid grid(pl.outline, 16, 16);
  const auto inflation = congestion_inflation(nl, pl, grid, params);
  ASSERT_EQ(inflation.size(), nl.num_cells());
  double max_inf = 1.0;
  for (double v : inflation) {
    EXPECT_GE(v, 1.0);
    max_inf = std::max(max_inf, v);
  }
  EXPECT_GT(max_inf, 1.0);  // something is congested at threshold 0.4
}

TEST(Spreading, NoInflationWhenDisabled) {
  const Netlist nl = testing::tiny_design(200);
  PlacementParams params;
  params.cong_restruct_effort = 0;
  params.cong_restruct_iterations = 0;
  Rng rng(1);
  const Placement3D pl = floorplan(nl, {}, rng);
  const GCellGrid grid(pl.outline, 8, 8);
  for (double v : congestion_inflation(nl, pl, grid, params))
    EXPECT_DOUBLE_EQ(v, 1.0);
}

TEST(Fm, CutSizeCountsSpanningNets) {
  Netlist nl(Library::make_default());
  const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
  for (int i = 0; i < 4; ++i) nl.add_cell("c", inv);
  Net n0;
  n0.driver = {0, {}};
  n0.sinks = {{1, {}}};
  nl.add_net(std::move(n0));
  Net n1;
  n1.driver = {2, {}};
  n1.sinks = {{3, {}}};
  nl.add_net(std::move(n1));
  nl.freeze();
  EXPECT_EQ(cut_size(nl, {0, 0, 1, 1}), 0u);
  EXPECT_EQ(cut_size(nl, {0, 1, 0, 1}), 2u);
}

TEST(Fm, RefineReducesCutAndKeepsBalance) {
  const Netlist nl = testing::tiny_design(600);
  Rng rng(11);
  Placement3D pl = floorplan(nl, {}, rng);
  const MovableIndex idx = MovableIndex::build(nl);
  solve_quadratic(nl, pl, idx, {}, nullptr, 0.0, 2);

  FmConfig cfg;
  std::vector<int> seed = seed_tiers_checkerboard(nl, pl, cfg.bins);
  const std::size_t cut_before = cut_size(nl, seed);
  std::vector<int> refined = seed;
  const std::size_t cut_after = fm_refine(nl, refined, cfg);
  EXPECT_LE(cut_after, cut_before);
  EXPECT_EQ(cut_after, cut_size(nl, refined));

  double area[2] = {0, 0};
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const auto id = static_cast<CellId>(i);
    if (nl.is_movable(id)) area[refined[i]] += nl.cell_area(id);
  }
  const double total = area[0] + area[1];
  EXPECT_LE(std::abs(area[0] - area[1]), cfg.balance_tol * total * 1.2);
}

TEST(Fm, FixedCellsNeverMove) {
  const Netlist nl = testing::tiny_design(300);
  Rng rng(13);
  Placement3D pl = floorplan(nl, {}, rng);
  const std::vector<int> fixed_before = pl.tier;
  FmConfig cfg;
  partition_tiers(nl, pl, cfg);
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const auto id = static_cast<CellId>(i);
    if (!nl.is_movable(id)) {
      EXPECT_EQ(pl.tier[i], fixed_before[i]);
    }
  }
}

TEST(Legalize, NoOverlapsAndInOutline) {
  const Netlist nl = testing::tiny_design(500);
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl, params, 3, false);
  legalize_all(nl, pl, params);
  for (int tier = 0; tier < 2; ++tier)
    EXPECT_NEAR(overlap_area_on_tier(nl, pl, tier), 0.0, 1e-9);
  const double rh = nl.library().row_height();
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const auto id = static_cast<CellId>(i);
    if (!nl.is_movable(id)) continue;
    // Row alignment.
    const double fy = (pl.xy[i].y - pl.outline.ylo) / rh;
    EXPECT_NEAR(fy, std::round(fy), 1e-6);
    // Fully inside.
    EXPECT_GE(pl.xy[i].x, pl.outline.xlo - 1e-9);
    EXPECT_LE(pl.xy[i].x + nl.cell_type(id).width, pl.outline.xhi + 1e-6);
  }
}

TEST(Legalize, AvoidsMacros) {
  const Netlist nl = generate_design(spec_for(DesignKind::kEcg, 0.008));
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl, params, 5, true);
  // No movable cell may overlap a macro on the same tier.
  for (std::size_t m = 0; m < nl.num_cells(); ++m) {
    const auto mid = static_cast<CellId>(m);
    if (!nl.is_macro(mid)) continue;
    const CellType& mt = nl.cell_type(mid);
    const Rect mr{pl.xy[m].x, pl.xy[m].y, pl.xy[m].x + mt.width,
                  pl.xy[m].y + mt.height};
    for (std::size_t i = 0; i < nl.num_cells(); ++i) {
      const auto id = static_cast<CellId>(i);
      if (!nl.is_movable(id) || pl.tier[i] != pl.tier[m]) continue;
      const CellType& t = nl.cell_type(id);
      const Rect r{pl.xy[i].x, pl.xy[i].y, pl.xy[i].x + t.width,
                   pl.xy[i].y + t.height};
      EXPECT_LE(mr.overlap_area(r), 1e-9) << nl.cell_name(id);
    }
  }
}

TEST(Placer3d, DeterministicForSeed) {
  const Netlist nl = testing::tiny_design(300);
  PlacementParams params;
  const Placement3D a = place_pseudo3d(nl, params, 7);
  const Placement3D b = place_pseudo3d(nl, params, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.xy[i].x, b.xy[i].x);
    EXPECT_EQ(a.tier[i], b.tier[i]);
  }
}

TEST(Placer3d, ParamsChangeResult) {
  const Netlist nl = testing::tiny_design(300);
  PlacementParams a;
  PlacementParams b = PlacementParams::congestion_focused();
  const Placement3D pa = place_pseudo3d(nl, a, 7);
  const Placement3D pb = place_pseudo3d(nl, b, 7);
  double diff = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) diff += manhattan(pa.xy[i], pb.xy[i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Placer3d, IoPadsOnBoundaryBothTiers) {
  const Netlist nl = testing::tiny_design(300);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 7);
  bool tier0 = false, tier1 = false;
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const auto id = static_cast<CellId>(i);
    if (!nl.is_io(id)) continue;
    const Point& p = pl.xy[i];
    const Rect& o = pl.outline;
    const bool on_edge = std::abs(p.x - o.xlo) < 1e-9 || std::abs(p.x - o.xhi) < 1e-9 ||
                         std::abs(p.y - o.ylo) < 1e-9 || std::abs(p.y - o.yhi) < 1e-9;
    EXPECT_TRUE(on_edge);
    (pl.tier[i] ? tier1 : tier0) = true;
  }
  EXPECT_TRUE(tier0);
  EXPECT_TRUE(tier1);
}

TEST(Placer3d, BothTiersPopulated) {
  const Netlist nl = testing::tiny_design(400);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 9);
  std::size_t t0 = 0, t1 = 0;
  for (std::size_t i = 0; i < nl.num_cells(); ++i) {
    const auto id = static_cast<CellId>(i);
    if (!nl.is_movable(id)) continue;
    (pl.tier[i] ? t1 : t0)++;
  }
  EXPECT_GT(t0, 0u);
  EXPECT_GT(t1, 0u);
  const double ratio = static_cast<double>(t0) / static_cast<double>(t0 + t1);
  EXPECT_GT(ratio, 0.35);
  EXPECT_LT(ratio, 0.65);
}

TEST(Params, EncodeDecodeRoundTrip) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    const PlacementParams p = PlacementParams::sample(rng);
    const PlacementParams q = PlacementParams::decode(p.encode());
    EXPECT_EQ(q.pin_density_aware, p.pin_density_aware);
    EXPECT_NEAR(q.target_routing_density, p.target_routing_density, 1e-9);
    EXPECT_EQ(q.cong_restruct_effort, p.cong_restruct_effort);
    EXPECT_EQ(q.cong_restruct_iterations, p.cong_restruct_iterations);
    EXPECT_EQ(q.displacement_threshold, p.displacement_threshold);
    EXPECT_EQ(q.initial_place_effort, p.initial_place_effort);
    EXPECT_EQ(q.enable_irap, p.enable_irap);
  }
}

TEST(Params, SampleCoversRanges) {
  Rng rng(19);
  bool effort_lo = false, effort_hi = false, bool_t = false, bool_f = false;
  for (int i = 0; i < 200; ++i) {
    const PlacementParams p = PlacementParams::sample(rng);
    EXPECT_GE(p.target_routing_density, 0.0);
    EXPECT_LE(p.target_routing_density, 1.0);
    EXPECT_GE(p.cong_restruct_effort, 0);
    EXPECT_LE(p.cong_restruct_effort, 4);
    effort_lo |= p.cong_restruct_effort == 0;
    effort_hi |= p.cong_restruct_effort == 4;
    bool_t |= p.two_pass;
    bool_f |= !p.two_pass;
  }
  EXPECT_TRUE(effort_lo && effort_hi && bool_t && bool_f);
}

TEST(Params, TableHas16Knobs) {
  EXPECT_EQ(param_table().size(), 16u);
  EXPECT_STREQ(param_table()[0].name, "coarse.pin_density_aware");
  EXPECT_STREQ(param_table()[15].name, "flow.enable_irap");
}

}  // namespace
}  // namespace dco3d
