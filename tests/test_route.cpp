// Global router tests: capacity model, L-routing, rip-up & reroute,
// overflow accounting, 3D via handling, macro blockage.

#include <gtest/gtest.h>

#include <cstdint>

#include "netlist/generators.hpp"
#include "place/placer3d.hpp"
#include "route/router.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

using testing::fnv1a;
using testing::ThreadGuard;

/// Two cells, one net, positions configurable.
struct TwoCellFixture {
  Netlist nl{Library::make_default()};
  Placement3D pl;

  explicit TwoCellFixture(Point a, Point b, int tier_a = 0, int tier_b = 0) {
    const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
    nl.add_cell("a", inv);
    nl.add_cell("b", inv);
    Net n;
    n.driver = {0, {}};
    n.sinks = {{1, {}}};
    nl.add_net(std::move(n));
    nl.freeze();
    pl = Placement3D::make(2, Rect{0, 0, 16, 16});
    pl.xy = {a, b};
    pl.tier = {tier_a, tier_b};
  }
};

TEST(Router, SingleNetUsesManhattanEdges) {
  TwoCellFixture f({1, 1}, {13, 9});
  const GCellGrid grid(f.pl.outline, 8, 8);
  const RouteResult r = global_route(f.nl, f.pl, grid);
  // Tiles are 2x2 um; (1,1)->(13,9) spans 6 cols + 4 rows of edges.
  EXPECT_NEAR(r.wirelength, 6 * 2.0 + 4 * 2.0, 1e-9);
  EXPECT_EQ(r.total_overflow, 0.0);
  EXPECT_EQ(r.num_3d_vias, 0u);
}

TEST(Router, SameTileNetHasZeroWirelength) {
  TwoCellFixture f({1, 1}, {1.5, 1.5});
  const GCellGrid grid(f.pl.outline, 8, 8);
  const RouteResult r = global_route(f.nl, f.pl, grid);
  EXPECT_EQ(r.wirelength, 0.0);
}

TEST(Router, CrossTierNetCreatesVia) {
  TwoCellFixture f({1, 1}, {13, 9}, 0, 1);
  const GCellGrid grid(f.pl.outline, 8, 8);
  const RouteResult r = global_route(f.nl, f.pl, grid);
  EXPECT_EQ(r.num_3d_vias, 1u);
  // Routed length still covers the distance (split across dies) plus the
  // via penalty.
  EXPECT_GT(r.wirelength, 6 * 2.0 + 4 * 2.0 - 1e-9);
}

TEST(Router, PerNetRoutedLengthReported) {
  TwoCellFixture f({1, 1}, {13, 1});
  const GCellGrid grid(f.pl.outline, 8, 8);
  const RouteResult r = global_route(f.nl, f.pl, grid);
  ASSERT_EQ(r.net_routed_wl.size(), 1u);
  EXPECT_NEAR(r.net_routed_wl[0], 12.0, 1e-9);
}

TEST(Router, OverflowWhenCapacityExceeded) {
  // Many parallel nets through a single row of tiles overflow capacity.
  Netlist nl(Library::make_default());
  const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
  constexpr int kNets = 40;
  for (int i = 0; i < kNets; ++i) {
    const CellId a = nl.add_cell("a", inv);
    const CellId b = nl.add_cell("b", inv);
    Net n;
    n.driver = {a, {}};
    n.sinks = {{b, {}}};
    nl.add_net(std::move(n));
  }
  nl.freeze();
  Placement3D pl = Placement3D::make(2 * kNets, Rect{0, 0, 16, 16});
  for (int i = 0; i < kNets; ++i) {
    // All nets from left column to right column through the same row.
    pl.xy[static_cast<std::size_t>(2 * i)] = {1.0, 8.5};
    pl.xy[static_cast<std::size_t>(2 * i) + 1] = {15.0, 8.5};
  }
  const GCellGrid grid(pl.outline, 8, 8);
  RouterConfig cfg;
  cfg.h_capacity = 8.0;
  cfg.rrr_rounds = 0;  // no rerouting: must overflow
  const RouteResult r = global_route(nl, pl, grid, cfg);
  EXPECT_GT(r.total_overflow, 0.0);
  EXPECT_GT(r.h_overflow, 0.0);
  EXPECT_GT(r.ovf_gcell_pct, 0.0);
}

TEST(Router, RipUpReroutesReducesOverflow) {
  Netlist nl(Library::make_default());
  const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
  constexpr int kNets = 40;
  for (int i = 0; i < kNets; ++i) {
    const CellId a = nl.add_cell("a", inv);
    const CellId b = nl.add_cell("b", inv);
    Net n;
    n.driver = {a, {}};
    n.sinks = {{b, {}}};
    nl.add_net(std::move(n));
  }
  nl.freeze();
  Placement3D pl = Placement3D::make(2 * kNets, Rect{0, 0, 16, 16});
  for (int i = 0; i < kNets; ++i) {
    pl.xy[static_cast<std::size_t>(2 * i)] = {1.0, 8.5};
    pl.xy[static_cast<std::size_t>(2 * i) + 1] = {15.0, 8.5};
  }
  const GCellGrid grid(pl.outline, 8, 8);
  RouterConfig no_rrr;
  no_rrr.h_capacity = 8.0;
  no_rrr.rrr_rounds = 0;
  RouterConfig with_rrr = no_rrr;
  with_rrr.rrr_rounds = 4;
  const RouteResult before = global_route(nl, pl, grid, no_rrr);
  const RouteResult after = global_route(nl, pl, grid, with_rrr);
  EXPECT_LT(after.total_overflow, before.total_overflow);
}

TEST(Router, MacroBlockageReducesCapacity) {
  // A net forced across a macro-covered region overflows unless rerouted.
  Netlist nl(Library::make_default());
  CellType macro;
  macro.name = "M";
  macro.function = CellFunction::kMacro;
  macro.width = 8.0;
  macro.height = 8.0;
  const CellTypeId mt = nl.library().add_type(macro);
  nl.add_cell("m", mt, true);
  const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
  const CellId a = nl.add_cell("a", inv);
  const CellId b = nl.add_cell("b", inv);
  Net n;
  n.driver = {a, {}};
  n.sinks = {{b, {}}};
  nl.add_net(std::move(n));
  nl.freeze();
  Placement3D pl = Placement3D::make(3, Rect{0, 0, 16, 16});
  pl.xy = {{4, 4}, {1, 8}, {15, 8}};  // macro center-left, net crossing it
  const GCellGrid grid(pl.outline, 8, 8);
  RouterConfig cfg;
  cfg.rrr_rounds = 3;
  const RouteResult r = global_route(nl, pl, grid, cfg);
  // Either detoured (wirelength > direct) or overflowed; with RRR we expect
  // a detour and no overflow.
  const double direct = 14.0;
  EXPECT_TRUE(r.wirelength > direct + 1e-9 || r.total_overflow > 0.0);
}

TEST(Router, Deterministic) {
  const Netlist nl = testing::tiny_design(400);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3);
  const GCellGrid grid(pl.outline, 16, 16);
  const RouteResult a = global_route(nl, pl, grid);
  const RouteResult b = global_route(nl, pl, grid);
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.wirelength, b.wirelength);
  for (std::size_t i = 0; i < a.congestion[0].size(); ++i)
    EXPECT_EQ(a.congestion[0][i], b.congestion[0][i]);
}

TEST(Router, CongestionMapsConsistentWithTotals) {
  const Netlist nl = testing::tiny_design(500);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 5);
  const GCellGrid grid(pl.outline, 16, 16);
  RouterConfig cfg;
  cfg.h_capacity = 4.0;  // force overflow
  cfg.v_capacity = 4.0;
  cfg.rrr_rounds = 1;
  const RouteResult r = global_route(nl, pl, grid, cfg);
  // Tile overflow halves each edge between its two tiles; interior edges
  // contribute fully, boundary edges once -> map total <= edge total.
  double map_total = 0.0;
  for (int die = 0; die < 2; ++die)
    for (float v : r.congestion[die]) map_total += v;
  EXPECT_GT(map_total, 0.0);
  EXPECT_LE(map_total, r.total_overflow + 1e-6);
  EXPECT_GE(map_total, 0.4 * r.total_overflow);
}

TEST(Router, MultiPinNetSpansAllPins) {
  Netlist nl(Library::make_default());
  const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
  const CellId a = nl.add_cell("a", inv);
  const CellId b = nl.add_cell("b", inv);
  const CellId c = nl.add_cell("c", inv);
  Net n;
  n.driver = {a, {}};
  n.sinks = {{b, {}}, {c, {}}};
  nl.add_net(std::move(n));
  nl.freeze();
  Placement3D pl = Placement3D::make(3, Rect{0, 0, 16, 16});
  pl.xy = {{1, 1}, {15, 1}, {1, 15}};
  const GCellGrid grid(pl.outline, 8, 8);
  const RouteResult r = global_route(nl, pl, grid);
  // MST connects 3 corners: two branches of 7 edges each, 2um pitch.
  EXPECT_NEAR(r.wirelength, 2 * 7 * 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Congested-router golden: capacities low enough that rip-up-and-reroute
// runs the maze router on every case, including fractional capacities under
// macro blockage (non-integer costs, many equal-cost ties). Values recorded
// from the Dijkstra maze router; any change to the maze search's labels or
// tie-break fails these.

/// Hash of the per-net routed lengths and every die's congestion and usage
/// maps.
std::uint64_t route_hash(const RouteResult& r) {
  std::uint64_t h = 1469598103934665603ull;
  h = fnv1a(h, r.net_routed_wl.data(), r.net_routed_wl.size() * sizeof(double));
  for (const auto& m : r.congestion)
    h = fnv1a(h, m.data(), m.size() * sizeof(float));
  for (const auto& m : r.usage) h = fnv1a(h, m.data(), m.size() * sizeof(float));
  return h;
}

struct CongestedCase {
  const char* name;
  DesignKind kind;
  int tiers;
  double capacity;
  double overflow;
  double wirelength;
  std::uint64_t hash;
};

TEST(RouterGolden, CongestedMazeRoutingMatchesRecordedResults) {
  ThreadGuard guard;
  const CongestedCase cases[] = {
      {"dma_k2", DesignKind::kDma, 2, 3.0, 0x1.a6p+8, 0x1.4b9675ed0081ep+8,
       0x55b8daf6557db906ull},
      {"ldpc_k3", DesignKind::kLdpc, 3, 3.0, 0x1.04p+9, 0x1.7375314bd0f12p+8,
       0xe7da0b5aa8ee097aull},
      {"macroheavy_k2", DesignKind::kMacroHeavy, 2, 5.0, 0x1.4a6fffffffff5p+9,
       0x1.02665addeea15p+9, 0xd15eb4edba6d6fb7ull},
      {"dma_k2_mild", DesignKind::kDma, 2, 6.0, 0.0, 0x1.3cc7e4aca5af2p+8,
       0xc44a10bb93e980abull},
      {"macroheavy_k3", DesignKind::kMacroHeavy, 3, 8.0, 0x1.cf99999999982p+7,
       0x1.06fbdf95c88b5p+9, 0x772368807e91e071ull},
  };
  for (const CongestedCase& c : cases) {
    const Netlist nl = generate_design(spec_for(c.kind, 0.005));
    RouterConfig cfg;
    cfg.h_capacity = cfg.v_capacity = c.capacity;
    RouterConfig no_rrr = cfg;
    no_rrr.rrr_rounds = 0;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << c.name << " threads=" << threads);
      util::set_num_threads(threads);
      const Placement3D pl =
          place_pseudo3d(nl, PlacementParams{}, 3, true, c.tiers);
      const GCellGrid grid(pl.outline, 16, 16);
      const RouteResult r = global_route(nl, pl, grid, cfg);
      const RouteResult l = global_route(nl, pl, grid, no_rrr);
      // Maze routing ran: RRR changed the routes the L-shapes produced.
      EXPECT_NE(route_hash(r), route_hash(l));
      EXPECT_EQ(r.total_overflow, c.overflow);
      EXPECT_EQ(r.wirelength, c.wirelength);
      EXPECT_EQ(route_hash(r), c.hash);
    }
  }
}

// Pattern routing alone (no RRR): only the edge costs summed by the best-of-two
// L-shape decide between its two candidates. Tight capacities and fractional
// macro-blocked ones make the present-overuse penalty pick many of them.
TEST(RouterGolden, PatternRoutingMatchesRecordedResults) {
  ThreadGuard guard;
  const CongestedCase cases[] = {
      {"dma_k2", DesignKind::kDma, 2, 3.0, 0x1.76p+9, 0x1.2b049c0c78472p+8,
       0x218030ce17a14ed8ull},
      {"macroheavy_k3", DesignKind::kMacroHeavy, 3, 5.0, 0x1.1567333333332p+10,
       0x1.e492c91d92fe4p+8, 0x19655a9146f737fcull},
  };
  for (const CongestedCase& c : cases) {
    const Netlist nl = generate_design(spec_for(c.kind, 0.005));
    RouterConfig cfg;
    cfg.h_capacity = cfg.v_capacity = c.capacity;
    cfg.rrr_rounds = 0;
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << c.name << " threads=" << threads);
      util::set_num_threads(threads);
      const Placement3D pl =
          place_pseudo3d(nl, PlacementParams{}, 3, true, c.tiers);
      const GCellGrid grid(pl.outline, 16, 16);
      const RouteResult r = global_route(nl, pl, grid, cfg);
      EXPECT_EQ(r.total_overflow, c.overflow);
      EXPECT_EQ(r.wirelength, c.wirelength);
      EXPECT_EQ(route_hash(r), c.hash);
    }
  }
}

TEST(RouterGolden, CalibratedCapacityMatchesRecordedResults) {
  ThreadGuard guard;
  const struct {
    const char* name;
    DesignKind kind;
    int tiers;
    double h_capacity, v_capacity;
  } cases[] = {
      {"ldpc_k2", DesignKind::kLdpc, 2, 9.0, 6.0},
      {"macroheavy_k3", DesignKind::kMacroHeavy, 3, 10.0, 6.0},
  };
  for (const auto& c : cases) {
    const Netlist nl = generate_design(spec_for(c.kind, 0.005));
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << c.name << " threads=" << threads);
      util::set_num_threads(threads);
      const Placement3D pl =
          place_pseudo3d(nl, PlacementParams{}, 3, true, c.tiers);
      const GCellGrid grid(pl.outline, 16, 16);
      const RouterConfig cal = calibrate_capacity(nl, pl, grid);
      EXPECT_EQ(cal.h_capacity, c.h_capacity);
      EXPECT_EQ(cal.v_capacity, c.v_capacity);
    }
  }
}

TEST(Router, ScalesWithPlacementQuality) {
  // A congested clumped placement must overflow more than a spread one.
  const Netlist nl = testing::tiny_design(600);
  PlacementParams good = PlacementParams::congestion_focused();
  PlacementParams bad;
  bad.max_density = 0.95;
  bad.cong_restruct_effort = 0;
  bad.cong_restruct_iterations = 0;
  const Placement3D pg = place_pseudo3d(nl, good, 11);
  const Placement3D pb = place_pseudo3d(nl, bad, 11);
  RouterConfig cfg;
  cfg.h_capacity = 6.0;
  cfg.v_capacity = 5.0;
  const GCellGrid gg(pg.outline, 16, 16);
  const GCellGrid gb(pb.outline, 16, 16);
  const double ovf_good = global_route(nl, pg, gg, cfg).total_overflow;
  const double ovf_bad = global_route(nl, pb, gb, cfg).total_overflow;
  // Not strictly guaranteed per-seed, but with these extremes the ordering
  // is robust; it is the core signal the whole paper builds on.
  EXPECT_LE(ovf_good, ovf_bad * 1.1 + 10.0);
}

}  // namespace
}  // namespace dco3d
