// Structural validation of the clock tree: connectivity from the root to
// every register, bounded fan-out, level/skew relationships, and interaction
// with routing.

#include <gtest/gtest.h>

#include <queue>
#include <set>

#include "flow/cts.hpp"
#include "place/legalize.hpp"
#include "place/placer3d.hpp"
#include "route/router.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

struct CtsFixture {
  Netlist nl;
  Placement3D pl;
  CtsResult cts;
  std::size_t cells_before;
  std::size_t nets_before;

  explicit CtsFixture(std::size_t cells = 350, CtsConfig cfg = {})
      : nl(testing::tiny_design(cells)) {
    PlacementParams params;
    pl = place_pseudo3d(nl, params, 3, false);
    cells_before = nl.num_cells();
    nets_before = nl.num_nets();
    cts = run_cts(nl, pl, cfg);
  }
};

TEST(CtsStructure, TreeReachesEveryRegisterExactlyOnce) {
  CtsFixture f;
  // Each register appears as a sink of exactly one clock net.
  std::map<CellId, int> clock_fanin;
  for (std::size_t ni = f.nets_before; ni < f.nl.num_nets(); ++ni) {
    const auto id = static_cast<NetId>(ni);
    ASSERT_TRUE(f.nl.net_is_clock(id));
    for (const Pin& s : f.nl.net_pins(id))
      if (s.dir == PinDir::kSink) ++clock_fanin[s.cell];
  }
  for (std::size_t ci = 0; ci < f.cells_before; ++ci) {
    const auto id = static_cast<CellId>(ci);
    if (f.nl.is_sequential(id)) {
      EXPECT_EQ(clock_fanin[id], 1) << f.nl.cell_name(id);
    }
  }
}

TEST(CtsStructure, EveryBufferHasOneClockFanin) {
  CtsFixture f;
  // CTS buffers form a tree: every buffer except the root is driven by
  // exactly one clock net.
  std::map<CellId, int> fanin;
  for (std::size_t ni = f.nets_before; ni < f.nl.num_nets(); ++ni) {
    for (const Pin& s : f.nl.net_pins(static_cast<NetId>(ni)))
      if (s.dir == PinDir::kSink) ++fanin[s.cell];
  }
  int roots = 0;
  for (std::size_t ci = f.cells_before; ci < f.nl.num_cells(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    const int fi = fanin.count(id) ? fanin[id] : 0;
    if (fi == 0)
      ++roots;
    else
      EXPECT_EQ(fi, 1);
  }
  EXPECT_EQ(roots, 1);  // single clock root
}

TEST(CtsStructure, LeafFanoutBounded) {
  CtsConfig cfg;
  cfg.max_sinks_per_leaf = 6;
  CtsFixture f(350, cfg);
  for (std::size_t ni = f.nets_before; ni < f.nl.num_nets(); ++ni) {
    const auto id = static_cast<NetId>(ni);
    // Leaf nets drive registers; internal nets drive exactly 2 child buffers.
    bool drives_register = false;
    std::size_t sinks = 0;
    for (const Pin& s : f.nl.net_pins(id)) {
      if (s.dir != PinDir::kSink) continue;
      ++sinks;
      drives_register |= f.nl.is_sequential(s.cell) || f.nl.is_macro(s.cell);
    }
    if (drives_register) {
      EXPECT_LE(sinks, cfg.max_sinks_per_leaf);
    } else {
      EXPECT_EQ(sinks, 2u);
    }
  }
}

TEST(CtsStructure, SkewGrowsWithDepth) {
  // A deeper tree (smaller leaf cap) has more accumulated insertion delay.
  CtsConfig shallow, deep;
  shallow.max_sinks_per_leaf = 64;
  deep.max_sinks_per_leaf = 4;
  CtsFixture a(350, shallow), b(350, deep);
  EXPECT_GT(b.cts.max_skew_ps, a.cts.max_skew_ps);
}

TEST(CtsStructure, ClockNetsConsumeRoutingCapacity) {
  // Routing with the clock tree present uses strictly more wirelength.
  const Netlist base = testing::tiny_design(350);
  PlacementParams params;
  Placement3D pl0 = place_pseudo3d(base, params, 3, false);
  Netlist with_cts = base;
  Placement3D pl1 = pl0;
  run_cts(with_cts, pl1);
  legalize_all(base, pl0, params);
  legalize_all(with_cts, pl1, params);
  const GCellGrid g0(pl0.outline, 16, 16);
  const GCellGrid g1(pl1.outline, 16, 16);
  const double wl0 = global_route(base, pl0, g0).wirelength;
  const double wl1 = global_route(with_cts, pl1, g1).wirelength;
  EXPECT_GT(wl1, wl0);
}

TEST(CtsStructure, DeterministicTree) {
  CtsFixture a(300), b(300);
  ASSERT_EQ(a.nl.num_cells(), b.nl.num_cells());
  ASSERT_EQ(a.nl.num_nets(), b.nl.num_nets());
  for (std::size_t ci = 0; ci < a.nl.num_cells(); ++ci)
    EXPECT_DOUBLE_EQ(a.cts.skew_ps[ci], b.cts.skew_ps[ci]);
}

TEST(CtsStructure, NoRegistersNoTree) {
  // A purely combinational design gets no buffers and an all-zero skew.
  Netlist nl(Library::make_default());
  const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
  const CellId a = nl.add_cell("a", inv);
  const CellId b = nl.add_cell("b", inv);
  Net n;
  n.driver = {a, {}};
  n.sinks = {{b, {}}};
  nl.add_net(std::move(n));
  nl.freeze();
  Placement3D pl = Placement3D::make(2, Rect{0, 0, 10, 10});
  const CtsResult r = run_cts(nl, pl);
  EXPECT_EQ(r.buffers_inserted, 0u);
  EXPECT_EQ(nl.num_cells(), 2u);
}

}  // namespace
}  // namespace dco3d
