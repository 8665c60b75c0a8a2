// STA and power model tests: chain delays, endpoint slacks, skew, detour
// coupling, clock-net handling, and the power breakdown.

#include <gtest/gtest.h>

#include "place/placer3d.hpp"
#include "timing/sta.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

/// FF -> inv chain -> FF fixture with configurable chain length/spacing.
struct ChainFixture {
  Netlist nl{Library::make_default()};
  Placement3D pl;
  CellId ff_in, ff_out;
  std::vector<CellId> chain;

  explicit ChainFixture(int length, double spacing = 5.0) {
    const CellTypeId dff = nl.library().find(CellFunction::kDff, 1);
    const CellTypeId inv = nl.library().find(CellFunction::kInv, 1);
    ff_in = nl.add_cell("ff_in", dff);
    for (int i = 0; i < length; ++i)
      chain.push_back(nl.add_cell("inv" + std::to_string(i), inv));
    ff_out = nl.add_cell("ff_out", dff);

    CellId prev = ff_in;
    for (int i = 0; i <= length; ++i) {
      const CellId next = i < length ? chain[static_cast<std::size_t>(i)] : ff_out;
      Net n;
      n.driver = {prev, {}};
      n.sinks.push_back({next, {}});
      nl.add_net(std::move(n));
      prev = next;
    }
    nl.freeze();
    const auto n_cells = nl.num_cells();
    pl = Placement3D::make(n_cells, Rect{0, 0, spacing * (length + 2), 10});
    for (std::size_t i = 0; i < n_cells; ++i)
      pl.xy[i] = {spacing * static_cast<double>(i), 5.0};
  }
};

TEST(Sta, LongerChainHasWorseSlack) {
  TimingConfig cfg;
  cfg.clock_period_ps = 200.0;
  ChainFixture short_chain(3), long_chain(12);
  const TimingResult a = run_sta(short_chain.nl, short_chain.pl, cfg);
  const TimingResult b = run_sta(long_chain.nl, long_chain.pl, cfg);
  EXPECT_GT(a.wns_ps, b.wns_ps);
}

TEST(Sta, SlackScalesWithPeriod) {
  ChainFixture f(6);
  TimingConfig fast, slow;
  fast.clock_period_ps = 100.0;
  slow.clock_period_ps = 400.0;
  const TimingResult tf = run_sta(f.nl, f.pl, fast);
  const TimingResult ts = run_sta(f.nl, f.pl, slow);
  EXPECT_NEAR(ts.wns_ps - tf.wns_ps, 300.0, 1e-6);
}

TEST(Sta, TnsIsSumOfNegativeEndpointSlacks) {
  ChainFixture f(20);
  TimingConfig cfg;
  cfg.clock_period_ps = 60.0;  // aggressively violating
  const TimingResult t = run_sta(f.nl, f.pl, cfg);
  EXPECT_LT(t.wns_ps, 0.0);
  EXPECT_LE(t.tns_ps, t.wns_ps);  // at least one endpoint at WNS
  EXPECT_GE(t.violating_endpoints, 1u);
}

TEST(Sta, WireLengthMatters) {
  TimingConfig cfg;
  cfg.clock_period_ps = 200.0;
  ChainFixture tight(6, 1.0), sparse(6, 40.0);
  const TimingResult a = run_sta(tight.nl, tight.pl, cfg);
  const TimingResult b = run_sta(sparse.nl, sparse.pl, cfg);
  EXPECT_GT(a.wns_ps, b.wns_ps);
}

TEST(Sta, DetourScaleDegradesTiming) {
  ChainFixture f(6, 10.0);
  TimingConfig cfg;
  cfg.clock_period_ps = 200.0;
  const TimingResult base = run_sta(f.nl, f.pl, cfg);
  std::vector<double> detour(f.nl.num_nets(), 2.5);
  const TimingResult slow = run_sta(f.nl, f.pl, cfg, nullptr, &detour);
  EXPECT_LT(slow.wns_ps, base.wns_ps);
  EXPECT_GT(slow.total_mw, base.total_mw);  // longer wires, more cap
}

TEST(Sta, CaptureSkewRelaxesSetup) {
  ChainFixture f(10);
  TimingConfig cfg;
  cfg.clock_period_ps = 120.0;
  std::vector<double> skew(f.nl.num_cells(), 0.0);
  const TimingResult base = run_sta(f.nl, f.pl, cfg, &skew);
  // Retard the capture FF's clock: more time for the data path.
  skew[static_cast<std::size_t>(f.ff_out)] = 30.0;
  const TimingResult better = run_sta(f.nl, f.pl, cfg, &skew);
  EXPECT_GT(better.wns_ps, base.wns_ps);
}

TEST(Sta, UpsizingDriverImprovesDelay) {
  ChainFixture f(8, 15.0);
  TimingConfig cfg;
  cfg.clock_period_ps = 150.0;
  const TimingResult before = run_sta(f.nl, f.pl, cfg);
  // Upsize every inverter.
  for (CellId c : f.chain) {
    const CellTypeId up = f.nl.library().upsize(f.nl.cell(c).type);
    ASSERT_GE(up, 0);
    f.nl.cell(c).type = up;
  }
  const TimingResult after = run_sta(f.nl, f.pl, cfg);
  EXPECT_GT(after.wns_ps, before.wns_ps);
}

TEST(Sta, ViaDelayOnCrossTierNets) {
  ChainFixture f(4, 10.0);
  TimingConfig cfg;
  cfg.clock_period_ps = 200.0;
  const TimingResult same = run_sta(f.nl, f.pl, cfg);
  // Alternate tiers along the chain: every net becomes 3D.
  for (std::size_t i = 0; i < f.pl.size(); ++i)
    f.pl.tier[i] = static_cast<int>(i % 2);
  const TimingResult cross = run_sta(f.nl, f.pl, cfg);
  EXPECT_LT(cross.wns_ps, same.wns_ps);
}

TEST(Sta, CellSlackExposedForGnnFeatures) {
  ChainFixture f(10);
  TimingConfig cfg;
  cfg.clock_period_ps = 100.0;
  const TimingResult t = run_sta(f.nl, f.pl, cfg);
  ASSERT_EQ(t.cell_slack.size(), f.nl.num_cells());
  // Cells on the single violating path should carry negative slack.
  EXPECT_LT(t.cell_slack[static_cast<std::size_t>(f.chain[5])], 0.0);
  ASSERT_EQ(t.cell_out_slew.size(), f.nl.num_cells());
  EXPECT_GT(t.cell_out_slew[static_cast<std::size_t>(f.chain[0])], 0.0);
}

TEST(Sta, PowerBreakdownPositiveAndAdditive) {
  const Netlist nl = testing::tiny_design(300);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3);
  TimingConfig cfg;
  const TimingResult t = run_sta(nl, pl, cfg);
  EXPECT_GT(t.switching_mw, 0.0);
  EXPECT_GT(t.internal_mw, 0.0);
  EXPECT_GT(t.leakage_mw, 0.0);
  EXPECT_NEAR(t.total_mw, t.switching_mw + t.internal_mw + t.leakage_mw, 1e-9);
}

TEST(Sta, ClockNetsExcludedFromDataArcs) {
  // A clock net between a buffer and a FF must not create a setup arc.
  Netlist nl(Library::make_default());
  const CellTypeId dff = nl.library().find(CellFunction::kDff, 1);
  const CellTypeId buf = nl.library().find(CellFunction::kBuf, 4);
  const CellId ff = nl.add_cell("ff", dff);
  const CellId cb = nl.add_cell("clkbuf", buf);
  Net clk;
  clk.driver = {cb, {}};
  clk.sinks.push_back({ff, {}});
  clk.is_clock = true;
  nl.add_net(std::move(clk));
  nl.freeze();
  Placement3D pl = Placement3D::make(2, Rect{0, 0, 10, 10});
  pl.xy = {{1, 1}, {9, 9}};
  TimingConfig cfg;
  cfg.clock_period_ps = 100.0;
  const TimingResult t = run_sta(nl, pl, cfg);
  // The FF sees no data arrival at all -> no violation from the clock net.
  EXPECT_GE(t.wns_ps, 0.0);
}

TEST(Sta, ClockNetsBurnSwitchingPower) {
  Netlist nl(Library::make_default());
  const CellTypeId buf = nl.library().find(CellFunction::kBuf, 4);
  const CellTypeId inv = nl.library().smallest(CellFunction::kInv);
  const CellId cb = nl.add_cell("clkbuf", buf);
  const CellId s = nl.add_cell("sink", inv);
  Net data;
  data.driver = {cb, {}};
  data.sinks.push_back({s, {}});
  nl.add_net(std::move(data));
  nl.freeze();
  Placement3D pl = Placement3D::make(2, Rect{0, 0, 10, 10});
  pl.xy = {{1, 1}, {9, 9}};
  TimingConfig cfg;
  const TimingResult as_data = run_sta(nl, pl, cfg);
  nl.set_net_is_clock(0, true);
  const TimingResult as_clock = run_sta(nl, pl, cfg);
  // Clock activity 1.0 vs data activity 0.15.
  EXPECT_GT(as_clock.net_switch_mw[0], as_data.net_switch_mw[0] * 5.0);
}

TEST(Sta, NetLoadIncludesPinsWireAndVia) {
  Netlist nl(Library::make_default());
  const CellTypeId inv = nl.library().find(CellFunction::kInv, 1);
  const CellId a = nl.add_cell("a", inv);
  const CellId b = nl.add_cell("b", inv);
  Net n;
  n.driver = {a, {}};
  n.sinks.push_back({b, {}});
  nl.add_net(std::move(n));
  nl.freeze();
  Placement3D pl = Placement3D::make(2, Rect{0, 0, 100, 100});
  pl.xy = {{0, 0}, {30, 40}};
  TimingConfig cfg;
  const double pin_cap = nl.library().type(inv).input_cap;
  const double expect = pin_cap + 70.0 * cfg.wire_cap_per_um;
  EXPECT_NEAR(net_load_ff(nl, pl, 0, cfg), expect, 1e-9);
  pl.tier[1] = 1;
  EXPECT_NEAR(net_load_ff(nl, pl, 0, cfg), expect + cfg.via_cap_ff, 1e-9);
  // Detour scale stretches the wire term only.
  EXPECT_NEAR(net_load_ff(nl, pl, 0, cfg, 2.0),
              pin_cap + 140.0 * cfg.wire_cap_per_um + cfg.via_cap_ff, 1e-9);
}

}  // namespace
}  // namespace dco3d
