// Flow-level tests: CTS, signoff optimization, dataset construction, and the
// Pin-3D driver.

#include <gtest/gtest.h>

#include "flow/cts.hpp"
#include "flow/dataset.hpp"
#include "flow/pin3d.hpp"
#include "flow/signoff.hpp"
#include "place/legalize.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

TEST(Cts, InsertsBuffersAndClockNets) {
  Netlist nl = testing::tiny_design(300);
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl, params, 3, false);
  const std::size_t cells_before = nl.num_cells();
  const std::size_t nets_before = nl.num_nets();
  const CtsResult r = run_cts(nl, pl);
  EXPECT_GT(r.buffers_inserted, 0u);
  EXPECT_EQ(nl.num_cells(), cells_before + r.buffers_inserted);
  EXPECT_GT(nl.num_nets(), nets_before);
  EXPECT_EQ(pl.size(), nl.num_cells());
  EXPECT_EQ(r.skew_ps.size(), nl.num_cells());
  // Every added net is a clock net driven by a CTS buffer.
  for (std::size_t ni = nets_before; ni < nl.num_nets(); ++ni)
    EXPECT_TRUE(nl.net_is_clock(static_cast<NetId>(ni)));
}

TEST(Cts, EveryRegisterReached) {
  Netlist nl = testing::tiny_design(300);
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl, params, 3, false);
  const CtsResult r = run_cts(nl, pl);
  for (std::size_t ci = 0; ci < nl.num_cells(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    if (nl.is_sequential(id)) {
      EXPECT_GT(r.skew_ps[ci], 0.0) << "register " << nl.cell_name(id)
                                    << " not reached by the clock tree";
    }
  }
  EXPECT_GE(r.levels, 2u);
  EXPECT_GT(r.max_skew_ps, 0.0);
}

TEST(Cts, BuffersPlacedInsideOutline) {
  Netlist nl = testing::tiny_design(300);
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl, params, 3, false);
  const std::size_t before = nl.num_cells();
  run_cts(nl, pl);
  for (std::size_t ci = before; ci < nl.num_cells(); ++ci) {
    EXPECT_TRUE(pl.outline.contains(pl.xy[ci]))
        << "CTS buffer outside the die outline";
  }
}

TEST(Cts, SmallerLeafCapMeansMoreLevels) {
  Netlist nl1 = testing::tiny_design(400);
  Netlist nl2 = nl1;
  PlacementParams params;
  Placement3D p1 = place_pseudo3d(nl1, params, 3, false);
  Placement3D p2 = p1;
  CtsConfig big, small;
  big.max_sinks_per_leaf = 64;
  small.max_sinks_per_leaf = 4;
  const CtsResult rb = run_cts(nl1, p1, big);
  const CtsResult rs = run_cts(nl2, p2, small);
  EXPECT_GT(rs.levels, rb.levels);
  EXPECT_GT(rs.buffers_inserted, rb.buffers_inserted);
}

TEST(Signoff, DetourFactorsAtLeastOne) {
  const Netlist nl = testing::tiny_design(300);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 5);
  const GCellGrid grid(pl.outline, 16, 16);
  const RouteResult route = global_route(nl, pl, grid);
  const auto detour = detour_factors(nl, pl, route, 0.03);
  ASSERT_EQ(detour.size(), nl.num_nets());
  for (double d : detour) {
    EXPECT_GE(d, 1.0);
    EXPECT_LE(d, 4.0);
  }
}

TEST(Signoff, SizingImprovesTiming) {
  Netlist nl = testing::tiny_design(400);
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl, params, 5);
  const GCellGrid grid(pl.outline, 16, 16);
  const RouteResult route = global_route(nl, pl, grid);
  TimingConfig tcfg;
  tcfg.clock_period_ps = 150.0;  // violating
  std::vector<double> skew(nl.num_cells(), 0.0);
  const auto detour = detour_factors(nl, pl, route, 0.03);
  const TimingResult before = run_sta(nl, pl, tcfg, &skew, &detour);

  SignoffConfig scfg;
  const SignoffResult res = run_signoff(nl, pl, route, tcfg, skew, scfg);
  EXPECT_GT(res.upsized, 0u);
  EXPECT_GE(res.timing.tns_ps, before.tns_ps);
}

TEST(Signoff, UsefulSkewHelpsWhenEnabled) {
  Netlist nl1 = testing::tiny_design(400);
  Netlist nl2 = nl1;
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl1, params, 7);
  const GCellGrid grid(pl.outline, 16, 16);
  const RouteResult route = global_route(nl1, pl, grid);
  TimingConfig tcfg;
  tcfg.clock_period_ps = 140.0;
  SignoffConfig no_ccd, ccd;
  ccd.enable_useful_skew = true;
  std::vector<double> skew1(nl1.num_cells(), 0.0), skew2(nl2.num_cells(), 0.0);
  const SignoffResult a = run_signoff(nl1, pl, route, tcfg, skew1, no_ccd);
  const SignoffResult b = run_signoff(nl2, pl, route, tcfg, skew2, ccd);
  EXPECT_GE(b.timing.tns_ps, a.timing.tns_ps - 1e-6);
}

TEST(Signoff, LowPowerRecoveryDownsizes) {
  Netlist nl = testing::tiny_design(300);
  PlacementParams params;
  Placement3D pl = place_pseudo3d(nl, params, 9);
  const GCellGrid grid(pl.outline, 16, 16);
  const RouteResult route = global_route(nl, pl, grid);
  TimingConfig tcfg;
  tcfg.clock_period_ps = 2000.0;  // everything has slack
  SignoffConfig scfg;
  scfg.enable_low_power_recovery = true;
  std::vector<double> skew(nl.num_cells(), 0.0);
  const TimingResult before = run_sta(nl, pl, tcfg);
  const SignoffResult res = run_signoff(nl, pl, route, tcfg, skew, scfg);
  EXPECT_GT(res.downsized, 0u);
  EXPECT_LT(res.timing.total_mw, before.total_mw);
}

TEST(Dataset, SampleShapes) {
  const Netlist design = testing::tiny_design(250);
  DatasetConfig cfg;
  cfg.layouts = 2;
  cfg.perturbed_per_layout = 0;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.net_h = cfg.net_w = 32;
  const auto data = build_dataset(design, cfg);
  ASSERT_EQ(data.size(), 2u);
  for (const DataSample& s : data) {
    for (int die = 0; die < 2; ++die) {
      EXPECT_EQ(s.features[die].shape(), (nn::Shape{1, 7, 32, 32}));
      EXPECT_EQ(s.labels[die].shape(), (nn::Shape{1, 1, 32, 32}));
    }
  }
}

TEST(Dataset, PerturbedAugmentationCount) {
  const Netlist design = testing::tiny_design(250);
  DatasetConfig cfg;
  cfg.layouts = 2;
  cfg.perturbed_per_layout = 2;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.net_h = cfg.net_w = 16;
  const auto data = build_dataset(design, cfg);
  // layouts * (1 + perturbed): base samples plus jitter + clump variants.
  ASSERT_EQ(data.size(), 6u);
  // The perturbed variants must differ from their base layout.
  double diff = 0.0;
  for (std::int64_t i = 0; i < data[0].features[0].numel(); ++i)
    diff += std::abs(data[0].features[0][i] - data[1].features[0][i]);
  EXPECT_GT(diff, 0.0);
}

TEST(Dataset, LayoutsDifferAcrossSamples) {
  const Netlist design = testing::tiny_design(250);
  DatasetConfig cfg;
  cfg.layouts = 3;
  cfg.perturbed_per_layout = 0;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.net_h = cfg.net_w = 16;
  const auto data = build_dataset(design, cfg);
  // Different placement parameters must produce different feature maps.
  double diff = 0.0;
  for (std::int64_t i = 0; i < data[0].features[0].numel(); ++i)
    diff += std::abs(data[0].features[0][i] - data[1].features[0][i]);
  EXPECT_GT(diff, 0.0);
}

/// Hash of every sample's features and labels, bit for bit, in dataset order.
std::uint64_t dataset_hash(const std::vector<DataSample>& data) {
  std::uint64_t h = 1469598103934665603ull;
  for (const DataSample& s : data) {
    for (const nn::Tensor& f : s.features)
      h = testing::fnv1a(h, f.data().data(), f.data().size() * sizeof(float));
    for (const nn::Tensor& l : s.labels)
      h = testing::fnv1a(h, l.data().data(), l.data().size() * sizeof(float));
  }
  return h;
}

DatasetConfig golden_dataset_config(int num_tiers) {
  DatasetConfig cfg;
  cfg.num_tiers = num_tiers;
  cfg.layouts = 3;
  cfg.perturbed_per_layout = 2;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.net_h = cfg.net_w = 16;
  cfg.router.h_capacity = cfg.router.v_capacity = 4.0;
  return cfg;
}

// Recorded from the dataset builder that placed every sample anew;
// placing each layout once must reproduce it bit for bit at any thread count.
TEST(DatasetGolden, SamplesMatchRecordedHashes) {
  testing::ThreadGuard guard;
  const Netlist design = generate_design(spec_for(DesignKind::kLdpc, 0.005));
  const struct {
    int tiers;
    std::uint64_t hash;
  } cases[] = {{2, 0x926008a7c1c9f391ull}, {3, 0x975df549c7996131ull}};
  for (const auto& c : cases) {
    for (int threads : {1, 2, 8}) {
      SCOPED_TRACE(::testing::Message() << "K=" << c.tiers
                                        << " threads=" << threads);
      util::set_num_threads(threads);
      const auto data = build_dataset(design, golden_dataset_config(c.tiers));
      ASSERT_EQ(data.size(), 9u);
      EXPECT_EQ(dataset_hash(data), c.hash);
    }
  }
}

TEST(Dataset, MakeSampleMatchesBuildDataset) {
  const Netlist design = generate_design(spec_for(DesignKind::kLdpc, 0.005));
  const DatasetConfig cfg = golden_dataset_config(2);
  const auto data = build_dataset(design, cfg);
  const int per_layout = 1 + cfg.perturbed_per_layout;
  // Layout 2 uses the second Table-I draw (layout 0 takes no draw).
  const int i = 2;
  Rng rng(cfg.seed);
  PlacementParams params;
  for (int k = 1; k <= i; ++k) params = PlacementParams::sample(rng);
  for (int p = 0; p < per_layout; ++p) {
    SCOPED_TRACE(::testing::Message() << "perturb=" << p);
    const DataSample s = make_sample(design, params, cfg,
                                     cfg.seed * 977 + static_cast<std::uint64_t>(i), p);
    EXPECT_EQ(dataset_hash({s}),
              dataset_hash({data[static_cast<std::size_t>(i * per_layout + p)]}));
  }
}

TEST(Dataset, SplitFractionsRespected) {
  std::vector<DataSample> all(10);
  std::vector<const DataSample*> train, test;
  split_dataset(all, 0.2, train, test);
  EXPECT_EQ(test.size(), 2u);
  EXPECT_EQ(train.size(), 8u);
  split_dataset(all, 0.0, train, test);
  EXPECT_TRUE(test.empty());
  EXPECT_EQ(train.size(), 10u);
}

TEST(Pin3dFlow, ProducesBothStageMetrics) {
  const Netlist design = testing::tiny_design(350);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.timing.clock_period_ps = 200.0;
  const FlowResult r = run_pin3d_flow(design, cfg);
  EXPECT_GT(r.after_place.wirelength_um, 0.0);
  EXPECT_GT(r.signoff.wirelength_um, 0.0);
  EXPECT_GT(r.signoff.power_mw, 0.0);
  EXPECT_GT(r.cts.buffers_inserted, 0u);
  // Signoff WL includes the clock tree -> at least as long as placement WL.
  EXPECT_GE(r.signoff.wirelength_um, r.after_place.wirelength_um * 0.9);
}

TEST(Pin3dFlow, DeterministicForSeed) {
  const Netlist design = testing::tiny_design(350);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  const FlowResult a = run_pin3d_flow(design, cfg);
  const FlowResult b = run_pin3d_flow(design, cfg);
  EXPECT_DOUBLE_EQ(a.signoff.overflow, b.signoff.overflow);
  EXPECT_DOUBLE_EQ(a.signoff.tns_ps, b.signoff.tns_ps);
  EXPECT_DOUBLE_EQ(a.signoff.wirelength_um, b.signoff.wirelength_um);
}

TEST(Pin3dFlow, OptimizerHookRuns) {
  const Netlist design = testing::tiny_design(350);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  bool called = false;
  const FlowResult r = run_pin3d_flow(design, cfg,
                                      [&](const Netlist&, Placement3D& pl) {
                                        called = true;
                                        // Nudge a cell: flow must keep going.
                                        pl.xy[0].x += 0.01;
                                      });
  EXPECT_TRUE(called);
  EXPECT_GT(r.signoff.wirelength_um, 0.0);
}

TEST(Pin3dFlow, DoesNotMutateInputDesign) {
  const Netlist design = testing::tiny_design(350);
  const std::size_t cells = design.num_cells();
  const std::size_t nets = design.num_nets();
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  (void)run_pin3d_flow(design, cfg);
  EXPECT_EQ(design.num_cells(), cells);
  EXPECT_EQ(design.num_nets(), nets);
}

TEST(MeasureStage, ConsistentWithRouteAndSta) {
  const Netlist design = testing::tiny_design(300);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(design, params, 3);
  const GCellGrid grid(pl.outline, 16, 16);
  TimingConfig tcfg;
  RouterConfig rcfg;
  const RouteResult route = global_route(design, pl, grid, rcfg);
  const StageMetrics m = measure_routed(design, pl, route, tcfg);
  EXPECT_DOUBLE_EQ(m.overflow, route.total_overflow);
  EXPECT_DOUBLE_EQ(m.wirelength_um, route.wirelength);
  EXPECT_DOUBLE_EQ(m.h_overflow + m.v_overflow, m.overflow);
}

}  // namespace
}  // namespace dco3d
