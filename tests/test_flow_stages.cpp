// Stage-graph flow engine tests: the staged pipeline must be bit-identical
// to the pre-refactor monolithic run_pin3d_flow, resume from cached
// artifacts must reproduce the full run exactly, and the pipeline's
// stop/resume/trace controls must behave as documented (docs/flow.md).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "flow/artifact.hpp"
#include "flow/pin3d.hpp"
#include "flow/signoff.hpp"
#include "flow/stage.hpp"
#include "netlist/generators.hpp"
#include "place/legalize.hpp"
#include "route/router.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/status.hpp"

namespace dco3d {
namespace {

/// Verbatim transcription of the monolithic run_pin3d_flow this PR replaced
/// (git history: src/flow/pin3d.cpp before the stage-graph refactor), built
/// from the same public API. The staged pipeline must match it bit-for-bit.
FlowResult reference_flow(const Netlist& design, const FlowConfig& cfg,
                          const PlacementOptimizer& optimizer = nullptr) {
  Netlist netlist = design;
  Placement3D placement =
      place_pseudo3d(netlist, cfg.place_params, cfg.seed, /*legalized=*/false);
  if (optimizer) optimizer(netlist, placement);

  FlowResult res;
  res.grid = GCellGrid(placement.outline, cfg.grid_nx, cfg.grid_ny);
  res.global_placement = placement;
  {
    Placement3D legal = placement;
    legalize_all(netlist, legal, cfg.place_params);
    res.after_place = measure_routed(
        netlist, legal, global_route(netlist, legal, res.grid, cfg.router),
        cfg.timing);
  }

  res.cts = run_cts(netlist, placement, cfg.cts);
  std::vector<double> skew = res.cts.skew_ps;
  if (!skew.empty()) {
    double mean = 0.0;
    std::size_t n = 0;
    for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci) {
      if (netlist.is_sequential(static_cast<CellId>(ci))) {
        mean += skew[ci];
        ++n;
      }
    }
    if (n > 0) {
      mean /= static_cast<double>(n);
      for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci)
        if (netlist.is_sequential(static_cast<CellId>(ci)) ||
            netlist.is_macro(static_cast<CellId>(ci)))
          skew[ci] -= mean;
    }
  }

  legalize_all(netlist, placement, cfg.place_params);
  RouteResult route = global_route(netlist, placement, res.grid, cfg.router);

  SignoffConfig so = cfg.signoff;
  so.enable_useful_skew = so.enable_useful_skew || cfg.place_params.enable_ccd;
  so.enable_low_power_recovery =
      so.enable_low_power_recovery || cfg.place_params.low_power_placement;
  res.signoff_detail =
      run_signoff(netlist, placement, route, cfg.timing, skew, so);

  // The monolith re-routed for the final view; the pipeline reuses the route
  // stage's result, which must match this re-route bit for bit.
  res.final_route = global_route(netlist, placement, res.grid, cfg.router);
  res.signoff =
      measure_routed(netlist, placement, res.final_route, cfg.timing, &skew);
  res.placement = std::move(placement);
  return res;
}

void expect_metrics_eq(const StageMetrics& a, const StageMetrics& b) {
  EXPECT_EQ(a.overflow, b.overflow);
  EXPECT_EQ(a.ovf_gcell_pct, b.ovf_gcell_pct);
  EXPECT_EQ(a.h_overflow, b.h_overflow);
  EXPECT_EQ(a.v_overflow, b.v_overflow);
  EXPECT_EQ(a.wns_ps, b.wns_ps);
  EXPECT_EQ(a.tns_ps, b.tns_ps);
  EXPECT_EQ(a.power_mw, b.power_mw);
  EXPECT_EQ(a.wirelength_um, b.wirelength_um);
}

void expect_placement_eq(const Placement3D& a, const Placement3D& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.outline.xlo, b.outline.xlo);
  EXPECT_EQ(a.outline.xhi, b.outline.xhi);
  EXPECT_EQ(a.outline.ylo, b.outline.ylo);
  EXPECT_EQ(a.outline.yhi, b.outline.yhi);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.xy[i].x, b.xy[i].x) << "cell " << i;
    EXPECT_EQ(a.xy[i].y, b.xy[i].y) << "cell " << i;
    EXPECT_EQ(a.tier[i], b.tier[i]) << "cell " << i;
  }
}

void expect_timing_eq(const TimingResult& a, const TimingResult& b) {
  EXPECT_EQ(a.wns_ps, b.wns_ps);
  EXPECT_EQ(a.tns_ps, b.tns_ps);
  EXPECT_EQ(a.endpoints, b.endpoints);
  EXPECT_EQ(a.violating_endpoints, b.violating_endpoints);
  EXPECT_EQ(a.switching_mw, b.switching_mw);
  EXPECT_EQ(a.internal_mw, b.internal_mw);
  EXPECT_EQ(a.leakage_mw, b.leakage_mw);
  EXPECT_EQ(a.total_mw, b.total_mw);
  EXPECT_EQ(a.cell_slack, b.cell_slack);
  EXPECT_EQ(a.cell_arrival, b.cell_arrival);
  EXPECT_EQ(a.cell_out_slew, b.cell_out_slew);
  EXPECT_EQ(a.cell_in_slew, b.cell_in_slew);
  EXPECT_EQ(a.net_switch_mw, b.net_switch_mw);
}

void expect_route_eq(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.num_tiers, b.num_tiers);
  EXPECT_EQ(a.total_overflow, b.total_overflow);
  EXPECT_EQ(a.h_overflow, b.h_overflow);
  EXPECT_EQ(a.v_overflow, b.v_overflow);
  EXPECT_EQ(a.tier_overflow, b.tier_overflow);
  EXPECT_EQ(a.vias_per_boundary, b.vias_per_boundary);
  EXPECT_EQ(a.ovf_gcell_pct, b.ovf_gcell_pct);
  EXPECT_EQ(a.wirelength, b.wirelength);
  EXPECT_EQ(a.num_3d_vias, b.num_3d_vias);
  EXPECT_TRUE(a.congestion == b.congestion);
  EXPECT_TRUE(a.usage == b.usage);
  EXPECT_EQ(a.net_routed_wl, b.net_routed_wl);
  EXPECT_EQ(a.net_overflow_crossings, b.net_overflow_crossings);
}

void expect_flow_eq(const FlowResult& a, const FlowResult& b) {
  expect_metrics_eq(a.after_place, b.after_place);
  expect_metrics_eq(a.signoff, b.signoff);
  EXPECT_EQ(a.cts.buffers_inserted, b.cts.buffers_inserted);
  EXPECT_EQ(a.cts.levels, b.cts.levels);
  EXPECT_EQ(a.cts.max_skew_ps, b.cts.max_skew_ps);
  EXPECT_EQ(a.cts.skew_ps, b.cts.skew_ps);
  EXPECT_EQ(a.signoff_detail.upsized, b.signoff_detail.upsized);
  EXPECT_EQ(a.signoff_detail.downsized, b.signoff_detail.downsized);
  EXPECT_EQ(a.signoff_detail.skewed, b.signoff_detail.skewed);
  expect_timing_eq(a.signoff_detail.timing, b.signoff_detail.timing);
  EXPECT_EQ(a.signoff_detail.net_length_scale,
            b.signoff_detail.net_length_scale);
  expect_placement_eq(a.placement, b.placement);
  expect_placement_eq(a.global_placement, b.global_placement);
  expect_route_eq(a.final_route, b.final_route);
}

FlowConfig small_cfg() {
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.timing.clock_period_ps = 250.0;
  cfg.seed = 7;
  return cfg;
}

/// Deterministic stand-in for the DCO hook: nudges the first cell so the
/// optimizer path (global_placement snapshot, grid timing) is exercised.
PlacementOptimizer nudge_hook() {
  return [](const Netlist&, Placement3D& pl) {
    if (!pl.xy.empty()) pl.xy[0].x += 0.01;
  };
}

class ThreadCount : public ::testing::TestWithParam<int> {
 protected:
  void SetUp() override { util::set_num_threads(GetParam()); }
  void TearDown() override { util::set_num_threads(0); }
};

TEST_P(ThreadCount, StagedFlowMatchesMonolith) {
  const Netlist design = testing::tiny_design(260);
  const FlowConfig cfg = small_cfg();
  expect_flow_eq(run_pin3d_flow(design, cfg), reference_flow(design, cfg));
}

TEST_P(ThreadCount, StagedFlowMatchesMonolithWithHook) {
  const Netlist design = testing::tiny_design(260);
  const FlowConfig cfg = small_cfg();
  expect_flow_eq(run_pin3d_flow(design, cfg, nudge_hook()),
                 reference_flow(design, cfg, nudge_hook()));
}

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCount, ::testing::Values(1, 2, 8));

TEST(Pipeline, ResumeFromCacheReproducesFullRun) {
  const Netlist design = testing::tiny_design(220);
  const FlowConfig cfg = small_cfg();
  const std::string cache =
      (std::filesystem::temp_directory_path() / "dco3d_resume_cache").string();
  std::filesystem::remove_all(cache);

  PipelineOptions full;
  full.cache_dir = cache;
  FlowContext ctx1 = make_flow_context(design, cfg);
  const FlowResult want = pin3d_pipeline().run(ctx1, full);

  PipelineOptions resume;
  resume.cache_dir = cache;
  resume.resume_from = "route";
  FlowContext ctx2 = make_flow_context(design, cfg);
  const FlowResult got = pin3d_pipeline().run(ctx2, resume);
  expect_flow_eq(got, want);

  // Resuming from the first stage needs no artifact at all.
  PipelineOptions from_start;
  from_start.cache_dir = cache;
  from_start.resume_from = "place3d";
  FlowContext ctx3 = make_flow_context(design, cfg);
  expect_flow_eq(pin3d_pipeline().run(ctx3, from_start), want);

  std::filesystem::remove_all(cache);
}

TEST(Pipeline, ResumeWithoutArtifactIsNotFound) {
  const Netlist design = testing::tiny_design(150);
  const std::string cache =
      (std::filesystem::temp_directory_path() / "dco3d_missing_cache").string();
  std::filesystem::remove_all(cache);
  PipelineOptions opts;
  opts.cache_dir = cache;
  opts.resume_from = "route";
  FlowContext ctx = make_flow_context(design, small_cfg());
  try {
    pin3d_pipeline().run(ctx, opts);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
  }
  std::filesystem::remove_all(cache);
}

TEST(Pipeline, ArtifactReaderBoundsTheTierCount) {
  const Netlist design = testing::tiny_design(150);
  PipelineOptions opts;
  opts.stop_after = "route";
  FlowContext ctx = make_flow_context(design, small_cfg());
  pin3d_pipeline().run(ctx, opts);
  ASSERT_TRUE(ctx.route_valid);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "dco3d_tier_bound_artifact";
  std::filesystem::remove_all(dir);
  save_flow_artifact(dir.string(), ctx);

  // Rewrite the route's tier count past the bound.
  const std::filesystem::path route = dir / "route.txt";
  std::stringstream text;
  text << std::ifstream(route).rdbuf();
  std::string body = text.str();
  const std::size_t at = body.find("\ntiers 2\n");
  ASSERT_NE(at, std::string::npos);
  body.replace(at, 9, "\ntiers " + std::to_string(kMaxTiers + 1) + "\n");
  std::ofstream(route, std::ios::trunc) << body;

  FlowContext back = make_flow_context(design, small_cfg());
  try {
    load_flow_artifact(dir.string(), back);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("tiers"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(Pipeline, StopAfterSkipsLaterStages) {
  const Netlist design = testing::tiny_design(180);
  PipelineOptions opts;
  opts.stop_after = "after-place-metrics";
  FlowContext ctx = make_flow_context(design, small_cfg());
  const FlowResult r = pin3d_pipeline().run(ctx, opts);
  EXPECT_GT(r.after_place.wirelength_um, 0.0);
  // CTS and signoff never ran.
  EXPECT_EQ(r.cts.buffers_inserted, 0u);
  EXPECT_EQ(r.signoff.wirelength_um, 0.0);
  EXPECT_FALSE(ctx.route_valid);
}

TEST(Pipeline, UnknownStageIsInvalidArgument) {
  const Netlist design = testing::tiny_design(120);
  FlowContext ctx = make_flow_context(design, small_cfg());
  PipelineOptions opts;
  opts.stop_after = "no-such-stage";
  try {
    pin3d_pipeline().run(ctx, opts);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(std::string(e.what()).find("place3d"), std::string::npos)
        << "error should list the valid stages";
  }
}

TEST(Pipeline, TraceRecordsEveryStageInOrder) {
  const Netlist design = testing::tiny_design(160);
  std::vector<StageTraceEntry> trace;
  PipelineOptions opts;
  opts.trace = &trace;
  FlowContext ctx = make_flow_context(design, small_cfg());
  ctx.design_name = "tiny";
  pin3d_pipeline().run(ctx, opts);

  const std::vector<std::string> want = {
      "place3d", "dco",     "after-place-metrics", "cts",
      "legalize", "route",  "signoff",             "final-metrics"};
  ASSERT_EQ(trace.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(trace[i].stage, want[i]);
    EXPECT_EQ(trace[i].index, static_cast<int>(i));
    EXPECT_EQ(trace[i].design, "tiny");
    EXPECT_FALSE(trace[i].cached);
    EXPECT_GE(trace[i].wall_ms, 0.0);
    EXPECT_GE(trace[i].threads, 1);
  }
  // Stages that measure publish their headline numbers.
  const auto metric = [](const StageTraceEntry& e, const std::string& key) {
    for (const auto& [k, v] : e.metrics)
      if (k == key) return v;
    ADD_FAILURE() << "metric '" << key << "' missing from " << e.stage;
    return 0.0;
  };
  EXPECT_GT(metric(trace[2], "wirelength_um"), 0.0);
  EXPECT_GT(metric(trace[5], "wirelength_um"), 0.0);
}

// final-metrics reuses the route stage's RouteResult instead of re-routing.
// That holds only while signoff leaves everything the router reads alone:
// re-routing the post-signoff netlist and placement must reproduce the route
// stage's result in every field, for every design family and stacking
// scenario, at two and three tiers, with rip-up-and-reroute active.
TEST(Pipeline, SignoffLeavesTheRouteUnchanged) {
  const DesignKind kinds[] = {DesignKind::kDma,      DesignKind::kAes,
                              DesignKind::kEcg,      DesignKind::kLdpc,
                              DesignKind::kVga,      DesignKind::kRocket,
                              DesignKind::kMemLogic, DesignKind::kMacroHeavy};
  int resized = 0;
  for (DesignKind kind : kinds) {
    const Netlist design = generate_design(spec_for(kind, 0.005));
    for (int tiers : {2, 3}) {
      SCOPED_TRACE(::testing::Message()
                   << design_name(kind) << " tiers=" << tiers);
      FlowConfig cfg = small_cfg();
      cfg.num_tiers = tiers;
      cfg.router.h_capacity = cfg.router.v_capacity = 5.0;
      cfg.signoff.enable_low_power_recovery = tiers == 3;
      cfg.signoff.enable_useful_skew = tiers == 3;
      PipelineOptions opts;
      opts.stop_after = "signoff";
      FlowContext ctx = make_flow_context(design, cfg);
      pin3d_pipeline().run(ctx, opts);
      ASSERT_TRUE(ctx.route_valid);
      resized += ctx.res.signoff_detail.upsized +
                 ctx.res.signoff_detail.downsized;

      const RouteResult rerouted =
          global_route(ctx.netlist, ctx.placement, ctx.res.grid, cfg.router);
      EXPECT_GT(rerouted.total_overflow + rerouted.wirelength, 0.0);
      expect_route_eq(rerouted, ctx.route);
      pin3d_stage("final-metrics").run(ctx);
      expect_route_eq(ctx.res.final_route, rerouted);
    }
  }
  EXPECT_GT(resized, 0) << "signoff must have changed some masters";
}

TEST(Pipeline, FinalMetricsWithoutRouteIsInvalidArgument) {
  const Netlist design = testing::tiny_design(120);
  FlowContext ctx = make_flow_context(design, small_cfg());
  PipelineOptions opts;
  opts.start_at = "final-metrics";
  try {
    pin3d_pipeline().run(ctx, opts);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(Pipeline, CacheKeyReactsToConfigAndDesign) {
  const Netlist d1 = testing::tiny_design(140);
  const Netlist d2 = testing::tiny_design(140, /*seed=*/11);
  FlowConfig cfg = small_cfg();
  FlowContext base = make_flow_context(d1, cfg);
  const std::string k1 = flow_cache_key(base);
  EXPECT_EQ(k1.size(), 16u);
  EXPECT_EQ(k1, flow_cache_key(base)) << "key must be deterministic";

  FlowContext other_design = make_flow_context(d2, cfg);
  EXPECT_NE(flow_cache_key(other_design), k1);

  cfg.seed = 8;
  FlowContext other_seed = make_flow_context(d1, cfg);
  EXPECT_NE(flow_cache_key(other_seed), k1);

  FlowContext other_opt = make_flow_context(d1, small_cfg());
  other_opt.optimizer_tag = "dco:model.ckpt";
  EXPECT_NE(flow_cache_key(other_opt), k1);
}

}  // namespace
}  // namespace dco3d
