// bench_report — emit and gate the committed engineering benchmark JSONs:
//
//   bench_report kernels [-o BENCH_kernels.json] [--scale S] [--reps N]
//   bench_report flow    [-o BENCH_flow.json]    [--scale S] [--grid N]
//   bench_report search  [-o BENCH_search.json]  [--scale S] [--grid N]
//   bench_report ingest  [-o BENCH_ingest.json]  [--scale S] [--grid N]
//   bench_report compare --baseline FILE [--threshold T] [--scale S]
//                        [--reps N] [--grid N]
//
// `kernels` times the hot kernels of the DCO loop (hard/soft feature maps,
// the differentiable losses with their analytic backwards, global routing,
// STA, K-way FM partitioning) at two and three tiers, plus the GEMM-bound
// nn primitives underneath the predictor (dense GEMM variants, a conv
// forward+backward block, elementwise and reduction sweeps), so the
// committed numbers track both the flow-level and microkernel-level cost.
// `flow` runs the staged Pin-3D pipeline end to end at two and three tiers
// and records per-stage wall time from the StageTrace.
// `search` runs a small multi-fidelity knob search (cheap screening +
// promotion through a fresh artifact cache) and records total/per-round
// wall time plus rounds/sec, the cache hit rate, and the cheap-vs-full
// evaluation split (docs/search.md).
// `ingest` times open-format ingestion at paper scale: a generated design is
// exported as structural Verilog and re-imported (parse + master mapping +
// freeze) then run through one cheap-fidelity flow, at 1x/4x/10x of the
// default benchmark scale (docs/formats.md).
//
// `compare` closes the perf-trajectory loop: it re-measures the suite named
// by the baseline file's schema, at the worker-pool size the baseline
// records as "threads", and fails (exit 1) if any kernel's fresh p50
// regresses more than --threshold (default 0.15 = 15%) over the committed
// number, or if a committed kernel no longer exists (renames must regenerate
// the baseline). A baseline recorded on another SIMD backend or host ISA is
// not compared at all: compare exits kExitSkipped (77), which the
// `bench_regression*` ctests report as skipped. Wired as those ctests.
//
// Timings are medians over --reps runs after one warm-up; they are
// machine-dependent engineering numbers (like BENCH_serve.json), committed
// to track relative regressions, not absolute performance. The JSON header
// records the SIMD backend, host ISA, git revision, and worker-pool size so
// a diff across machines or backends is recognizable as such.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "core/losses.hpp"
#include "flow/cache.hpp"
#include "flow/pin3d.hpp"
#include "flow/stage.hpp"
#include "io/netlist_reader.hpp"
#include "search/evaluator.hpp"
#include "search/searcher.hpp"
#include "grid/soft_maps.hpp"
#include "netlist/generators.hpp"
#include "nn/conv.hpp"
#include "nn/init.hpp"
#include "nn/kernels.hpp"
#include "nn/ops.hpp"
#include "nn/simd/simd.hpp"
#include "place/fm_partitioner.hpp"
#include "place/placer3d.hpp"
#include "route/router.hpp"
#include "timing/sta.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

#ifndef DCO3D_GIT_DESCRIBE
#define DCO3D_GIT_DESCRIBE "unknown"
#endif

using namespace dco3d;

namespace {

const char* arg_str(int argc, char** argv, const char* key, const char* dflt) {
  for (int i = 2; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], key) == 0) return argv[i + 1];
  return dflt;
}

double arg_num(int argc, char** argv, const char* key, double dflt) {
  const char* s = arg_str(argc, argv, key, nullptr);
  return s ? std::atof(s) : dflt;
}

double median_ms(const std::function<void()>& fn, int reps) {
  fn();  // warm-up (pool/arena steady state)
  std::vector<double> ms;
  ms.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

struct Entry {
  std::string name;
  double p50_ms = 0.0;
};

/// Shared JSON header: design/workload identity plus the measurement context
/// (SIMD backend actually dispatched, best ISA the host supports, git
/// revision, actual worker-pool size).
void write_context(std::FILE* f, const char* schema, const std::string& design,
                   std::size_t cells, std::size_t nets, double scale) {
  std::fprintf(f,
               "{\"schema\":\"%s\",\"design\":\"%s\",\"cells\":%zu,"
               "\"nets\":%zu,\"scale\":%g,\"simd\":\"%s\",\"host_isa\":\"%s\","
               "\"git\":\"%s\",\"threads\":%d",
               schema, design.c_str(), cells, nets, scale,
               nn::simd::backend_name(), nn::simd::host_isa(),
               DCO3D_GIT_DESCRIBE, util::num_threads());
}

/// Per-cell position leaves and the K-1 survival leaves above[j] = P(T > j)
/// for the differentiable kernels: at K = 2 a soft z of 0.8 on the top die
/// and 0.2 on the bottom one, for K > 2 tier probabilities of 0.6 on the
/// cell's own tier and the rest spread evenly over the others.
struct SoftState {
  nn::Var x, y;
  std::vector<nn::Var> above;
};

SoftState make_soft_state(const Placement3D& pl, int num_tiers) {
  const auto n = static_cast<std::int64_t>(pl.size());
  nn::Tensor tx({n}), ty({n});
  for (std::int64_t i = 0; i < n; ++i) {
    tx.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].x);
    ty.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].y);
  }
  SoftState s;
  s.x = nn::make_leaf(std::move(tx), /*requires_grad=*/true);
  s.y = nn::make_leaf(std::move(ty), /*requires_grad=*/true);
  const float own = num_tiers == 2 ? 0.8f : 0.6f;
  const float other =
      num_tiers == 2 ? 0.2f : 0.4f / static_cast<float>(num_tiers - 1);
  for (int j = 0; j + 1 < num_tiers; ++j) {
    nn::Tensor ta({n});
    for (std::int64_t i = 0; i < n; ++i) {
      float a = 0.0f;
      for (int t = j + 1; t < num_tiers; ++t)
        a += pl.tier[static_cast<std::size_t>(i)] == t ? own : other;
      ta.data()[i] = a;
    }
    s.above.push_back(nn::make_leaf(std::move(ta), /*requires_grad=*/true));
  }
  return s;
}

struct KernelSuite {
  std::string design;
  std::size_t cells = 0, nets = 0;
  std::vector<Entry> entries;
};

KernelSuite measure_kernels(double scale, int reps) {
  DesignSpec spec = spec_for(DesignKind::kDma, scale);
  const Netlist design = generate_design(spec);
  const PlacementParams params;
  const Placement3D pl2 = place_pseudo3d(design, params, 3, true, 2);
  const Placement3D pl3 = place_pseudo3d(design, params, 3, true, 3);
  const GCellGrid grid(pl2.outline, 32, 32);
  const GCellGrid grid3(pl3.outline, 32, 32);
  auto edges = std::make_shared<
      const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      design.cell_graph_edges());
  TimingConfig tcfg;
  tcfg.clock_period_ps = spec.clock_period_ps;
  const nn::Tensor power({static_cast<std::int64_t>(design.num_cells())});

  KernelSuite suite;
  suite.design = spec.name;
  suite.cells = design.num_cells();
  suite.nets = design.num_nets();
  const auto add = [&](const char* name, const std::function<void()>& fn) {
    suite.entries.push_back({name, median_ms(fn, reps)});
    std::printf("  %-28s %9.3f ms\n", name, suite.entries.back().p50_ms);
  };

  // --- GEMM-bound nn primitives (fixed shapes, design-independent) ---
  Rng rng(5);
  const std::int64_t gm = 256, gn = 256, gk = 256;
  nn::Tensor ga = nn::xavier_uniform({gm, gk}, gk, gm, rng);
  nn::Tensor gb = nn::xavier_uniform({gk, gn}, gn, gk, rng);
  nn::Tensor gat = nn::xavier_uniform({gk, gm}, gk, gm, rng);
  nn::Tensor gbt = nn::xavier_uniform({gn, gk}, gn, gk, rng);
  nn::Tensor gc({gm, gn});
  const float* gad = ga.data().data();
  const float* gbd = gb.data().data();
  const float* gatd = gat.data().data();
  const float* gbtd = gbt.data().data();
  float* gcd = gc.data().data();
  add("gemm_nn_256", [&] { nn::detail::gemm_nn(gm, gn, gk, gad, gbd, gcd); });
  add("gemm_tn_256", [&] { nn::detail::gemm_tn(gm, gn, gk, gatd, gbd, gcd); });
  add("gemm_nt_256", [&] { nn::detail::gemm_nt(gm, gn, gk, gad, gbtd, gcd); });
  nn::Var cin = nn::make_leaf(nn::xavier_uniform({2, 8, 48, 48}, 8, 16, rng), true);
  nn::Var cw = nn::make_leaf(nn::xavier_uniform({16, 8, 3, 3}, 72, 144, rng), true);
  nn::Var cbias = nn::make_leaf(nn::Tensor({16}, 0.1f), true);
  add("conv_fwd_bwd", [&] {
    nn::backward(nn::sum(nn::conv2d(cin, cw, cbias, 1, 1)));
  });
  nn::Var vx = nn::make_leaf(nn::xavier_uniform({1, 1048576}, 1, 1, rng));
  nn::Var vy = nn::make_leaf(nn::xavier_uniform({1, 1048576}, 1, 1, rng));
  add("ew_mul_1m", [&] { nn::Var o = nn::mul(vx, vy); });
  add("reduce_sum_1m", [&] { nn::Var o = nn::sum(vx); });

  // --- flow-level kernels ---
  add("feature_maps_k2",
      [&] { compute_feature_maps(design, pl2, grid); });
  add("feature_maps_k3",
      [&] { compute_feature_maps(design, pl3, grid3); });
  add("soft_maps_fwd_bwd_k2", [&] {
    SoftState s = make_soft_state(pl2, 2);
    nn::backward(nn::sum(soft_feature_maps(design, grid, s.x, s.y, s.above).stacked));
  });
  add("soft_maps_fwd_bwd_k3", [&] {
    SoftState s = make_soft_state(pl3, 3);
    nn::backward(nn::sum(soft_feature_maps(design, grid3, s.x, s.y, s.above).stacked));
  });
  add("cutsize_fwd_bwd_k2", [&] {
    SoftState s = make_soft_state(pl2, 2);
    nn::backward(cutsize_loss(s.above, edges));
  });
  add("cutsize_fwd_bwd_k3", [&] {
    SoftState s = make_soft_state(pl3, 3);
    nn::backward(cutsize_loss(s.above, edges));
  });
  add("overlap_fwd_bwd_k2", [&] {
    SoftState s = make_soft_state(pl2, 2);
    nn::backward(overlap_loss(design, s.x, s.y, s.above, pl2.outline, 8, 8, 0.8));
  });
  add("overlap_fwd_bwd_k3", [&] {
    SoftState s = make_soft_state(pl3, 3);
    nn::backward(overlap_loss(design, s.x, s.y, s.above, pl3.outline, 8, 8, 0.8));
  });
  add("thermal_fwd_bwd_k3", [&] {
    SoftState s = make_soft_state(pl3, 3);
    nn::backward(
        thermal_density_loss(design, s.x, s.y, s.above, power, pl3.outline, 8, 8));
  });
  add("global_route_k2", [&] { global_route(design, pl2, grid); });
  add("global_route_k3", [&] { global_route(design, pl3, grid3); });
  add("sta", [&] { run_sta(design, pl2, tcfg); });
  add("fm_partition_k2", [&] {
    std::vector<int> tiers = seed_tiers_checkerboard(design, pl2, 16, 2);
    fm_refine(design, tiers, FmConfig{}, 2);
  });
  add("fm_partition_k4", [&] {
    std::vector<int> tiers = seed_tiers_checkerboard(design, pl2, 16, 4);
    fm_refine(design, tiers, FmConfig{}, 4);
  });
  return suite;
}

int run_kernels(int argc, char** argv) {
  const std::string out = arg_str(argc, argv, "-o", "BENCH_kernels.json");
  const double scale = arg_num(argc, argv, "--scale", 0.02);
  const int reps = static_cast<int>(arg_num(argc, argv, "--reps", 5));

  const KernelSuite suite = measure_kernels(scale, reps);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", out.c_str());
    return 1;
  }
  write_context(f, "dco3d-bench-kernels-v2", suite.design, suite.cells,
                suite.nets, scale);
  std::fprintf(f, ",\"reps\":%d,\"kernels\":[", reps);
  for (std::size_t i = 0; i < suite.entries.size(); ++i)
    std::fprintf(f, "%s{\"name\":\"%s\",\"p50_ms\":%.4f}", i ? "," : "",
                 suite.entries[i].name.c_str(), suite.entries[i].p50_ms);
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu kernels)\n", out.c_str(), suite.entries.size());
  return 0;
}

struct FlowSuite {
  std::string design;
  std::size_t cells = 0, nets = 0;
  std::vector<Entry> totals;  // name = "tiers2"/"tiers3"
  std::string runs_json;      // pre-rendered "runs" array body
};

FlowSuite measure_flow(double scale, int grid_n) {
  DesignSpec spec = spec_for(DesignKind::kDma, scale);
  const Netlist design = generate_design(spec);
  FlowSuite suite;
  suite.design = spec.name;
  suite.cells = design.num_cells();
  suite.nets = design.num_nets();

  const int tier_counts[] = {2, 3};
  for (std::size_t ti = 0; ti < 2; ++ti) {
    const int tiers = tier_counts[ti];
    FlowConfig cfg;
    cfg.grid_nx = cfg.grid_ny = grid_n;
    cfg.num_tiers = tiers;
    cfg.timing.clock_period_ps = spec.clock_period_ps;
    {
      const Placement3D ref =
          place_pseudo3d(design, cfg.place_params, cfg.seed, true, tiers);
      cfg.router = calibrated_router(design, ref, grid_n, 0.70);
    }
    FlowContext ctx = make_flow_context(design, cfg);
    ctx.design_name = spec.name;
    std::vector<StageTraceEntry> trace;
    PipelineOptions po;
    po.trace = &trace;
    const auto t0 = std::chrono::steady_clock::now();
    const FlowResult r = pin3d_pipeline().run(ctx, po);
    const double total_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
    std::printf("tiers=%d: %.1f ms, signoff overflow %.0f, WL %.1f um\n",
                tiers, total_ms, r.signoff.overflow, r.signoff.wirelength_um);
    suite.totals.push_back({"flow_tiers" + std::to_string(tiers), total_ms});

    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"tiers\":%d,\"total_ms\":%.3f,"
                  "\"signoff_overflow\":%.4f,\"signoff_wl_um\":%.4f,"
                  "\"stages\":[",
                  ti ? "," : "", tiers, total_ms, r.signoff.overflow,
                  r.signoff.wirelength_um);
    suite.runs_json += buf;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s{\"stage\":\"%s\",\"wall_ms\":%.3f}",
                    i ? "," : "", trace[i].stage.c_str(), trace[i].wall_ms);
      suite.runs_json += buf;
    }
    suite.runs_json += "]}";
  }
  return suite;
}

int run_flow(int argc, char** argv) {
  const std::string out = arg_str(argc, argv, "-o", "BENCH_flow.json");
  const double scale = arg_num(argc, argv, "--scale", 0.02);
  const int grid_n = static_cast<int>(arg_num(argc, argv, "--grid", 16));

  const FlowSuite suite = measure_flow(scale, grid_n);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", out.c_str());
    return 1;
  }
  write_context(f, "dco3d-bench-flow-v2", suite.design, suite.cells,
                suite.nets, scale);
  std::fprintf(f, ",\"grid\":%d,\"runs\":[%s]}\n", grid_n,
               suite.runs_json.c_str());
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// --- search mode ------------------------------------------------------------

struct SearchSuite {
  std::string design;
  std::size_t cells = 0, nets = 0;
  std::vector<Entry> totals;  // "search_total" / "search_round"
  int rounds = 0, cheap_evals = 0, full_evals = 0;
  double rounds_per_sec = 0.0, cache_hit_rate = 0.0, best_objective = 0.0;
};

/// One fixed small search: 3 rounds x batch 4 with cheap screening through a
/// fresh artifact cache (wiped up front so reruns don't replay the previous
/// run's artifacts and report an empty search).
SearchSuite measure_search(double scale, int grid_n) {
  DesignSpec spec = spec_for(DesignKind::kDma, scale);
  const Netlist design = generate_design(spec);
  SearchSuite suite;
  suite.design = spec.name;
  suite.cells = design.num_cells();
  suite.nets = design.num_nets();

  FlowConfig base;
  base.grid_nx = base.grid_ny = grid_n;
  {
    const Placement3D ref =
        place_pseudo3d(design, base.place_params, base.seed, true, base.num_tiers);
    base.router = calibrated_router(design, ref, grid_n, 0.70);
  }

  const std::string cache_dir = "bench_search_cache";
  std::filesystem::remove_all(cache_dir);
  ArtifactCache cache(cache_dir, 1ull << 30);

  FlowEvaluatorConfig ec;
  ec.cache = &cache;
  FlowEvaluator evaluator(spec.name, design, base, ec);
  SearchConfig sc;
  sc.rounds = 3;
  sc.batch = 4;
  sc.init_samples = 4;
  sc.candidates = 64;
  sc.promote_fraction = 0.25;
  sc.cheap_screen = true;
  sc.cache = &cache;

  Rng rng(1);
  const auto t0 = std::chrono::steady_clock::now();
  const SearchResult res = multi_fidelity_search(evaluator, sc, rng);
  const double total_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

  suite.rounds = res.rounds_completed;
  suite.cheap_evals = res.cheap_evals;
  suite.full_evals = res.full_evals;
  suite.best_objective = res.best_objective;
  suite.rounds_per_sec =
      total_ms > 0.0 ? res.rounds_completed / (total_ms / 1000.0) : 0.0;
  const ArtifactCacheStats cs = cache.stats();
  suite.cache_hit_rate = (cs.loads + cs.misses) > 0
                             ? static_cast<double>(cs.loads) /
                                   static_cast<double>(cs.loads + cs.misses)
                             : 0.0;
  double round_ms_sum = 0.0;
  for (const SearchRoundRecord& r : res.trace)
    if (r.round > 0) round_ms_sum += r.wall_ms;
  suite.totals.push_back({"search_total", total_ms});
  suite.totals.push_back(
      {"search_round", res.rounds_completed > 0
                           ? round_ms_sum / res.rounds_completed
                           : 0.0});
  std::printf("search: %.1f ms total (%.2f rounds/sec), best %.4f, "
              "%d cheap + %d full evals, cache hit rate %.2f\n",
              total_ms, suite.rounds_per_sec, res.best_objective,
              res.cheap_evals, res.full_evals, suite.cache_hit_rate);
  return suite;
}

int run_search(int argc, char** argv) {
  const std::string out = arg_str(argc, argv, "-o", "BENCH_search.json");
  const double scale = arg_num(argc, argv, "--scale", 0.02);
  const int grid_n = static_cast<int>(arg_num(argc, argv, "--grid", 16));

  const SearchSuite suite = measure_search(scale, grid_n);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", out.c_str());
    return 1;
  }
  write_context(f, "dco3d-bench-search-v2", suite.design, suite.cells,
                suite.nets, scale);
  std::fprintf(f,
               ",\"grid\":%d,\"rounds\":%d,\"rounds_per_sec\":%.4f,"
               "\"cache_hit_rate\":%.4f,\"cheap_evals\":%d,\"full_evals\":%d,"
               "\"best_objective\":%.4f,\"kernels\":[",
               grid_n, suite.rounds, suite.rounds_per_sec,
               suite.cache_hit_rate, suite.cheap_evals, suite.full_evals,
               suite.best_objective);
  for (std::size_t i = 0; i < suite.totals.size(); ++i)
    std::fprintf(f, "%s{\"name\":\"%s\",\"p50_ms\":%.4f}", i ? "," : "",
                 suite.totals[i].name.c_str(), suite.totals[i].p50_ms);
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// --- ingest mode ------------------------------------------------------------

struct IngestSuite {
  std::string design;
  std::size_t cells = 0, nets = 0;  // at the largest multiplier
  std::vector<Entry> entries;       // ingest_{parse,flow}_{1,4,10}x
  std::string scales_json;
};

/// Open-format ingestion cost at paper scale: each multiplier of the default
/// benchmark scale (0.04) is exported as structural Verilog, re-imported
/// (lex + parse + master mapping + freeze, all inside read_verilog), and
/// pushed through one cheap-fidelity flow (grid 8). One-shot wall times,
/// like the flow suite — ingestion is dominated by a single cold pass.
IngestSuite measure_ingest(double base_scale, int grid_n) {
  IngestSuite suite;
  const int mults[] = {1, 4, 10};
  for (std::size_t mi = 0; mi < 3; ++mi) {
    const int mult = mults[mi];
    DesignSpec spec = spec_for(DesignKind::kDma, base_scale * mult);
    const Netlist generated = generate_design(spec);
    std::stringstream verilog;
    write_verilog(verilog, generated, spec.name);
    const std::string tag = std::to_string(mult) + "x";

    const auto t0 = std::chrono::steady_clock::now();
    ImportReport rep;
    const Netlist imported = read_verilog(verilog, &rep);
    const double parse_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();

    FlowConfig cfg;
    cfg.grid_nx = cfg.grid_ny = grid_n;
    const auto t1 = std::chrono::steady_clock::now();
    const FlowResult r = run_pin3d_flow(imported, cfg);
    const double flow_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t1)
                               .count();

    suite.design = spec.name;
    suite.cells = imported.num_cells();
    suite.nets = imported.num_nets();
    suite.entries.push_back({"ingest_parse_" + tag, parse_ms});
    suite.entries.push_back({"ingest_flow_" + tag, flow_ms});
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s{\"mult\":%d,\"cells\":%zu,\"nets\":%zu}",
                  mi ? "," : "", mult, imported.num_cells(),
                  imported.num_nets());
    suite.scales_json += buf;
    std::printf("ingest %dx: %zu cells, parse %.1f ms, flow %.1f ms "
                "(signoff WL %.1f um)\n",
                mult, imported.num_cells(), parse_ms, flow_ms,
                r.signoff.wirelength_um);
  }
  return suite;
}

int run_ingest(int argc, char** argv) {
  const std::string out = arg_str(argc, argv, "-o", "BENCH_ingest.json");
  const double scale = arg_num(argc, argv, "--scale", 0.04);
  const int grid_n = static_cast<int>(arg_num(argc, argv, "--grid", 8));

  const IngestSuite suite = measure_ingest(scale, grid_n);

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_report: cannot open %s\n", out.c_str());
    return 1;
  }
  write_context(f, "dco3d-bench-ingest-v1", suite.design, suite.cells,
                suite.nets, scale);
  std::fprintf(f, ",\"grid\":%d,\"scales\":[%s],\"kernels\":[", grid_n,
               suite.scales_json.c_str());
  for (std::size_t i = 0; i < suite.entries.size(); ++i)
    std::fprintf(f, "%s{\"name\":\"%s\",\"p50_ms\":%.4f}", i ? "," : "",
                 suite.entries[i].name.c_str(), suite.entries[i].p50_ms);
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

// --- compare mode -----------------------------------------------------------

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return {};
  std::string text;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

/// Scan `"<skey>":"NAME"` ... `"<vkey>":NUM` pairs from flat benchmark JSON
/// (the committed files are single-line flat objects; a full parser is not
/// needed and util/jsonl only handles flat objects anyway).
std::vector<Entry> scan_entries(const std::string& text, const char* skey,
                                const char* vkey) {
  std::vector<Entry> out;
  const std::string sk = std::string{"\""} + skey + "\":";
  const std::string vk = std::string{"\""} + vkey + "\":";
  std::size_t pos = 0;
  while ((pos = text.find(sk, pos)) != std::string::npos) {
    pos += sk.size();
    std::string name;
    if (pos < text.size() && text[pos] == '"') {
      const std::size_t endq = text.find('"', pos + 1);
      if (endq == std::string::npos) break;
      name = text.substr(pos + 1, endq - pos - 1);
      pos = endq + 1;
    } else {  // numeric key (flow "tiers":N)
      name = text.substr(pos, text.find_first_of(",}", pos) - pos);
    }
    const std::size_t vpos = text.find(vk, pos);
    if (vpos == std::string::npos) break;
    out.push_back({name, std::atof(text.c_str() + vpos + vk.size())});
    pos = vpos + vk.size();
  }
  return out;
}

std::string scan_string(const std::string& text, const char* key) {
  const std::string k = std::string{"\""} + key + "\":\"";
  const std::size_t pos = text.find(k);
  if (pos == std::string::npos) return {};
  const std::size_t start = pos + k.size();
  return text.substr(start, text.find('"', start) - start);
}

/// compare's exit code when the baseline's timings cannot be compared with
/// this binary's (ctest SKIP_RETURN_CODE).
constexpr int kExitSkipped = 77;

int run_compare(int argc, char** argv) {
  const char* baseline_path = arg_str(argc, argv, "--baseline", nullptr);
  if (!baseline_path) {
    std::fprintf(stderr, "bench_report compare: --baseline FILE required\n");
    return 2;
  }
  const double threshold = arg_num(argc, argv, "--threshold", 0.15);
  const double scale = arg_num(argc, argv, "--scale", 0.02);
  const int reps = static_cast<int>(arg_num(argc, argv, "--reps", 5));
  const int grid_n = static_cast<int>(arg_num(argc, argv, "--grid", 16));

  const std::string base = read_file(baseline_path);
  if (base.empty()) {
    std::fprintf(stderr, "bench_report compare: cannot read %s\n",
                 baseline_path);
    return 2;
  }
  // Timings from another SIMD backend or ISA say nothing about this build.
  for (const auto& [key, current] :
       {std::pair<const char*, const char*>{"simd", nn::simd::backend_name()},
        {"host_isa", nn::simd::host_isa()}}) {
    const std::string recorded = scan_string(base, key);
    if (!recorded.empty() && recorded != current) {
      std::printf("skip: %s records %s=%s, this binary runs %s=%s; timings "
                  "are not comparable\n",
                  baseline_path, key, recorded.c_str(), key, current);
      return kExitSkipped;
    }
  }
  // Measure at the baseline's worker-pool size so the gate compares like
  // with like on a host whose default thread count differs from it.
  const std::string threads_key = "\"threads\":";
  const std::size_t tpos = base.find(threads_key);
  if (tpos != std::string::npos) {
    const int threads = std::atoi(base.c_str() + tpos + threads_key.size());
    if (threads > 0) util::set_num_threads(threads);
  }
  std::printf("compare: measuring at threads=%d\n", util::num_threads());

  const std::string schema = scan_string(base, "schema");
  std::vector<Entry> committed, fresh;
  if (schema == "dco3d-bench-kernels-v2") {
    committed = scan_entries(base, "name", "p50_ms");
    fresh = measure_kernels(scale, reps).entries;
  } else if (schema == "dco3d-bench-flow-v2") {
    committed = scan_entries(base, "tiers", "total_ms");
    const FlowSuite s = measure_flow(scale, grid_n);
    for (const Entry& e : s.totals)
      fresh.push_back({e.name.substr(std::strlen("flow_tiers")), e.p50_ms});
  } else if (schema == "dco3d-bench-search-v2") {
    committed = scan_entries(base, "name", "p50_ms");
    fresh = measure_search(scale, grid_n).totals;
  } else if (schema == "dco3d-bench-ingest-v1") {
    committed = scan_entries(base, "name", "p50_ms");
    fresh = measure_ingest(scale, grid_n).entries;
  } else {
    std::fprintf(stderr,
                 "bench_report compare: unsupported schema '%s' in %s "
                 "(regenerate with this binary)\n",
                 schema.c_str(), baseline_path);
    return 2;
  }
  int regressions = 0;
  std::printf("%-28s %10s %10s %8s\n", "kernel", "base_ms", "fresh_ms",
              "ratio");
  for (const Entry& b : committed) {
    const Entry* match = nullptr;
    for (const Entry& f : fresh)
      if (f.name == b.name) { match = &f; break; }
    if (!match) {
      std::printf("%-28s %10.4f %10s %8s  MISSING\n", b.name.c_str(), b.p50_ms,
                  "-", "-");
      ++regressions;
      continue;
    }
    const double ratio = b.p50_ms > 0.0 ? match->p50_ms / b.p50_ms : 1.0;
    const bool bad = ratio > 1.0 + threshold;
    std::printf("%-28s %10.4f %10.4f %8.3f%s\n", b.name.c_str(), b.p50_ms,
                match->p50_ms, ratio, bad ? "  REGRESSION" : "");
    if (bad) ++regressions;
  }
  if (regressions) {
    std::fprintf(stderr,
                 "bench_report compare: %d kernel(s) regressed >%.0f%% vs %s\n",
                 regressions, threshold * 100.0, baseline_path);
    return 1;
  }
  std::printf("compare: all kernels within %.0f%% of %s\n", threshold * 100.0,
              baseline_path);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: bench_report <kernels|flow|search|ingest|compare> [-o file] "
                 "[--scale S] [--reps N] [--grid N] "
                 "[--baseline FILE] [--threshold T]\n");
    return 2;
  }
  if (std::strcmp(argv[1], "kernels") == 0) return run_kernels(argc, argv);
  if (std::strcmp(argv[1], "flow") == 0) return run_flow(argc, argv);
  if (std::strcmp(argv[1], "search") == 0) return run_search(argc, argv);
  if (std::strcmp(argv[1], "ingest") == 0) return run_ingest(argc, argv);
  if (std::strcmp(argv[1], "compare") == 0) return run_compare(argc, argv);
  std::fprintf(stderr, "bench_report: unknown mode '%s'\n", argv[1]);
  return 2;
}
