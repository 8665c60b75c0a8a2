// Set-up, jobs and job-local correctness checks of the three workloads.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "flow/cts.hpp"
#include "flow/stage.hpp"
#include "io/design_io.hpp"
#include "place/legalize.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace dco3d;

namespace {

bool same_placement(const Placement3D& a, const Placement3D& b) {
  return a.num_tiers == b.num_tiers && a.xy.size() == b.xy.size() &&
         a.tier == b.tier &&
         std::memcmp(a.xy.data(), b.xy.data(), a.xy.size() * sizeof(Point)) == 0;
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](double x) { return std::isfinite(x); });
}

/// "after-place-metrics" -> "flow.after_place_metrics" (span and metric stem).
std::string stage_span_name(const std::string& stage) {
  std::string s = "flow." + stage;
  std::replace(s.begin(), s.end(), '-', '_');
  return s;
}

void append_metrics(std::vector<double>& out, const StageMetrics& m) {
  out.insert(out.end(), {m.overflow, m.ovf_gcell_pct, m.wns_ps, m.tns_ps,
                         m.power_mw, m.wirelength_um});
}

double mean(const std::vector<float>& v) {
  double s = 0.0;
  for (float x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "pin3d_ldpc") return Workload::kPin3d;
  if (name == "dco3d_ldpc") return Workload::kDco3d;
  if (name == "train_ldpc") return Workload::kTrain;
  throw std::invalid_argument("unknown workload '" + name +
                              "' (pin3d_ldpc, dco3d_ldpc, train_ldpc)");
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPin3d: return "pin3d_ldpc";
    case Workload::kDco3d: return "dco3d_ldpc";
    case Workload::kTrain: return "train_ldpc";
  }
  return "?";
}

Scale Scale::smoke() {
  Scale s;
  s.design_scale = 0.01;
  s.grid = 16;
  s.dataset_layouts = 3;  // 6 samples: one lands in the test split
  s.dataset_perturbed = 1;
  s.train_epochs = 2;
  s.predictor_layouts = 1;
  s.predictor_perturbed = 1;
  s.predictor_epochs = 1;
  s.dco_max_iter = 6;
  s.dco_restarts = 1;
  s.replay_reps = 1;
  s.iteration_replays = 2;
  return s;
}

Setup make_setup(Workload w, const Scale& sc, const std::string& work_dir,
                 Recorder* rec) {
  Setup s;
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  util::set_num_threads(w == Workload::kPin3d ? 1 : std::clamp(nproc, 1, 4));

  // The design goes through its file format: generated, written, and read
  // back the way a user's design would be.
  const DesignSpec spec = spec_for(DesignKind::kLdpc, sc.design_scale);
  const std::string path =
      work_dir + "/" + workload_name(w) + "-" + spec.name + ".design";
  write_design_file(path, generate_design(spec));
  {
    Recorder::Scope span(rec, "io.read_design");
    s.design = read_design_file(path);
  }

  FlowConfig& f = s.flow;
  f.timing.clock_period_ps = spec.clock_period_ps;
  f.grid_nx = f.grid_ny = sc.grid;
  f.seed = 42;  // the flows' shared placement seed (Table III caption)
  {
    // One router calibration per design, shared by every job of the run.
    const Placement3D ref = place_pseudo3d(s.design, f.place_params, f.seed,
                                           /*legalized=*/true, f.num_tiers);
    f.router = calibrated_router(s.design, ref, sc.grid, 0.70);
  }

  if (w == Workload::kDco3d) {
    // A reduced predictor, trained deterministically here so its cost lands
    // in setup_s rather than in the flow jobs.
    DatasetConfig pc;
    pc.layouts = sc.predictor_layouts;
    pc.perturbed_per_layout = sc.predictor_perturbed;
    pc.grid_nx = pc.grid_ny = pc.net_h = pc.net_w = sc.grid;
    pc.router = f.router;
    TrainConfig tc;
    tc.epochs = sc.predictor_epochs;
    tc.unet.base_channels = 8;
    tc.unet.depth = 2;
    s.predictor = train_predictor(build_dataset(s.design, pc), tc);

    DcoConfig& d = s.dco;
    d.grid_nx = d.grid_ny = sc.grid;
    d.router = f.router;
    d.legalize_params = f.place_params;
    if (sc.dco_max_iter > 0) d.max_iter = sc.dco_max_iter;
    if (sc.dco_restarts > 0) d.restarts = sc.dco_restarts;
  } else if (w == Workload::kTrain) {
    DatasetConfig& dc = s.dataset;
    dc.layouts = sc.dataset_layouts;
    dc.perturbed_per_layout = sc.dataset_perturbed;
    dc.grid_nx = dc.grid_ny = dc.net_h = dc.net_w = sc.grid;
    dc.router = f.router;
    TrainConfig& tc = s.train;
    tc.epochs = sc.train_epochs;
    tc.unet.base_channels = 8;
    tc.unet.depth = 2;
  }
  return s;
}

JobResult run_job(Workload w, const Setup& setup, Recorder* rec) {
  JobResult j;
  Recorder::Scope job_span(rec, "job");
  const auto t0 = std::chrono::steady_clock::now();

  if (w == Workload::kTrain) {
    {
      Recorder::Scope span(rec, "flow.build_dataset");
      j.dataset = build_dataset(setup.design, setup.dataset);
    }
    {
      Recorder::Scope span(rec, "core.train_predictor");
      j.predictor = train_predictor(j.dataset, setup.train);
    }
    j.wall_s = seconds_since(t0);

    // Quality of the trained predictor on the held-out split (not timed).
    std::vector<const DataSample*> train, test;
    split_dataset(j.dataset, setup.train.test_fraction, train, test);
    const EvalStats ev = evaluate_predictor(j.predictor, test);
    const double test_loss =
        j.predictor.curve.empty() ? NAN : j.predictor.curve.back().test_loss;
    j.qor = {test_loss, mean(ev.nrmse), 1.0 - mean(ev.ssim)};
    j.fingerprint = j.qor;
    for (const EpochStats& e : j.predictor.curve)
      j.fingerprint.insert(j.fingerprint.end(), {e.train_loss, e.test_loss});
    j.fingerprint.push_back(j.predictor.label_scale);
    return j;
  }

  PlacementOptimizer optimizer;
  if (w == Workload::kDco3d) {
    optimizer = [&j, &setup, rec](const Netlist& nl, Placement3D& pl) {
      j.dco_input = pl;
      {
        Recorder::Scope span(rec, "core.run_dco");
        j.dco = run_dco(nl, pl, setup.predictor, setup.flow.timing, setup.dco);
      }
      j.ran_dco = true;
      pl = j.dco.placement;
    };
  }
  FlowContext ctx = make_flow_context(setup.design, setup.flow, optimizer);
  ctx.design_name = "ldpc";
  // The Pin-3D stages in order, traced or not; a span per stage when traced.
  for (const Stage& stage : pin3d_pipeline().stages()) {
    Recorder::Scope span(rec, stage_span_name(stage.name()));
    stage.run(ctx);
    ++j.stages_run;
  }
  j.wall_s = seconds_since(t0);

  const FlowResult& r = ctx.res;
  j.signoff = r.signoff;
  j.qor = {r.signoff.overflow, r.signoff.wirelength_um, -r.signoff.tns_ps};
  append_metrics(j.fingerprint, r.after_place);
  append_metrics(j.fingerprint, r.signoff);
  if (j.ran_dco)
    j.fingerprint.insert(j.fingerprint.end(),
                         {j.dco.initial_score, j.dco.best_loss,
                          static_cast<double>(j.dco.best_iter),
                          static_cast<double>(j.dco.cells_moved_tier),
                          static_cast<double>(j.dco.trace.size())});
  j.final_netlist = std::move(ctx.netlist);
  j.final_placement = std::move(ctx.placement);
  j.global_placement = r.global_placement;
  j.skew = std::move(ctx.skew);
  return j;
}

double full_route_score(const Netlist& nl, const Placement3D& pl,
                        const DcoConfig& cfg) {
  Netlist work = nl;  // CTS inserts buffers and clock nets
  Placement3D legal = pl;
  run_cts(work, legal);
  legalize_all(work, legal, cfg.legalize_params);
  const GCellGrid grid(pl.outline, cfg.grid_nx, cfg.grid_ny);
  const RouteResult r = global_route(work, legal, grid, cfg.router);
  return r.total_overflow + 1e-5 * r.wirelength;
}

bool Checks::check(const std::string& name, bool ok, const std::string& why) {
  ++ran[name];
  if (!ok) failures.push_back(name + ": " + why);
  return ok;
}

bool check_job(Workload w, const Setup& setup, const JobResult& j,
               Checks& c) {
  bool ok = c.check("qor_finite",
                    j.qor.size() == 3 && all_finite(j.qor) &&
                        std::all_of(j.qor.begin(), j.qor.end(),
                                    [](double q) { return q >= 0.0; }),
                    "quality results missing, negative or non-finite");
  if (w == Workload::kTrain) {
    const std::vector<EpochStats>& curve = j.predictor.curve;
    bool finite = static_cast<int>(curve.size()) == setup.train.epochs;
    for (const EpochStats& e : curve)
      finite = finite && std::isfinite(e.train_loss) && std::isfinite(e.test_loss);
    ok &= c.check("train_finite", finite,
                  "training curve incomplete or has a non-finite loss");
    ok &= c.check("train_guard_clean", j.predictor.guard.clean(),
                  "training recorded guard events");
    return ok;
  }
  ok &= c.check("stages_complete", j.stages_run == 8,
                "flow ran " + std::to_string(j.stages_run) + " of 8 stages");
  if (w == Workload::kDco3d) {
    ok &= c.check("dco_ran", j.ran_dco, "the dco stage did not run Alg. 2");
    // Both placements re-scored with a full route here, not read from
    // DcoResult, so a change to how run_dco scores candidates cannot pass
    // this by construction.
    const double committed =
        full_route_score(setup.design, j.dco.placement, setup.dco);
    const double input = full_route_score(setup.design, j.dco_input, setup.dco);
    ok &= c.check("dco_score_contract", committed <= input,
                  "committed placement routes to " + std::to_string(committed) +
                      ", worse than the input's " + std::to_string(input));
    const bool same = same_placement(j.dco.placement, j.dco_input);
    ok &= c.check("dco_kept_identical", j.dco.improved != same,
                  j.dco.improved ? "improved but the placement is unchanged"
                                 : "not improved but the placement changed");
  }
  return ok;
}

int count_trial_routes(const DcoResult& r, const DcoConfig& cfg) {
  int n = 1;  // the input placement is scored first
  for (std::size_t i = 0; i < r.trace.size(); ++i) {
    const int it = r.trace[i].iter;
    if (it % cfg.eval_every == 0 || it + 1 == cfg.max_iter) ++n;
    // A restart that stopped on patience re-considers its last iterate.
    const bool last_of_restart =
        i + 1 == r.trace.size() || r.trace[i + 1].iter == 0;
    if (last_of_restart && it + 1 < cfg.max_iter) ++n;
  }
  return n;
}

}  // namespace perfbench
