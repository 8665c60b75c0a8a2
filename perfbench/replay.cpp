// Traced replays: after a traced job, call each layer's public functions
// again on the job's own state (placement, predictor, dataset) and time them
// with spans. Calls the job makes many times (DCO iterations, trial routes)
// are scaled by their counts from DcoResult/DcoConfig; whatever the replays
// do not explain is reported as core.dco_unattributed_ms.

#include <memory>

#include "bench.hpp"
#include "core/features.hpp"
#include "core/losses.hpp"
#include "core/spreader.hpp"
#include "flow/cts.hpp"
#include "grid/feature_maps.hpp"
#include "grid/soft_maps.hpp"
#include "nn/ops.hpp"
#include "nn/optimizer.hpp"
#include "place/legalize.hpp"

namespace perfbench {

using namespace dco3d;

namespace {

/// Run `body` `reps` times, each inside a span called `name`.
template <typename F>
void repeat(Recorder& rec, const std::string& name, int reps, F&& body) {
  for (int i = 0; i < reps; ++i) {
    Recorder::Scope span(&rec, name);
    body();
  }
}

/// Median wall time of the spans called `name`, stored as metric `name`_ms.
double put_ms(Recorder& rec, std::map<std::string, double>& out,
              const std::string& name) {
  const double ms = rec.median_wall_ms(name);
  out[name + "_ms"] = ms;
  return ms;
}

/// Route, placement and timing layers on a finished flow job.
void replay_flow_layers(const Setup& setup, const JobResult& job, int reps,
                        Recorder& rec, std::map<std::string, double>& out) {
  const FlowConfig& f = setup.flow;
  const GCellGrid grid(job.final_placement.outline, f.grid_nx, f.grid_ny);
  repeat(rec, "route.global_route", reps, [&] {
    global_route(job.final_netlist, job.final_placement, grid, f.router);
  });
  repeat(rec, "place.place_pseudo3d", reps, [&] {
    place_pseudo3d(setup.design, f.place_params, f.seed, /*legalized=*/false,
                   f.num_tiers);
  });
  repeat(rec, "place.legalize_all", reps, [&] {
    Placement3D pl = job.global_placement;
    legalize_all(setup.design, pl, f.place_params);
  });
  repeat(rec, "timing.run_sta", reps, [&] {
    run_sta(job.final_netlist, job.final_placement, f.timing, &job.skew);
  });
  for (const char* name : {"route.global_route", "place.place_pseudo3d",
                           "place.legalize_all", "timing.run_sta"})
    put_ms(rec, out, name);
}

/// DCO iterations' calls and candidates' trial routes, replayed on the job's
/// DCO input with the job's predictor and configuration.
void replay_dco(const Setup& setup, const JobResult& job, const Scale& sc,
                Recorder& rec, std::map<std::string, double>& out) {
  const DcoConfig& cfg = setup.dco;
  const Netlist& nl = setup.design;
  const Placement3D& in = job.dco_input;
  const Predictor& predictor = setup.predictor;
  const GCellGrid grid(in.outline, cfg.grid_nx, cfg.grid_ny);

  // The spreader below starts from the same seed and input as run_dco's
  // first restart, so its first iterate is that restart's first candidate.
  Rng rng(cfg.seed);
  const nn::Var features =
      nn::make_leaf(build_gnn_features(nl, in, setup.flow.timing));
  const auto edges =
      std::make_shared<const std::vector<std::pair<std::int64_t, std::int64_t>>>(
          nl.cell_graph_edges());
  nn::Tensor x0({static_cast<std::int64_t>(nl.num_cells())});
  nn::Tensor y0(x0.shape());
  for (std::size_t ci = 0; ci < nl.num_cells(); ++ci) {
    x0[static_cast<std::int64_t>(ci)] = static_cast<float>(in.xy[ci].x);
    y0[static_cast<std::int64_t>(ci)] = static_cast<float>(in.xy[ci].y);
  }
  GnnSpreader spreader(nl, in, cfg.spreader, rng);
  nn::Adam adam(spreader.parameters(), cfg.lr);

  // The iteration body of run_dco (two tiers), one span per public call.
  // The last iteration's predictor inputs and coordinates are kept for the
  // sub-call replays below (backward releases the graph's values).
  std::vector<nn::Var> unet_in;
  nn::Tensor last_x, last_y, last_z;
  Placement3D first_candidate = in;
  const int iters = sc.iteration_replays;
  for (int r = 0; r < iters; ++r) {
    Recorder::Scope iter_span(&rec, "core.dco_iteration");
    SpreaderOutput so;
    SoftMaps maps;
    nn::Var l_cong, l_ovlp, l_cut, l_disp;
    {
      Recorder::Scope s(&rec, "core.spreader_fwd");
      so = spreader.forward(features);
    }
    if (r == 0) spreader.commit(so, first_candidate);
    {
      Recorder::Scope s(&rec, "grid.soft_maps_fwd");
      maps = soft_feature_maps(nl, grid, so.x, so.y, so.z);
    }
    {
      Recorder::Scope s(&rec, "core.loss_cong");
      l_cong = congestion_loss(predictor, maps);
    }
    {
      Recorder::Scope s(&rec, "core.loss_ovlp");
      l_ovlp = overlap_loss(nl, so.x, so.y, so.z, in.outline,
                            cfg.overlap_bins, cfg.overlap_bins,
                            cfg.overlap_target_util);
    }
    {
      Recorder::Scope s(&rec, "core.loss_cut");
      l_cut = cutsize_loss(so.z, edges);
    }
    {
      Recorder::Scope s(&rec, "core.loss_disp");
      l_disp = displacement_loss(so.x, so.y, x0, y0, in.outline);
    }
    if (r + 1 == iters) {
      for (int t = 0; t < maps.num_tiers; ++t)
        unet_in.push_back(
            nn::make_leaf(predictor.normalize_features(maps.tier(t)->value)));
      last_x = so.x->value.clone();
      last_y = so.y->value.clone();
      last_z = so.z->value.clone();
    }
    const nn::Var total =
        nn::add(nn::add(nn::mul_scalar(l_disp, cfg.alpha_disp),
                        nn::mul_scalar(l_ovlp, cfg.beta_ovlp)),
                nn::add(nn::mul_scalar(l_cut, cfg.gamma_cut),
                        nn::mul_scalar(l_cong, cfg.delta_cong)));
    {
      Recorder::Scope s(&rec, "nn.backward");
      adam.zero_grad();
      nn::backward(total);
    }
    {
      Recorder::Scope s(&rec, "nn.adam_step");
      adam.step_checked();
    }
  }

  // Trial routes as run_dco scores a candidate (CTS on a copy, legalize,
  // full global route), over the placements it actually scored: the input,
  // the first candidate and the committed one.
  const Placement3D* scored[] = {&in, &first_candidate, &job.dco.placement};
  for (int r = 0; r < sc.replay_reps; ++r) {
    Recorder::Scope span(&rec, "route.trial_route");
    full_route_score(nl, *scored[r % 3], cfg);
  }

  // Sub-calls of the iteration, timed on their own: the predictor's UNet
  // forward (inside congestion_loss) and the soft maps with their backward
  // (inside nn.backward).
  repeat(rec, "nn.unet_fwd", sc.replay_reps,
         [&] { predictor.model->forward_n(unet_in); });
  repeat(rec, "grid.soft_maps_fwd_bwd", sc.replay_reps, [&] {
    const nn::Var x = nn::make_leaf(last_x, true);
    const nn::Var y = nn::make_leaf(last_y, true);
    const nn::Var z = nn::make_leaf(last_z, true);
    nn::backward(nn::sum(soft_feature_maps(nl, grid, x, y, z).stacked));
  });

  const double trial_ms = put_ms(rec, out, "route.trial_route");
  double iter_ms = 0.0;
  for (const char* name :
       {"core.spreader_fwd", "grid.soft_maps_fwd", "core.loss_cong",
        "core.loss_ovlp", "core.loss_cut", "core.loss_disp", "nn.backward",
        "nn.adam_step"})
    iter_ms += put_ms(rec, out, name);
  put_ms(rec, out, "nn.unet_fwd");
  put_ms(rec, out, "grid.soft_maps_fwd_bwd");

  const DcoResult& r = job.dco;
  const Span* run_dco = rec.find("core.run_dco");
  const double run_dco_ms = run_dco ? run_dco->wall_ms() : 0.0;
  const auto dco_iters = static_cast<double>(r.trace.size());
  const int trials = count_trial_routes(r, cfg);
  const GuardStats& g = r.guard;
  out["core.run_dco_ms"] = run_dco_ms;
  out["core.dco_iters"] = dco_iters;
  out["core.dco_best_iter"] = r.best_iter;
  out["core.dco_improved"] = r.improved ? 1.0 : 0.0;
  out["core.dco_cells_moved_tier"] = static_cast<double>(r.cells_moved_tier);
  out["core.dco_score_initial"] = r.initial_score;
  out["core.dco_score_committed"] = r.best_loss;
  out["core.dco_guard_events"] = g.nan_events + g.skipped_steps +
                                 g.lr_halvings + g.rollbacks + g.reseeds +
                                 (g.deadline_hit ? 1 : 0);
  out["route.trial_routes"] = trials;
  out["core.dco_unattributed_ms"] =
      run_dco_ms - dco_iters * iter_ms - trials * trial_ms;
}

/// Alg. 1 layers: one dataset sample and its inner calls, and one training
/// step at training shapes on a fresh model (the job's predictor is left as
/// trained).
void replay_train(const Setup& setup, const JobResult& job, int reps,
                  Recorder& rec, std::map<std::string, double>& out) {
  const DatasetConfig& dc = setup.dataset;
  const Netlist& nl = setup.design;
  const PlacementParams params;
  const std::uint64_t seed = dc.seed * 977;  // build_dataset's first layout
  repeat(rec, "flow.make_sample", reps,
         [&] { make_sample(nl, params, dc, seed); });

  Placement3D gp;
  repeat(rec, "place.place_pseudo3d", reps, [&] {
    gp = place_pseudo3d(nl, params, seed, /*legalized=*/false, dc.num_tiers);
  });
  const GCellGrid grid(gp.outline, dc.grid_nx, dc.grid_ny);
  repeat(rec, "grid.feature_maps", reps,
         [&] { compute_feature_maps(nl, gp, grid); });
  Netlist work = nl;
  Placement3D legal = gp;
  run_cts(work, legal);
  const Placement3D pre_legal = legal;
  repeat(rec, "place.legalize_all", reps, [&] {
    legal = pre_legal;
    legalize_all(work, legal, params);
  });
  repeat(rec, "route.global_route", reps,
         [&] { global_route(work, legal, grid, dc.router); });

  // One Alg. 1 step: forward, Eq. (4) loss, backward, Adam.
  const TrainConfig& tc = setup.train;
  Rng rng(tc.seed);
  nn::UNetConfig ucfg = tc.unet;
  ucfg.in_channels = kNumFeatureChannels;
  ucfg.out_channels = 1;
  nn::SiameseUNet model(ucfg, rng);
  nn::Adam adam(model.parameters(), tc.lr);
  const DataSample& sample = job.dataset.front();
  const float inv_scale = 1.0f / job.predictor.label_scale;
  std::vector<nn::Var> feats, labels;
  for (std::size_t t = 0; t < sample.features.size(); ++t) {
    feats.push_back(
        nn::make_leaf(job.predictor.normalize_features(sample.features[t])));
    nn::Tensor label = sample.labels[t].clone();
    for (float& v : label.data()) v *= inv_scale;
    labels.push_back(nn::make_leaf(std::move(label)));
  }
  repeat(rec, "nn.train_step", reps, [&] {
    std::vector<nn::Var> preds;
    {
      Recorder::Scope s(&rec, "nn.unet_fwd");
      preds = model.forward_n(feats);
    }
    const nn::Var loss = nn::siamese_loss_n(preds, labels);
    {
      Recorder::Scope s(&rec, "nn.backward");
      adam.zero_grad();
      nn::backward(loss);
    }
    Recorder::Scope s(&rec, "nn.adam_step");
    adam.step();
  });

  for (const char* name :
       {"flow.make_sample", "place.place_pseudo3d", "grid.feature_maps",
        "place.legalize_all", "route.global_route", "nn.train_step",
        "nn.unet_fwd", "nn.backward", "nn.adam_step"})
    put_ms(rec, out, name);
}

}  // namespace

void replay_layers(Workload w, const Setup& setup, const JobResult& job,
                   const Scale& sc, Recorder& rec,
                   std::map<std::string, double>& out) {
  Recorder::Scope root(&rec, "replay");
  if (w == Workload::kTrain) {
    replay_train(setup, job, sc.replay_reps, rec, out);
    return;
  }
  replay_flow_layers(setup, job, sc.replay_reps, rec, out);
  if (w == Workload::kDco3d) replay_dco(setup, job, sc, rec, out);
}

}  // namespace perfbench
