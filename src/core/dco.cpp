#include "core/dco.hpp"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "core/features.hpp"
#include "core/losses.hpp"
#include "grid/feature_maps.hpp"
#include "grid/soft_maps.hpp"
#include "nn/optimizer.hpp"
#include "flow/cts.hpp"
#include "place/legalize.hpp"
#include "nn/ops.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"

namespace dco3d {

namespace {

/// Predicted post-route congestion of a concrete (hard) placement: the
/// predictor applied exactly as at inference time. Used to select which DCO
/// iterate to commit — soft-map losses drive the gradients, but committing
/// is decided on in-distribution hard maps, and the initial placement is
/// always a candidate, so DCO never returns a placement the predictor
/// scores worse than its input.
double hard_predicted_congestion(const Netlist& netlist, const Placement3D& pl,
                                 const GCellGrid& grid,
                                 const Predictor& predictor) {
  FeatureMaps fm = compute_feature_maps(netlist, pl, grid);
  std::vector<nn::Var> f;
  f.reserve(fm.die.size());
  for (const nn::Tensor& d : fm.die)
    f.push_back(nn::make_leaf(predictor.normalize_features(d)));
  std::vector<nn::Var> preds = predictor.model->forward_n(f);
  auto rms = [](const nn::Tensor& t) {
    double s = 0.0;
    for (std::int64_t i = 0; i < t.numel(); ++i)
      s += static_cast<double>(t[i]) * t[i];
    return std::sqrt(s / static_cast<double>(t.numel()));
  };
  double sum = 0.0;
  for (const nn::Var& c : preds) sum += rms(c->value);
  return sum / static_cast<double>(preds.size());
}

/// Trial-global-route score of a hard placement candidate (total overflow,
/// with wirelength as a tie-breaker at equal overflow). The trial replays
/// the downstream flow the candidate will actually see — CTS buses included
/// — so the committed placement wins where it counts, post-route.
double trial_route_score(const Netlist& netlist, const Placement3D& pl,
                         const GCellGrid& grid, const DcoConfig& cfg) {
  Netlist work = netlist;  // CTS inserts buffers/clock nets on a copy
  Placement3D legal = pl;
  run_cts(work, legal);
  legalize_all(work, legal, cfg.legalize_params);
  const RouteResult r = global_route(work, legal, grid, cfg.router);
  return r.total_overflow + 1e-5 * r.wirelength;
}

/// A hard candidate on its way from the gradient loop to the scorer.
struct Candidate {
  int restart = -1;
  int iter = -1;
  Placement3D placement;
};

/// One-slot hand-off from the gradient loop (producer, on a helper thread) to
/// the scorer (consumer, the calling thread). Candidates arrive in the order
/// the serial loop would score them. Once the deadline has expired, a waiting
/// candidate is scored only if the producer finishes without stopping on the
/// deadline; a stop drops it unscored.
class Handoff {
 public:
  /// Thrown into the producer after the consumer failed.
  struct Cancelled {};

  explicit Handoff(const Deadline& deadline) : deadline_(deadline) {}

  /// Producer: wait for the slot, then fill it. Returns false (dropping the
  /// candidate) if the deadline expires while waiting.
  bool put(Candidate c) {
    std::unique_lock<std::mutex> lk(mu_);
    const auto free = [&] { return !slot_ || cancelled_; };
    if (deadline_.unlimited())
      cv_.wait(lk, free);
    else if (!cv_.wait_until(lk, deadline_.expiry(), free))
      return false;
    if (cancelled_) throw Cancelled{};
    slot_ = std::move(c);
    cv_.notify_all();
    return true;
  }

  /// Producer: throws Cancelled once the consumer has failed.
  void check_cancelled() {
    std::lock_guard<std::mutex> lk(mu_);
    if (cancelled_) throw Cancelled{};
  }

  /// Producer: no more candidates. `drop_pending` drops one not yet taken.
  void close(bool drop_pending) {
    std::lock_guard<std::mutex> lk(mu_);
    closed_ = true;
    if (drop_pending) slot_.reset();
    cv_.notify_all();
  }

  /// Consumer: the next candidate, or nullopt once closed and drained.
  std::optional<Candidate> take() {
    std::unique_lock<std::mutex> lk(mu_);
    cv_.wait(lk, [&] { return closed_ || (slot_ && !deadline_.expired()); });
    std::optional<Candidate> c = std::move(slot_);
    slot_.reset();
    cv_.notify_all();
    return c;
  }

  /// Consumer: make the producer stop at its next hand-off or iteration.
  void cancel() {
    std::lock_guard<std::mutex> lk(mu_);
    cancelled_ = true;
    cv_.notify_all();
  }

 private:
  const Deadline& deadline_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::optional<Candidate> slot_;
  bool closed_ = false;
  bool cancelled_ = false;
};

}  // namespace

DcoResult run_dco(const Netlist& netlist, const Placement3D& initial,
                  const Predictor& predictor, const TimingConfig& timing_cfg,
                  const DcoConfig& cfg) {
  Rng rng(cfg.seed);
  DcoResult res;
  res.placement = initial;

  // Node features (Table II) from the initial placement; the netlist graph
  // and features stay fixed while the GNN's weights are optimized.
  nn::Var features = nn::make_leaf(build_gnn_features(netlist, initial, timing_cfg));
  const GCellGrid grid(initial.outline, cfg.grid_nx, cfg.grid_ny);
  auto edges = std::make_shared<const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      netlist.cell_graph_edges());

  nn::Tensor x0({static_cast<std::int64_t>(netlist.num_cells())});
  nn::Tensor y0(x0.shape());
  for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci) {
    x0[static_cast<std::int64_t>(ci)] = static_cast<float>(initial.xy[ci].x);
    y0[static_cast<std::int64_t>(ci)] = static_cast<float>(initial.xy[ci].y);
  }

  const Deadline deadline(cfg.deadline_ms);
  FaultInjector& faults = FaultInjector::instance();

  // Scorer side: the candidate selection state (best_score, improved,
  // res.placement, res.best_iter, res.candidates) is touched only here. The
  // input placement is scored first; every later candidate is scored in
  // hand-off order under the strict improvement rule.
  auto score_of = [&](const Placement3D& pl) {
    if (faults.should_fire(FaultSite::kDcoScoreStall))
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          faults.param(FaultSite::kDcoScoreStall)));
    if (faults.should_fire(FaultSite::kDcoScoreFail))
      throw StatusError(
          Status::internal("run_dco: injected candidate scoring failure"));
    return cfg.select_by_route
               ? trial_route_score(netlist, pl, grid, cfg)
               : hard_predicted_congestion(netlist, pl, grid, predictor);
  };
  double best_score = 0.0;
  bool improved = false;
  auto score_input = [&] {
    best_score = score_of(initial);
    res.initial_score = best_score;
    res.candidates.push_back({-1, -1, best_score});
    if (!std::isfinite(best_score))
      log_warn("dco: input placement scores non-finite (corrupt predictor?); "
               "candidate gating degraded");
  };
  auto score_candidate = [&](Candidate c) {
    const double score = score_of(c.placement);
    res.candidates.push_back({c.restart, c.iter, score});
    if (!std::isfinite(score)) {
      log_warn("dco: candidate at iter ", c.iter,
               " scored non-finite; not considered");
      return;
    }
    if (score < best_score - 1e-6) {
      best_score = score;
      res.best_iter = c.iter;
      res.placement = std::move(c.placement);
      improved = true;
    }
  };

  // Optimizer side: res.trace and res.guard are touched only here. With a
  // hand-off, candidates go to the scorer on the calling thread; without
  // one they are scored inline, in the same order.
  Handoff* handoff = nullptr;
  GuardStats& gs = res.guard;

  // Outcome of one optimization attempt (one spreader weight init). A
  // diverged attempt never touches res.placement — the last committed
  // candidate stands — and is retried with fresh weights (bounded by
  // guard.max_reseeds).
  enum class Attempt { kDone, kDiverged, kDeadline };

  // Per-cell power (switching + leakage) for the optional thermal channel.
  nn::Tensor cell_power;
  if (cfg.epsilon_thermal > 0.0f) {
    cell_power = nn::Tensor({static_cast<std::int64_t>(netlist.num_cells())});
    const double f_ghz = 1000.0 / timing_cfg.clock_period_ps;
    for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci) {
      const CellType& ct = netlist.cell_type(static_cast<CellId>(ci));
      cell_power[static_cast<std::int64_t>(ci)] = static_cast<float>(
          timing_cfg.activity * ct.internal_energy * f_ghz * 1e-3 +
          ct.leakage * 1e-6);
    }
  }

  auto run_attempt = [&](int restart) -> Attempt {
    GnnSpreader spreader(netlist, initial, cfg.spreader, rng);
    const std::vector<nn::Var> params = spreader.parameters();
    nn::Adam adam(params, cfg.lr);
    ParamSnapshot good(params);
    int halvings = 0;
    double best_loss_seen = std::numeric_limits<double>::infinity();
    int stall = 0;

    // Hands the hard assignment of `out` to the scorer. Returns false if the
    // deadline expired while waiting for the hand-off slot.
    auto consider = [&](const SpreaderOutput& out, int iter) {
      // A candidate with non-finite coordinates or score can never replace
      // the committed one; the input placement remains the floor.
      bool tier_finite = true;
      for (const nn::Var& a : out.above)
        tier_finite = tier_finite && all_finite(a->value);
      if (!all_finite(out.x->value) || !all_finite(out.y->value) ||
          !tier_finite) {
        log_warn("dco: candidate at iter ", iter,
                 " has non-finite coordinates; not considered");
        return true;
      }
      Candidate cand{restart, iter, initial};
      spreader.commit(out, cand.placement);
      if (!handoff) {
        score_candidate(std::move(cand));
        return true;
      }
      return handoff->put(std::move(cand));
    };

    auto stop_on_deadline = [&](int iter) {
      gs.deadline_hit = true;
      if (cfg.guard.strict)
        throw StatusError(Status::deadline_exceeded(
            "run_dco: deadline of " + std::to_string(cfg.deadline_ms) +
            " ms exceeded at restart " + std::to_string(restart)));
      log_warn("dco: deadline (", cfg.deadline_ms, " ms) hit at restart ",
               restart, " iter ", iter, "; committing best-so-far");
      return Attempt::kDeadline;
    };

    // Bounded backoff: restore the last weights that produced a finite loss
    // and halve the LR. Returns false once the budget is spent (the caller
    // then declares the attempt diverged).
    auto backoff = [&](int iter, const char* what) {
      if (halvings >= cfg.guard.max_lr_halvings) return false;
      good.restore(params);
      adam.reset_state();
      adam.set_lr(adam.lr() * 0.5f);
      ++halvings;
      ++gs.lr_halvings;
      ++gs.rollbacks;
      log_warn("dco: non-finite ", what, " at restart ", restart, " iter ",
               iter, "; rolled back, lr=", adam.lr());
      return true;
    };

    for (int iter = 0; iter < cfg.max_iter; ++iter) {
      if (handoff) handoff->check_cancelled();
      if (deadline.expired()) return stop_on_deadline(iter);
      SpreaderOutput out = spreader.forward(features);

      SoftMaps maps = soft_feature_maps(netlist, grid, out.x, out.y, out.above);
      nn::Var l_cong = congestion_loss(predictor, maps);
      nn::Var l_ovlp = overlap_loss(netlist, out.x, out.y, out.above,
                                    initial.outline, cfg.overlap_bins,
                                    cfg.overlap_bins, cfg.overlap_target_util);
      nn::Var l_cut = cutsize_loss(out.above, edges);
      nn::Var l_therm;
      if (cfg.epsilon_thermal > 0.0f)
        l_therm = thermal_density_loss(netlist, out.x, out.y, out.above,
                                       cell_power, initial.outline,
                                       cfg.overlap_bins, cfg.overlap_bins);
      nn::Var l_disp = displacement_loss(out.x, out.y, x0, y0, initial.outline);

      nn::Var total = nn::add(
          nn::add(nn::mul_scalar(l_disp, cfg.alpha_disp),
                  nn::mul_scalar(l_ovlp, cfg.beta_ovlp)),
          nn::add(nn::mul_scalar(l_cut, cfg.gamma_cut),
                  nn::mul_scalar(l_cong, cfg.delta_cong)));
      if (l_therm)
        total = nn::add(total, nn::mul_scalar(l_therm, cfg.epsilon_thermal));
      faults.maybe_corrupt(FaultSite::kDcoLoss, total->value);

      DcoIterate it;
      it.iter = iter;
      it.total = total->value[0];
      it.disp = l_disp->value[0];
      it.ovlp = l_ovlp->value[0];
      it.cut = l_cut->value[0];
      it.cong = l_cong->value[0];
      it.therm = l_therm ? l_therm->value[0] : 0.0;
      res.trace.push_back(it);
      log_debug("dco r", restart, " iter ", iter, " total=", it.total,
                " cong=", it.cong, " ovlp=", it.ovlp, " cut=", it.cut,
                " disp=", it.disp);

      if (!std::isfinite(it.total) || !std::isfinite(it.disp) ||
          !std::isfinite(it.ovlp) || !std::isfinite(it.cut) ||
          !std::isfinite(it.cong)) {
        ++gs.nan_events;
        if (cfg.guard.strict)
          throw StatusError(Status::numerical(
              "run_dco: non-finite loss at restart " + std::to_string(restart) +
              " iter " + std::to_string(iter)));
        if (cfg.guard.nan_policy == NanPolicy::kSkip) {
          // No gradient step is possible on a non-finite loss; if it
          // persists, patience ends the attempt (NaN never "improves").
          ++gs.skipped_steps;
          log_warn("dco: non-finite loss at restart ", restart, " iter ", iter,
                   "; step skipped");
          if (++stall >= cfg.patience) return Attempt::kDiverged;
          continue;
        }
        if (!backoff(iter, "loss")) return Attempt::kDiverged;
        continue;
      }

      // Clean iterate: these weights provably produce a finite loss, so they
      // become the rollback point before the (riskier) gradient step.
      good.capture(params);

      // Periodically evaluate the hard-committed candidate.
      if ((iter % cfg.eval_every == 0 || iter + 1 == cfg.max_iter) &&
          !consider(out, iter))
        return stop_on_deadline(iter);

      if (it.total < best_loss_seen - cfg.convergence_eps) {
        best_loss_seen = it.total;
        stall = 0;
      } else if (++stall >= cfg.patience) {
        // Converged / plateaued.
        return consider(out, iter) ? Attempt::kDone : stop_on_deadline(iter);
      }

      adam.zero_grad();
      nn::backward(total);
      if (faults.should_fire(FaultSite::kDcoGrad) && !params.empty()) {
        params[0]->ensure_grad();
        params[0]->grad[0] = std::numeric_limits<float>::quiet_NaN();
      }
      if (!adam.step_checked()) {
        ++gs.nan_events;
        if (cfg.guard.strict)
          throw StatusError(Status::numerical(
              "run_dco: non-finite gradient at restart " +
              std::to_string(restart) + " iter " + std::to_string(iter)));
        if (cfg.guard.nan_policy == NanPolicy::kSkip) {
          ++gs.skipped_steps;
          log_warn("dco: non-finite gradient at restart ", restart, " iter ",
                   iter, "; step skipped");
        } else if (!backoff(iter, "gradient")) {
          return Attempt::kDiverged;
        }
        continue;
      }
      if (!params_finite(params)) {
        // The step itself produced non-finite weights: a rollback is
        // mandatory regardless of policy.
        ++gs.nan_events;
        if (cfg.guard.strict)
          throw StatusError(Status::numerical(
              "run_dco: non-finite parameters after step at restart " +
              std::to_string(restart) + " iter " + std::to_string(iter)));
        if (!backoff(iter, "parameter update")) return Attempt::kDiverged;
      }
    }
    return Attempt::kDone;
  };

  // The restart loop. Returns true if it stopped on the deadline.
  auto optimize = [&] {
    for (int restart = 0; restart < std::max(cfg.restarts, 1); ++restart) {
      for (int attempt = 0;; ++attempt) {
        const Attempt outcome = run_attempt(restart);
        if (outcome == Attempt::kDeadline) return true;
        if (outcome == Attempt::kDone) break;
        if (attempt >= cfg.guard.max_reseeds) {
          log_warn("dco: restart ", restart,
                   " diverged and reseed budget exhausted; abandoning restart");
          break;
        }
        // Constructing a fresh spreader from the shared rng reseeds the
        // restart deterministically.
        ++gs.reseeds;
        log_warn("dco: restart ", restart,
                 " diverged; reseeding with fresh weights");
      }
    }
    return false;
  };

  // Trial scores never feed back into the gradient trajectory, so scoring
  // can overlap the next iterations: the optimizer drives the pool from a
  // helper thread while this thread scores, one candidate in flight. With
  // one thread, or inside a chunk body or inline lane, everything runs
  // here in the serial order instead.
  if (util::num_threads() > 1 && !util::in_parallel_region()) {
    Handoff slot(deadline);
    handoff = &slot;
    std::exception_ptr optimizer_error;
    std::thread optimizer([&] {
      bool drop_pending = true;
      try {
        drop_pending = optimize();
      } catch (const Handoff::Cancelled&) {
      } catch (...) {
        optimizer_error = std::current_exception();
      }
      slot.close(drop_pending);
    });
    try {
      util::InlineLane lane;
      score_input();
      while (std::optional<Candidate> c = slot.take())
        score_candidate(std::move(*c));
    } catch (...) {
      slot.cancel();
      optimizer.join();
      throw;
    }
    optimizer.join();
    if (optimizer_error) std::rethrow_exception(optimizer_error);
  } else {
    score_input();
    optimize();
  }

  res.best_loss = best_score;
  res.improved = improved;
  // res.placement already holds the best candidate (or the initial
  // placement when no iterate scored better).
  for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci)
    if (res.placement.tier[ci] != initial.tier[ci]) ++res.cells_moved_tier;
  return res;
}

}  // namespace dco3d
