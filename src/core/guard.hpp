#pragma once
// Run guardrails for the long-running gradient pipelines (Alg. 1 training
// and the Alg. 2 DCO loop): non-finite detection with configurable recovery
// policies, wall-clock deadlines with graceful early commit, parameter
// snapshots for rollback, and a deterministic fault-injection hook so every
// recovery path can be exercised in ctest. See docs/robustness.md.

#include <array>
#include <chrono>
#include <mutex>
#include <span>
#include <vector>

#include "nn/autograd.hpp"
#include "util/status.hpp"

namespace dco3d {

// ---------------------------------------------------------------------------
// Non-finite detection.

bool all_finite(std::span<const float> xs);
bool all_finite(const nn::Tensor& t);
/// All parameter *values* finite.
bool params_finite(const std::vector<nn::Var>& params);
/// All parameter *gradients* finite. Parameters whose grad buffer was never
/// allocated count as finite (they received no gradient).
bool grads_finite(const std::vector<nn::Var>& params);

// ---------------------------------------------------------------------------
// Recovery policy.

enum class NanPolicy {
  kSkip,     // drop the offending step and carry on
  kHalveLr,  // drop the step and halve the learning rate (bounded backoff)
  kRollback, // restore the last good snapshot, then back off the LR
};

struct GuardConfig {
  NanPolicy nan_policy = NanPolicy::kHalveLr;
  int max_lr_halvings = 4;  // backoff budget per run (trainer) / restart (DCO)
  int max_reseeds = 2;      // DCO only: re-initializations of a diverged restart
  // Escalate every guardrail event into a StatusError (kNumericalError)
  // instead of recovering. CLI --strict maps here.
  bool strict = false;
};

/// Counters reported back to the caller; merged into the run result so flows
/// can surface "this run recovered from N anomalies".
struct GuardStats {
  int nan_events = 0;      // non-finite loss/grad/param detections
  int skipped_steps = 0;   // gradient steps dropped
  int lr_halvings = 0;
  int rollbacks = 0;       // snapshot restores
  int reseeds = 0;         // DCO restarts re-initialized after divergence
  bool deadline_hit = false;

  void merge(const GuardStats& o) {
    nan_events += o.nan_events;
    skipped_steps += o.skipped_steps;
    lr_halvings += o.lr_halvings;
    rollbacks += o.rollbacks;
    reseeds += o.reseeds;
    deadline_hit = deadline_hit || o.deadline_hit;
  }
  bool clean() const {
    return nan_events == 0 && skipped_steps == 0 && lr_halvings == 0 &&
           rollbacks == 0 && reseeds == 0 && !deadline_hit;
  }
};

// ---------------------------------------------------------------------------
// Wall-clock deadline.

class Deadline {
 public:
  /// budget_ms <= 0 means unlimited.
  explicit Deadline(double budget_ms = 0.0)
      : start_(std::chrono::steady_clock::now()), budget_ms_(budget_ms) {}

  bool unlimited() const { return budget_ms_ <= 0.0; }
  double budget_ms() const { return budget_ms_; }
  double elapsed_ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  bool expired() const { return !unlimited() && elapsed_ms() >= budget_ms_; }
  /// The instant the budget runs out (meaningless when unlimited()).
  std::chrono::steady_clock::time_point expiry() const {
    return start_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double, std::milli>(budget_ms_));
  }

 private:
  std::chrono::steady_clock::time_point start_;
  double budget_ms_;
};

// ---------------------------------------------------------------------------
// Parameter snapshots for rollback. capture() and restore() are O(1) per
// tensor: the snapshot aliases the parameter storage, and the optimizer's
// next in-place update copy-on-writes the parameter away from it, so the
// captured bits stay frozen without an eager deep copy.

class ParamSnapshot {
 public:
  ParamSnapshot() = default;
  explicit ParamSnapshot(const std::vector<nn::Var>& params) { capture(params); }

  void capture(const std::vector<nn::Var>& params);
  /// Restore into `params`; they must match the captured count and shapes.
  void restore(const std::vector<nn::Var>& params) const;
  bool empty() const { return values_.empty(); }

 private:
  std::vector<nn::Tensor> values_;
};

// ---------------------------------------------------------------------------
// Fault injection (test hook).

enum class FaultSite : int {
  kTrainerLoss = 0,  // flip the sample loss to NaN
  kTrainerGrad,      // corrupt a parameter gradient after backward
  kDcoLoss,          // flip the DCO total loss to NaN
  kDcoGrad,          // corrupt a spreader gradient
  kCheckpointWrite,  // abort save_predictor mid-stream
  kFlowStageFail,    // pipeline stage throws before its body runs
  kFlowStageStall,   // pipeline stage sleeps param() ms before its body runs
  kArtifactWrite,    // save_flow_artifact fails after the tmp write, before
                     // the rename (simulated crash: stale *.tmp left behind)
  kDcoScoreStall,    // DCO candidate scorer sleeps param() ms before scoring
  kDcoScoreFail,     // DCO candidate scorer throws before scoring
};
inline constexpr int kNumFaultSites = 10;

/// Deterministic fault injector: compiled in, inert unless armed (production
/// flows never arm it). Each site keeps a consult counter; a fault fires on
/// the armed consult index, for `count` consecutive consults. Consults are
/// thread-safe (flow/server sites are consulted from concurrent job lanes);
/// arm/disarm still only from test code, between runs.
class FaultInjector {
 public:
  static FaultInjector& instance();

  /// Fire `count` faults at `site`, starting at the `step`-th time that site
  /// is consulted (0-based), counted from the last arm/disarm. `param` is a
  /// site-specific knob (kFlowStageStall: stall duration in ms).
  void arm(FaultSite site, int step, int count = 1, double param = 0.0);
  /// Reset all sites, counters, and fired tallies.
  void disarm();

  bool armed(FaultSite site) const;
  /// Consult the injector: advances the site counter and reports whether a
  /// fault fires at this consult. Always false when the site is not armed.
  bool should_fire(FaultSite site);
  /// should_fire + poke a NaN into t[0] when firing. Returns true if t was
  /// corrupted.
  bool maybe_corrupt(FaultSite site, nn::Tensor& t);
  /// How many faults actually fired at `site` since the last arm/disarm.
  int fired(FaultSite site) const;
  /// The site-specific parameter set at arm time.
  double param(FaultSite site) const;

 private:
  FaultInjector() = default;
  bool should_fire_locked(FaultSite site);
  struct Site {
    bool armed = false;
    int fire_at = 0;
    int count = 0;
    int consults = 0;
    int fired = 0;
    double param = 0.0;
  };
  mutable std::mutex mu_;
  std::array<Site, kNumFaultSites> sites_{};
};

}  // namespace dco3d
