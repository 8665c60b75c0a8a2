#pragma once
// Shared types of the paper-pipeline benchmark: workload sizing, seeds,
// per-run set-up, one job's outcome, and the correctness-check ledger.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/dco.hpp"
#include "core/trainer.hpp"
#include "flow/dataset.hpp"
#include "flow/pin3d.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Workload { kPin3d, kDco3d, kTrain };

Workload parse_workload(const std::string& name);  // throws on unknown names
const char* workload_name(Workload w);

/// Problem sizes. `paper()` is the paper configuration the benchmark
/// measures; `smoke()` runs the same code at a seconds-long scale.
struct Scale {
  double design_scale = 0.04;  // LDPC at 4% of the paper's cell count
  int grid = 48;               // GCell grid and predictor input (48x48)
  // train_ldpc: Alg. 1 dataset and training.
  int dataset_layouts = 8;
  int dataset_perturbed = 2;
  int train_epochs = 6;
  // dco3d_ldpc: the reduced predictor trained during set-up.
  int predictor_layouts = 2;
  int predictor_perturbed = 1;
  int predictor_epochs = 2;
  // Alg. 2 overrides; 0 keeps the DcoConfig default.
  int dco_max_iter = 0;
  int dco_restarts = 0;
  // Traced replays per call (the median is reported); DCO iterations, at
  // ~30 ms each, are replayed iteration_replays times.
  int replay_reps = 5;
  int iteration_replays = 20;

  static Scale paper() { return {}; }
  static Scale smoke();
};

/// What a job runs on: the design read back from its file, the calibrated
/// flow configuration and, per workload, the predictor or Alg. 1 settings.
struct Setup {
  dco3d::Netlist design;
  dco3d::FlowConfig flow;
  dco3d::DcoConfig dco;            // dco3d_ldpc
  dco3d::Predictor predictor;      // dco3d_ldpc
  dco3d::DatasetConfig dataset;    // train_ldpc
  dco3d::TrainConfig train;        // train_ldpc
};

/// Every input is canonical: the paper's LDPC design at its generator seed,
/// the flows' shared placement seed, and the library's default DCO, Alg. 1
/// dataset and trainer seeds. The workload seed selects none of them,
/// because each of those streams moves the quality results by 13-74%
/// (README.md, "Seeds").
Setup make_setup(Workload w, const Scale& sc, const std::string& work_dir,
                 Recorder* rec);

/// Outcome of one job, with what the traced replays need.
struct JobResult {
  double wall_s = 0.0;
  std::vector<double> qor;          // the three qor_* values (lower = better)
  std::vector<double> fingerprint;  // every deterministic output compared
  // Flow workloads.
  int stages_run = 0;
  dco3d::Netlist final_netlist;     // after CTS and signoff sizing
  dco3d::Placement3D final_placement;
  dco3d::Placement3D global_placement;  // fed to CTS (after the dco stage)
  std::vector<double> skew;
  dco3d::StageMetrics signoff;
  // dco3d_ldpc.
  bool ran_dco = false;
  dco3d::Placement3D dco_input;
  dco3d::DcoResult dco;
  // train_ldpc.
  std::vector<dco3d::DataSample> dataset;
  dco3d::Predictor predictor;
};

/// Correctness checks: how often each ran, and each failure with its reason.
struct Checks {
  std::map<std::string, int> ran;
  std::vector<std::string> failures;
  int failed_jobs = 0;

  /// Record one evaluation of `name`; returns `ok`.
  bool check(const std::string& name, bool ok, const std::string& why);
};

/// Run one job. With a recorder, each stage / top-level call gets a span.
JobResult run_job(Workload w, const Setup& setup, Recorder* rec);

/// Job-local checks (everything except determinism, which needs the
/// previous job). Returns true if all passed.
bool check_job(Workload w, const Setup& setup, const JobResult& job,
               Checks& checks);

/// run_dco's trial-route score of a placement, computed independently of
/// it: CTS on a copy of the netlist, legalize, full global route, then
/// overflow + 1e-5 * wirelength.
double full_route_score(const dco3d::Netlist& nl, const dco3d::Placement3D& pl,
                        const dco3d::DcoConfig& cfg);

/// Number of trial routes run_dco performed (input placement + candidates),
/// reconstructed from its per-iteration trace and configuration.
int count_trial_routes(const dco3d::DcoResult& r, const dco3d::DcoConfig& cfg);

/// Traced replays of the layer calls behind one job; adds per-layer
/// metrics (name -> value) to `out`.
void replay_layers(Workload w, const Setup& setup, const JobResult& job,
                   const Scale& sc, Recorder& rec,
                   std::map<std::string, double>& out);

}  // namespace perfbench
