// perfbench: the paper's pipeline as a benchmark. One process runs one
// workload as a closed loop (one job after another) and prints, as its last
// stdout line, {"correct","attempted","failed","metrics"}:
//   --trace 0: end-to-end metrics, measured untraced;
//   --trace 1: per-layer metrics from one traced job plus replays of the
//              layer calls behind it (the span file lands in --work-dir).
// Exits nonzero when any correctness check fails (after printing the line)
// or when the run cannot complete (without printing it).
//
//   perfbench --workload pin3d_ldpc|dco3d_ldpc|train_ldpc --seed N
//             --seconds S --trace 0|1 [--work-dir DIR] [--smoke]
//             [--git REV] [--source-digest HEX]

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "nn/simd/simd.hpp"
#include "util/parallel.hpp"

namespace perfbench {
namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Printed with --trace 0. Every workload reports every metric; the qor_*
// triple is each workload's own deterministic quality result (README.md).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},          {"job_s", "s"},
    {"peak_rss_mb", "MB"},     {"pass_rate", "ratio"},
    {"qor_primary", "score"},  {"qor_secondary", "score"},
    {"qor_tertiary", "score"},
};

// Printed with --trace 1; a layer a workload never calls reads 0.
constexpr Metric kPerLayer[] = {
    {"flow.place3d_ms", "ms"},
    {"flow.dco_ms", "ms"},
    {"flow.after_place_metrics_ms", "ms"},
    {"flow.cts_ms", "ms"},
    {"flow.legalize_ms", "ms"},
    {"flow.route_ms", "ms"},
    {"flow.signoff_ms", "ms"},
    {"flow.final_metrics_ms", "ms"},
    {"flow.build_dataset_ms", "ms"},
    {"flow.make_sample_ms", "ms"},
    {"route.global_route_ms", "ms"},
    {"route.trial_route_ms", "ms"},
    {"route.trial_routes", "count"},
    {"place.place_pseudo3d_ms", "ms"},
    {"place.legalize_all_ms", "ms"},
    {"timing.run_sta_ms", "ms"},
    {"core.run_dco_ms", "ms"},
    {"core.dco_iters", "count"},
    {"core.dco_best_iter", "count"},
    {"core.dco_improved", "flag"},
    {"core.dco_cells_moved_tier", "count"},
    {"core.dco_score_initial", "score"},
    {"core.dco_score_committed", "score"},
    {"core.dco_guard_events", "count"},
    {"core.spreader_fwd_ms", "ms"},
    {"core.loss_disp_ms", "ms"},
    {"core.loss_ovlp_ms", "ms"},
    {"core.loss_cut_ms", "ms"},
    {"core.loss_cong_ms", "ms"},
    {"core.dco_unattributed_ms", "ms"},
    {"core.train_predictor_ms", "ms"},
    {"grid.soft_maps_fwd_ms", "ms"},
    {"grid.soft_maps_fwd_bwd_ms", "ms"},
    {"grid.feature_maps_ms", "ms"},
    {"nn.unet_fwd_ms", "ms"},
    {"nn.backward_ms", "ms"},
    {"nn.adam_step_ms", "ms"},
    {"nn.train_step_ms", "ms"},
    {"util.pool_dispatches", "count"},
    {"util.pool_inline_ratio", "ratio"},
    {"util.arena_heap_allocs", "count"},
    {"util.arena_hit_ratio", "ratio"},
    {"util.arena_peak_bytes", "bytes"},
    {"io.read_design_ms", "ms"},
    {"qor.signoff_overflow", "tracks"},
    {"qor.signoff_wl_um", "um"},
    {"qor.signoff_tns_ps", "ps"},
    {"qor.test_loss", "score"},
    {"trace.job_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".";
  std::string git = "unknown";
  std::string source_digest = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = std::stoi(v) != 0;
    else if (k == "--work-dir") a.work_dir = v;
    else if (k == "--git") a.git = v;
    else if (k == "--source-digest") a.source_digest = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string context_json(const Args& a, const Scale& sc, const Setup& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "{\"workload\":\"%s\",\"seed\":%llu,\"smoke\":%s,\"design\":\"ldpc\","
      "\"design_scale\":%g,\"grid\":%d,\"cells\":%zu,\"nets\":%zu,"
      "\"threads\":%d,\"nproc\":%u,\"simd\":\"%s\",\"host_isa\":\"%s\","
      "\"build_type\":\"%s\",\"git\":\"%s\",\"source_digest\":\"%s\"}",
      a.workload.c_str(), static_cast<unsigned long long>(a.seed),
      a.smoke ? "true" : "false", sc.design_scale, sc.grid,
      s.design.num_cells(), s.design.num_nets(), dco3d::util::num_threads(),
      std::thread::hardware_concurrency(), dco3d::nn::simd::backend_name(),
      dco3d::nn::simd::host_isa(), PERFBENCH_BUILD_TYPE, a.git.c_str(),
      a.source_digest.c_str());
  return buf;
}

std::string checks_json(const Checks& c) {
  std::string out = "{\"checks\":{";
  bool first = true;
  for (const auto& [name, n] : c.ran) {
    out += (first ? "\"" : ",\"") + name + "\":" + std::to_string(n);
    first = false;
  }
  out += "},\"failures\":[";
  for (std::size_t i = 0; i < c.failures.size(); ++i)
    out += (i ? ",\"" : "\"") + c.failures[i] + "\"";
  return out + "]}";
}

template <std::size_t N>
std::string metrics_json(const Metric (&table)[N],
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(table[i].name);
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  i ? "," : "", table[i].name,
                  it == values.end() ? 0.0 : it->second, table[i].unit);
    out += buf;
  }
  return out + "}";
}

/// Job-local checks plus determinism against the previous job of the run.
void check(Workload w, const Setup& setup, const JobResult& job,
           const JobResult* prev, Checks& checks) {
  bool ok = check_job(w, setup, job, checks);
  if (prev)
    ok &= checks.check("determinism", job.fingerprint == prev->fingerprint,
                       "outputs differ from the previous job");
  if (!ok) ++checks.failed_jobs;
}

/// Per-layer metrics of the traced job itself (stage spans, counters, QoR).
/// A stage metric is its span's wall time. That is its self time for every
/// stage but dco, whose one child is core.run_dco: flow.dco_ms includes
/// core.run_dco_ms, so the dco stage's share of job_s reads directly.
void job_layer_metrics(Workload w, const Recorder& rec, const JobResult& job,
                       std::map<std::string, double>& m) {
  for (const Span& s : rec.spans())
    if (s.parent >= 0 && rec.spans()[static_cast<std::size_t>(s.parent)].name == "job")
      m[s.name + "_ms"] = s.wall_ms();
  const Span* root = rec.find("job");
  const double calls = static_cast<double>(root->pool_dispatches + root->pool_inline);
  m["util.pool_dispatches"] = static_cast<double>(root->pool_dispatches);
  m["util.pool_inline_ratio"] = calls > 0 ? root->pool_inline / calls : 0.0;
  m["util.arena_heap_allocs"] = static_cast<double>(root->arena_heap_allocs);
  m["util.arena_hit_ratio"] =
      root->arena_requests > 0
          ? static_cast<double>(root->arena_hits) / root->arena_requests
          : 0.0;
  m["util.arena_peak_bytes"] = static_cast<double>(root->arena_peak_bytes);
  if (w == Workload::kTrain) {
    m["qor.test_loss"] = job.qor[0];
  } else {
    m["qor.signoff_overflow"] = job.signoff.overflow;
    m["qor.signoff_wl_um"] = job.signoff.wirelength_um;
    m["qor.signoff_tns_ps"] = job.signoff.tns_ps;
  }
}

int run(const Args& a) {
  const Workload w = parse_workload(a.workload);
  const Scale sc = a.smoke ? Scale::smoke() : Scale::paper();
  const auto run_t0 = std::chrono::steady_clock::now();
  Recorder rec;
  Recorder* trace = a.trace ? &rec : nullptr;

  // One timed set-up. Untraced runs repeat it between jobs (below), so
  // setup_s, the median, samples the same stretch of host time as job_s.
  std::vector<double> setup_s;
  double setup_total = 0.0;
  Setup setup;
  const auto set_up = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    setup = make_setup(w, sc, a.work_dir, trace);
    setup_s.push_back(seconds_since(t0));
    setup_total += setup_s.back();
  };
  set_up();
  const std::string context = context_json(a, sc, setup);
  std::printf("{\"context\":%s}\n", context.c_str());

  Checks checks;
  std::map<std::string, double> m;
  int attempted = 0;
  if (!a.trace) {
    // Closed loop: jobs back to back, at least kMinJobs of them (so the
    // determinism check has a previous job), ending at the job boundary
    // nearest to --seconds: the next job starts only while more than half
    // of a median job still falls inside the window. So a run measures
    // about --seconds whatever the job length, and never starts a job that
    // would overrun the process's time budget.
    // Before each job, set-ups run until they have taken kSetupShare of the
    // job time so far, and the run ends with at least kMinSetups of them;
    // every job uses the latest set-up, which is identical by construction
    // (the determinism check would see otherwise).
    constexpr double kBudgetS = 150.0;
    constexpr int kMinJobs = 2;
    constexpr std::size_t kMinSetups = 3;
    constexpr double kSetupShare = 0.1;
    std::vector<double> job_s;
    double job_total = 0.0;
    JobResult prev, job;
    const auto t0 = std::chrono::steady_clock::now();
    while (attempted < kMinJobs ||
           (seconds_since(t0) + 0.5 * median(job_s) < a.seconds &&
            seconds_since(run_t0) + median(job_s) <= kBudgetS)) {
      while (setup_total < kSetupShare * job_total) set_up();
      job = run_job(w, setup, nullptr);
      check(w, setup, job, attempted ? &prev : nullptr, checks);
      job_s.push_back(job.wall_s);
      job_total += job.wall_s;
      ++attempted;
      prev = std::move(job);
    }
    while (setup_s.size() < kMinSetups) set_up();
    m["setup_s"] = median(setup_s);
    m["job_s"] = median(job_s);
    m["pass_rate"] =
        static_cast<double>(attempted - checks.failed_jobs) / attempted;
    const char* qor_names[] = {"qor_primary", "qor_secondary", "qor_tertiary"};
    for (std::size_t i = 0; i < 3 && i < prev.qor.size(); ++i)
      m[qor_names[i]] = prev.qor[i];
    std::printf("{\"jobs\":%d,\"job_s_samples\":[", attempted);
    for (std::size_t i = 0; i < job_s.size(); ++i)
      std::printf("%s%.6f", i ? "," : "", job_s[i]);
    std::printf("],\"setup_s_samples\":[");
    for (std::size_t i = 0; i < setup_s.size(); ++i)
      std::printf("%s%.6f", i ? "," : "", setup_s[i]);
    std::printf("],\"fingerprint\":[");
    for (std::size_t i = 0; i < prev.fingerprint.size(); ++i)
      std::printf("%s%.17g", i ? "," : "", prev.fingerprint[i]);
    std::printf("]}\n");
  } else {
    // Untraced job first (the overhead reference), then the traced job and
    // the replays of the layer calls behind it.
    const JobResult plain = run_job(w, setup, nullptr);
    check(w, setup, plain, nullptr, checks);
    rec.set_job(1);
    const JobResult traced = run_job(w, setup, &rec);
    check(w, setup, traced, &plain, checks);
    attempted = 2;
    job_layer_metrics(w, rec, traced, m);
    m["io.read_design_ms"] = rec.median_wall_ms("io.read_design");
    m["trace.job_ms"] = plain.wall_s * 1e3;
    m["trace.overhead_ms"] = (traced.wall_s - plain.wall_s) * 1e3;
    replay_layers(w, setup, traced, sc, rec, m);
    rec.write_json(a.work_dir + "/trace-" + a.workload + "-seed" +
                       std::to_string(a.seed) + ".json",
                   context);
  }
  m["peak_rss_mb"] = peak_rss_mb();

  std::printf("%s\n", checks_json(checks).c_str());
  const std::string metrics =
      a.trace ? metrics_json(kPerLayer, m) : metrics_json(kEndToEnd, m);
  std::printf(
      "{\"correct\":%s,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n",
      checks.failures.empty() ? "true" : "false", attempted,
      checks.failed_jobs, metrics.c_str());
  std::fflush(stdout);
  return checks.failures.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
