#include "flow/server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <algorithm>
#include <cstdlib>

#include "flow/batch.hpp"
#include "netlist/generators.hpp"
#include "util/jsonl.hpp"
#include "util/parallel.hpp"

namespace dco3d {

namespace {

using util::JsonObject;
using util::JsonWriter;

double now_ms(std::chrono::steady_clock::time_point since) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - since)
      .count();
}

}  // namespace

DesignKind parse_serve_kind(const std::string& k, Status& err) {
  if (k == "dma") return DesignKind::kDma;
  if (k == "aes") return DesignKind::kAes;
  if (k == "ecg") return DesignKind::kEcg;
  if (k == "ldpc") return DesignKind::kLdpc;
  if (k == "vga") return DesignKind::kVga;
  if (k == "rocket") return DesignKind::kRocket;
  if (k == "memlogic") return DesignKind::kMemLogic;
  if (k == "macroheavy") return DesignKind::kMacroHeavy;
  err = Status::invalid_argument(
      "unknown design kind '" + k +
      "' (valid kinds: dma, aes, ecg, ldpc, vga, rocket, memlogic, "
      "macroheavy)");
  return DesignKind::kDma;
}

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kEarlyCommit: return "early_commit";
    case JobState::kFailed: return "failed";
    case JobState::kShed: return "shed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kRejected: return "rejected";
  }
  return "unknown";
}

bool job_state_terminal(JobState s) {
  return s != JobState::kQueued && s != JobState::kRunning;
}

bool job_state_retriable(JobState s) {
  return s == JobState::kShed || s == JobState::kRejected;
}

// ---------------------------------------------------------------------------
// Job record. `state` and `cancel` are atomics so the scheduler and status
// snapshots never need the record mutex for the common polls; everything
// else (status, metrics, the streamed trace lines) is guarded by `mu`.

struct Server::Job {
  std::uint64_t num = 0;
  std::string id;
  ServeJobSpec spec;
  util::JsonObject request;  // raw submit request (custom-runner knobs)

  std::atomic<JobState> state{JobState::kQueued};
  std::atomic<bool> cancel{false};

  mutable std::mutex mu;
  std::condition_variable cv;       // trace lines appended / job finished
  std::vector<std::string> events;  // pre-rendered protocol event lines
  bool finished = false;

  Status status;
  std::string key;
  double wall_ms = 0.0;
  double retry_after_ms = 0.0;
  PipelineRunInfo info;
  double overflow = -1.0, wns_ps = 0.0, wirelength_um = 0.0;
  ServeRunOutcome outcome;  // custom-runner result (search jobs)
};

// ---------------------------------------------------------------------------
// Lifecycle.

Server::Server(ServerConfig cfg) : cfg_(std::move(cfg)),
      queue_(cfg_.queue_depth, cfg_.workers < 1 ? 1 : cfg_.workers) {
  if (cfg_.workers < 1) cfg_.workers = 1;
  if (!cfg_.cache_dir.empty())
    cache_ = std::make_unique<ArtifactCache>(cfg_.cache_dir,
                                             cfg_.cache_budget_bytes);
}

Server::~Server() {
  if (!stopped_.load() && listener_.joinable()) request_drain();
  teardown();
}

void Server::start() {
  start_time_ = std::chrono::steady_clock::now();
  port_ = cfg_.port;
  listen_fd_ = util::listen_local(port_);
  int pipefd[2];
  if (::pipe(pipefd) != 0)
    throw StatusError(Status::io_error("serve: cannot create wake pipe"));
  wake_rd_.reset(pipefd[0]);
  wake_wr_.reset(pipefd[1]);
  workers_.reserve(static_cast<std::size_t>(cfg_.workers));
  for (int i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  listener_ = std::thread([this] { accept_loop(); });
}

void Server::request_drain() {
  if (!stopped_.load()) do_drain();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> lock(stop_mu_);
    stop_cv_.wait(lock, [this] { return stopped_.load(); });
  }
  teardown();
}

void Server::teardown() {
  if (torn_down_.exchange(true)) return;
  // Wake and join the accept loop first so no new connections arrive.
  if (wake_wr_.valid()) {
    const char b = 1;
    (void)!::write(wake_wr_.get(), &b, 1);
  }
  if (listener_.joinable()) listener_.join();
  queue_.stop();  // normally already stopped by do_drain; idempotent
  for (std::thread& w : workers_)
    if (w.joinable()) w.join();
  // Connection threads are detached but counted: kick any blocked read with
  // shutdown(), then wait for the count to hit zero.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::unique_lock<std::mutex> lock(conns_mu_);
  conns_cv_.wait(lock, [this] { return conn_count_ == 0; });
}

// ---------------------------------------------------------------------------
// Drain: stop admission, reject what was still queued (retriable), let the
// in-flight jobs finish or early-commit, then flip to stopped.

std::string Server::do_drain() {
  std::lock_guard<std::mutex> serialize(drain_mu_);
  if (!stopped_.load()) {
    draining_.store(true);
    const double hint = queue_.stats().service_ewma_ms;
    for (std::uint64_t num : queue_.drain()) {
      std::shared_ptr<Job> job = find_job_num(num);
      if (!job) continue;
      {
        std::lock_guard<std::mutex> lock(job->mu);
        job->retry_after_ms = hint;
      }
      finish_job(*job, JobState::kRejected,
                 Status::unavailable("server draining — resubmit elsewhere "
                                     "or after restart (retriable)"));
    }
    queue_.wait_idle();  // running jobs finish or early-commit
    queue_.stop();
    stopped_.store(true);
    {
      std::lock_guard<std::mutex> lock(stop_mu_);
    }
    stop_cv_.notify_all();
    if (wake_wr_.valid()) {
      const char b = 1;
      (void)!::write(wake_wr_.get(), &b, 1);
    }
  }
  const ServerCounters c = counters();
  return JsonWriter()
      .field("ok", true)
      .field("event", "drained")
      .field("submitted", c.submitted)
      .field("completed", c.completed)
      .field("early_commits", c.early_commits)
      .field("failed", c.failed)
      .field("shed", c.shed)
      .field("cancelled", c.cancelled)
      .field("rejected", c.rejected)
      .done();
}

// ---------------------------------------------------------------------------
// Worker lanes. Each lane is an InlineLane: the flow's parallel kernels run
// inline on this thread (never re-entering the shared pool), so concurrent
// jobs stay bit-identical to serial runs — the same contract batch lanes use.

void Server::worker_loop() {
  util::InlineLane lane;
  std::uint64_t num = 0;
  while (queue_.pop(num)) {
    std::shared_ptr<Job> job = find_job_num(num);
    if (!job) {  // evicted from history somehow; nothing to run
      queue_.job_done(0.0);
      continue;
    }
    if (job->cancel.load()) {  // cancelled between admission and pop
      finish_job(*job, JobState::kCancelled,
                 Status::cancelled("cancelled while queued"));
      queue_.job_done(0.0);
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    run_job(*job);
    queue_.job_done(now_ms(t0));
  }
}

void Server::run_job(Job& job) {
  job.state.store(JobState::kRunning);
  const auto t0 = std::chrono::steady_clock::now();
  JobState final_state = JobState::kDone;
  Status final_status;
  try {
    // Custom job types (e.g. "search") dispatch to their registered runner;
    // it shares the job's deadline/cancel guards, the artifact cache, and
    // the event stream, and reports its outcome through ServeRunOutcome.
    if (job.spec.type != "flow") {
      const auto rit = cfg_.runners.find(job.spec.type);
      if (rit == cfg_.runners.end())
        throw StatusError(Status::invalid_argument(
            "no runner registered for job type '" + job.spec.type + "'"));
      const double budget = job.spec.deadline_ms > 0.0
                                ? job.spec.deadline_ms
                                : cfg_.default_deadline_ms;
      const Deadline deadline(budget);
      ServeRunContext rc{job.spec, job.request,
                         (cache_ && job.spec.use_cache) ? cache_.get()
                                                        : nullptr,
                         &deadline, &job.cancel,
                         [&job](const std::string& kind,
                                const std::string& inner) {
                           std::string line = JsonWriter()
                                                  .field("event", kind)
                                                  .field("job", job.id)
                                                  .raw("trace", inner)
                                                  .done();
                           {
                             std::lock_guard<std::mutex> lock(job.mu);
                             job.events.push_back(std::move(line));
                           }
                           job.cv.notify_all();
                         }};
      ServeRunOutcome outcome;
      const Status st = rit->second(rc, outcome);
      if (!st.ok()) throw StatusError(st);
      {
        std::lock_guard<std::mutex> lock(job.mu);
        job.outcome = outcome;
      }
      if (outcome.cancelled) {
        final_state = JobState::kCancelled;
        final_status = Status::cancelled(
            "cancelled while running — partial results committed");
      } else if (outcome.deadline_hit) {
        final_state = JobState::kEarlyCommit;
        final_status = Status::deadline_exceeded(
            "job deadline hit — partial results committed");
      }
      {
        std::lock_guard<std::mutex> lock(job.mu);
        job.wall_ms = now_ms(t0);
      }
      finish_job(job, final_state, final_status);
      return;
    }

    Status kind_err;
    const DesignKind kind = parse_serve_kind(job.spec.kind, kind_err);
    if (!kind_err.ok()) throw StatusError(kind_err);

    DesignSpec spec = spec_for(kind, job.spec.scale);
    spec.seed = job.spec.seed == 0 ? 1 : job.spec.seed;
    spec.clock_period_ps = job.spec.clock_ps;
    const Netlist design = generate_design(spec);

    FlowConfig cfg;
    cfg.grid_nx = cfg.grid_ny = job.spec.grid;
    cfg.num_tiers = job.spec.tiers;
    cfg.seed = spec.seed;
    const Placement3D ref = place_pseudo3d(design, cfg.place_params, cfg.seed,
                                           /*legalized=*/true, cfg.num_tiers);
    cfg.router = calibrated_router(design, ref, cfg.grid_nx, 0.70);

    FlowContext ctx = make_flow_context(design, cfg);
    ctx.design_name = spec.name;
    {
      std::lock_guard<std::mutex> lock(job.mu);
      job.key = flow_cache_key(ctx);
    }

    const double budget = job.spec.deadline_ms > 0.0
                              ? job.spec.deadline_ms
                              : cfg_.default_deadline_ms;
    const Deadline deadline(budget);
    PipelineOptions po;
    po.stop_after = job.spec.stop_after;
    if (cache_ && job.spec.use_cache) {
      po.cache = cache_.get();
      po.auto_resume = true;
    }
    po.deadline = &deadline;
    po.cancel = &job.cancel;
    po.info = &job.info;
    po.on_trace = [&job](const StageTraceEntry& e) {
      std::string line = JsonWriter()
                             .field("event", "stage")
                             .field("job", job.id)
                             .raw("trace", e.to_json())
                             .done();
      {
        std::lock_guard<std::mutex> lock(job.mu);
        job.events.push_back(std::move(line));
      }
      job.cv.notify_all();
    };

    const FlowResult res = pin3d_pipeline().run(ctx, po);

    const Pipeline& pipe = pin3d_pipeline();
    std::lock_guard<std::mutex> lock(job.mu);
    if (job.info.last_stage >= pipe.index_of("final-metrics")) {
      job.overflow = res.signoff.overflow;
      job.wns_ps = res.signoff.wns_ps;
      job.wirelength_um = res.signoff.wirelength_um;
    } else if (job.info.last_stage >= pipe.index_of("after-place-metrics")) {
      job.overflow = res.after_place.overflow;
      job.wns_ps = res.after_place.wns_ps;
      job.wirelength_um = res.after_place.wirelength_um;
    }
    if (job.info.cancelled) {
      final_state = JobState::kCancelled;
      final_status = Status::cancelled("cancelled while running — partial "
                                       "results committed");
    } else if (job.info.deadline_hit) {
      final_state = JobState::kEarlyCommit;
      final_status = Status::deadline_exceeded(
          "job deadline hit — partial results committed");
    }
  } catch (const StatusError& err) {
    // Isolation: the failure lands in this job record; the lane, the queue
    // and every other job keep running.
    final_state = JobState::kFailed;
    final_status = err.status();
  } catch (const std::exception& err) {
    final_state = JobState::kFailed;
    final_status = Status::internal(err.what());
  }
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.wall_ms = now_ms(t0);
  }
  finish_job(job, final_state, final_status);
}

void Server::finish_job(Job& job, JobState state, Status status) {
  // Counters and history first: by the time a waiting client sees the final
  // event (released by `finished` below), the server-wide counters already
  // reflect this job.
  update_counters(job, state);
  {
    std::lock_guard<std::mutex> lock(job.mu);
    job.status = std::move(status);
    job.finished = true;
  }
  job.state.store(state);
  job.cv.notify_all();
}

void Server::update_counters(Job& job, JobState state) {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  switch (state) {
    case JobState::kDone: ++counters_.completed; break;
    case JobState::kEarlyCommit: ++counters_.early_commits; break;
    case JobState::kFailed: ++counters_.failed; break;
    case JobState::kCancelled: ++counters_.cancelled; break;
    case JobState::kRejected: ++counters_.rejected; break;
    case JobState::kShed: ++counters_.shed; break;
    default: break;
  }
  finished_order_.push_back(job.num);
  while (finished_order_.size() > cfg_.history) {
    jobs_.erase(finished_order_.front());
    finished_order_.pop_front();
  }
}

// ---------------------------------------------------------------------------
// Job lookup / snapshots.

std::shared_ptr<Server::Job> Server::find_job_num(std::uint64_t num) const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  auto it = jobs_.find(num);
  return it == jobs_.end() ? nullptr : it->second;
}

std::shared_ptr<Server::Job> Server::find_job(const std::string& id) const {
  if (id.size() < 2 || id[0] != 'j') return nullptr;
  char* end = nullptr;
  const std::uint64_t num = std::strtoull(id.c_str() + 1, &end, 10);
  if (end == nullptr || *end != '\0') return nullptr;
  return find_job_num(num);
}

JobSnapshot Server::snapshot(const Job& job) const {
  JobSnapshot s;
  s.id = job.id;
  s.state = job.state.load();
  std::lock_guard<std::mutex> lock(job.mu);
  s.status = job.status;
  s.key = job.key;
  s.wall_ms = job.wall_ms;
  s.last_stage = job.info.last_stage;
  s.stages_run = job.info.stages_run;
  s.stages_cached = job.info.stages_cached;
  s.deadline_hit = job.info.deadline_hit;
  s.retry_after_ms = job.retry_after_ms;
  s.overflow = job.overflow;
  s.wns_ps = job.wns_ps;
  s.wirelength_um = job.wirelength_um;
  s.type = job.spec.type;
  s.outcome = job.outcome;
  return s;
}

JobSnapshot Server::job(const std::string& id) const {
  std::shared_ptr<Job> j = find_job(id);
  if (!j)
    throw StatusError(Status::not_found("serve: no such job '" + id + "'"));
  return snapshot(*j);
}

ServerCounters Server::counters() const {
  std::lock_guard<std::mutex> lock(jobs_mu_);
  return counters_;
}

JobQueueStats Server::queue_stats() const { return queue_.stats(); }

namespace {

void snapshot_fields(JsonWriter& w, const JobSnapshot& s) {
  w.field("job", s.id)
      .field("state", job_state_name(s.state))
      .field("retriable", job_state_retriable(s.state))
      .field("wall_ms", s.wall_ms)
      .field("last_stage", s.last_stage)
      .field("stages_run", s.stages_run)
      .field("stages_cached", s.stages_cached)
      .field("deadline_hit", s.deadline_hit);
  if (!s.key.empty()) w.field("key", s.key);
  if (!s.status.ok()) {
    w.field("status", status_code_name(s.status.code())).field("message", s.status.message());
  }
  if (s.retry_after_ms > 0.0) w.field("retry_after_ms", s.retry_after_ms);
  if (s.overflow >= 0.0) {
    w.field("overflow", s.overflow)
        .field("wns_ps", s.wns_ps)
        .field("wirelength_um", s.wirelength_um);
  }
  if (s.type != "flow") w.field("type", s.type);
  if (s.outcome.has_objective) {
    w.field("objective", s.outcome.objective)
        .field("rounds", s.outcome.rounds)
        .field("cheap_evals", s.outcome.cheap_evals)
        .field("full_evals", s.outcome.full_evals);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Protocol.

std::string Server::handle_submit(const JsonObject& req, int fd) {
  ServeJobSpec spec;
  spec.type = util::json_str(req, "type", spec.type);
  spec.kind = util::json_str(req, "kind", spec.kind);
  spec.scale = util::json_num(req, "scale", spec.scale);
  spec.grid = static_cast<int>(util::json_num(req, "grid", spec.grid));
  // Clamped before the cast so any out-of-range count is rejected below.
  spec.tiers = static_cast<int>(std::clamp(
      util::json_num(req, "tiers", spec.tiers), 0.0, kMaxTiers + 1.0));
  spec.clock_ps = util::json_num(req, "clock_ps", spec.clock_ps);
  spec.seed = static_cast<std::uint64_t>(util::json_num(req, "seed", 1.0));
  spec.stop_after = util::json_str(req, "stop_after", "");
  spec.deadline_ms = util::json_num(req, "deadline_ms", 0.0);
  spec.priority = static_cast<int>(util::json_num(req, "priority", 0.0));
  spec.use_cache = util::json_bool(req, "cache", true);
  const bool wait = util::json_bool(req, "wait", false);

  // Validate what we can before admission so malformed submissions are
  // plain invalid_argument rejections, not shed/failed jobs.
  Status kind_err;
  parse_serve_kind(spec.kind, kind_err);
  if (spec.type != "flow" &&
      cfg_.runners.find(spec.type) == cfg_.runners.end())
    kind_err = Status::invalid_argument(
        "unknown job type '" + spec.type + "' (this server accepts: flow" +
        [this] {
          std::string s;
          for (const auto& [name, _] : cfg_.runners) s += ", " + name;
          return s;
        }() +
        ")");
  if (spec.grid < 4) kind_err = Status::invalid_argument("grid must be >= 4");
  if (spec.tiers < 2 || spec.tiers > kMaxTiers)
    kind_err = Status::invalid_argument("tiers must be in [2, " +
                                        std::to_string(kMaxTiers) + "]");
  if (spec.scale <= 0.0)
    kind_err = Status::invalid_argument("scale must be > 0");
  if (!kind_err.ok()) {
    return JsonWriter()
        .field("ok", false)
        .field("status", status_code_name(kind_err.code()))
        .field("retriable", false)
        .field("message", kind_err.message())
        .done();
  }

  std::shared_ptr<Job> job = std::make_shared<Job>();
  job->spec = std::move(spec);
  job->request = req;  // custom runners read their extra knobs from it
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    job->num = next_job_++;
    job->id = "j" + std::to_string(job->num);
    jobs_.emplace(job->num, job);
    ++counters_.submitted;
  }

  const AdmissionDecision adm = queue_.submit(job->num, job->spec.priority);
  if (!adm.admitted) {
    {
      std::lock_guard<std::mutex> lock(job->mu);
      job->retry_after_ms = adm.retry_after_ms;
    }
    finish_job(*job, JobState::kShed, adm.status);
    return JsonWriter()
        .field("ok", false)
        .field("job", job->id)
        .field("state", "shed")
        .field("status", status_code_name(adm.status.code()))
        .field("retriable", true)
        .field("retry_after_ms", adm.retry_after_ms)
        .field("message", adm.status.message())
        .done();
  }

  const std::string ack = JsonWriter()
                              .field("ok", true)
                              .field("job", job->id)
                              .field("state", "queued")
                              .field("depth", std::uint64_t(adm.depth))
                              .done();
  if (!wait) return ack;
  if (!util::send_line(fd, ack)) return "";  // client gone; job continues
  stream_job(fd, *job);
  return "";  // stream_job sent everything, including the final event
}

void Server::stream_job(int fd, Job& job) {
  std::size_t sent = 0;
  for (;;) {
    std::vector<std::string> pending;
    bool finished = false;
    {
      std::unique_lock<std::mutex> lock(job.mu);
      job.cv.wait(lock, [&] { return job.events.size() > sent || job.finished; });
      pending.assign(job.events.begin() + static_cast<std::ptrdiff_t>(sent),
                     job.events.end());
      sent = job.events.size();
      finished = job.finished && job.events.size() == sent;
    }
    for (const std::string& line : pending)
      if (!util::send_line(fd, line)) return;  // client gone; job continues
    if (finished) break;
  }
  JsonWriter done;
  done.field("event", "done");
  snapshot_fields(done, snapshot(job));
  (void)util::send_line(fd, done.done());
}

std::string Server::handle_status(const JsonObject& req) const {
  const std::string id = util::json_str(req, "job", "");
  if (!id.empty()) {
    std::shared_ptr<Job> j = find_job(id);
    if (!j) {
      return JsonWriter()
          .field("ok", false)
          .field("status", "not_found")
          .field("message", "no such job '" + id + "'")
          .done();
    }
    JsonWriter w;
    w.field("ok", true);
    snapshot_fields(w, snapshot(*j));
    return w.done();
  }
  const ServerCounters c = counters();
  const JobQueueStats q = queue_.stats();
  JsonWriter w;
  w.field("ok", true)
      .field("protocol", kServeProtocol)
      .field("uptime_ms", now_ms(start_time_))
      .field("workers", cfg_.workers)
      .field("queue_depth", std::uint64_t(cfg_.queue_depth))
      .field("queued", std::uint64_t(q.depth))
      .field("in_flight", q.in_flight)
      .field("draining", draining_.load())
      .field("service_ewma_ms", q.service_ewma_ms)
      .field("submitted", c.submitted)
      .field("completed", c.completed)
      .field("early_commits", c.early_commits)
      .field("failed", c.failed)
      .field("shed", c.shed)
      .field("cancelled", c.cancelled)
      .field("rejected", c.rejected);
  if (cache_) {
    const ArtifactCacheStats cs = cache_->stats();
    w.field("cache_entries", std::uint64_t(cs.entries))
        .field("cache_bytes", cs.bytes)
        .field("cache_budget_bytes", cs.budget_bytes)
        .field("cache_evictions", cs.evictions)
        .field("cache_loads", cs.loads)
        .field("cache_misses", cs.misses)
        .field("cache_saves", cs.saves)
        .field("cache_tmp_swept", cs.tmp_swept);
  }
  return w.done();
}

std::string Server::handle_cancel(const JsonObject& req) {
  const std::string id = util::json_str(req, "job", "");
  std::shared_ptr<Job> job = find_job(id);
  if (!job) {
    return JsonWriter()
        .field("ok", false)
        .field("status", "not_found")
        .field("message", "no such job '" + id + "'")
        .done();
  }
  job->cancel.store(true);
  if (queue_.cancel(job->num)) {
    finish_job(*job, JobState::kCancelled,
               Status::cancelled("cancelled while queued"));
  }
  // Running jobs observe the flag at the next stage boundary and
  // early-commit; terminal jobs are unaffected.
  return JsonWriter()
      .field("ok", true)
      .field("job", job->id)
      .field("state", job_state_name(job->state.load()))
      .done();
}

// ---------------------------------------------------------------------------
// Accept / connection loops.

void Server::accept_loop() {
  for (;;) {
    pollfd fds[2] = {{listen_fd_.get(), POLLIN, 0}, {wake_rd_.get(), POLLIN, 0}};
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents != 0) break;  // wake pipe: stopping
    if ((fds[0].revents & POLLIN) == 0) continue;
    util::Fd conn = util::accept_conn(listen_fd_.get());
    if (!conn.valid()) break;
    util::set_recv_timeout(conn.get(), cfg_.idle_timeout_ms);
    const int fd = conn.release();
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn_fds_.push_back(fd);
      ++conn_count_;
    }
    std::thread([this, fd] { conn_loop(fd); }).detach();
  }
}

void Server::conn_loop(int raw_fd) {
  util::LineReader reader(raw_fd);
  std::string line;
  bool closing = false;
  while (!closing && reader.read_line(line)) {
    if (line.empty()) continue;
    JsonObject req;
    std::string resp;
    const Status parsed = util::parse_json_object(line, req);
    if (!parsed.ok()) {
      resp = JsonWriter()
                 .field("ok", false)
                 .field("status", status_code_name(parsed.code()))
                 .field("message", parsed.message())
                 .done();
    } else {
      const std::string cmd = util::json_str(req, "cmd", "");
      if (cmd == "ping") {
        resp = JsonWriter()
                   .field("ok", true)
                   .field("protocol", kServeProtocol)
                   .field("port", port_)
                   .done();
      } else if (cmd == "submit") {
        if (stopped_.load() || draining_.load()) {
          resp = JsonWriter()
                     .field("ok", false)
                     .field("state", "shed")
                     .field("status", "unavailable")
                     .field("retriable", true)
                     .field("message", "server draining (retriable)")
                     .done();
        } else {
          resp = handle_submit(req, raw_fd);  // empty when it streamed
        }
      } else if (cmd == "status") {
        resp = handle_status(req);
      } else if (cmd == "cancel") {
        resp = handle_cancel(req);
      } else if (cmd == "drain") {
        resp = do_drain();
        closing = true;
      } else {
        resp = JsonWriter()
                   .field("ok", false)
                   .field("status", "invalid_argument")
                   .field("message", "unknown cmd '" + cmd + "'")
                   .done();
      }
    }
    if (!resp.empty() && !util::send_line(raw_fd, resp)) break;
  }
  if (reader.too_long())
    util::send_line(raw_fd,
                    JsonWriter()
                        .field("ok", false)
                        .field("status", "invalid_argument")
                        .field("message",
                               "request line exceeds " +
                                   std::to_string(util::LineReader::kMaxLineBytes) +
                                   " bytes without a newline")
                        .done());
  std::lock_guard<std::mutex> lock(conns_mu_);
  ::close(raw_fd);
  conn_fds_.erase(std::find(conn_fds_.begin(), conn_fds_.end(), raw_fd));
  --conn_count_;
  conns_cv_.notify_all();
}

}  // namespace dco3d
