// Serve-mode robustness tests: bounded admission queue, byte-budgeted LRU
// artifact cache (incl. the stale-tmp crash regression), per-job pipeline
// guards (deadline / cancel / injected faults), and the resident server
// end-to-end over its real loopback protocol — admission shedding at
// saturation, deadline early-commit, failed-job isolation, idempotent
// resubmission via the cache, cancel, and drain semantics.

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/guard.hpp"
#include "flow/cache.hpp"
#include "flow/jobqueue.hpp"
#include "flow/server.hpp"
#include "flow/stage.hpp"
#include "test_helpers.hpp"
#include "util/jsonl.hpp"
#include "util/socket.hpp"

namespace dco3d {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() / name).string();
  fs::remove_all(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// JobQueue: admission control, priority order, cancel, drain.

TEST(JobQueue, ShedsWhenFullWithRetriableBackoffHint) {
  JobQueue q(2, 1);
  EXPECT_TRUE(q.submit(1, 0).admitted);
  EXPECT_TRUE(q.submit(2, 0).admitted);
  const AdmissionDecision shed = q.submit(3, 0);
  EXPECT_FALSE(shed.admitted);
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_GT(shed.retry_after_ms, 0.0);
  const JobQueueStats st = q.stats();
  EXPECT_EQ(st.submitted, 3u);
  EXPECT_EQ(st.admitted, 2u);
  EXPECT_EQ(st.shed, 1u);
  q.stop();
}

TEST(JobQueue, PopsHighestPriorityFirstFifoWithin) {
  JobQueue q(8, 1);
  ASSERT_TRUE(q.submit(1, 0).admitted);
  ASSERT_TRUE(q.submit(2, 5).admitted);
  ASSERT_TRUE(q.submit(3, 5).admitted);
  ASSERT_TRUE(q.submit(4, -1).admitted);
  std::uint64_t job = 0;
  ASSERT_TRUE(q.pop(job));
  EXPECT_EQ(job, 2u);  // highest priority
  q.job_done(1.0);
  ASSERT_TRUE(q.pop(job));
  EXPECT_EQ(job, 3u);  // FIFO within priority 5
  q.job_done(1.0);
  ASSERT_TRUE(q.pop(job));
  EXPECT_EQ(job, 1u);
  q.job_done(1.0);
  ASSERT_TRUE(q.pop(job));
  EXPECT_EQ(job, 4u);
  q.job_done(1.0);
  q.stop();
  EXPECT_FALSE(q.pop(job));
}

TEST(JobQueue, CancelRemovesQueuedOnce) {
  JobQueue q(4, 1);
  ASSERT_TRUE(q.submit(7, 0).admitted);
  EXPECT_TRUE(q.cancel(7));
  EXPECT_FALSE(q.cancel(7));  // already gone
  EXPECT_EQ(q.stats().cancelled, 1u);
  EXPECT_EQ(q.stats().depth, 0u);
  q.stop();
}

TEST(JobQueue, DrainReturnsQueuedAndShedsLaterSubmits) {
  JobQueue q(4, 1);
  ASSERT_TRUE(q.submit(1, 0).admitted);
  ASSERT_TRUE(q.submit(2, 0).admitted);
  const std::vector<std::uint64_t> rejected = q.drain();
  ASSERT_EQ(rejected.size(), 2u);
  const AdmissionDecision after = q.submit(3, 0);
  EXPECT_FALSE(after.admitted);
  EXPECT_EQ(after.status.code(), StatusCode::kUnavailable);
  q.wait_idle();  // nothing in flight — returns immediately
  q.stop();
  std::uint64_t job = 0;
  EXPECT_FALSE(q.pop(job));
}

// ---------------------------------------------------------------------------
// ArtifactCache: byte budget, LRU order, startup tmp sweep.

void write_fake_artifact(const std::string& root, const std::string& rel,
                         std::size_t bytes) {
  const fs::path dir = fs::path(root) / rel;
  fs::create_directories(dir);
  std::ofstream os(dir / "blob", std::ios::binary);
  os << std::string(bytes, 'x');
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedOverBudget) {
  const std::string root = fresh_dir("dco3d_cache_lru");
  ArtifactCache cache(root, 2500);
  write_fake_artifact(root, "k1/place3d", 1000);
  cache.on_saved("k1/place3d");
  write_fake_artifact(root, "k2/place3d", 1000);
  cache.on_saved("k2/place3d");
  EXPECT_EQ(cache.stats().evictions, 0u);
  write_fake_artifact(root, "k3/place3d", 1000);
  cache.on_saved("k3/place3d");  // 3000 bytes > 2500 — k1 is LRU
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_FALSE(fs::exists(fs::path(root) / "k1"));
  EXPECT_TRUE(fs::exists(fs::path(root) / "k2/place3d"));
  EXPECT_TRUE(fs::exists(fs::path(root) / "k3/place3d"));
  fs::remove_all(root);
}

TEST(ArtifactCache, LoadTouchProtectsEntryFromEviction) {
  const std::string root = fresh_dir("dco3d_cache_touch");
  ArtifactCache cache(root, 2500);
  write_fake_artifact(root, "a/route", 1000);
  cache.on_saved("a/route");
  write_fake_artifact(root, "b/route", 1000);
  cache.on_saved("b/route");
  cache.on_loaded("a/route");  // a becomes MRU; b is now LRU
  write_fake_artifact(root, "c/route", 1000);
  cache.on_saved("c/route");
  EXPECT_TRUE(fs::exists(fs::path(root) / "a/route"));
  EXPECT_FALSE(fs::exists(fs::path(root) / "b"));
  EXPECT_EQ(cache.stats().loads, 1u);
  fs::remove_all(root);
}

TEST(ArtifactCache, SweepsStaleTmpDirectoriesOnStartup) {
  const std::string root = fresh_dir("dco3d_cache_sweep");
  write_fake_artifact(root, "k1/route", 100);        // real artifact: kept
  write_fake_artifact(root, "k1/signoff.tmp", 100);  // crash leftover: swept
  ArtifactCache cache(root, 0);
  EXPECT_EQ(cache.stats().tmp_swept, 1u);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_FALSE(fs::exists(fs::path(root) / "k1/signoff.tmp"));
  EXPECT_TRUE(fs::exists(fs::path(root) / "k1/route"));
  fs::remove_all(root);
}

// Regression: a crash between the tmp write and the rename (injected at
// FaultSite::kArtifactWrite) must leave only a *.tmp path behind, and the
// next ArtifactCache startup must sweep it.
TEST(ArtifactCache, InjectedWriteCrashLeavesTmpThatSweepRemoves) {
  FaultInjector::instance().disarm();
  const std::string root = fresh_dir("dco3d_cache_crash");
  const Netlist design = testing::tiny_design(80);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  FlowContext ctx = make_flow_context(design, cfg);
  PipelineOptions opts;
  opts.cache_dir = root;
  opts.stop_after = "place3d";
  FaultInjector::instance().arm(FaultSite::kArtifactWrite, 0);
  try {
    pin3d_pipeline().run(ctx, opts);
    FAIL() << "expected injected kIoError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kIoError);
  }
  FaultInjector::instance().disarm();

  bool saw_tmp = false;
  for (const auto& entry : fs::recursive_directory_iterator(root))
    if (entry.path().string().ends_with(".tmp")) saw_tmp = true;
  EXPECT_TRUE(saw_tmp) << "injected crash should leave a stale tmp dir";

  ArtifactCache cache(root, 0);
  EXPECT_GE(cache.stats().tmp_swept, 1u);
  for (const auto& entry : fs::recursive_directory_iterator(root))
    EXPECT_FALSE(entry.path().string().ends_with(".tmp"))
        << entry.path().string();
  fs::remove_all(root);
}

// ---------------------------------------------------------------------------
// Pipeline per-run guards (the machinery each server job reuses).

TEST(PipelineGuards, DeadlineEarlyCommitsInsteadOfThrowing) {
  const Netlist design = testing::tiny_design(80);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  FlowContext ctx = make_flow_context(design, cfg);
  const Deadline expired(1e-6);  // effectively already expired
  PipelineRunInfo info;
  PipelineOptions opts;
  opts.deadline = &expired;
  opts.info = &info;
  EXPECT_NO_THROW(pin3d_pipeline().run(ctx, opts));
  EXPECT_TRUE(info.deadline_hit);
  EXPECT_EQ(info.stages_run, 0);
}

TEST(PipelineGuards, CancelFlagStopsAtStageBoundary) {
  const Netlist design = testing::tiny_design(80);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  FlowContext ctx = make_flow_context(design, cfg);
  std::atomic<bool> cancel{true};
  PipelineRunInfo info;
  PipelineOptions opts;
  opts.cancel = &cancel;
  opts.info = &info;
  EXPECT_NO_THROW(pin3d_pipeline().run(ctx, opts));
  EXPECT_TRUE(info.cancelled);
  EXPECT_EQ(info.stages_run, 0);
}

TEST(PipelineGuards, InjectedStageFailureSurfacesAsInternal) {
  FaultInjector::instance().disarm();
  const Netlist design = testing::tiny_design(80);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 8;
  FlowContext ctx = make_flow_context(design, cfg);
  FaultInjector::instance().arm(FaultSite::kFlowStageFail, 0);
  try {
    pin3d_pipeline().run(ctx, {});
    FAIL() << "expected injected failure";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kInternal);
  }
  FaultInjector::instance().disarm();
}

// ---------------------------------------------------------------------------
// Server end-to-end over the real protocol.

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::instance().disarm(); }
  void TearDown() override { FaultInjector::instance().disarm(); }

  /// One-shot request/response on a fresh connection.
  util::JsonObject rpc(int port, const std::string& req) {
    util::Fd conn = util::connect_local(port);
    EXPECT_TRUE(util::send_line(conn.get(), req));
    util::LineReader reader(conn.get());
    std::string line;
    EXPECT_TRUE(reader.read_line(line)) << "no response to: " << req;
    util::JsonObject obj;
    EXPECT_TRUE(util::parse_json_object(line, obj).ok()) << line;
    return obj;
  }

  /// Submit with wait:true and return the final "done" event object.
  util::JsonObject submit_wait(int port, const std::string& extra = "") {
    util::Fd conn = util::connect_local(port);
    std::string req =
        R"({"cmd":"submit","kind":"dma","scale":0.01,"grid":8,"wait":true)";
    req += extra;
    req += "}";
    EXPECT_TRUE(util::send_line(conn.get(), req));
    util::LineReader reader(conn.get());
    std::string line;
    util::JsonObject obj;
    while (reader.read_line(line)) {
      // Stage progress events carry a nested trace object the flat parser
      // deliberately rejects; only the ack/shed/done lines are flat.
      if (line.find("\"event\":\"stage\"") != std::string::npos) continue;
      EXPECT_TRUE(util::parse_json_object(line, obj).ok()) << line;
      if (util::json_str(obj, "event", "") == "done") return obj;
      if (!util::json_bool(obj, "ok", true)) return obj;  // shed / error
    }
    ADD_FAILURE() << "connection closed before done event";
    return obj;
  }

  ServerConfig small_cfg(const std::string& cache_name) {
    ServerConfig cfg;
    cfg.port = 0;  // ephemeral
    cfg.workers = 1;
    cfg.queue_depth = 4;
    cfg.cache_dir = cache_name.empty() ? "" : fresh_dir(cache_name);
    return cfg;
  }
};

TEST_F(ServeTest, PingAndStatusRoundtrip) {
  Server server(small_cfg(""));
  server.start();
  util::JsonObject pong = rpc(server.port(), R"({"cmd":"ping"})");
  EXPECT_TRUE(util::json_bool(pong, "ok", false));
  EXPECT_EQ(util::json_str(pong, "protocol", ""), kServeProtocol);
  util::JsonObject st = rpc(server.port(), R"({"cmd":"status"})");
  EXPECT_TRUE(util::json_bool(st, "ok", false));
  EXPECT_EQ(util::json_num(st, "workers", 0), 1.0);
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, MalformedAndUnknownRequestsAreRejectedNotFatal) {
  Server server(small_cfg(""));
  server.start();
  util::JsonObject bad = rpc(server.port(), "this is not json");
  EXPECT_FALSE(util::json_bool(bad, "ok", true));
  util::JsonObject unknown = rpc(server.port(), R"({"cmd":"frobnicate"})");
  EXPECT_FALSE(util::json_bool(unknown, "ok", true));
  // The server is still fine afterwards.
  EXPECT_TRUE(util::json_bool(rpc(server.port(), R"({"cmd":"ping"})"), "ok",
                              false));
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, NoNewlineFloodGetsProtocolErrorAndClose) {
  Server server(small_cfg(""));
  server.start();
  {
    // One byte past the line cap and no newline: the server stops
    // buffering, answers with an error and closes the connection.
    util::Fd conn = util::connect_local(server.port());
    const std::string flood(util::LineReader::kMaxLineBytes + 1, 'x');
    EXPECT_TRUE(util::send_all(conn.get(), flood));
    util::LineReader reader(conn.get());
    std::string line;
    ASSERT_TRUE(reader.read_line(line));
    util::JsonObject err;
    ASSERT_TRUE(util::parse_json_object(line, err).ok()) << line;
    EXPECT_FALSE(util::json_bool(err, "ok", true));
    EXPECT_EQ(util::json_str(err, "status", ""), "invalid_argument");
    EXPECT_FALSE(reader.read_line(line)) << "connection must be closed";
  }
  // The server is still fine afterwards.
  EXPECT_TRUE(util::json_bool(rpc(server.port(), R"({"cmd":"ping"})"), "ok",
                              false));
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, SubmitRejectsTierCountsOutsideTheSupportedRange) {
  Server server(small_cfg(""));
  server.start();
  for (const char* tiers : {"1", "9", "1e20", "-1e20"}) {
    SCOPED_TRACE(tiers);
    const std::string req =
        R"({"cmd":"submit","kind":"dma","scale":0.01,"grid":8,"tiers":)" +
        std::string(tiers) + "}";
    const util::JsonObject r = rpc(server.port(), req);
    EXPECT_FALSE(util::json_bool(r, "ok", true));
    EXPECT_EQ(util::json_str(r, "status", ""), "invalid_argument");
    EXPECT_NE(util::json_str(r, "message", "").find("tiers"), std::string::npos);
  }
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, SubmitWaitRunsJobToCompletion) {
  Server server(small_cfg("dco3d_serve_basic"));
  server.start();
  util::JsonObject done = submit_wait(server.port());
  EXPECT_EQ(util::json_str(done, "state", ""), "done");
  EXPECT_EQ(util::json_num(done, "stages_run", 0), 8.0);
  EXPECT_FALSE(util::json_str(done, "key", "").empty());
  const ServerCounters c = server.counters();
  EXPECT_EQ(c.completed, 1u);
  server.request_drain();
  server.wait();
  fs::remove_all(server.cache()->dir());
}

TEST_F(ServeTest, IdempotentResubmitSkipsToCachedStages) {
  Server server(small_cfg("dco3d_serve_resubmit"));
  server.start();
  util::JsonObject first = submit_wait(server.port());
  ASSERT_EQ(util::json_str(first, "state", ""), "done");
  EXPECT_EQ(util::json_num(first, "stages_cached", -1), 0.0);
  util::JsonObject second = submit_wait(server.port());
  EXPECT_EQ(util::json_str(second, "state", ""), "done");
  // Same content key -> the whole prefix is served from the artifact cache.
  EXPECT_EQ(util::json_str(second, "key", "a"),
            util::json_str(first, "key", "b"));
  EXPECT_EQ(util::json_num(second, "stages_run", -1), 0.0);
  EXPECT_EQ(util::json_num(second, "stages_cached", -1), 8.0);
  EXPECT_GE(server.cache()->stats().loads, 1u);
  server.request_drain();
  server.wait();
  fs::remove_all(server.cache()->dir());
}

TEST_F(ServeTest, PerJobDeadlineEarlyCommitsPartialResults) {
  Server server(small_cfg(""));
  server.start();
  // A microscopic deadline expires at the first stage boundary; the job must
  // come back early_commit (deadline taxonomy), not failed.
  util::JsonObject done = submit_wait(server.port(), R"(,"deadline_ms":0.001)");
  EXPECT_EQ(util::json_str(done, "state", ""), "early_commit");
  EXPECT_TRUE(util::json_bool(done, "deadline_hit", false));
  EXPECT_EQ(server.counters().early_commits, 1u);
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, FailedJobIsIsolatedFromServerAndLaterJobs) {
  Server server(small_cfg(""));
  server.start();
  FaultInjector::instance().arm(FaultSite::kFlowStageFail, 0);
  util::JsonObject failed = submit_wait(server.port());
  EXPECT_EQ(util::json_str(failed, "state", ""), "failed");
  EXPECT_EQ(util::json_str(failed, "status", ""), "internal");
  FaultInjector::instance().disarm();
  // The lane survived: the next job completes normally.
  util::JsonObject done = submit_wait(server.port());
  EXPECT_EQ(util::json_str(done, "state", ""), "done");
  const ServerCounters c = server.counters();
  EXPECT_EQ(c.failed, 1u);
  EXPECT_EQ(c.completed, 1u);
  server.request_drain();
  server.wait();
}

TEST_F(ServeTest, OverloadShedsWithRetriableBackoffHint) {
  ServerConfig cfg = small_cfg("");
  cfg.queue_depth = 1;
  Server server(cfg);
  server.start();
  // Stall every stage 150 ms and give jobs a 1 ms deadline: each admitted
  // job occupies the single lane for ~one stall, queued ones wait. Offered
  // load is ~4x what lane+queue can hold, so later submits must shed.
  FaultInjector::instance().arm(FaultSite::kFlowStageStall, 0, 1000, 150.0);
  int shed = 0, admitted = 0;
  for (int i = 0; i < 6; ++i) {
    util::JsonObject resp = rpc(
        server.port(),
        R"({"cmd":"submit","kind":"dma","scale":0.01,"grid":8,"deadline_ms":1})");
    if (util::json_bool(resp, "ok", false)) {
      ++admitted;
    } else {
      ++shed;
      EXPECT_EQ(util::json_str(resp, "state", ""), "shed");
      EXPECT_TRUE(util::json_bool(resp, "retriable", false));
      EXPECT_GT(util::json_num(resp, "retry_after_ms", 0.0), 0.0);
    }
  }
  EXPECT_GE(shed, 1) << "6 instant submits into lane+queue capacity 2";
  EXPECT_GE(admitted, 2);
  server.request_drain();  // admitted jobs finish or early-commit
  server.wait();
  FaultInjector::instance().disarm();
  const ServerCounters c = server.counters();
  EXPECT_EQ(c.shed, static_cast<std::uint64_t>(shed));
  EXPECT_EQ(c.submitted, 6u);
  // Every admitted job reached a terminal state; nothing leaked.
  EXPECT_EQ(c.completed + c.early_commits + c.failed + c.cancelled +
                c.rejected,
            static_cast<std::uint64_t>(admitted));
}

TEST_F(ServeTest, CancelQueuedJobNeverRuns) {
  ServerConfig cfg = small_cfg("");
  Server server(cfg);
  server.start();
  FaultInjector::instance().arm(FaultSite::kFlowStageStall, 0, 1000, 200.0);
  // First job occupies the lane; second sits in the queue.
  util::JsonObject first = rpc(
      server.port(),
      R"({"cmd":"submit","kind":"dma","scale":0.01,"grid":8,"deadline_ms":1})");
  ASSERT_TRUE(util::json_bool(first, "ok", false));
  util::JsonObject second = rpc(
      server.port(),
      R"({"cmd":"submit","kind":"dma","scale":0.01,"grid":8,"deadline_ms":1})");
  ASSERT_TRUE(util::json_bool(second, "ok", false));
  const std::string id = util::json_str(second, "job", "");
  util::JsonObject cancel =
      rpc(server.port(), R"({"cmd":"cancel","job":")" + id + R"("})");
  EXPECT_TRUE(util::json_bool(cancel, "ok", false));
  server.request_drain();
  server.wait();
  FaultInjector::instance().disarm();
  const JobSnapshot snap = server.job(id);
  EXPECT_EQ(snap.state, JobState::kCancelled);
  EXPECT_EQ(snap.stages_run, 0);
}

TEST_F(ServeTest, DrainRejectsQueuedJobsRetriablyAndStopsCleanly) {
  ServerConfig cfg = small_cfg("");
  Server server(cfg);
  server.start();
  FaultInjector::instance().arm(FaultSite::kFlowStageStall, 0, 1000, 200.0);
  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) {
    util::JsonObject resp = rpc(
        server.port(),
        R"({"cmd":"submit","kind":"dma","scale":0.01,"grid":8,"deadline_ms":1})");
    ASSERT_TRUE(util::json_bool(resp, "ok", false));
    ids.push_back(util::json_str(resp, "job", ""));
  }
  // One running, two queued. Drain rejects the queued ones retriably and
  // waits for the running one to early-commit.
  util::JsonObject drained = rpc(server.port(), R"({"cmd":"drain"})");
  EXPECT_TRUE(util::json_bool(drained, "ok", false));
  server.wait();
  FaultInjector::instance().disarm();
  EXPECT_TRUE(server.stopped());

  int rejected = 0, terminal = 0;
  for (const std::string& id : ids) {
    const JobSnapshot snap = server.job(id);
    EXPECT_TRUE(job_state_terminal(snap.state)) << id;
    if (job_state_terminal(snap.state)) ++terminal;
    if (snap.state == JobState::kRejected) {
      ++rejected;
      EXPECT_EQ(snap.status.code(), StatusCode::kUnavailable);
    }
  }
  EXPECT_EQ(terminal, 3);
  EXPECT_EQ(rejected, 2);
  // The listener is down: new connections are refused (kUnavailable).
  try {
    util::connect_local(server.port());
    // A new unrelated process may have grabbed the port; tolerate success.
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status().code(), StatusCode::kUnavailable);
  }
}

}  // namespace
}  // namespace dco3d
