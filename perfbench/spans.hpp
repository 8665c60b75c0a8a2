#pragma once
// In-memory span recorder for the traced benchmark run. Spans are opened
// around calls into the library's public functions (nothing inside src/ is
// instrumented); each carries a name, start/end, its parent span, the job it
// belongs to, and the thread-pool and arena counter deltas over its interval.
// Spans stay in memory and are written out once, when the run ends.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Median of a sample (0 for an empty one).
double median(std::vector<double> v);

inline double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  // -1 = root
  int job = -1;     // job the span belongs to (replays carry the replayed job)
  double start_ms = 0.0, end_ms = 0.0;  // since the recorder was created
  double child_ms = 0.0;                // time covered by direct children
  // Counter deltas over the span (util::pool_stats / util::Arena::stats).
  std::uint64_t pool_dispatches = 0, pool_inline = 0;
  std::uint64_t arena_requests = 0, arena_hits = 0, arena_heap_allocs = 0;
  std::uint64_t arena_peak_bytes = 0;  // arena high-water mark inside the span

  double wall_ms() const { return end_ms - start_ms; }
  double self_ms() const { return wall_ms() - child_ms; }
};

class Recorder {
 public:
  Recorder();

  /// RAII span: opened on construction, closed on destruction. A null
  /// recorder makes it a no-op, so untraced code paths pay nothing.
  class Scope {
   public:
    Scope(Recorder* rec, const std::string& name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Recorder* rec_;
  };

  void set_job(int job) { job_ = job; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Median wall time (ms) of the closed spans with this name; 0 if none.
  double median_wall_ms(const std::string& name) const;
  /// The first closed span with this name (nullptr if none).
  const Span* find(const std::string& name) const;

  /// Write all spans as one JSON document with the given run context
  /// (a pre-rendered JSON object).
  void write_json(const std::string& path, const std::string& context) const;

 private:
  void open(const std::string& name);
  void close();

  struct Open {
    int index;
    std::uint64_t peak_seen;  // arena peak observed before a child reset it
  };
  std::vector<Span> spans_;
  std::vector<Open> stack_;
  int job_ = -1;
  std::int64_t t0_ns_ = 0;
};

}  // namespace perfbench
