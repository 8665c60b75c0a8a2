#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/arena.hpp"
#include "util/parallel.hpp"

namespace perfbench {

namespace {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Recorder::Recorder() : t0_ns_(now_ns()) {}

Recorder::Scope::Scope(Recorder* rec, const std::string& name) : rec_(rec) {
  if (rec_) rec_->open(name);
}

Recorder::Scope::~Scope() {
  if (rec_) rec_->close();
}

void Recorder::open(const std::string& name) {
  using dco3d::util::Arena;
  const dco3d::util::ArenaStats a = Arena::instance().stats();
  const dco3d::util::PoolStats p = dco3d::util::pool_stats();
  // The arena keeps one global high-water mark; fold it into the parent
  // before resetting it for this span.
  if (!stack_.empty())
    stack_.back().peak_seen = std::max(stack_.back().peak_seen, a.peak_bytes);
  Arena::instance().reset_peak();

  Span s;
  s.name = name;
  s.id = static_cast<int>(spans_.size());
  s.parent = stack_.empty() ? -1 : stack_.back().index;
  s.job = job_;
  // Baselines; close() turns them into deltas.
  s.pool_dispatches = p.dispatches;
  s.pool_inline = p.inline_runs;
  s.arena_requests = a.requests;
  s.arena_hits = a.pool_hits;
  s.arena_heap_allocs = a.heap_allocs;
  s.start_ms = static_cast<double>(now_ns() - t0_ns_) * 1e-6;
  spans_.push_back(std::move(s));
  stack_.push_back({static_cast<int>(spans_.size()) - 1, 0});
}

void Recorder::close() {
  const double end_ms = static_cast<double>(now_ns() - t0_ns_) * 1e-6;
  const dco3d::util::ArenaStats a = dco3d::util::Arena::instance().stats();
  const dco3d::util::PoolStats p = dco3d::util::pool_stats();
  const Open top = stack_.back();
  stack_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(top.index)];
  s.end_ms = end_ms;
  s.pool_dispatches = p.dispatches - s.pool_dispatches;
  s.pool_inline = p.inline_runs - s.pool_inline;
  s.arena_requests = a.requests - s.arena_requests;
  s.arena_hits = a.pool_hits - s.arena_hits;
  s.arena_heap_allocs = a.heap_allocs - s.arena_heap_allocs;
  s.arena_peak_bytes = std::max(top.peak_seen, a.peak_bytes);
  if (!stack_.empty()) {
    Open& parent = stack_.back();
    parent.peak_seen = std::max(parent.peak_seen, s.arena_peak_bytes);
    spans_[static_cast<std::size_t>(parent.index)].child_ms += s.wall_ms();
  }
}

double Recorder::median_wall_ms(const std::string& name) const {
  std::vector<double> v;
  for (const Span& s : spans_)
    if (s.name == name) v.push_back(s.wall_ms());
  return median(std::move(v));
}

const Span* Recorder::find(const std::string& name) const {
  for (const Span& s : spans_)
    if (s.name == name) return &s;
  return nullptr;
}

void Recorder::write_json(const std::string& path,
                          const std::string& context) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write trace file " + path);
  std::fprintf(f, "{\"schema\":\"perfbench-trace-v1\",\"context\":%s,\"spans\":[\n",
               context.c_str());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%d,\"parent\":%d,\"job\":%d,\"name\":\"%s\","
                 "\"start_ms\":%.6f,\"end_ms\":%.6f,\"self_ms\":%.6f,"
                 "\"pool_dispatches\":%llu,\"pool_inline\":%llu,"
                 "\"arena_requests\":%llu,\"arena_hits\":%llu,"
                 "\"arena_heap_allocs\":%llu,\"arena_peak_bytes\":%llu}",
                 i ? ",\n" : "", s.id, s.parent, s.job, s.name.c_str(),
                 s.start_ms, s.end_ms, s.self_ms(),
                 static_cast<unsigned long long>(s.pool_dispatches),
                 static_cast<unsigned long long>(s.pool_inline),
                 static_cast<unsigned long long>(s.arena_requests),
                 static_cast<unsigned long long>(s.arena_hits),
                 static_cast<unsigned long long>(s.arena_heap_allocs),
                 static_cast<unsigned long long>(s.arena_peak_bytes));
  }
  std::fprintf(f, "\n]}\n");
  if (std::fclose(f) != 0)
    throw std::runtime_error("cannot write trace file " + path);
}

}  // namespace perfbench
