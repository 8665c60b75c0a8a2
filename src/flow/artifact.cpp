#include "flow/artifact.hpp"

#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "core/guard.hpp"
#include "io/design_io.hpp"
#include "util/status.hpp"

namespace fs = std::filesystem;

namespace dco3d {

namespace {

[[noreturn]] void fail_data(const std::string& what) {
  throw StatusError(Status::data_loss("flow_artifact: " + what));
}
[[noreturn]] void fail_io(const std::string& what) {
  throw StatusError(Status::io_error("flow_artifact: " + what));
}

void set_precision(std::ostream& os) {
  os << std::setprecision(std::numeric_limits<double>::max_digits10);
}

template <typename T>
void write_vec(std::ostream& os, const char* tag, const std::vector<T>& v) {
  os << "vec " << tag << ' ' << v.size();
  for (const T& x : v) os << ' ' << x;
  os << '\n';
}

template <typename T>
void read_vec(std::istream& is, const char* tag, std::vector<T>& v) {
  std::string word, name;
  std::size_t n = 0;
  if (!(is >> word >> name >> n) || word != "vec" || name != tag)
    fail_data("expected vec " + std::string(tag));
  v.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    if (!(is >> v[i])) fail_data("truncated vec " + std::string(tag));
}

void write_metrics(std::ostream& os, const char* tag, const StageMetrics& m) {
  os << tag << ' ' << m.overflow << ' ' << m.ovf_gcell_pct << ' '
     << m.h_overflow << ' ' << m.v_overflow << ' ' << m.wns_ps << ' '
     << m.tns_ps << ' ' << m.power_mw << ' ' << m.wirelength_um << '\n';
}

void read_metrics(std::istream& is, const char* tag, StageMetrics& m) {
  std::string word;
  if (!(is >> word) || word != tag) fail_data("expected " + std::string(tag));
  if (!(is >> m.overflow >> m.ovf_gcell_pct >> m.h_overflow >> m.v_overflow >>
        m.wns_ps >> m.tns_ps >> m.power_mw >> m.wirelength_um))
    fail_data("malformed " + std::string(tag));
}

void write_timing(std::ostream& os, const TimingResult& t) {
  os << "timing " << t.wns_ps << ' ' << t.tns_ps << ' ' << t.endpoints << ' '
     << t.violating_endpoints << ' ' << t.switching_mw << ' ' << t.internal_mw
     << ' ' << t.leakage_mw << ' ' << t.total_mw << '\n';
  write_vec(os, "cell_slack", t.cell_slack);
  write_vec(os, "cell_arrival", t.cell_arrival);
  write_vec(os, "cell_out_slew", t.cell_out_slew);
  write_vec(os, "cell_in_slew", t.cell_in_slew);
  write_vec(os, "net_switch_mw", t.net_switch_mw);
}

void read_timing(std::istream& is, TimingResult& t) {
  std::string word;
  if (!(is >> word) || word != "timing") fail_data("expected timing");
  if (!(is >> t.wns_ps >> t.tns_ps >> t.endpoints >> t.violating_endpoints >>
        t.switching_mw >> t.internal_mw >> t.leakage_mw >> t.total_mw))
    fail_data("malformed timing");
  read_vec(is, "cell_slack", t.cell_slack);
  read_vec(is, "cell_arrival", t.cell_arrival);
  read_vec(is, "cell_out_slew", t.cell_out_slew);
  read_vec(is, "cell_in_slew", t.cell_in_slew);
  read_vec(is, "net_switch_mw", t.net_switch_mw);
}

void write_route_file(const fs::path& path, const RouteResult& r) {
  std::ofstream os(path);
  if (!os) fail_io("cannot open " + path.string());
  set_precision(os);
  os << "dco3d-route v2\n";
  os << "tiers " << r.num_tiers << '\n';
  os << "scalars " << r.total_overflow << ' ' << r.h_overflow << ' '
     << r.v_overflow << ' ' << r.ovf_gcell_pct << ' ' << r.wirelength << ' '
     << r.num_3d_vias << '\n';
  write_vec(os, "tier_overflow", r.tier_overflow);
  write_vec(os, "vias_per_boundary", r.vias_per_boundary);
  for (int die = 0; die < r.num_tiers; ++die) {
    const auto di = static_cast<std::size_t>(die);
    const std::string c_tag = "congestion" + std::to_string(die);
    const std::string u_tag = "usage" + std::to_string(die);
    write_vec(os, c_tag.c_str(),
              di < r.congestion.size() ? r.congestion[di]
                                       : std::vector<float>{});
    write_vec(os, u_tag.c_str(),
              di < r.usage.size() ? r.usage[di] : std::vector<float>{});
  }
  write_vec(os, "net_routed_wl", r.net_routed_wl);
  write_vec(os, "net_overflow_crossings", r.net_overflow_crossings);
  if (!os) fail_io("write failed on " + path.string());
}

RouteResult read_route_file(const fs::path& path) {
  std::ifstream is(path);
  if (!is) fail_io("cannot open " + path.string());
  std::string line, word;
  if (!std::getline(is, line) || line.rfind("dco3d-route v2", 0) != 0)
    fail_data("missing 'dco3d-route v2' header in " + path.string());
  RouteResult r;
  if (!(is >> word >> r.num_tiers) || word != "tiers" || r.num_tiers < 1)
    fail_data("expected tiers");
  if (r.num_tiers > kMaxTiers)
    throw StatusError(Status::invalid_argument(
        "flow_artifact: tiers must be at most " + std::to_string(kMaxTiers) +
        " (got " + std::to_string(r.num_tiers) + ")"));
  if (!(is >> word) || word != "scalars") fail_data("expected scalars");
  if (!(is >> r.total_overflow >> r.h_overflow >> r.v_overflow >>
        r.ovf_gcell_pct >> r.wirelength >> r.num_3d_vias))
    fail_data("malformed scalars");
  read_vec(is, "tier_overflow", r.tier_overflow);
  read_vec(is, "vias_per_boundary", r.vias_per_boundary);
  r.congestion.resize(static_cast<std::size_t>(r.num_tiers));
  r.usage.resize(static_cast<std::size_t>(r.num_tiers));
  for (int die = 0; die < r.num_tiers; ++die) {
    const auto di = static_cast<std::size_t>(die);
    const std::string c_tag = "congestion" + std::to_string(die);
    const std::string u_tag = "usage" + std::to_string(die);
    read_vec(is, c_tag.c_str(), r.congestion[di]);
    read_vec(is, u_tag.c_str(), r.usage[di]);
  }
  read_vec(is, "net_routed_wl", r.net_routed_wl);
  read_vec(is, "net_overflow_crossings", r.net_overflow_crossings);
  return r;
}

}  // namespace

std::uint64_t fnv1a64(const std::string& data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void save_flow_artifact(const std::string& dir, const FlowContext& ctx) {
  const fs::path target(dir);
  const fs::path tmp(dir + ".tmp");
  std::error_code ec;
  fs::remove_all(tmp, ec);
  fs::create_directories(tmp, ec);
  if (ec) fail_io("cannot create " + tmp.string() + ": " + ec.message());

  write_design_file((tmp / "netlist.design").string(), ctx.netlist);
  write_placement_file((tmp / "placement.place").string(), ctx.placement);
  if (ctx.res.global_placement.size() > 0)
    write_placement_file((tmp / "global.place").string(),
                         ctx.res.global_placement);
  if (ctx.res.placement.size() > 0)
    write_placement_file((tmp / "final.place").string(), ctx.res.placement);
  if (ctx.route_valid) write_route_file(tmp / "route.txt", ctx.route);
  if (!ctx.res.final_route.net_routed_wl.empty() ||
      ctx.res.final_route.wirelength > 0.0)
    write_route_file(tmp / "final_route.txt", ctx.res.final_route);

  {
    std::ofstream os(tmp / "state.txt");
    if (!os) fail_io("cannot open " + (tmp / "state.txt").string());
    set_precision(os);
    os << "dco3d-flowstate v1\n";
    os << "grid " << (ctx.grid_valid ? 1 : 0);
    if (ctx.grid_valid) {
      const GCellGrid& g = ctx.res.grid;
      os << ' ' << g.outline().xlo << ' ' << g.outline().ylo << ' '
         << g.outline().xhi << ' ' << g.outline().yhi << ' ' << g.nx() << ' '
         << g.ny();
    }
    os << '\n';
    // global.place predates CTS buffer insertion, so its row count can be
    // smaller than the final netlist's — record all sizes explicitly.
    os << "sizes " << ctx.placement.size() << ' '
       << ctx.res.global_placement.size() << ' ' << ctx.res.placement.size()
       << '\n';
    write_vec(os, "skew", ctx.skew);
    write_metrics(os, "after_place", ctx.res.after_place);
    write_metrics(os, "signoff", ctx.res.signoff);
    os << "cts " << ctx.res.cts.buffers_inserted << ' ' << ctx.res.cts.levels
       << ' ' << ctx.res.cts.max_skew_ps << '\n';
    write_vec(os, "cts_skew", ctx.res.cts.skew_ps);
    os << "signoff_detail " << ctx.res.signoff_detail.upsized << ' '
       << ctx.res.signoff_detail.downsized << ' '
       << ctx.res.signoff_detail.skewed << '\n';
    write_timing(os, ctx.res.signoff_detail.timing);
    write_vec(os, "net_length_scale", ctx.res.signoff_detail.net_length_scale);
    os.flush();
    if (!os) fail_io("write failed on " + (tmp / "state.txt").string());
  }

  // Injectable crash point for the stale-tmp regression tests: fail after
  // the tmp write but before the rename, leaving the partial directory
  // behind exactly as a real crash would (ArtifactCache sweeps it on the
  // next startup).
  if (FaultInjector::instance().should_fire(FaultSite::kArtifactWrite))
    fail_io("injected artifact write failure (stale tmp left at " +
            tmp.string() + ")");

  fs::remove_all(target, ec);  // replace any previous artifact
  fs::rename(tmp, target, ec);
  if (ec) {
    fs::remove_all(tmp, ec);
    fail_io("cannot rename " + tmp.string() + " to " + dir);
  }
}

bool load_flow_artifact(const std::string& dir, FlowContext& ctx) {
  const fs::path d(dir);
  if (!fs::exists(d / "state.txt")) return false;

  ctx.res = FlowResult{};

  std::ifstream is(d / "state.txt");
  if (!is) fail_io("cannot open " + (d / "state.txt").string());
  std::string line, word;
  if (!std::getline(is, line) || line.rfind("dco3d-flowstate v1", 0) != 0)
    fail_data("missing 'dco3d-flowstate v1' header in " + dir);
  int have_grid = 0;
  if (!(is >> word >> have_grid) || word != "grid") fail_data("expected grid");
  ctx.grid_valid = have_grid != 0;
  if (ctx.grid_valid) {
    Rect o;
    int nx = 0, ny = 0;
    if (!(is >> o.xlo >> o.ylo >> o.xhi >> o.yhi >> nx >> ny) || nx <= 0 ||
        ny <= 0)
      fail_data("malformed grid");
    ctx.res.grid = GCellGrid(o, nx, ny);
  }
  std::size_t n_place = 0, n_global = 0, n_final = 0;
  if (!(is >> word >> n_place >> n_global >> n_final) || word != "sizes")
    fail_data("expected sizes");
  read_vec(is, "skew", ctx.skew);
  read_metrics(is, "after_place", ctx.res.after_place);
  read_metrics(is, "signoff", ctx.res.signoff);
  if (!(is >> word) || word != "cts") fail_data("expected cts");
  if (!(is >> ctx.res.cts.buffers_inserted >> ctx.res.cts.levels >>
        ctx.res.cts.max_skew_ps))
    fail_data("malformed cts");
  read_vec(is, "cts_skew", ctx.res.cts.skew_ps);
  if (!(is >> word) || word != "signoff_detail")
    fail_data("expected signoff_detail");
  if (!(is >> ctx.res.signoff_detail.upsized >>
        ctx.res.signoff_detail.downsized >> ctx.res.signoff_detail.skewed))
    fail_data("malformed signoff_detail");
  read_timing(is, ctx.res.signoff_detail.timing);
  read_vec(is, "net_length_scale", ctx.res.signoff_detail.net_length_scale);

  ctx.netlist = read_design_file((d / "netlist.design").string());
  ctx.placement = read_placement_file((d / "placement.place").string(), n_place);
  if (fs::exists(d / "global.place"))
    ctx.res.global_placement =
        read_placement_file((d / "global.place").string(), n_global);
  if (fs::exists(d / "final.place"))
    ctx.res.placement =
        read_placement_file((d / "final.place").string(), n_final);
  ctx.route_valid = fs::exists(d / "route.txt");
  ctx.route = ctx.route_valid ? read_route_file(d / "route.txt") : RouteResult{};
  if (fs::exists(d / "final_route.txt"))
    ctx.res.final_route = read_route_file(d / "final_route.txt");
  return true;
}

}  // namespace dco3d
