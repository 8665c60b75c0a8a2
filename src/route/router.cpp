#include "route/router.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace dco3d {

RouteGrid::RouteGrid(const GCellGrid& grid, const RouterConfig& cfg,
                     int num_tiers)
    : grid_(grid),
      num_tiers_(num_tiers),
      macro_factor_(cfg.macro_capacity_factor) {
  const auto k = static_cast<std::size_t>(num_tiers_);
  h_cap.assign(k, std::vector<double>(num_h_edges(), cfg.h_capacity));
  v_cap.assign(k, std::vector<double>(num_v_edges(), cfg.v_capacity));
  h_use.assign(k, std::vector<double>(num_h_edges(), 0.0));
  v_use.assign(k, std::vector<double>(num_v_edges(), 0.0));
  h_hist.assign(k, std::vector<double>(num_h_edges(), 0.0));
  v_hist.assign(k, std::vector<double>(num_v_edges(), 0.0));
}

void RouteGrid::apply_macro_blockages(const Netlist& netlist,
                                      const Placement3D& placement) {
  const double f = macro_factor_;
  for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci) {
    const auto id = static_cast<CellId>(ci);
    if (!netlist.is_macro(id)) continue;
    const CellType& t = netlist.cell_type(id);
    const Rect m{placement.xy[ci].x, placement.xy[ci].y,
                 placement.xy[ci].x + t.width, placement.xy[ci].y + t.height};
    const int die = std::clamp(placement.tier[ci], 0, num_tiers_ - 1);
    const int m0 = grid_.col_of(m.xlo), m1 = grid_.col_of(m.xhi);
    const int n0 = grid_.row_of(m.ylo), n1 = grid_.row_of(m.yhi);
    // Any edge whose either endpoint tile is covered by the macro loses
    // capacity (the macro body blocks most routing layers).
    for (int n = n0; n <= n1; ++n) {
      for (int mm = m0; mm <= m1; ++mm) {
        const Rect tr = grid_.tile_rect(mm, n);
        if (tr.overlap_area(m) < 0.5 * tr.area()) continue;
        if (mm > 0) h_cap[die][h_edge_index(mm - 1, n)] *= f;
        if (mm < nx() - 1) h_cap[die][h_edge_index(mm, n)] *= f;
        if (n > 0) v_cap[die][v_edge_index(mm, n - 1)] *= f;
        if (n < ny() - 1) v_cap[die][v_edge_index(mm, n)] *= f;
      }
    }
  }
}

namespace {

struct TilePt {
  int m = 0, n = 0;
};

/// Per-net routing record for rip-up.
struct NetRoute {
  std::vector<RoutedEdge> edges;
};

/// Cost of one more track on an edge: 1 + history, plus the present-overuse
/// penalty once the edge is full.
inline double edge_cost_of(double cap, double use, double hist,
                           double present_penalty) {
  double c = 1.0 + hist;
  if (use >= cap) c += present_penalty * (use - cap + 1.0);
  return c;
}

/// A* frontier entry: f = g + Manhattan tile distance to the target.
struct HeapEntry {
  double f, g;
  std::int32_t tile;
};

struct Ctx {
  const RouterConfig& cfg;
  RouteGrid& rg;

  // Cached edge_cost_of per edge, indexed [tier][edge] like the grid. Every
  // write to an edge's use or history refreshes that edge's entry, so the
  // searches read one array instead of re-deriving the cost from three.
  std::vector<std::vector<double>> h_cost, v_cost;

  // Maze scratch, sized to the full grid on first use and reused by every
  // maze search of this global_route call. A tile's label is live only when
  // its stamp equals the current epoch, so a search never zero-fills.
  std::vector<double> dist;
  std::vector<std::uint32_t> stamp;
  std::uint32_t epoch = 0;
  std::vector<HeapEntry> heap;

  /// Takes the grid after its capacities are final (macro blockage applied).
  Ctx(const RouterConfig& config, RouteGrid& grid) : cfg(config), rg(grid) {
    const auto k = static_cast<std::size_t>(rg.num_tiers());
    h_cost.assign(k, std::vector<double>(rg.num_h_edges()));
    v_cost.assign(k, std::vector<double>(rg.num_v_edges()));
    for (int die = 0; die < rg.num_tiers(); ++die) {
      for (std::size_t i = 0; i < rg.num_h_edges(); ++i) refresh(die, true, i);
      for (std::size_t i = 0; i < rg.num_v_edges(); ++i) refresh(die, false, i);
    }
  }

  /// Recompute one edge's cached cost from its capacity, use and history.
  void refresh(int die, bool horizontal, std::size_t idx) {
    if (horizontal)
      h_cost[die][idx] = edge_cost_of(rg.h_cap[die][idx], rg.h_use[die][idx],
                                      rg.h_hist[die][idx], cfg.present_penalty);
    else
      v_cost[die][idx] = edge_cost_of(rg.v_cap[die][idx], rg.v_use[die][idx],
                                      rg.v_hist[die][idx], cfg.present_penalty);
  }

  double edge_cost(int die, bool horizontal, std::size_t idx) const {
    return horizontal ? h_cost[die][idx] : v_cost[die][idx];
  }

  void add_edge(NetRoute& route, int die, bool horizontal, std::size_t idx) {
    auto& use = horizontal ? rg.h_use[die] : rg.v_use[die];
    use[idx] += 1.0;
    refresh(die, horizontal, idx);
    route.edges.push_back({static_cast<std::int8_t>(die), horizontal,
                           static_cast<std::int32_t>(idx)});
  }

  void rip_up(NetRoute& route) {
    for (const RoutedEdge& e : route.edges) {
      const auto idx = static_cast<std::size_t>(e.index);
      auto& use = e.horizontal ? rg.h_use[e.die] : rg.v_use[e.die];
      use[idx] -= 1.0;
      refresh(e.die, e.horizontal, idx);
    }
    route.edges.clear();
  }

  /// Bump history on every overflowed edge; false when none overflows.
  bool bump_history() {
    bool any_overflow = false;
    for (int die = 0; die < rg.num_tiers(); ++die) {
      for (std::size_t i = 0; i < rg.num_h_edges(); ++i)
        if (rg.h_use[die][i] > rg.h_cap[die][i]) {
          rg.h_hist[die][i] += cfg.history_increment;
          refresh(die, true, i);
          any_overflow = true;
        }
      for (std::size_t i = 0; i < rg.num_v_edges(); ++i)
        if (rg.v_use[die][i] > rg.v_cap[die][i]) {
          rg.v_hist[die][i] += cfg.history_increment;
          refresh(die, false, i);
          any_overflow = true;
        }
    }
    return any_overflow;
  }

  /// Straight horizontal run from (m0,n) to (m1,n).
  void run_h(NetRoute& route, int die, int m0, int m1, int n) {
    for (int m = std::min(m0, m1); m < std::max(m0, m1); ++m)
      add_edge(route, die, true, rg.h_edge_index(m, n));
  }
  void run_v(NetRoute& route, int die, int n0, int n1, int m) {
    for (int n = std::min(n0, n1); n < std::max(n0, n1); ++n)
      add_edge(route, die, false, rg.v_edge_index(m, n));
  }

  double cost_h(int die, int m0, int m1, int n) const {
    double c = 0.0;
    for (int m = std::min(m0, m1); m < std::max(m0, m1); ++m)
      c += edge_cost(die, true, rg.h_edge_index(m, n));
    return c;
  }
  double cost_v(int die, int n0, int n1, int m) const {
    double c = 0.0;
    for (int n = std::min(n0, n1); n < std::max(n0, n1); ++n)
      c += edge_cost(die, false, rg.v_edge_index(m, n));
    return c;
  }

  /// Best-of-two L-shape route between tiles.
  void route_l(NetRoute& route, int die, TilePt a, TilePt b) {
    // L1: horizontal first (at a.n), then vertical (at b.m).
    const double c1 = cost_h(die, a.m, b.m, a.n) + cost_v(die, a.n, b.n, b.m);
    // L2: vertical first (at a.m), then horizontal (at b.n).
    const double c2 = cost_v(die, a.n, b.n, a.m) + cost_h(die, a.m, b.m, b.n);
    if (c1 <= c2) {
      run_h(route, die, a.m, b.m, a.n);
      run_v(route, die, a.n, b.n, b.m);
    } else {
      run_v(route, die, a.n, b.n, a.m);
      run_h(route, die, a.m, b.m, b.n);
    }
  }

  /// Minimum-cost maze route within the bbox of (a, b) + margin: A* that
  /// reproduces Dijkstra's path exactly (see router.hpp).
  void route_maze(NetRoute& route, int die, TilePt a, TilePt b) {
    const int nx = rg.nx();
    const int m0 = std::max(0, std::min(a.m, b.m) - cfg.maze_margin);
    const int m1 = std::min(nx - 1, std::max(a.m, b.m) + cfg.maze_margin);
    const int n0 = std::max(0, std::min(a.n, b.n) - cfg.maze_margin);
    const int n1 = std::min(rg.ny() - 1, std::max(a.n, b.n) + cfg.maze_margin);
    const double* hc = h_cost[die].data();
    const double* vc = v_cost[die].data();
    const auto h_at = [&](int m, int n) {  // edge (m,n) -> (m+1,n)
      return hc[rg.h_edge_index(m, n)];
    };
    const auto v_at = [&](int m, int n) {  // edge (m,n) -> (m,n+1)
      return vc[rg.v_edge_index(m, n)];
    };

    if (dist.empty()) {
      dist.resize(static_cast<std::size_t>(rg.gcells().num_tiles()));
      stamp.assign(dist.size(), 0);
    }
    if (++epoch == 0) {  // wrapped: no stale stamp may alias the new epoch
      std::fill(stamp.begin(), stamp.end(), 0u);
      epoch = 1;
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const auto label = [&](std::int32_t t) {
      const auto i = static_cast<std::size_t>(t);
      return stamp[i] == epoch ? dist[i] : kInf;
    };
    const std::int32_t source = a.n * nx + a.m;
    const std::int32_t target = b.n * nx + b.m;
    const auto cmp = [](const HeapEntry& x, const HeapEntry& y) {
      return x.f > y.f;
    };
    const auto relax = [&](std::int32_t t, int m, int n, double g) {
      const auto i = static_cast<std::size_t>(t);
      if (stamp[i] == epoch && !(g < dist[i])) return;
      stamp[i] = epoch;
      dist[i] = g;
      heap.push_back({g + (std::abs(m - b.m) + std::abs(n - b.n)), g, t});
      std::push_heap(heap.begin(), heap.end(), cmp);
    };

    // Search past the target's first pop until no entry can still lie on a
    // minimum-cost path: every such tile then holds Dijkstra's exact label.
    // The slack covers rounding in f = g + h.
    heap.clear();
    relax(source, a.m, a.n, 0.0);
    while (!heap.empty()) {
      const double limit = label(target) * (1.0 + 1e-9) + 1e-9;
      if (heap.front().f > limit) break;
      std::pop_heap(heap.begin(), heap.end(), cmp);
      const HeapEntry e = heap.back();
      heap.pop_back();
      if (e.g > dist[static_cast<std::size_t>(e.tile)]) continue;  // stale
      const int um = e.tile % nx, un = e.tile / nx;
      if (um > m0) relax(e.tile - 1, um - 1, un, e.g + h_at(um - 1, un));
      if (um < m1) relax(e.tile + 1, um + 1, un, e.g + h_at(um, un));
      if (un > n0) relax(e.tile - nx, um, un - 1, e.g + v_at(um, un - 1));
      if (un < n1) relax(e.tile + nx, um, un + 1, e.g + v_at(um, un));
    }

    // Walk back from the target. Dijkstra popped tiles in (dist, id) order and
    // replaced prev only on a strict improvement, so its prev[v] is the
    // smallest (dist[u], id) neighbour u with dist[u] + cost(u,v) == dist[v];
    // pick exactly that one, with the same double add. Its window ids and
    // these grid ids are both row-major, so they order tiles alike.
    std::int32_t v = target;
    while (v != source) {
      const int vm = v % nx, vn = v / nx;
      const double dv = dist[static_cast<std::size_t>(v)];
      std::int32_t best = -1;
      double best_d = kInf;
      const auto consider = [&](std::int32_t u, double ec) {
        const double du = label(u);
        if (du + ec == dv && (du < best_d || (du == best_d && u < best))) {
          best = u;
          best_d = du;
        }
      };
      if (vm > m0) consider(v - 1, h_at(vm - 1, vn));
      if (vm < m1) consider(v + 1, h_at(vm, vn));
      if (vn > n0) consider(v - nx, v_at(vm, vn - 1));
      if (vn < n1) consider(v + nx, v_at(vm, vn));
      assert(best >= 0);
      const int um = best % nx, un = best / nx;
      if (un == vn)
        add_edge(route, die, true, rg.h_edge_index(std::min(um, vm), un));
      else
        add_edge(route, die, false, rg.v_edge_index(um, std::min(un, vn)));
      v = best;
    }
  }
};

/// Prim MST over tile points (Manhattan metric). Returns parent indices.
std::vector<int> prim_mst(const std::vector<TilePt>& pts) {
  const std::size_t n = pts.size();
  std::vector<int> parent(n, -1);
  if (n <= 1) return parent;
  std::vector<bool> in_tree(n, false);
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<int> best_from(n, 0);
  in_tree[0] = true;
  for (std::size_t i = 1; i < n; ++i) {
    best[i] = std::abs(pts[i].m - pts[0].m) + std::abs(pts[i].n - pts[0].n);
    best_from[i] = 0;
  }
  for (std::size_t it = 1; it < n; ++it) {
    double mind = std::numeric_limits<double>::infinity();
    std::size_t pick = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (!in_tree[i] && best[i] < mind) {
        mind = best[i];
        pick = i;
      }
    in_tree[pick] = true;
    parent[pick] = best_from[pick];
    for (std::size_t i = 0; i < n; ++i) {
      if (in_tree[i]) continue;
      const double d = std::abs(pts[i].m - pts[pick].m) +
                       std::abs(pts[i].n - pts[pick].n);
      if (d < best[i]) {
        best[i] = d;
        best_from[i] = static_cast<int>(pick);
      }
    }
  }
  return parent;
}

/// 2-pin segments (per die) of one net, including the 3D via tile if needed.
struct NetPlan {
  // Per tier: list of tile points; MST segments are rebuilt at (re)route time.
  std::vector<std::vector<TilePt>> pts;
  // Tier span of the net's pins: the via stack crosses [tier_lo, tier_hi).
  int tier_lo = 0, tier_hi = 0;
  bool is3d = false;

  int span() const { return tier_hi - tier_lo; }
};

NetPlan plan_net(const Netlist& netlist, NetId net, const Placement3D& placement,
                 const GCellGrid& grid, int num_tiers) {
  NetPlan plan;
  plan.pts.assign(static_cast<std::size_t>(num_tiers), {});
  std::vector<Point> all;
  int lo = num_tiers, hi = -1;
  // Stored pin order is driver-first — the legacy terminal order, which the
  // MST construction below is sensitive to.
  for (const Pin& p : netlist.net_pins(net)) {
    const Point pos = placement.pin_position(p);
    const int die = std::clamp(
        placement.tier[static_cast<std::size_t>(p.cell)], 0, num_tiers - 1);
    plan.pts[static_cast<std::size_t>(die)].push_back(
        {grid.col_of(pos.x), grid.row_of(pos.y)});
    lo = std::min(lo, die);
    hi = std::max(hi, die);
    all.push_back(pos);
  }
  plan.tier_lo = lo;
  plan.tier_hi = hi;
  plan.is3d = hi > lo;
  if (plan.is3d) {
    // Via GCell at the median of all pins; becomes a terminal on every tier
    // of the net's span so the via stack can pass through intermediate dies.
    std::vector<double> xs, ys;
    for (const Point& p : all) {
      xs.push_back(p.x);
      ys.push_back(p.y);
    }
    std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
    std::nth_element(ys.begin(), ys.begin() + ys.size() / 2, ys.end());
    const TilePt via{grid.col_of(xs[xs.size() / 2]), grid.row_of(ys[ys.size() / 2])};
    for (int t = lo; t <= hi; ++t)
      plan.pts[static_cast<std::size_t>(t)].push_back(via);
  }
  return plan;
}

void route_net(Ctx& ctx, const NetPlan& plan, NetRoute& route, bool maze) {
  for (int die = 0; die < static_cast<int>(plan.pts.size()); ++die) {
    const auto& pts = plan.pts[static_cast<std::size_t>(die)];
    if (pts.size() < 2) continue;
    const std::vector<int> parent = prim_mst(pts);
    for (std::size_t i = 1; i < pts.size(); ++i) {
      const TilePt a = pts[static_cast<std::size_t>(parent[i])];
      const TilePt b = pts[i];
      if (a.m == b.m && a.n == b.n) continue;
      if (maze)
        ctx.route_maze(route, die, a, b);
      else
        ctx.route_l(route, die, a, b);
    }
  }
}

}  // namespace

RouteResult global_route(const Netlist& netlist, const Placement3D& placement,
                         const GCellGrid& grid, const RouterConfig& cfg) {
  const int num_tiers = placement.num_tiers;
  RouteGrid rg(grid, cfg, num_tiers);
  rg.apply_macro_blockages(netlist, placement);
  Ctx ctx(cfg, rg);

  const std::size_t n_nets = netlist.num_nets();
  std::vector<NetPlan> plans(n_nets);
  std::vector<NetRoute> routes(n_nets);
  std::size_t vias = 0;
  std::vector<std::size_t> vias_per_boundary(
      static_cast<std::size_t>(std::max(num_tiers - 1, 0)), 0);
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    plans[ni] =
        plan_net(netlist, static_cast<NetId>(ni), placement, grid, num_tiers);
    if (plans[ni].is3d) {
      vias += static_cast<std::size_t>(plans[ni].span());
      for (int b = plans[ni].tier_lo; b < plans[ni].tier_hi; ++b)
        ++vias_per_boundary[static_cast<std::size_t>(b)];
    }
    route_net(ctx, plans[ni], routes[ni], /*maze=*/false);
  }

  // Negotiated rip-up and reroute.
  for (int round = 0; round < cfg.rrr_rounds; ++round) {
    if (!ctx.bump_history()) break;

    for (std::size_t ni = 0; ni < n_nets; ++ni) {
      bool over = false;
      for (const RoutedEdge& e : routes[ni].edges) {
        const auto idx = static_cast<std::size_t>(e.index);
        const double use = e.horizontal ? rg.h_use[e.die][idx] : rg.v_use[e.die][idx];
        const double cap = e.horizontal ? rg.h_cap[e.die][idx] : rg.v_cap[e.die][idx];
        if (use > cap) {
          over = true;
          break;
        }
      }
      if (!over) continue;
      ctx.rip_up(routes[ni]);
      route_net(ctx, plans[ni], routes[ni], /*maze=*/true);
    }
  }

  // Collect metrics.
  RouteResult res;
  res.num_tiers = num_tiers;
  const std::int64_t tiles = grid.num_tiles();
  res.congestion.assign(static_cast<std::size_t>(num_tiers),
                        std::vector<float>(static_cast<std::size_t>(tiles), 0.0f));
  res.usage.assign(static_cast<std::size_t>(num_tiers),
                   std::vector<float>(static_cast<std::size_t>(tiles), 0.0f));
  res.tier_overflow.assign(static_cast<std::size_t>(num_tiers), 0.0);
  std::size_t ovf_tiles = 0;
  for (int die = 0; die < num_tiers; ++die) {
    for (int n = 0; n < grid.ny(); ++n) {
      for (int m = 0; m < grid.nx(); ++m) {
        double tile_ovf = 0.0, tile_use = 0.0;
        auto edge = [&](bool horizontal, int mm, int nn) {
          if (horizontal) {
            if (mm < 0 || mm >= grid.nx() - 1) return;
            const std::size_t i = rg.h_edge_index(mm, nn);
            tile_use += rg.h_use[die][i] * 0.5;
            tile_ovf += std::max(rg.h_use[die][i] - rg.h_cap[die][i], 0.0) * 0.5;
          } else {
            if (nn < 0 || nn >= grid.ny() - 1) return;
            const std::size_t i = rg.v_edge_index(mm, nn);
            tile_use += rg.v_use[die][i] * 0.5;
            tile_ovf += std::max(rg.v_use[die][i] - rg.v_cap[die][i], 0.0) * 0.5;
          }
        };
        edge(true, m - 1, n);
        edge(true, m, n);
        edge(false, m, n - 1);
        edge(false, m, n);
        const auto ti = static_cast<std::size_t>(grid.index(m, n));
        res.congestion[die][ti] = static_cast<float>(tile_ovf);
        res.usage[die][ti] = static_cast<float>(tile_use);
        if (tile_ovf > 0.0) ++ovf_tiles;
      }
    }
    for (std::size_t i = 0; i < rg.num_h_edges(); ++i)
      res.h_overflow += std::max(rg.h_use[die][i] - rg.h_cap[die][i], 0.0);
    for (std::size_t i = 0; i < rg.num_v_edges(); ++i)
      res.v_overflow += std::max(rg.v_use[die][i] - rg.v_cap[die][i], 0.0);
    // Per-tier overflow, accumulated separately so the legacy h/v overflow
    // summation order above is untouched.
    double tovf = 0.0;
    for (std::size_t i = 0; i < rg.num_h_edges(); ++i)
      tovf += std::max(rg.h_use[die][i] - rg.h_cap[die][i], 0.0);
    for (std::size_t i = 0; i < rg.num_v_edges(); ++i)
      tovf += std::max(rg.v_use[die][i] - rg.v_cap[die][i], 0.0);
    res.tier_overflow[static_cast<std::size_t>(die)] = tovf;
  }
  res.total_overflow = res.h_overflow + res.v_overflow;
  res.ovf_gcell_pct = 100.0 * static_cast<double>(ovf_tiles) /
                      static_cast<double>(num_tiers * tiles);
  res.num_3d_vias = vias;
  res.vias_per_boundary = std::move(vias_per_boundary);

  // Routed wirelength: edge count times tile pitch, plus a via penalty per
  // boundary crossing.
  double wl = 0.0;
  for (int die = 0; die < num_tiers; ++die) {
    for (double u : rg.h_use[die]) wl += u * grid.tile_width();
    for (double u : rg.v_use[die]) wl += u * grid.tile_height();
  }
  res.wirelength = wl + static_cast<double>(vias) * 0.5 * grid.tile_width();

  // Per-net routed length and overflow exposure.
  res.net_routed_wl.assign(n_nets, 0.0);
  res.net_overflow_crossings.assign(n_nets, 0.0);
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    for (const RoutedEdge& e : routes[ni].edges) {
      const auto idx = static_cast<std::size_t>(e.index);
      res.net_routed_wl[ni] += e.horizontal ? grid.tile_width() : grid.tile_height();
      const double use = e.horizontal ? rg.h_use[e.die][idx] : rg.v_use[e.die][idx];
      const double cap = e.horizontal ? rg.h_cap[e.die][idx] : rg.v_cap[e.die][idx];
      if (use > cap) res.net_overflow_crossings[ni] += 1.0;
    }
    if (plans[ni].is3d)
      res.net_routed_wl[ni] +=
          static_cast<double>(plans[ni].span()) * 0.5 * grid.tile_width();
  }
  return res;
}



namespace {
double usage_percentile(std::vector<double> values, double percentile) {
  std::erase_if(values, [](double v) { return v <= 0.0; });
  if (values.empty()) return 1.0;
  const auto k = static_cast<std::size_t>(
      percentile * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k),
                   values.end());
  return values[k];
}
}  // namespace

RouterConfig calibrate_capacity(const Netlist& netlist,
                                const Placement3D& placement,
                                const GCellGrid& grid, const RouterConfig& base,
                                double percentile) {
  RouterConfig probe = base;
  probe.h_capacity = 1e9;
  probe.v_capacity = 1e9;
  probe.rrr_rounds = 0;

  const int num_tiers = placement.num_tiers;
  RouteGrid rg(grid, probe, num_tiers);
  Ctx ctx(probe, rg);
  for (std::size_t ni = 0; ni < netlist.num_nets(); ++ni) {
    NetPlan plan =
        plan_net(netlist, static_cast<NetId>(ni), placement, grid, num_tiers);
    NetRoute route;
    route_net(ctx, plan, route, /*maze=*/false);
  }

  std::vector<double> h_all, v_all;
  for (int die = 0; die < num_tiers; ++die) {
    h_all.insert(h_all.end(), rg.h_use[die].begin(), rg.h_use[die].end());
    v_all.insert(v_all.end(), rg.v_use[die].begin(), rg.v_use[die].end());
  }
  RouterConfig out = base;
  out.h_capacity = std::max(2.0, std::ceil(usage_percentile(h_all, percentile)));
  out.v_capacity = std::max(2.0, std::ceil(usage_percentile(v_all, percentile)));
  return out;
}

}  // namespace dco3d
