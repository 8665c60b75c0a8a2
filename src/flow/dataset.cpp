#include "flow/dataset.hpp"

#include "flow/cts.hpp"
#include "place/legalize.hpp"
#include "route/router.hpp"

#include <algorithm>

namespace dco3d {

namespace {

/// Label one sample of a layout from a copy of its global placement: apply
/// perturbation `perturb` (none for 0), then take features from the 3D
/// *global placement* (the prediction-time input) and labels from post-CTS
/// routed congestion (the post-route truth).
DataSample label_sample(const Netlist& design, const PlacementParams& params,
                        const DatasetConfig& cfg, std::uint64_t seed,
                        int perturb, Placement3D placement) {
  Netlist netlist = design;
  if (perturb > 0) {
    // Local perturbation: emulate the moves the DCO spreader makes so the
    // model learns the congestion response to them (see DatasetConfig).
    // Odd rounds use incoherent jitter; even rounds use coherent "clump"
    // pulls toward random attractors — without the latter, no training
    // layout ever exhibits density hotspots (the placer always spreads) and
    // the model never learns that concentrating cells raises congestion,
    // which lets gradient optimization exploit it.
    Rng prng(seed * 0x9E3779B9ull + static_cast<std::uint64_t>(perturb));
    const double sx = cfg.perturb_sigma_frac * placement.outline.width();
    const double sy = cfg.perturb_sigma_frac * placement.outline.height();
    const bool clump = (perturb % 2) == 0;
    std::vector<Point> attractors;
    if (clump) {
      const int n_attract = 1 + static_cast<int>(prng.index(3));
      for (int a = 0; a < n_attract; ++a)
        attractors.push_back({prng.uniform(placement.outline.xlo,
                                           placement.outline.xhi),
                              prng.uniform(placement.outline.ylo,
                                           placement.outline.yhi)});
    }
    for (std::size_t ci = 0; ci < netlist.num_cells(); ++ci) {
      const auto id = static_cast<CellId>(ci);
      if (!netlist.is_movable(id)) continue;
      if (clump) {
        if (prng.bernoulli(0.35)) {
          // Pull toward the nearest attractor.
          const Point& p = placement.xy[ci];
          Point best = attractors[0];
          for (const Point& a : attractors)
            if (manhattan(p, a) < manhattan(p, best)) best = a;
          const double lam = prng.uniform(0.3, 0.8);
          placement.xy[ci] = {p.x + lam * (best.x - p.x),
                              p.y + lam * (best.y - p.y)};
        }
      } else if (prng.bernoulli(cfg.perturb_move_prob)) {
        placement.xy[ci].x = std::clamp(placement.xy[ci].x + prng.normal(0.0, sx),
                                        placement.outline.xlo,
                                        placement.outline.xhi);
        placement.xy[ci].y = std::clamp(placement.xy[ci].y + prng.normal(0.0, sy),
                                        placement.outline.ylo,
                                        placement.outline.yhi);
      }
      if (prng.bernoulli(cfg.perturb_tier_prob)) {
        // Two tiers: flip (no extra RNG draw, preserving the legacy stream).
        // K > 2: jump to a uniformly random *other* tier.
        if (placement.num_tiers == 2) {
          placement.tier[ci] = 1 - placement.tier[ci];
        } else {
          const int k = placement.num_tiers;
          const int step =
              1 + static_cast<int>(prng.index(static_cast<std::uint64_t>(k - 1)));
          placement.tier[ci] = (placement.tier[ci] + step) % k;
        }
      }
    }
  }
  const GCellGrid grid(placement.outline, cfg.grid_nx, cfg.grid_ny);

  FeatureMaps fm = compute_feature_maps(netlist, placement, grid);

  // Ground truth: complete CTS + legalization + routing (§III-A).
  run_cts(netlist, placement);
  legalize_all(netlist, placement, params);
  RouteResult route = global_route(netlist, placement, grid, cfg.router);

  DataSample s;
  const int num_tiers = fm.num_tiers();
  s.features.resize(static_cast<std::size_t>(num_tiers));
  s.labels.resize(static_cast<std::size_t>(num_tiers));
  for (int die = 0; die < num_tiers; ++die) {
    const auto d = static_cast<std::size_t>(die);
    s.features[d] = resize_nearest(fm.die[d], cfg.net_h, cfg.net_w);
    nn::Tensor label({1, 1, grid.ny(), grid.nx()});
    auto dst = label.data();
    for (std::size_t i = 0; i < dst.size(); ++i) dst[i] = route.congestion[d][i];
    s.labels[d] = resize_nearest(label, cfg.net_h, cfg.net_w);
  }
  return s;
}

}  // namespace

DataSample make_sample(const Netlist& design, const PlacementParams& params,
                       const DatasetConfig& cfg, std::uint64_t seed,
                       int perturb) {
  return label_sample(design, params, cfg, seed, perturb,
                      place_pseudo3d(design, params, seed,
                                     /*legalized=*/false, cfg.num_tiers));
}

std::vector<DataSample> build_dataset(const Netlist& design,
                                      const DatasetConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<DataSample> out;
  out.reserve(static_cast<std::size_t>(cfg.layouts) *
              static_cast<std::size_t>(1 + cfg.perturbed_per_layout));
  for (int i = 0; i < cfg.layouts; ++i) {
    // First layout uses the default configuration; the rest sample Table I.
    const PlacementParams params =
        i == 0 ? PlacementParams{} : PlacementParams::sample(rng);
    // Placement depends only on (params, seed), so each layout is placed
    // once and every sample of it labels a copy.
    const std::uint64_t seed = cfg.seed * 977 + static_cast<std::uint64_t>(i);
    const Placement3D placement = place_pseudo3d(
        design, params, seed, /*legalized=*/false, cfg.num_tiers);
    for (int p = 0; p <= cfg.perturbed_per_layout; ++p)
      out.push_back(label_sample(design, params, cfg, seed, p, placement));
  }
  return out;
}

void split_dataset(const std::vector<DataSample>& all, double test_fraction,
                   std::vector<const DataSample*>& train,
                   std::vector<const DataSample*>& test) {
  train.clear();
  test.clear();
  const auto n_test = static_cast<std::size_t>(
      test_fraction * static_cast<double>(all.size()));
  for (std::size_t i = 0; i < all.size(); ++i) {
    // Deterministic interleaved split: every k-th sample goes to test.
    const bool is_test =
        n_test > 0 && (i % std::max<std::size_t>(all.size() / n_test, 1)) == 0 &&
        test.size() < n_test;
    (is_test ? test : train).push_back(&all[i]);
  }
}

}  // namespace dco3d
