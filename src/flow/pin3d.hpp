#pragma once
// The Pin-3D flow driver (Fig. 1): 3D placement -> [optional placement
// optimizer hook, where DCO-3D plugs in] -> CTS -> post-CTS optimization ->
// global routing -> signoff timing closure. Produces the two evaluation
// stages of Table III ("after 3D placement optimization" and "after signoff
// optimization").

#include <functional>

#include "flow/cts.hpp"
#include "flow/metrics.hpp"
#include "flow/signoff.hpp"
#include "netlist/generators.hpp"
#include "place/placer3d.hpp"
#include "route/router.hpp"
#include "timing/sta.hpp"

namespace dco3d {

/// Hook invoked between 3D global placement and CTS; DCO-3D's differentiable
/// cell spreading runs here (Fig. 1, red boxes). Receives the netlist and
/// the un-legalized global placement to refine in place.
using PlacementOptimizer = std::function<void(const Netlist&, Placement3D&)>;

struct FlowConfig {
  PlacementParams place_params;
  TimingConfig timing;
  RouterConfig router;
  CtsConfig cts;
  SignoffConfig signoff;
  int grid_nx = 64;
  int grid_ny = 64;
  // Number of stacked dies (tiers). 2 is the classic face-to-face stack and
  // reproduces the legacy two-die flow bit-for-bit; must be >= 2.
  int num_tiers = 2;
  std::uint64_t seed = 1;
};

struct FlowResult {
  Placement3D placement;        // final (post-CTS, legalized) placement
  Placement3D global_placement; // placement fed to CTS (post optimizer hook)
  StageMetrics after_place;     // Table III left block
  StageMetrics signoff;         // Table III right block
  RouteResult final_route;
  CtsResult cts;
  SignoffResult signoff_detail;
  GCellGrid grid;
};

/// Run the full flow on a working copy of the design. The netlist is copied
/// internally because CTS and signoff sizing mutate it.
FlowResult run_pin3d_flow(const Netlist& design, const FlowConfig& cfg,
                          const PlacementOptimizer& optimizer = nullptr);

/// Flow-level metrics of a routed state: overflow and wirelength from
/// `route`, timing and power from STA with the route's detour factors.
StageMetrics measure_routed(const Netlist& netlist, const Placement3D& placement,
                            const RouteResult& route,
                            const TimingConfig& timing_cfg,
                            const std::vector<double>* skew = nullptr);

}  // namespace dco3d
