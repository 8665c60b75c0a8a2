#pragma once
// Dataset construction for supervised congestion prediction (§III-A):
// sample Table-I placement parameters, run the pseudo-3D placement, complete
// CTS + routing for ground truth, and emit (feature maps, congestion labels)
// pairs resized to the network resolution.

#include <vector>

#include "flow/pin3d.hpp"
#include "route/router.hpp"
#include "grid/feature_maps.hpp"
#include "netlist/generators.hpp"
#include "nn/tensor.hpp"

namespace dco3d {

/// One training sample: per-die features [1,7,H,W] and labels [1,1,H,W],
/// one entry per tier (two for the classic stack).
struct DataSample {
  std::vector<nn::Tensor> features;
  std::vector<nn::Tensor> labels;

  int num_tiers() const { return static_cast<int>(features.size()); }
};

struct DatasetConfig {
  int num_tiers = 2;       // stacked dies of the sampled placements
  int layouts = 24;        // paper: 300 per design; scaled (DESIGN.md)
  int grid_nx = 64;        // GCell resolution of the raw maps
  int grid_ny = 64;
  int net_h = 64;          // CNN input resolution (paper: 224)
  int net_w = 64;
  RouterConfig router;     // ground-truth routing configuration
  // Local-perturbation augmentation: for each sampled layout, additionally
  // emit this many copies with random cell shifts / tier flips before
  // routing. The congestion optimizer (Alg. 2) queries the predictor on
  // exactly such locally-perturbed placements, so without these samples the
  // gradient-based spreader can walk outside the training distribution and
  // "fool" the model (predicted congestion drops while routed congestion
  // explodes). This plays the role the paper's 300-layout diversity plays.
  // Each layout is placed once; its perturbed copies derive from that single
  // placement, so only labelling (CTS + routing) is paid per copy.
  int perturbed_per_layout = 2;
  double perturb_sigma_frac = 0.04;  // position jitter, fraction of die size
  double perturb_move_prob = 0.5;    // fraction of cells jittered
  double perturb_tier_prob = 0.04;   // fraction of cells flipped to other die
  std::uint64_t seed = 7;
};

/// Build a dataset from one design by sampling placement parameters.
std::vector<DataSample> build_dataset(const Netlist& design,
                                      const DatasetConfig& cfg);

/// Build a single sample from a specific placement configuration: entry
/// `perturb` of the layout `build_dataset` places with (`params`, `seed`).
/// `perturb` > 0 selects that perturbation round (its noise stream and kind).
DataSample make_sample(const Netlist& design, const PlacementParams& params,
                       const DatasetConfig& cfg, std::uint64_t seed,
                       int perturb = 0);

/// Split helper: deterministic train/test partition (§V-A reserves 20%).
void split_dataset(const std::vector<DataSample>& all, double test_fraction,
                   std::vector<const DataSample*>& train,
                   std::vector<const DataSample*>& test);

}  // namespace dco3d
