// Congestion prediction example: build a training dataset for one design,
// train the Siamese UNet (Alg. 1), and inspect its predictions on a held-out
// layout — the §III pipeline as a library user would run it.
//
//   ./examples/predict_congestion [design] [scale] [layouts] [epochs]

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/trainer.hpp"
#include "flow/dataset.hpp"
#include "netlist/generators.hpp"
#include "place/placer3d.hpp"
#include "route/router.hpp"
#include "util/stats.hpp"

using namespace dco3d;

namespace {
DesignKind parse_kind(const char* s) {
  const std::string k = s;
  if (k == "dma") return DesignKind::kDma;
  if (k == "ecg") return DesignKind::kEcg;
  if (k == "ldpc") return DesignKind::kLdpc;
  if (k == "vga") return DesignKind::kVga;
  if (k == "rocket") return DesignKind::kRocket;
  return DesignKind::kAes;
}
}  // namespace

int main(int argc, char** argv) {
  const DesignKind kind = argc > 1 ? parse_kind(argv[1]) : DesignKind::kAes;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.04;
  const int layouts = argc > 3 ? std::atoi(argv[3]) : 10;
  const int epochs = argc > 4 ? std::atoi(argv[4]) : 8;

  const DesignSpec spec = spec_for(kind, scale);
  const Netlist design = generate_design(spec);
  std::printf("== congestion prediction on %s (%zu cells, %zu nets) ==\n",
              spec.name.c_str(), design.num_cells(), design.num_nets());

  // Calibrate the routing-capacity model on the default placement so labels
  // show the "routable with hotspots" regime (see DESIGN.md).
  PlacementParams default_params;
  const Placement3D ref = place_pseudo3d(design, default_params, 42);
  const GCellGrid ref_grid(ref.outline, 48, 48);
  const RouterConfig router = calibrate_capacity(design, ref, ref_grid, {}, 0.70);
  std::printf("calibrated capacities: H=%.0f V=%.0f tracks/GCell\n",
              router.h_capacity, router.v_capacity);

  DatasetConfig dcfg;
  dcfg.layouts = layouts;
  dcfg.grid_nx = dcfg.grid_ny = 48;
  dcfg.net_h = dcfg.net_w = 48;
  dcfg.router = router;
  std::printf("building %d layouts (+%d perturbed variants each)...\n", layouts,
              dcfg.perturbed_per_layout);
  const auto dataset = build_dataset(design, dcfg);
  std::printf("dataset: %zu samples\n", dataset.size());

  TrainConfig tcfg;
  tcfg.epochs = epochs;
  tcfg.unet.base_channels = 8;
  tcfg.unet.depth = 2;
  std::printf("training (%d epochs)...\n", epochs);
  const Predictor predictor = train_predictor(dataset, tcfg);
  for (const EpochStats& e : predictor.curve)
    std::printf("  epoch %2d  train %.4f  test %.4f\n", e.epoch, e.train_loss,
                e.test_loss);

  std::vector<const DataSample*> train, test;
  split_dataset(dataset, 0.2, train, test);
  const EvalStats ev = evaluate_predictor(predictor, test);
  std::printf("\nheld-out quality over %zu maps:\n", ev.nrmse.size());
  std::printf("  NRMSE < 0.2 on %.0f%% of maps (mean %.3f)\n",
              100.0 * ev.frac_nrmse_below_02, mean(ev.nrmse));
  std::printf("  SSIM  > 0.8 on %.0f%% of maps (mean %.3f)\n",
              100.0 * ev.frac_ssim_above_08, mean(ev.ssim));

  // Inspect one held-out sample.
  const DataSample& s = *test[0];
  const std::vector<nn::Tensor> out = predictor.predict(s);
  std::printf("\nheld-out sample, top die: corr(pred, truth) = %.3f\n",
              pearson(out[1].data(), s.labels[1].data()));
  std::printf("\npredicted congestion (top die):\n%s",
              ascii_heatmap(out[1].data(), 48, 48).c_str());
  std::printf("\nground truth (top die):\n%s",
              ascii_heatmap(s.labels[1].data(), 48, 48).c_str());
  return 0;
}
