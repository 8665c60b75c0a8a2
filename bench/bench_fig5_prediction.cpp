// Fig. 5 reproduction — evaluation of the Siamese-UNet congestion predictor:
//   (a) training and testing loss curves (Alg. 1),
//   (b) NRMSE / SSIM distributions over the held-out test split, with the
//       paper's quality thresholds (NRMSE < 0.2, SSIM > 0.7/0.8),
//   (c) predicted vs traditional (RUDY) vs ground-truth congestion on an
//       AES test sample, as correlation numbers plus ASCII maps.
//
//   ./bench_fig5_prediction [scale] [layouts] [epochs]

#include "bench_common.hpp"
#include "util/stats.hpp"

using namespace dco3d;
using namespace dco3d::bench;

namespace {

void print_histogram(const char* title, std::span<const float> v, double lo,
                     double hi) {
  const auto h = histogram(v, lo, hi, 10);
  std::printf("%s histogram (x in [%.1f, %.1f], 10 bins):\n", title, lo, hi);
  std::size_t most = 1;
  for (auto c : h) most = std::max(most, c);
  for (std::size_t b = 0; b < h.size(); ++b) {
    const double x0 = lo + (hi - lo) * static_cast<double>(b) / 10.0;
    std::printf("  %5.2f..%5.2f |%-30s %zu\n", x0, x0 + (hi - lo) / 10.0,
                std::string(30 * h[b] / most, '#').c_str(), h[b]);
  }
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig bcfg = BenchConfig::from_args(argc, argv);
  // The prediction experiment gets a bigger data/compute budget than the
  // flow benches: Fig. 5 is *about* model quality (the paper trains on 300
  // layouts; we default to 20 + perturbed variants and a wider UNet).
  bcfg.layouts = argc > 2 ? std::atoi(argv[2]) : 20;
  bcfg.epochs = argc > 3 ? std::atoi(argv[3]) : 16;

  // The paper's Fig. 5(c) sample comes from AES.
  const DesignSpec spec = spec_for(DesignKind::kAes, bcfg.scale);
  const Netlist design = generate_design(spec);
  std::printf("== Fig. 5: congestion prediction on %s (%zu cells) ==\n",
              spec.name.c_str(), design.num_cells());

  const FlowConfig fcfg = make_flow_config(spec, bcfg, design);
  DatasetConfig dcfg;
  dcfg.layouts = bcfg.layouts;
  dcfg.grid_nx = dcfg.grid_ny = bcfg.map_hw;
  dcfg.net_h = dcfg.net_w = bcfg.map_hw;
  dcfg.router = fcfg.router;
  dcfg.seed = spec.seed;
  const auto dataset = build_dataset(design, dcfg);

  TrainConfig tcfg;
  tcfg.epochs = bcfg.epochs;
  tcfg.unet.base_channels = 10;
  tcfg.unet.depth = 2;
  const Predictor predictor = train_predictor(dataset, tcfg);

  // ---- (a) loss curves ----
  std::printf("\n-- Fig. 5(a): loss curves (RMSE-Frobenius, Eq. 4) --\n");
  std::printf("%6s %12s %12s\n", "epoch", "train", "test");
  for (const EpochStats& e : predictor.curve)
    std::printf("%6d %12.4f %12.4f\n", e.epoch, e.train_loss, e.test_loss);

  // ---- (b) NRMSE / SSIM over the test split ----
  std::vector<const DataSample*> train, test;
  split_dataset(dataset, 0.2, train, test);
  const EvalStats ev = evaluate_predictor(predictor, test);
  std::printf("\n-- Fig. 5(b): prediction quality over %zu test maps --\n",
              ev.nrmse.size());
  print_histogram("NRMSE", ev.nrmse, 0.0, 0.5);
  print_histogram("SSIM", ev.ssim, 0.0, 1.0);
  std::printf("fraction NRMSE < 0.2: %.1f%%   (paper: >85%%)\n",
              100.0 * ev.frac_nrmse_below_02);
  std::printf("fraction SSIM  > 0.7: %.1f%%   (paper threshold)\n",
              100.0 * ev.frac_ssim_above_07);
  std::printf("fraction SSIM  > 0.8: %.1f%%   (paper: >85%%)\n",
              100.0 * ev.frac_ssim_above_08);

  // ---- (c) model vs RUDY vs ground truth on one test sample ----
  const DataSample& s = *test[0];
  const std::vector<nn::Tensor> out = predictor.predict(s);
  const auto H = static_cast<std::size_t>(s.labels[0].dim(2));
  const auto W = static_cast<std::size_t>(s.labels[0].dim(3));
  std::printf("\n-- Fig. 5(c): predicted vs RUDY vs ground truth (test sample) --\n");
  for (int die = 0; die < 2; ++die) {
    const auto hw = static_cast<std::size_t>(H * W);
    std::vector<float> rudy(hw);
    auto f = s.features[die].data();
    for (std::size_t i = 0; i < hw; ++i)
      rudy[i] = f[static_cast<std::size_t>(kRudy2D) * hw + i] +
                f[static_cast<std::size_t>(kRudy3D) * hw + i];
    std::printf("die %d (%s): corr(model, truth) = %.3f   corr(RUDY, truth) = "
                "%.3f   NRMSE(model) = %.3f   SSIM(model) = %.3f\n",
                die, die ? "top" : "bottom",
                pearson(out[die].data(), s.labels[die].data()),
                pearson(rudy, s.labels[die].data()),
                nrmse(out[die].data(), s.labels[die].data()),
                ssim(out[die].data(), s.labels[die].data(), H, W));
  }
  std::printf("\nground truth (top die):\n%s",
              ascii_heatmap(s.labels[1].data(), H, W).c_str());
  std::printf("\nmodel prediction (top die):\n%s",
              ascii_heatmap(out[1].data(), H, W).c_str());
  {
    const auto hw = static_cast<std::size_t>(H * W);
    std::vector<float> rudy(hw);
    auto f = s.features[1].data();
    for (std::size_t i = 0; i < hw; ++i)
      rudy[i] = f[static_cast<std::size_t>(kRudy2D) * hw + i] +
                f[static_cast<std::size_t>(kRudy3D) * hw + i];
    std::printf("\ntraditional RUDY estimate (top die):\n%s",
                ascii_heatmap(rudy, H, W).c_str());
  }
  return 0;
}
