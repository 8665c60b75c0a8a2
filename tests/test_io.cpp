// Serialization tests: design/placement text format and predictor
// checkpoints, including round-trip exactness and malformed-input rejection.

#include <gtest/gtest.h>

#include <sstream>

#include "core/trainer.hpp"
#include "io/design_io.hpp"
#include "io/model_io.hpp"
#include "place/placer3d.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

TEST(DesignIo, RoundTripPreservesStructure) {
  const Netlist original = testing::tiny_design(300);
  std::stringstream ss;
  write_design(ss, original);
  const Netlist loaded = read_design(ss);

  ASSERT_EQ(loaded.num_cells(), original.num_cells());
  ASSERT_EQ(loaded.num_nets(), original.num_nets());
  ASSERT_EQ(loaded.library().size(), original.library().size());
  for (std::size_t i = 0; i < original.num_cells(); ++i) {
    const auto id = static_cast<CellId>(i);
    EXPECT_EQ(loaded.cell_name(id), original.cell_name(id));
    EXPECT_EQ(loaded.cell(id).fixed, original.cell(id).fixed);
    EXPECT_EQ(loaded.cell_type(id).name, original.cell_type(id).name);
    EXPECT_DOUBLE_EQ(loaded.cell_area(id), original.cell_area(id));
  }
  ASSERT_EQ(loaded.num_pins(), original.num_pins());
  for (std::size_t ni = 0; ni < original.num_nets(); ++ni) {
    const auto id = static_cast<NetId>(ni);
    const auto pa = original.net_pins(id);
    const auto pb = loaded.net_pins(id);
    EXPECT_EQ(loaded.net_name(id), original.net_name(id));
    EXPECT_EQ(loaded.net_is_clock(id), original.net_is_clock(id));
    ASSERT_EQ(pb.size(), pa.size());
    for (std::size_t s = 0; s < pa.size(); ++s) {
      EXPECT_EQ(pb[s].cell, pa[s].cell);
      EXPECT_EQ(pb[s].dir, pa[s].dir);
      EXPECT_DOUBLE_EQ(pb[s].offset.x, pa[s].offset.x);
      EXPECT_DOUBLE_EQ(pb[s].offset.y, pa[s].offset.y);
    }
  }
}

TEST(DesignIo, RoundTripPreservesFlowBehavior) {
  // Loaded designs must place and time identically to the original.
  const Netlist original = testing::tiny_design(250);
  std::stringstream ss;
  write_design(ss, original);
  const Netlist loaded = read_design(ss);
  PlacementParams params;
  const Placement3D pa = place_pseudo3d(original, params, 7);
  const Placement3D pb = place_pseudo3d(loaded, params, 7);
  EXPECT_DOUBLE_EQ(total_hpwl(original, pa), total_hpwl(loaded, pb));
}

TEST(DesignIo, RejectsMissingHeader) {
  std::stringstream ss("not a design\n");
  EXPECT_THROW(read_design(ss), std::runtime_error);
}

TEST(DesignIo, RejectsUnknownCellType) {
  std::stringstream ss(
      "dco3d-design v1\n"
      "cell u0 NO_SUCH_TYPE 0\n");
  EXPECT_THROW(read_design(ss), std::runtime_error);
}

TEST(DesignIo, RejectsDanglingNetReference) {
  std::stringstream ss(
      "dco3d-design v1\n"
      "libcell INV_X1 inv 1 1 0.054 0.15 0.6 6 4 1.2 0.08\n"
      "cell u0 INV_X1 0\n"
      "net n0 1 0 0 0 0 99 0 0\n");  // sink cell 99 does not exist
  EXPECT_THROW(read_design(ss), std::runtime_error);
}

TEST(DesignIo, RejectsMalformedLibcell) {
  std::stringstream ss(
      "dco3d-design v1\n"
      "libcell INV_X1 inv 1\n");
  EXPECT_THROW(read_design(ss), std::runtime_error);
}

TEST(PlacementIo, RoundTripExact) {
  const Netlist nl = testing::tiny_design(200);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3);
  std::stringstream ss;
  write_placement(ss, pl);
  const Placement3D loaded = read_placement(ss, nl.num_cells());
  ASSERT_EQ(loaded.size(), pl.size());
  EXPECT_EQ(loaded.outline, pl.outline);
  for (std::size_t i = 0; i < pl.size(); ++i) {
    EXPECT_DOUBLE_EQ(loaded.xy[i].x, pl.xy[i].x);
    EXPECT_DOUBLE_EQ(loaded.xy[i].y, pl.xy[i].y);
    EXPECT_EQ(loaded.tier[i], pl.tier[i]);
  }
}

TEST(PlacementIo, RejectsMissingCell) {
  std::stringstream ss(
      "dco3d-placement v1\n"
      "outline 0 0 10 10\n"
      "place 0 1 1 0\n");  // cell 1 of 2 missing
  EXPECT_THROW(read_placement(ss, 2), std::runtime_error);
}

TEST(PlacementIo, RejectsBadTier) {
  std::stringstream ss(
      "dco3d-placement v1\n"
      "outline 0 0 10 10\n"
      "place 0 1 1 5\n");
  EXPECT_THROW(read_placement(ss, 1), std::runtime_error);
}

TEST(PlacementIo, TierCountIsBoundedWithLineNumber) {
  const auto file = [](int tiers) {
    return "dco3d-placement v1\n"
           "outline 0 0 10 10\n"
           "tiers " + std::to_string(tiers) + "\n"
           "place 0 1 1 0\n";
  };
  std::stringstream ok(file(kMaxTiers));
  EXPECT_EQ(read_placement(ok, 1).num_tiers, kMaxTiers);
  for (const int tiers : {1, kMaxTiers + 1}) {
    SCOPED_TRACE(tiers);
    std::stringstream bad(file(tiers));
    try {
      read_placement(bad, 1);
      FAIL() << "expected StatusError";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ModelIo, RoundTripPredictionsIdentical) {
  // Train a tiny predictor, save, load, and verify identical predictions.
  const Netlist design = testing::tiny_design(250);
  DatasetConfig dcfg;
  dcfg.layouts = 3;
  dcfg.perturbed_per_layout = 0;
  dcfg.grid_nx = dcfg.grid_ny = 16;
  dcfg.net_h = dcfg.net_w = 16;
  const auto data = build_dataset(design, dcfg);
  TrainConfig tcfg;
  tcfg.epochs = 2;
  tcfg.unet.base_channels = 4;
  tcfg.unet.depth = 2;
  const Predictor original = train_predictor(data, tcfg);

  nn::UNetConfig saved_cfg = tcfg.unet;
  saved_cfg.in_channels = kNumFeatureChannels;
  saved_cfg.out_channels = 1;
  std::stringstream ss;
  save_predictor(ss, original, saved_cfg);
  const Predictor loaded = load_predictor(ss);

  EXPECT_FLOAT_EQ(loaded.label_scale, original.label_scale);
  const std::vector<nn::Tensor> out_a = original.predict(data[0]);
  const std::vector<nn::Tensor> out_b = loaded.predict(data[0]);
  ASSERT_EQ(out_a.size(), 2u);
  ASSERT_EQ(out_b.size(), 2u);
  for (int die = 0; die < 2; ++die) {
    ASSERT_EQ(out_b[die].shape(), out_a[die].shape());
    for (std::int64_t i = 0; i < out_a[die].numel(); ++i)
      EXPECT_FLOAT_EQ(out_b[die][i], out_a[die][i]);
  }
}

TEST(ModelIo, RejectsTruncatedCheckpoint) {
  const Netlist design = testing::tiny_design(200);
  DatasetConfig dcfg;
  dcfg.layouts = 2;
  dcfg.perturbed_per_layout = 0;
  dcfg.grid_nx = dcfg.grid_ny = 16;
  dcfg.net_h = dcfg.net_w = 16;
  const auto data = build_dataset(design, dcfg);
  TrainConfig tcfg;
  tcfg.epochs = 1;
  tcfg.unet.base_channels = 4;
  const Predictor p = train_predictor(data, tcfg);
  nn::UNetConfig saved_cfg = tcfg.unet;
  saved_cfg.in_channels = kNumFeatureChannels;
  saved_cfg.out_channels = 1;
  std::stringstream ss;
  save_predictor(ss, p, saved_cfg);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_predictor(truncated), std::runtime_error);
}

TEST(ModelIo, RejectsBadHeader) {
  std::stringstream ss("garbage\n");
  EXPECT_THROW(load_predictor(ss), std::runtime_error);
}


// ---- cross-design round-trip sweep ----

class IoSweep : public ::testing::TestWithParam<DesignKind> {};

TEST_P(IoSweep, DesignAndPlacementRoundTrip) {
  const Netlist original = generate_design(spec_for(GetParam(), 0.008));
  std::stringstream ds;
  write_design(ds, original);
  const Netlist loaded = read_design(ds);
  ASSERT_EQ(loaded.num_cells(), original.num_cells());
  ASSERT_EQ(loaded.num_nets(), original.num_nets());

  PlacementParams params;
  const Placement3D pl = place_pseudo3d(original, params, 3);
  std::stringstream ps;
  write_placement(ps, pl);
  const Placement3D pl2 = read_placement(ps, loaded.num_cells());
  EXPECT_DOUBLE_EQ(total_hpwl(loaded, pl2), total_hpwl(original, pl));
  EXPECT_EQ(count_cut_nets(loaded, pl2), count_cut_nets(original, pl));
}

INSTANTIATE_TEST_SUITE_P(AllDesigns, IoSweep, ::testing::ValuesIn(kAllDesigns),
                         [](const ::testing::TestParamInfo<DesignKind>& info) {
                           return design_name(info.param);
                         });

}  // namespace
}  // namespace dco3d
