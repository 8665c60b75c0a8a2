// N-tier generalization tests (the `num_tiers` thread-through):
//  - the classic two-die flow and DCO loop reproduce the pre-generalization
//    seed results bit-for-bit, at 1/2/8 threads (golden hashes + hex-float
//    metrics captured from the seed build);
//  - three-tier soft maps and losses have thread-invariant gradients
//    (bit-identical across 1/2/8 threads, the parallel-kernel contract);
//  - the survival-form (above[j] = P(T > j)) losses match finite differences;
//  - K-way FM keeps every tier area-balanced, never increases the cut, and
//    never moves fixed cells;
//  - predictor checkpoints round-trip at K = 3 and forward_n at K = 2
//    matches the legacy two-die forward (old checkpoints stay valid).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "core/dco.hpp"
#include "core/losses.hpp"
#include "core/trainer.hpp"
#include "flow/pin3d.hpp"
#include "grid/soft_maps.hpp"
#include "io/model_io.hpp"
#include "netlist/generators.hpp"
#include "place/fm_partitioner.hpp"
#include "place/placer3d.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace dco3d {
namespace {

using testing::placement_hash;
using testing::ThreadGuard;
using testing::tiny_design;

// ---------------------------------------------------------------------------
// K = 2 golden regressions: hashes and hex-float metrics recorded from the
// seed (pre-generalization) build on this exact workload. Any FP reordering
// in the two-die path — or any thread-count dependence — fails these.

TEST(TiersGolden, TwoTierFlowBitIdenticalToSeedAcrossThreads) {
  ThreadGuard guard;
  const Netlist design = tiny_design(260, 5);
  FlowConfig cfg;
  cfg.grid_nx = cfg.grid_ny = 16;
  cfg.timing.clock_period_ps = 250.0;
  cfg.seed = 7;
  ASSERT_EQ(cfg.num_tiers, 2);  // the default must stay the classic stack

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    util::set_num_threads(threads);
    const FlowResult r = run_pin3d_flow(design, cfg);

    EXPECT_EQ(placement_hash(r.placement), 0x9971b1b2dab7f4b4ull);

    EXPECT_EQ(r.after_place.overflow, 0.0);
    EXPECT_EQ(r.after_place.wirelength_um, 0x1.b728b73a0088dp+8);
    EXPECT_EQ(r.after_place.wns_ps, -0x1.2357884ea2e84p+7);
    EXPECT_EQ(r.after_place.tns_ps, -0x1.f05034a1b4bf2p+11);
    EXPECT_EQ(r.after_place.power_mw, 0x1.6bf0bdb21a3f6p-3);

    EXPECT_EQ(r.signoff.overflow, 0.0);
    EXPECT_EQ(r.signoff.wirelength_um, 0x1.e169dbfa98eebp+8);
    EXPECT_EQ(r.signoff.wns_ps, -0x1.0487597121572p+7);
    EXPECT_EQ(r.signoff.tns_ps, -0x1.46578e915e743p+11);
    EXPECT_EQ(r.signoff.power_mw, 0x1.5520b48e9b9e5p-2);

    EXPECT_EQ(r.final_route.num_3d_vias, 79);
    EXPECT_EQ(r.cts.buffers_inserted, 15u);
    EXPECT_EQ(r.cts.levels, 4);
    EXPECT_EQ(r.cts.max_skew_ps, 0x1.206319f54b62ap+5);
    EXPECT_EQ(r.signoff_detail.upsized, 195);
    EXPECT_EQ(r.signoff_detail.downsized, 0);
    EXPECT_EQ(r.signoff_detail.skewed, 0);
  }
}

TEST(TiersGolden, TwoTierDcoBitIdenticalToSeedAcrossThreads) {
  ThreadGuard guard;
  const Netlist netlist = tiny_design(220, 5);
  PlacementParams pp;
  const Placement3D initial =
      place_pseudo3d(netlist, pp, 7, /*legalized=*/false);

  Predictor pred;  // untrained, fixed init: exercises the real loss graph
  Rng rng(99);
  pred.model = std::make_shared<nn::SiameseUNet>(nn::UNetConfig{}, rng);
  pred.label_scale = 1.0f;
  pred.feature_scale = nn::Tensor({7});
  for (int i = 0; i < 7; ++i) pred.feature_scale[i] = 1.0f;

  DcoConfig dcfg;
  dcfg.max_iter = 4;
  dcfg.restarts = 0;
  dcfg.eval_every = 2;
  dcfg.select_by_route = false;
  dcfg.grid_nx = dcfg.grid_ny = 32;
  dcfg.overlap_bins = 8;
  dcfg.seed = 17;
  const TimingConfig tc;

  // iter -> {total, disp, ovlp, cut, cong}. Captured from the SIMD-layer
  // build (the fixed 8-wide lane accumulation order shifts a few last ULPs
  // vs the pre-SIMD seed; regeneration policy in docs/performance.md).
  const double golden[4][5] = {
      {0x1.011cb8p+10, 0x1.a7e2f2p-11, 0x1.65d4c2p-1, 0x1.cdeccp-1,
       0x1.9ab2ap+6},
      {0x1.e7c8d2p+9, 0x1.2c19bcp-10, 0x1.6a1076p-1, 0x1.cac978p-1,
       0x1.858c2cp+6},
      {0x1.e2deaap+9, 0x1.c21a7ep-10, 0x1.716acep-1, 0x1.ca212ap-1,
       0x1.819dp+6},
      {0x1.d81a0ep+9, 0x1.48421cp-9, 0x1.7f9c72p-1, 0x1.cafcc8p-1,
       0x1.78fdep+6}};

  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    util::set_num_threads(threads);
    const DcoResult r = run_dco(netlist, initial, pred, tc, dcfg);

    EXPECT_EQ(placement_hash(r.placement), 0xdcec0e8b34982aa3ull);
    EXPECT_EQ(r.best_loss, 0x1.9ca89a56df292p+6);
    EXPECT_EQ(r.initial_score, 0x1.b650520bb2ee8p+6);
    EXPECT_EQ(r.cells_moved_tier, 0u);
    ASSERT_EQ(r.trace.size(), 4u);
    for (int it = 0; it < 4; ++it) {
      SCOPED_TRACE(::testing::Message() << "iter=" << it);
      const auto i = static_cast<std::size_t>(it);
      EXPECT_EQ(r.trace[i].total, golden[it][0]);
      EXPECT_EQ(r.trace[i].disp, golden[it][1]);
      EXPECT_EQ(r.trace[i].ovlp, golden[it][2]);
      EXPECT_EQ(r.trace[i].cut, golden[it][3]);
      EXPECT_EQ(r.trace[i].cong, golden[it][4]);
    }
  }
}

// ---------------------------------------------------------------------------
// K = 3 thread-invariance: soft maps and losses must produce bit-identical
// values AND gradients at any worker-pool size (deterministic chunked
// reduction contract).

/// Per-cell x/y leaves plus the K-1 survival leaves above[j] = P(T > j),
/// seeded from a legalized K-tier placement with 0.6 on the cell's own tier
/// and the rest spread evenly over the other tiers.
struct SoftStateK {
  nn::Var x, y;
  std::vector<nn::Var> above;
};

SoftStateK make_soft_state(const Placement3D& pl, int num_tiers) {
  const auto n = static_cast<std::int64_t>(pl.size());
  nn::Tensor tx({n}), ty({n});
  for (std::int64_t i = 0; i < n; ++i) {
    tx.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].x);
    ty.data()[i] = static_cast<float>(pl.xy[static_cast<std::size_t>(i)].y);
  }
  SoftStateK s;
  s.x = nn::make_leaf(std::move(tx), /*requires_grad=*/true);
  s.y = nn::make_leaf(std::move(ty), /*requires_grad=*/true);
  const float other = 0.4f / static_cast<float>(num_tiers - 1);
  for (int j = 0; j + 1 < num_tiers; ++j) {
    nn::Tensor ta({n});
    for (std::int64_t i = 0; i < n; ++i) {
      float a = 0.0f;
      for (int t = j + 1; t < num_tiers; ++t)
        a += pl.tier[static_cast<std::size_t>(i)] == t ? 0.6f : other;
      ta.data()[i] = a;
    }
    s.above.push_back(nn::make_leaf(std::move(ta), /*requires_grad=*/true));
  }
  return s;
}

std::vector<float> snapshot_grads(const SoftStateK& s) {
  std::vector<float> out;
  const auto append = [&](const nn::Var& v) {
    out.insert(out.end(), v->grad.data().begin(), v->grad.data().end());
  };
  append(s.x);
  append(s.y);
  for (const nn::Var& a : s.above) append(a);
  return out;
}

std::vector<nn::Var> all_leaves(const SoftStateK& s) {
  std::vector<nn::Var> leaves = {s.x, s.y};
  leaves.insert(leaves.end(), s.above.begin(), s.above.end());
  return leaves;
}

TEST(TiersThreadInvariance, ThreeTierSoftMapGradsBitIdentical) {
  ThreadGuard guard;
  const Netlist nl = tiny_design(200, 5);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3, true, 3);
  const GCellGrid grid(pl.outline, 16, 16);
  SoftStateK s = make_soft_state(pl, 3);

  std::vector<float> ref_value, ref_grads;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    util::set_num_threads(threads);
    nn::zero_grad(all_leaves(s));
    const SoftMaps maps = soft_feature_maps(nl, grid, s.x, s.y, s.above);
    EXPECT_EQ(maps.num_tiers, 3);
    // Snapshot before backward: the tape reclaims interior values after it.
    std::vector<float> value(maps.stacked->value.data().begin(),
                             maps.stacked->value.data().end());
    ASSERT_GT(value.size(), 0u);
    nn::backward(nn::sum(maps.stacked));
    std::vector<float> grads = snapshot_grads(s);
    if (threads == 1) {
      ref_value = std::move(value);
      ref_grads = std::move(grads);
      continue;
    }
    // Exact float equality: the contract is bit-identity, not tolerance.
    EXPECT_EQ(value, ref_value);
    EXPECT_EQ(grads, ref_grads);
  }
}

TEST(TiersThreadInvariance, ThreeTierLossGradsBitIdentical) {
  ThreadGuard guard;
  const Netlist nl = tiny_design(200, 5);
  PlacementParams params;
  const Placement3D pl = place_pseudo3d(nl, params, 3, true, 3);
  auto edges = std::make_shared<
      const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      nl.cell_graph_edges());
  nn::Tensor power({static_cast<std::int64_t>(nl.num_cells())});
  for (std::int64_t i = 0; i < power.numel(); ++i)
    power[i] = 0.1f + 0.001f * static_cast<float>(i % 7);
  SoftStateK s = make_soft_state(pl, 3);

  std::vector<double> ref_value;
  std::vector<float> ref_grads;
  for (int threads : {1, 2, 8}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    util::set_num_threads(threads);
    nn::zero_grad(all_leaves(s));
    const nn::Var cut = cutsize_loss(s.above, edges);
    const nn::Var ovlp =
        overlap_loss(nl, s.x, s.y, s.above, pl.outline, 8, 8, 0.5);
    const nn::Var therm =
        thermal_density_loss(nl, s.x, s.y, s.above, power, pl.outline, 8, 8);
    // Snapshot before backward: the tape reclaims interior values after it.
    const std::vector<double> value = {cut->value[0], ovlp->value[0],
                                       therm->value[0]};
    nn::backward(nn::add(nn::add(cut, ovlp), therm));
    std::vector<float> grads = snapshot_grads(s);
    if (threads == 1) {
      ref_value = value;
      ref_grads = std::move(grads);
      continue;
    }
    EXPECT_EQ(value, ref_value);
    EXPECT_EQ(grads, ref_grads);
  }
}

// ---------------------------------------------------------------------------
// K-tier loss gradients vs finite differences (the survival-form ops have
// hand-written backwards). Three tiers: above = {P(T > 0), P(T > 1)}.

TEST(TiersLossGradients, CutsizeProbabilityOverloadNumerical) {
  auto edges = std::make_shared<
      const std::vector<std::pair<std::int64_t, std::int64_t>>>(
      std::vector<std::pair<std::int64_t, std::int64_t>>{
          {0, 1}, {1, 2}, {2, 3}, {0, 3}, {1, 3}});
  std::vector<nn::Var> above = {
      nn::make_leaf(nn::Tensor({4}, {0.5f, 0.8f, 0.7f, 0.4f}), true),
      nn::make_leaf(nn::Tensor({4}, {0.2f, 0.3f, 0.3f, 0.15f}), true)};
  testing::check_gradients([&] { return cutsize_loss(above, edges); }, above);
}

TEST(TiersLossGradients, OverlapAndThermalProbabilityOverloadNumerical) {
  Netlist nl(Library::make_default());
  const CellTypeId dff = nl.library().find(CellFunction::kDff, 2);
  for (int i = 0; i < 3; ++i) nl.add_cell("c", dff);
  nn::Var x = nn::make_leaf(nn::Tensor({3}, {0.8f, 1.0f, 1.3f}), true);
  nn::Var y = nn::make_leaf(nn::Tensor({3}, {1.0f, 1.05f, 0.9f}), true);
  std::vector<nn::Var> above = {
      nn::make_leaf(nn::Tensor({3}, {0.5f, 0.7f, 0.8f}), true),
      nn::make_leaf(nn::Tensor({3}, {0.2f, 0.3f, 0.5f}), true)};
  const Rect outline{0, 0, 2, 2};
  // Only the tier-state gradients are exact; the positional gradients use
  // the Eq. (6)-style subgradient (c_norm and the bin window are treated as
  // constants).
  testing::check_gradients(
      [&] { return overlap_loss(nl, x, y, above, outline, 4, 4, 0.01); },
      above);

  const nn::Tensor power({3}, {0.2f, 0.5f, 0.3f});
  testing::check_gradients(
      [&] {
        return thermal_density_loss(nl, x, y, above, power, outline, 4, 4);
      },
      above);
}

// ---------------------------------------------------------------------------
// K-way FM invariants.

TEST(TiersFm, KWayRefineBalancedCutNonIncreasingFixedUnmoved) {
  const Netlist nl = tiny_design(400, 3);
  PlacementParams params;
  for (int k : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << "K=" << k);
    const Placement3D pl = place_pseudo3d(nl, params, 3, true, k);
    FmConfig cfg;
    std::vector<int> tiers = seed_tiers_checkerboard(nl, pl, cfg.bins, k);
    ASSERT_EQ(tiers.size(), nl.num_cells());
    const std::vector<int> seeded = tiers;
    const std::size_t cut_before = cut_size(nl, tiers);

    fm_refine(nl, tiers, cfg, k);
    const std::size_t cut_after = cut_size(nl, tiers);
    EXPECT_LE(cut_after, cut_before);

    // Area balance over movable cells: every tier within 1/K +- balance_tol
    // of the movable total (the documented FmConfig contract).
    std::vector<double> area(static_cast<std::size_t>(k), 0.0);
    double total = 0.0;
    for (std::size_t ci = 0; ci < nl.num_cells(); ++ci) {
      const auto id = static_cast<CellId>(ci);
      ASSERT_GE(tiers[ci], 0);
      ASSERT_LT(tiers[ci], k);
      if (!nl.is_movable(id)) {
        EXPECT_EQ(tiers[ci], seeded[ci]) << "fixed cell " << ci << " moved";
        continue;
      }
      area[static_cast<std::size_t>(tiers[ci])] += nl.cell_area(id);
      total += nl.cell_area(id);
    }
    const double target = total / k;
    const double slack = cfg.balance_tol * total;
    for (int t = 0; t < k; ++t) {
      EXPECT_LE(area[static_cast<std::size_t>(t)], target + slack) << "tier " << t;
      EXPECT_GE(area[static_cast<std::size_t>(t)], target - slack) << "tier " << t;
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpoint compatibility.

Predictor untrained_predictor(std::uint64_t seed) {
  Predictor pred;
  Rng rng(seed);
  pred.model = std::make_shared<nn::SiameseUNet>(nn::UNetConfig{}, rng);
  pred.label_scale = 2.5f;
  pred.feature_scale = nn::Tensor({7});
  for (int i = 0; i < 7; ++i)
    pred.feature_scale[i] = 1.0f + 0.25f * static_cast<float>(i);
  return pred;
}

nn::Var random_features(Rng& rng) {
  nn::Tensor f({1, 7, 16, 16});
  for (std::int64_t i = 0; i < f.numel(); ++i)
    f[i] = static_cast<float>(rng.uniform(0.0, 2.0));
  return nn::make_leaf(std::move(f));
}

TEST(TiersCheckpoint, RoundTripPreservesForwardNAtThreeTiers) {
  const Predictor pred = untrained_predictor(123);
  const std::string path =
      ::testing::TempDir() + "/tiers_ckpt_roundtrip.dcomodel";
  save_predictor_file(path, pred, nn::UNetConfig{});
  const Predictor loaded = load_predictor_file(path);
  std::remove(path.c_str());

  Rng rng(7);
  const std::vector<nn::Var> feats = {random_features(rng),
                                      random_features(rng),
                                      random_features(rng)};
  const std::vector<nn::Var> before = pred.model->forward_n(feats);
  const std::vector<nn::Var> after = loaded.model->forward_n(feats);
  ASSERT_EQ(before.size(), 3u);
  ASSERT_EQ(after.size(), 3u);
  EXPECT_EQ(loaded.label_scale, pred.label_scale);
  for (int i = 0; i < 7; ++i)
    EXPECT_EQ(loaded.feature_scale[i], pred.feature_scale[i]);
  for (std::size_t t = 0; t < 3; ++t) {
    ASSERT_EQ(before[t]->value.numel(), after[t]->value.numel());
    for (std::int64_t i = 0; i < before[t]->value.numel(); ++i)
      ASSERT_EQ(before[t]->value[i], after[t]->value[i])
          << "tier " << t << " element " << i;
  }
}

TEST(TiersCheckpoint, ForwardNTwoTiersMatchesLegacyForward) {
  // K = 2 checkpoints must behave identically through the N-way entry point:
  // forward_n([top, bot]) delegates to the classic Siamese forward().
  const Predictor pred = untrained_predictor(321);
  Rng rng(11);
  const nn::Var f_bot = random_features(rng);
  const nn::Var f_top = random_features(rng);
  const auto [top, bot] = pred.model->forward(f_top, f_bot);
  const std::vector<nn::Var> n = pred.model->forward_n({f_bot, f_top});
  ASSERT_EQ(n.size(), 2u);
  for (std::int64_t i = 0; i < top->value.numel(); ++i) {
    ASSERT_EQ(n[0]->value[i], bot->value[i]) << i;
    ASSERT_EQ(n[1]->value[i], top->value[i]) << i;
  }
}

}  // namespace
}  // namespace dco3d
