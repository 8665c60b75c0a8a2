// Autograd engine and elementwise/matrix op tests, including numerical
// gradient checks of every op in nn/ops.hpp.

#include <gtest/gtest.h>

#include "nn/autograd.hpp"
#include "nn/ops.hpp"
#include "test_helpers.hpp"

namespace dco3d {
namespace {

using testing::check_gradients;
using testing::random_leaf;
using testing::scalarize;

TEST(Tensor, ShapeAndIndexing) {
  nn::Tensor t({2, 3}, 1.5f);
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(0), 2);
  t.at(1, 2) = 7.0f;
  EXPECT_FLOAT_EQ(t[5], 7.0f);
  nn::Tensor r = t.reshaped({3, 2});
  EXPECT_FLOAT_EQ(r.at(2, 1), 7.0f);
}

TEST(Tensor, NchwIndexing) {
  nn::Tensor t({2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 9.0f;
  EXPECT_FLOAT_EQ(t[t.numel() - 1], 9.0f);
}

TEST(Autograd, BackwardSimpleChain) {
  // y = (2x)^2, dy/dx = 8x at x=3 -> 24.
  nn::Var x = nn::make_leaf(nn::Tensor::scalar(3.0f), true);
  nn::Var y = nn::square(nn::mul_scalar(x, 2.0f));
  nn::backward(y);
  EXPECT_FLOAT_EQ(x->grad[0], 24.0f);
}

TEST(Autograd, GradAccumulatesAcrossBackwards) {
  nn::Var x = nn::make_leaf(nn::Tensor::scalar(1.0f), true);
  nn::Var y1 = nn::mul_scalar(x, 3.0f);
  nn::backward(y1);
  nn::Var y2 = nn::mul_scalar(x, 4.0f);
  nn::backward(y2);
  EXPECT_FLOAT_EQ(x->grad[0], 7.0f);
}

TEST(Autograd, ZeroGradResets) {
  nn::Var x = nn::make_leaf(nn::Tensor::scalar(1.0f), true);
  nn::backward(nn::square(x));
  nn::zero_grad({x});
  EXPECT_FLOAT_EQ(x->grad[0], 0.0f);
}

TEST(Autograd, DetachCutsGraph) {
  nn::Var x = nn::make_leaf(nn::Tensor::scalar(2.0f), true);
  nn::Var d = nn::detach(nn::square(x));
  EXPECT_FALSE(d->requires_grad);
  EXPECT_FLOAT_EQ(d->value[0], 4.0f);
}

TEST(Autograd, DiamondGraphGradient) {
  // y = x*x + x  (x used twice through different paths)
  nn::Var x = nn::make_leaf(nn::Tensor::scalar(3.0f), true);
  nn::Var y = nn::add(nn::mul(x, x), x);
  nn::backward(y);
  EXPECT_FLOAT_EQ(x->grad[0], 7.0f);  // 2x + 1
}

TEST(Autograd, NoGradForConstLeaves) {
  nn::Var x = nn::make_leaf(nn::Tensor::scalar(1.0f), false);
  nn::Var y = nn::square(x);
  EXPECT_FALSE(y->requires_grad);
  nn::backward(nn::sum(y));  // should be a no-op, not crash
}

// ---- parameterized numerical gradient checks over the unary ops ----

using UnaryOp = nn::Var (*)(const nn::Var&);
struct NamedUnary {
  const char* name;
  UnaryOp op;
  double scale;  // input magnitude
};

// Without this, gtest prints the raw bytes of the struct, which include
// pointers, so the listed test names change from run to run under ASLR.
void PrintTo(const NamedUnary& u, std::ostream* os) { *os << u.name; }

class UnaryGradTest : public ::testing::TestWithParam<NamedUnary> {};

TEST_P(UnaryGradTest, MatchesNumericalGradient) {
  Rng rng(77);
  nn::Var x = random_leaf({3, 4}, rng, GetParam().scale);
  // Keep inputs away from non-differentiable kinks.
  for (std::int64_t i = 0; i < x->value.numel(); ++i)
    if (std::abs(x->value[i]) < 0.05f) x->value[i] = 0.25f;
  std::vector<float> w;
  Rng wrng(5);
  auto forward = [&]() { return scalarize(GetParam().op(x), wrng, &w); };
  // Re-seed weight rng each call for identical scalarization.
  auto stable_forward = [&]() {
    Rng local(5);
    nn::Tensor wt(x->value.shape());
    for (std::int64_t i = 0; i < wt.numel(); ++i)
      wt[i] = static_cast<float>(local.uniform(-1.0, 1.0));
    return nn::sum(nn::mul(GetParam().op(x), nn::make_leaf(wt)));
  };
  (void)forward;
  check_gradients(stable_forward, {x});
}

nn::Var relu_w(const nn::Var& v) { return nn::relu(v); }
nn::Var lrelu_w(const nn::Var& v) { return nn::leaky_relu(v, 0.1f); }
nn::Var sig_w(const nn::Var& v) { return nn::sigmoid(v); }
nn::Var tanh_w(const nn::Var& v) { return nn::tanh_op(v); }
nn::Var sq_w(const nn::Var& v) { return nn::square(v); }
nn::Var abs_w(const nn::Var& v) { return nn::abs_op(v); }
nn::Var sqrt_w(const nn::Var& v) { return nn::sqrt_op(nn::add_scalar(nn::square(v), 0.5f)); }
nn::Var adds_w(const nn::Var& v) { return nn::add_scalar(v, 1.7f); }
nn::Var muls_w(const nn::Var& v) { return nn::mul_scalar(v, -2.3f); }

INSTANTIATE_TEST_SUITE_P(
    AllUnaryOps, UnaryGradTest,
    ::testing::Values(NamedUnary{"relu", relu_w, 1.0},
                      NamedUnary{"leaky_relu", lrelu_w, 1.0},
                      NamedUnary{"sigmoid", sig_w, 1.0},
                      NamedUnary{"tanh", tanh_w, 1.0},
                      NamedUnary{"square", sq_w, 1.0},
                      NamedUnary{"abs", abs_w, 1.0},
                      NamedUnary{"sqrt_shifted", sqrt_w, 1.0},
                      NamedUnary{"add_scalar", adds_w, 1.0},
                      NamedUnary{"mul_scalar", muls_w, 1.0}),
    [](const ::testing::TestParamInfo<NamedUnary>& info) {
      return info.param.name;
    });

TEST(OpsGrad, BinaryOps) {
  Rng rng(13);
  nn::Var a = random_leaf({2, 3}, rng);
  nn::Var b = random_leaf({2, 3}, rng);
  // Keep divisor away from zero.
  for (std::int64_t i = 0; i < b->value.numel(); ++i)
    b->value[i] = b->value[i] > 0 ? b->value[i] + 0.5f : b->value[i] - 0.5f;

  for (int which = 0; which < 4; ++which) {
    auto forward = [&]() {
      nn::Var r;
      switch (which) {
        case 0: r = nn::add(a, b); break;
        case 1: r = nn::sub(a, b); break;
        case 2: r = nn::mul(a, b); break;
        default: r = nn::div(a, b); break;
      }
      Rng local(9);
      nn::Tensor wt(r->value.shape());
      for (std::int64_t i = 0; i < wt.numel(); ++i)
        wt[i] = static_cast<float>(local.uniform(-1.0, 1.0));
      return nn::sum(nn::mul(r, nn::make_leaf(wt)));
    };
    check_gradients(forward, {a, b});
  }
}

TEST(OpsGrad, MatmulAndBias) {
  Rng rng(21);
  nn::Var a = random_leaf({3, 4}, rng);
  nn::Var b = random_leaf({4, 2}, rng);
  nn::Var bias = random_leaf({2}, rng);
  auto forward = [&]() {
    nn::Var m = nn::add_rowwise(nn::matmul(a, b), bias);
    Rng local(9);
    nn::Tensor wt(m->value.shape());
    for (std::int64_t i = 0; i < wt.numel(); ++i)
      wt[i] = static_cast<float>(local.uniform(-1.0, 1.0));
    return nn::sum(nn::mul(m, nn::make_leaf(wt)));
  };
  check_gradients(forward, {a, b, bias});
}

TEST(OpsGrad, Reductions) {
  Rng rng(31);
  nn::Var a = random_leaf({2, 5}, rng);
  check_gradients([&]() { return nn::sum(a); }, {a});
  check_gradients([&]() { return nn::mean_op(a); }, {a});
}

TEST(OpsGrad, Losses) {
  Rng rng(41);
  nn::Var p = random_leaf({2, 3}, rng);
  nn::Var t = random_leaf({2, 3}, rng);
  check_gradients([&]() { return nn::mse_loss(p, t); }, {p, t});
  check_gradients([&]() { return nn::rmse_loss(p, t); }, {p, t}, 1e-3, 8e-2, 1e-3);
}

TEST(OpsGrad, ShapeOps) {
  Rng rng(51);
  nn::Var a = random_leaf({1, 2, 4, 4}, rng);
  nn::Var b = random_leaf({1, 3, 4, 4}, rng);
  auto forward = [&]() {
    nn::Var c = nn::concat_channels(a, b);
    nn::Var s = nn::slice_channels(c, 1, 4);
    nn::Var r = nn::reshape(s, {3, 16});
    nn::Var col = nn::select_column(r, 7);
    return nn::sum(nn::square(col));
  };
  check_gradients(forward, {a, b});
}

TEST(Ops, MatmulKnownValues) {
  nn::Var a = nn::make_leaf(nn::Tensor({2, 2}, {1, 2, 3, 4}));
  nn::Var b = nn::make_leaf(nn::Tensor({2, 2}, {5, 6, 7, 8}));
  nn::Var c = nn::matmul(a, b);
  EXPECT_FLOAT_EQ(c->value.at(0, 0), 19.0f);
  EXPECT_FLOAT_EQ(c->value.at(0, 1), 22.0f);
  EXPECT_FLOAT_EQ(c->value.at(1, 0), 43.0f);
  EXPECT_FLOAT_EQ(c->value.at(1, 1), 50.0f);
}

TEST(Ops, ConcatSliceRoundtrip) {
  nn::Var a = nn::make_leaf(nn::Tensor({1, 2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8}));
  nn::Var b = nn::make_leaf(nn::Tensor({1, 1, 2, 2}, {9, 10, 11, 12}));
  nn::Var c = nn::concat_channels(a, b);
  ASSERT_EQ(c->value.dim(1), 3);
  nn::Var back = nn::slice_channels(c, 0, 2);
  for (std::int64_t i = 0; i < 8; ++i)
    EXPECT_FLOAT_EQ(back->value[i], a->value[i]);
  nn::Var tail = nn::slice_channels(c, 2, 3);
  for (std::int64_t i = 0; i < 4; ++i)
    EXPECT_FLOAT_EQ(tail->value[i], b->value[i]);
}

TEST(Ops, Clamp01GradZeroOutside) {
  nn::Var x = nn::make_leaf(nn::Tensor({3}, {-0.5f, 0.5f, 1.5f}), true);
  nn::Var y = nn::sum(nn::clamp01_op(x));
  nn::backward(y);
  EXPECT_FLOAT_EQ(x->grad[0], 0.0f);
  EXPECT_FLOAT_EQ(x->grad[1], 1.0f);
  EXPECT_FLOAT_EQ(x->grad[2], 0.0f);
}

}  // namespace
}  // namespace dco3d
