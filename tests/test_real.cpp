// Tests for the raptor::Real operator front-end in op-mode: arithmetic
// equivalence with plain doubles when untruncated, truncation semantics when
// scoped, counting, and the C API op shims.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <vector>

#include "runtime/runtime.hpp"
#include "trunc/capi.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"
#include "trunc/span_ops.hpp"

namespace raptor {
namespace {

class RealTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::Runtime::instance().reset_all(); }
  void TearDown() override { rt::Runtime::instance().reset_all(); }
  rt::Runtime& R = rt::Runtime::instance();
};

TEST_F(RealTest, UntruncatedArithmeticMatchesDouble) {
  const Real a = 1.7, b = -2.25;
  EXPECT_DOUBLE_EQ((a + b).value(), 1.7 + -2.25);
  EXPECT_DOUBLE_EQ((a - b).value(), 1.7 - -2.25);
  EXPECT_DOUBLE_EQ((a * b).value(), 1.7 * -2.25);
  EXPECT_DOUBLE_EQ((a / b).value(), 1.7 / -2.25);
  EXPECT_DOUBLE_EQ((-a).value(), -1.7);
  EXPECT_DOUBLE_EQ(sqrt(Real(2.0)).value(), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(exp(Real(1.5)).value(), std::exp(1.5));
  EXPECT_DOUBLE_EQ(fma(a, b, Real(1.0)).value(), std::fma(1.7, -2.25, 1.0));
}

TEST_F(RealTest, CompoundAssignmentChains) {
  Real x = 1.0;
  x += 2.0;
  x *= 3.0;
  x -= 1.0;
  x /= 4.0;
  EXPECT_DOUBLE_EQ(x.value(), 2.0);
}

TEST_F(RealTest, ComparisonsFollowTruncatedValues) {
  TruncScope scope(5, 2);  // very coarse
  const Real a = Real(1.0) + Real(0.01);  // rounds back to 1.0 at 2-bit mantissa
  EXPECT_TRUE(a == Real(1.0));
  EXPECT_FALSE(a > Real(1.0));
}

TEST_F(RealTest, MinMaxAbsHelpers) {
  EXPECT_DOUBLE_EQ(fabs(Real(-2.5)).value(), 2.5);
  EXPECT_DOUBLE_EQ(fabs(Real(2.5)).value(), 2.5);
  EXPECT_DOUBLE_EQ(fmin(Real(1.0), Real(2.0)).value(), 1.0);
  EXPECT_DOUBLE_EQ(fmax(Real(1.0), Real(2.0)).value(), 2.0);
}

TEST_F(RealTest, BatchVecMathMatchesRealLaneByLane) {
  // batch::Vec's sqrt/fabs/fmin/fmax mirror Real's free functions lane by
  // lane: the same results bitwise and the same op counts — fabs is a Neg
  // only on negative lanes (not -0, not NaN); fmin/fmax are selections with
  // Real's NaN rule (a NaN first operand yields the second).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> xa = {1.5, -2.25, 0.0, -0.0, nan, 3.0, -1e-3, 7.0, nan, -4.0};
  const std::vector<double> xb = {-1.0, -2.5, -0.0, 0.0, 2.0, nan, -1e-3, 0.5, nan, 9.0};
  const batch::Vec va = batch::Vec::gather(xa.size(), [&](std::size_t i) { return xa[i]; });
  const batch::Vec vb = batch::Vec::gather(xb.size(), [&](std::size_t i) { return xb[i]; });
  const auto bits = [](double d) { return std::bit_cast<u64>(d); };
  TruncScope sc(8, 12);
  for (int fn = 0; fn < 4; ++fn) {
    SCOPED_TRACE(fn);
    R.reset_counters();
    std::vector<double> want;
    for (std::size_t i = 0; i < xa.size(); ++i) {
      const Real a = xa[i], b = xb[i];
      const Real r = fn == 0 ? sqrt(a) : fn == 1 ? fabs(a) : fn == 2 ? fmin(a, b) : fmax(a, b);
      want.push_back(r.raw());
    }
    const rt::CounterSnapshot scalar = R.counters();
    R.reset_counters();
    const batch::Vec got = fn == 0   ? sqrt(va)
                           : fn == 1 ? fabs(va)
                           : fn == 2 ? fmin(va, vb)
                                     : fmax(va, vb);
    const rt::CounterSnapshot batched = R.counters();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(bits(got[i]), bits(want[i])) << i;
    EXPECT_EQ(scalar.trunc_by_kind, batched.trunc_by_kind);
    EXPECT_EQ(scalar.full_by_kind, batched.full_by_kind);
  }
  // fabs negated exactly the three negative lanes.
  R.reset_counters();
  (void)fabs(va);
  EXPECT_EQ(R.counters().trunc_by_kind[static_cast<int>(rt::OpKind::Neg)], 3u);
}

TEST_F(RealTest, EveryOperationIsCounted) {
  R.reset_counters();
  const Real a = 2.0, b = 3.0;
  const Real c = a * b + a / b - b;  // mul, div, add, sub = 4 ops
  (void)c;
  EXPECT_EQ(R.counters().total_flops(), 4u);
}

TEST_F(RealTest, TruncationAppliesInsideScope) {
  Real r;
  {
    TruncScope scope(8, 4);
    r = Real(1.0) / Real(3.0);
  }
  EXPECT_DOUBLE_EQ(r.value(), sf::quantize(r.value(), sf::Format{8, 4}));
  EXPECT_NE(r.value(), 1.0 / 3.0);
}

TEST_F(RealTest, KernelTemplatedOnScalarTypeAgreesAtFullPrecision) {
  // The substrate pattern: one kernel, two scalar instantiations.
  const auto kernel = [](auto x, auto y) {
    using T = decltype(x);
    T acc = 0.0;
    for (int i = 0; i < 16; ++i) {
      acc += x * y / T(i + 1);
      x = x * T(0.99);
    }
    return acc;
  };
  const double plain = kernel(1.3, 0.7);
  const Real instr = kernel(Real(1.3), Real(0.7));
  EXPECT_DOUBLE_EQ(instr.value(), plain);
}

TEST_F(RealTest, ToDoubleHelperWorksForBothScalars) {
  EXPECT_DOUBLE_EQ(to_double(2.5), 2.5);
  EXPECT_DOUBLE_EQ(to_double(Real(2.5)), 2.5);
}

TEST_F(RealTest, VectorOfRealsBehaves) {
  std::vector<Real> v(10, Real(1.0));
  TruncScope scope(8, 23);
  Real sum = 0.0;
  for (const auto& x : v) sum += x;
  EXPECT_DOUBLE_EQ(sum.value(), 10.0);
}

// ---------------------------------------------------------------------------
// Paper-spelled C API (op shims)
// ---------------------------------------------------------------------------

TEST_F(RealTest, CApiOpShimsTruncate) {
  const double r64 = capi::_raptor_add_f64(1.0, 1e-5, 5, 10, "t.cpp:1:1");
  EXPECT_DOUBLE_EQ(r64, 1.0);  // fp16-ish: 1e-5 vanishes
  const float r32 = capi::_raptor_mul_f32(1.0f / 3.0f, 3.0f, 5, 4, "t.cpp:2:2");
  EXPECT_EQ(static_cast<double>(r32), sf::quantize(r32, sf::Format{5, 4}));
  EXPECT_DOUBLE_EQ(capi::_raptor_sqrt_f64(4.0, 8, 23, nullptr), 2.0);
  EXPECT_DOUBLE_EQ(capi::_raptor_fma_f64(2.0, 3.0, 4.0, 11, 52, nullptr), 10.0);
}

TEST_F(RealTest, CApiCountsAsTruncated) {
  R.reset_counters();
  capi::_raptor_add_f64(1.0, 2.0, 5, 10, nullptr);
  const auto c = R.counters();
  EXPECT_EQ(c.trunc_flops, 1u);
  EXPECT_EQ(c.full_flops, 0u);
}

TEST_F(RealTest, CApiScratchProtocol) {
  void* s = capi::_raptor_alloc_scratch(5, 10);
  ASSERT_NE(s, nullptr);
  capi::_raptor_free_scratch(s);
}

}  // namespace
}  // namespace raptor
