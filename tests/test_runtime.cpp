// Runtime tests: truncation spec parsing, scoping, op-mode dispatch,
// counters, exclusions, allocation strategies, OpenMP thread safety, and
// batch/scalar dispatch parity (DESIGN.md §8).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "runtime/runtime.hpp"
#include "trunc/capi.hpp"
#include "trunc/scope.hpp"

namespace raptor::rt {
namespace {

class RuntimeTest : public ::testing::Test {
 protected:
  void SetUp() override { Runtime::instance().reset_all(); }
  void TearDown() override { Runtime::instance().reset_all(); }
  Runtime& R = Runtime::instance();
};

// ---------------------------------------------------------------------------
// TruncationSpec parsing
// ---------------------------------------------------------------------------

TEST(TruncationSpec, ParsesPaperExampleFlag) {
  const auto spec = TruncationSpec::parse("64_to_5_14;32_to_3_8");
  ASSERT_TRUE(spec.for64.has_value());
  EXPECT_EQ(spec.for64->exp_bits, 5);
  EXPECT_EQ(spec.for64->man_bits, 14);
  ASSERT_TRUE(spec.for32.has_value());
  EXPECT_EQ(spec.for32->exp_bits, 3);
  EXPECT_EQ(spec.for32->man_bits, 8);
  EXPECT_FALSE(spec.for16.has_value());
}

TEST(TruncationSpec, RoundTripsThroughToString) {
  const auto spec = TruncationSpec::parse("64_to_11_42");
  EXPECT_EQ(spec.to_string(), "64_to_11_42");
  EXPECT_EQ(TruncationSpec::parse(spec.to_string()), spec);
}

TEST(TruncationSpec, RejectsMalformedInput) {
  EXPECT_THROW(TruncationSpec::parse("64to_5_14"), ConfigError);
  EXPECT_THROW(TruncationSpec::parse("64_to_5"), ConfigError);
  EXPECT_THROW(TruncationSpec::parse("48_to_5_14"), ConfigError);
  EXPECT_THROW(TruncationSpec::parse("64_to_25_14"), ConfigError);   // exp too wide
  EXPECT_THROW(TruncationSpec::parse("64_to_5_63"), ConfigError);    // man too wide
  EXPECT_THROW(TruncationSpec::parse("64_to_x_14"), ConfigError);
}

TEST(TruncationSpec, EmptySpecIsEmpty) {
  EXPECT_TRUE(TruncationSpec{}.empty());
  EXPECT_TRUE(TruncationSpec::parse("").empty());
  EXPECT_FALSE(TruncationSpec::trunc64(5, 10).empty());
}

// ---------------------------------------------------------------------------
// Dispatch and scoping
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, NoScopeMeansNativeExecution) {
  const double a = 1.0, b = 3.0;
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, a, b, 64), a / b);
  const auto c = R.counters();
  EXPECT_EQ(c.full_flops, 1u);
  EXPECT_EQ(c.trunc_flops, 0u);
}

TEST_F(RuntimeTest, ScopedTruncationQuantizesResults) {
  // 1/3 in 4-bit mantissa differs from 1/3 in double far beyond 1e-3.
  double truncated;
  {
    TruncScope scope(8, 4);
    truncated = R.op2(OpKind::Div, 1.0, 3.0, 64);
  }
  const double exact = 1.0 / 3.0;
  EXPECT_NE(truncated, exact);
  EXPECT_NEAR(truncated, exact, std::ldexp(1.0, -4));
  EXPECT_DOUBLE_EQ(truncated, sf::quantize(truncated, sf::Format{8, 4}));
  // Outside the scope: native again.
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), exact);
}

TEST_F(RuntimeTest, TruncationErrorShrinksWithMantissa) {
  const double exact = 1.0 / 3.0;
  double prev = HUGE_VAL;
  for (int m : {2, 6, 12, 20, 30, 44, 52}) {
    TruncScope scope(11, m);
    const double err = std::fabs(R.op2(OpKind::Div, 1.0, 3.0, 64) - exact);
    EXPECT_LE(err, prev) << m;
    prev = err;
  }
}

TEST_F(RuntimeTest, GlobalTruncateAllAppliesEverywhere) {
  R.set_truncate_all(TruncationSpec::parse("64_to_5_10"));
  const double r = R.op2(OpKind::Add, 1.0, 1e-5, 64);
  EXPECT_DOUBLE_EQ(r, 1.0);  // 1e-5 below fp16 ulp of 1.0
  EXPECT_EQ(R.counters().trunc_flops, 1u);
  R.clear_truncate_all();
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Add, 1.0, 1e-5, 64), 1.0 + 1e-5);
}

TEST_F(RuntimeTest, InnermostScopeWins) {
  TruncScope outer(5, 4);
  {
    TruncScope inner(11, 52);  // fp64: no visible rounding
    EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  }
  EXPECT_NE(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
}

TEST_F(RuntimeTest, DisabledScopeSuppressesOuterTruncation) {
  // The dynamic-truncation pattern used for AMR level cutoffs: an inner
  // scope with enabled=false turns truncation OFF even under an active one.
  TruncScope outer(5, 4);
  EXPECT_TRUE(R.truncation_active(64));
  {
    TruncScope inner(rt::TruncationSpec::trunc64(5, 4), /*enabled=*/false);
    EXPECT_FALSE(R.truncation_active(64));
    EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  }
  EXPECT_TRUE(R.truncation_active(64));
}

TEST_F(RuntimeTest, WidthSelectsSpecSlot) {
  R.set_truncate_all(TruncationSpec::parse("32_to_5_4"));
  // 64-bit ops untouched; 32-bit ops truncated.
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  EXPECT_NE(R.op2(OpKind::Div, 1.0, 3.0, 32), 1.0 / 3.0);
}

TEST_F(RuntimeTest, UnaryAndTernaryOpsDispatch) {
  TruncScope scope(11, 52);
  EXPECT_DOUBLE_EQ(R.op1(OpKind::Sqrt, 2.0, 64), std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(R.op1(OpKind::Neg, 3.5, 64), -3.5);
  EXPECT_DOUBLE_EQ(R.op3(OpKind::Fma, 2.0, 3.0, 4.0, 64), 10.0);
  EXPECT_NEAR(R.op1(OpKind::Exp, 1.0, 64), M_E, 1e-15);
  EXPECT_NEAR(R.op2(OpKind::Pow, 2.0, 0.5, 64), std::sqrt(2.0), 1e-15);
}

// ---------------------------------------------------------------------------
// Region labels and exclusion (Table 2 machinery)
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, ExcludedRegionRunsAtFullPrecision) {
  R.exclude_region("hydro/recon");
  TruncScope scope(8, 4);
  {
    Region region("hydro/recon");
    EXPECT_FALSE(R.truncation_active(64));
    EXPECT_DOUBLE_EQ(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  }
  {
    Region region("hydro/riemann");
    EXPECT_TRUE(R.truncation_active(64));
    EXPECT_NE(R.op2(OpKind::Div, 1.0, 3.0, 64), 1.0 / 3.0);
  }
}

TEST_F(RuntimeTest, NestedRegionInheritsExclusion) {
  R.exclude_region("outer");
  TruncScope scope(8, 4);
  Region a("outer");
  Region b("inner");
  EXPECT_FALSE(R.truncation_active(64));
}

TEST_F(RuntimeTest, CurrentRegionTracksInnermost) {
  EXPECT_STREQ(R.current_region(), "<toplevel>");
  Region a("alpha");
  EXPECT_STREQ(R.current_region(), "alpha");
  {
    Region b("beta");
    EXPECT_STREQ(R.current_region(), "beta");
  }
  EXPECT_STREQ(R.current_region(), "alpha");
}

// ---------------------------------------------------------------------------
// Region identity: one slot per (thread, label text)
// ---------------------------------------------------------------------------

const RegionProfileEntry* find_row(const std::vector<RegionProfileEntry>& rows,
                                   const std::string& label) {
  const RegionProfileEntry* found = nullptr;
  for (const auto& e : rows) {
    if (e.label != label) continue;
    EXPECT_EQ(found, nullptr) << "two profile rows for " << label;
    found = &e;
  }
  return found;
}

TEST_F(RuntimeTest, SameLabelTextFromTwoBuffersIsOneRegion) {
  const std::string a = "dup/label";
  const std::vector<char> b(a.c_str(), a.c_str() + a.size() + 1);
  ASSERT_NE(static_cast<const void*>(a.c_str()), static_cast<const void*>(b.data()));
  R.set_region_profiling(true);
  R.exclude_region("dup/label");
  TruncScope scope(8, 4);
  for (const char* label : {a.c_str(), b.data()}) {
    Region r(label);
    EXPECT_FALSE(R.truncation_active(64)) << "exclusion missed for one buffer";
    (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  const auto rows = R.region_profiles();
  const RegionProfileEntry* row = find_row(rows, "dup/label");
  ASSERT_NE(row, nullptr);
  EXPECT_EQ(row->profile.counters.full_flops, 2u);
  EXPECT_EQ(row->profile.counters.trunc_flops, 0u);
}

TEST_F(RuntimeTest, ReusedLabelBufferDoesNotInheritTheOldSlot) {
  // One buffer, two labels in turn (grid-owned label strings recycle their
  // addresses the same way): the second entry must resolve its own
  // exclusion, override and profile.
  char buf[32];
  R.set_region_profiling(true);
  R.exclude_region("first");
  R.set_region_format("second", TruncationSpec::trunc64(8, 6));
  std::strcpy(buf, "first");
  {
    Region r(buf);
    EXPECT_FALSE(R.truncation_active(64));
    (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  std::strcpy(buf, "second");
  {
    Region r(buf);
    EXPECT_STREQ(R.current_region(), "second");
    EXPECT_EQ(R.active_format(64), (sf::Format{8, 6}));
    (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  const auto rows = R.region_profiles();
  const RegionProfileEntry* first = find_row(rows, "first");
  const RegionProfileEntry* second = find_row(rows, "second");
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(first->profile.counters.full_flops, 1u);
  EXPECT_EQ(second->profile.counters.trunc_flops, 1u);
  EXPECT_EQ(second->profile.counters.full_flops, 0u);
}

TEST_F(RuntimeTest, FreedLabelStringsAreNeverReadBack) {
  // Each label dies with its region; the rows must still carry the text.
  // A slot that kept the caller's pointer would read freed memory here
  // (the ASan job runs this suite).
  R.set_region_profiling(true);
  for (int level = 1; level <= 3; ++level) {
    const auto label =
        std::make_unique<std::string>("amr/L" + std::to_string(level) + "/a-label-past-sso-size");
    Region r(label->c_str());
    for (int i = 0; i < level; ++i) (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  const auto rows = R.region_profiles();
  for (int level = 1; level <= 3; ++level) {
    const RegionProfileEntry* row =
        find_row(rows, "amr/L" + std::to_string(level) + "/a-label-past-sso-size");
    ASSERT_NE(row, nullptr);
    EXPECT_EQ(row->profile.counters.full_flops, static_cast<u64>(level));
  }
}

TEST_F(RuntimeTest, ResetRegionProfilesInsideAnOpenRegion) {
  R.set_region_profiling(true);
  {
    Region r("open");
    (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
    (void)R.op2(OpKind::Add, 1.0, 2.0, 64);
    R.reset_region_profiles();
    (void)R.op2(OpKind::Mul, 1.0, 2.0, 64);
  }
  const auto rows = R.region_profiles();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].label, "open");
  EXPECT_EQ(rows[0].profile.counters.full_flops, 1u);
  EXPECT_EQ(rows[0].profile.seconds, 0.0);  // the interval open at the reset was discarded
}

TEST_F(RuntimeTest, ClearExclusionsRestoresTruncation) {
  R.exclude_region("x");
  R.clear_exclusions();
  TruncScope scope(8, 4);
  Region region("x");
  EXPECT_TRUE(R.truncation_active(64));
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, CountersSeparateTruncatedAndFull) {
  for (int i = 0; i < 10; ++i) R.op2(OpKind::Add, 1.0, 2.0, 64);
  {
    TruncScope scope(5, 10);
    for (int i = 0; i < 30; ++i) R.op2(OpKind::Mul, 1.5, 2.0, 64);
  }
  const auto c = R.counters();
  EXPECT_EQ(c.full_flops, 10u);
  EXPECT_EQ(c.trunc_flops, 30u);
  EXPECT_NEAR(c.trunc_fraction(), 0.75, 1e-12);
  EXPECT_EQ(c.full_by_kind[static_cast<int>(OpKind::Add)], 10u);
  EXPECT_EQ(c.trunc_by_kind[static_cast<int>(OpKind::Mul)], 30u);
}

TEST_F(RuntimeTest, MemTrafficCounters) {
  R.count_mem(64);
  {
    TruncScope scope(5, 10);
    R.count_mem(128);
  }
  const auto c = R.counters();
  EXPECT_EQ(c.full_bytes, 64u);
  EXPECT_EQ(c.trunc_bytes, 128u);
}

TEST_F(RuntimeTest, CountingCanBeDisabled) {
  R.set_counting(false);
  R.op2(OpKind::Add, 1.0, 2.0, 64);
  {
    TruncScope scope(5, 10);
    R.op2(OpKind::Add, 1.0, 2.0, 64);
  }
  const auto c = R.counters();
  EXPECT_EQ(c.total_flops(), 0u);
}

TEST_F(RuntimeTest, ResetCountersZeroes) {
  R.op2(OpKind::Add, 1.0, 2.0, 64);
  R.reset_counters();
  EXPECT_EQ(R.counters().total_flops(), 0u);
}

TEST_F(RuntimeTest, CounterMergeFoldsEveryField) {
  // Merge-completeness audit (the per-region aggregation relies on merge):
  // give every field — including the PR-3 per-OpKind histograms — a
  // distinct nonzero value and verify merge round-trips all of them.
  CounterSnapshot a;
  a.trunc_flops = 1;
  a.full_flops = 2;
  a.trunc_bytes = 3;
  a.full_bytes = 4;
  for (int i = 0; i < kNumOpKinds; ++i) {
    a.trunc_by_kind[i] = 100 + static_cast<u64>(i);
    a.full_by_kind[i] = 200 + static_cast<u64>(i);
  }
  CounterSnapshot b = a;

  CounterSnapshot m;
  m.merge(a);
  m.merge(b);
  EXPECT_EQ(m.trunc_flops, 2 * a.trunc_flops);
  EXPECT_EQ(m.full_flops, 2 * a.full_flops);
  EXPECT_EQ(m.trunc_bytes, 2 * a.trunc_bytes);
  EXPECT_EQ(m.full_bytes, 2 * a.full_bytes);
  for (int i = 0; i < kNumOpKinds; ++i) {
    EXPECT_EQ(m.trunc_by_kind[i], 2 * a.trunc_by_kind[i]) << i;
    EXPECT_EQ(m.full_by_kind[i], 2 * a.full_by_kind[i]) << i;
  }

  // RegionProfile::merge folds the counters plus its own fields.
  RegionProfile ra, rb;
  ra.counters = a;
  ra.max_deviation = 0.25;
  ra.flagged = 7;
  rb.counters = b;
  rb.max_deviation = 0.5;
  rb.flagged = 11;
  ra.merge(rb);
  EXPECT_EQ(ra.counters.trunc_flops, 2 * a.trunc_flops);
  EXPECT_EQ(ra.counters.trunc_by_kind[3], 2 * a.trunc_by_kind[3]);
  EXPECT_DOUBLE_EQ(ra.max_deviation, 0.5);
  EXPECT_EQ(ra.flagged, 18u);
}

TEST_F(RuntimeTest, RetiredThreadCountersSurviveInRegionProfiles) {
  // A thread's per-region contribution must fold into the merged view when
  // the thread exits (the retire path uses the merge under audit above).
  R.set_region_profiling(true);
  std::thread worker([] {
    Region region("worker");
    TruncScope scope(8, 10);
    for (int i = 0; i < 5; ++i) Runtime::instance().op2(OpKind::Mul, 1.5, 3.0, 64);
  });
  worker.join();
  const auto profs = R.region_profiles();
  bool found = false;
  for (const auto& e : profs) {
    if (e.label == "worker") {
      found = true;
      EXPECT_EQ(e.profile.counters.trunc_flops, 5u);
      EXPECT_EQ(e.profile.counters.trunc_by_kind[static_cast<int>(OpKind::Mul)], 5u);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Allocation strategies and hardware fast path
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, NaiveAndScratchProduceIdenticalResults) {
  // e11m14 now runs on the fast_* kernels; e11m30 (man_bits > 24) is
  // outside the envelope, so its ops reach BigFloat and exercise the two
  // allocation strategies.
  TruncScope scope(11, 14);
  R.set_alloc_strategy(AllocStrategy::Naive);
  const double naive = R.op2(OpKind::Div, 355.0, 113.0, 64);
  R.set_alloc_strategy(AllocStrategy::Scratch);
  const double scratch = R.op2(OpKind::Div, 355.0, 113.0, 64);
  EXPECT_DOUBLE_EQ(naive, scratch);
  TruncScope wide(11, 30);
  R.set_alloc_strategy(AllocStrategy::Naive);
  const double naive30 = R.op2(OpKind::Div, 355.0, 113.0, 64);
  R.set_alloc_strategy(AllocStrategy::Scratch);
  EXPECT_DOUBLE_EQ(naive30, R.op2(OpKind::Div, 355.0, 113.0, 64));
  EXPECT_DOUBLE_EQ(naive30, sf::trunc_div(355.0, 113.0, sf::Format{11, 30}));
}

TEST_F(RuntimeTest, HwFastpathMatchesEmulationForFp32) {
  TruncScope scope(8, 23);
  R.set_hw_fastpath(false);
  const double emu = R.op2(OpKind::Mul, 1.0 / 3.0, 3.14159, 64);
  R.set_hw_fastpath(true);
  const double hw = R.op2(OpKind::Mul, 1.0 / 3.0, 3.14159, 64);
  EXPECT_DOUBLE_EQ(emu, hw);
}

TEST_F(RuntimeTest, HwFastpathParityAcrossArities) {
  // Regression: op3 had no fp32 hardware fast path — hw_fastpath_ only
  // short-circuited fp64 FMA, so fp32-target FMAs silently fell into
  // BigFloat emulation while op1/op2 ran native. All three arities must
  // agree with emulation (both are correctly rounded) and the fp32 FMA must
  // match the single-rounding native std::fmaf.
  TruncScope scope(8, 23);  // fp32 target
  const double a = 1.0 / 3.0, b = 3.14159, c = -2.5;

  R.set_hw_fastpath(false);
  const double emu1 = R.op1(OpKind::Sqrt, b, 64);
  const double emu2 = R.op2(OpKind::Mul, a, b, 64);
  const double emu3 = R.op3(OpKind::Fma, a, b, c, 64);

  R.set_hw_fastpath(true);
  EXPECT_DOUBLE_EQ(R.op1(OpKind::Sqrt, b, 64), emu1);
  EXPECT_DOUBLE_EQ(R.op2(OpKind::Mul, a, b, 64), emu2);
  EXPECT_DOUBLE_EQ(R.op3(OpKind::Fma, a, b, c, 64), emu3);
  EXPECT_DOUBLE_EQ(
      R.op3(OpKind::Fma, a, b, c, 64),
      static_cast<double>(std::fmaf(static_cast<float>(a), static_cast<float>(b),
                                    static_cast<float>(c))));
  // Fused semantics: a single rounding, not mul-then-add in fp32. Pick
  // operands where the two differ: x*x - y*y with x = 1 + 2^-12 and y = 1.
  const double x = 1.0 + 0x1p-12;
  const double xx = static_cast<double>(static_cast<float>(x) * static_cast<float>(x));
  const double fused = R.op3(OpKind::Fma, x, x, -xx, 64);
  EXPECT_NE(fused, 0.0);  // the round-off a*b - round(a*b), exact under FMA
  EXPECT_DOUBLE_EQ(fused, std::fma(static_cast<float>(x), static_cast<float>(x), -xx));

  // What hw_fastpath changes, kind by kind: fp64/fp32 targets run on
  // hardware/libm instead of BigFloat. The correctly rounded kinds cannot
  // differ; the elementary functions compare libm against the faithful
  // emulator and may differ in the last bits, so they only have to agree
  // to a few format ulps. e8m12 is neither machine format: the flag
  // changes nothing there.
  std::mt19937_64 rng(2024);
  std::uniform_real_distribution<double> pos(0.01, 100.0), sym(-8.0, 8.0);
  for (const sf::Format fmt : {sf::Format{8, 23}, sf::Format{11, 52}, sf::Format{8, 12}}) {
    TruncScope fs(fmt.exp_bits, fmt.man_bits);
    for (const OpKind k : {OpKind::Add, OpKind::Mul, OpKind::Div, OpKind::Sqrt, OpKind::Fma,
                           OpKind::Exp, OpKind::Log, OpKind::Sin, OpKind::Pow}) {
      const bool elementary =
          k == OpKind::Exp || k == OpKind::Log || k == OpKind::Sin || k == OpKind::Pow;
      for (int i = 0; i < 2000; ++i) {
        const double x = k == OpKind::Exp || k == OpKind::Sin ? sym(rng) : pos(rng);
        const double y = k == OpKind::Pow ? sym(rng) : pos(rng);
        const double z = sym(rng);
        const auto run = [&](bool hw) {
          R.set_hw_fastpath(hw);
          if (k == OpKind::Fma) return R.op3(k, x, y, z, 64);
          if (k == OpKind::Sqrt || k == OpKind::Exp || k == OpKind::Log || k == OpKind::Sin) {
            return R.op1(k, x, 64);
          }
          return R.op2(k, x, y, 64);
        };
        const double emu = run(false);
        const double hw = run(true);
        if (!elementary || fmt == sf::Format{8, 12}) {
          ASSERT_EQ(std::bit_cast<u64>(emu), std::bit_cast<u64>(hw))
              << op_name(k) << " " << fmt.to_string() << " x=" << x << " y=" << y << " z=" << z;
        } else {
          ASSERT_LE(std::fabs(emu - hw), std::ldexp(std::fabs(emu), 2 - fmt.man_bits))
              << op_name(k) << " " << fmt.to_string() << " x=" << x << " y=" << y;
        }
      }
    }
  }
}

TEST_F(RuntimeTest, Fp64FastpathFmaMatchesEmulation) {
  TruncScope scope(11, 52);  // fp64 target
  const double a = 1.0 / 3.0, b = 1.0 / 7.0, c = 1e-20;
  R.set_hw_fastpath(false);
  const double emu = R.op3(OpKind::Fma, a, b, c, 64);
  R.set_hw_fastpath(true);
  EXPECT_DOUBLE_EQ(R.op3(OpKind::Fma, a, b, c, 64), emu);
  EXPECT_DOUBLE_EQ(R.op3(OpKind::Fma, a, b, c, 64), std::fma(a, b, c));
}

// ---------------------------------------------------------------------------
// OpenMP thread safety (op-mode)
// ---------------------------------------------------------------------------

#ifdef _OPENMP
TEST_F(RuntimeTest, OpModeIsThreadSafeUnderOpenMP) {
  constexpr int kPerThread = 20000;
  double sum = 0.0;
#pragma omp parallel reduction(+ : sum)
  {
    TruncScope scope(8, 23);
    double local = 0.0;
    for (int i = 0; i < kPerThread; ++i) {
      local = Runtime::instance().op2(OpKind::Add, local, 1.0, 64);
    }
    sum += local;
  }
  int threads = 1;
#pragma omp parallel
  {
#pragma omp single
    threads = omp_get_num_threads();
  }
  EXPECT_DOUBLE_EQ(sum, static_cast<double>(threads) * kPerThread);
  EXPECT_EQ(Runtime::instance().counters().trunc_flops,
            static_cast<u64>(threads) * kPerThread);
}
#endif

// ---------------------------------------------------------------------------
// Batched dispatch: bitwise parity with the scalar op loop (DESIGN.md §8)
// ---------------------------------------------------------------------------

namespace batchtest {

/// Mixed-magnitude operand pool: normals across the format ranges,
/// subnormals, overflow-boundary values, zeros, infinities, NaN.
std::vector<double> operand_pool(std::size_t n, u64 seed) {
  std::mt19937_64 rng(seed);
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (rng() % 8) {
      case 0: v[i] = std::bit_cast<double>(rng()); break;  // arbitrary bits
      case 1: v[i] = 0.0; break;
      case 2: v[i] = std::ldexp(1.0 + static_cast<double>(rng() % 4096) / 4096.0,
                                static_cast<int>(rng() % 40) - 20);
              break;
      case 3: v[i] = -std::ldexp(1.0, -static_cast<int>(rng() % 160)); break;
      case 4: v[i] = HUGE_VAL; break;
      case 5: v[i] = std::nan(""); break;
      case 6: v[i] = std::ldexp(1.0, static_cast<int>(rng() % 40) + 100); break;
      default: v[i] = 1.0 / (1.0 + static_cast<double>(rng() % 1000)); break;
    }
  }
  return v;
}

struct CounterTotals {
  u64 trunc, full;
  std::array<u64, kNumOpKinds> tk, fk;
  friend bool operator==(const CounterTotals&, const CounterTotals&) = default;
};

CounterTotals totals() {
  const auto c = Runtime::instance().counters();
  return {c.trunc_flops, c.full_flops, c.trunc_by_kind, c.full_by_kind};
}

/// Independent BigFloat oracle for the kinds with a fast_* kernel (nullopt
/// for the rest): scalar and batch ops share one executor, so their parity
/// alone would compare the fast kernel with itself.
std::optional<double> oracle(OpKind k, double a, double b, double c, const sf::Format& f) {
  switch (k) {
    case OpKind::Add: return sf::trunc_add(a, b, f);
    case OpKind::Sub: return sf::trunc_sub(a, b, f);
    case OpKind::Mul: return sf::trunc_mul(a, b, f);
    case OpKind::Div: return sf::trunc_div(a, b, f);
    case OpKind::Sqrt: return sf::trunc_sqrt(a, f);
    case OpKind::Fma: return sf::trunc_fma(a, b, c, f);
    default: return std::nullopt;
  }
}

/// Bitwise equality with the oracle. Under hw_fastpath, fp64/fp32 targets
/// run on hardware, whose NaN results need not carry BigFloat's canonical
/// NaN payload.
bool matches_oracle(double got, double want, bool hw, const sf::Format& f) {
  const bool hw_format = hw && (f == sf::Format::fp64() || f == sf::Format::fp32());
  return std::bit_cast<u64>(got) == std::bit_cast<u64>(want) ||
         (hw_format && std::isnan(got) && std::isnan(want));
}

}  // namespace batchtest

TEST_F(RuntimeTest, Op2BatchMatchesScalarLoopBitwise) {
  const auto a = batchtest::operand_pool(1500, 11);
  const auto b = batchtest::operand_pool(1500, 22);
  // Formats covering every batch body: fast_round kernel (e8m12), BigFloat
  // fallback (e12m30), hw fp32 / fp64, and untruncated; Pow exercises the
  // non-arithmetic emulation fallback inside a batch.
  struct Case {
    std::optional<TruncationSpec> spec;
    bool hw;
  };
  const std::vector<Case> cases = {
      {TruncationSpec::trunc64(8, 12), false}, {TruncationSpec::trunc64(12, 30), false},
      {TruncationSpec::trunc64(8, 23), true},  {TruncationSpec::trunc64(11, 52), true},
      {TruncationSpec::trunc64(5, 10), false}, {std::nullopt, false},
  };
  for (const auto& [spec, hw] : cases) {
    for (const OpKind k : {OpKind::Add, OpKind::Sub, OpKind::Mul, OpKind::Div, OpKind::Pow}) {
      R.reset_all();
      R.set_hw_fastpath(hw);
      std::optional<TruncScope> sc;
      if (spec) sc.emplace(*spec);
      std::vector<double> scalar(a.size()), batch(a.size());
      R.reset_counters();
      for (std::size_t i = 0; i < a.size(); ++i) scalar[i] = R.op2(k, a[i], b[i], 64);
      const auto scalar_counts = batchtest::totals();
      R.reset_counters();
      R.op2_batch(k, a.data(), b.data(), batch.data(), a.size(), 64);
      const auto batch_counts = batchtest::totals();
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i]))
            << op_name(k) << " i=" << i << " fmt "
            << (spec ? spec->to_string() : std::string("native")) << " hw=" << hw << " a=0x"
            << std::hex << std::bit_cast<u64>(a[i]) << " b=0x" << std::bit_cast<u64>(b[i]);
        const auto want =
            spec ? batchtest::oracle(k, a[i], b[i], 0.0, *spec->for64) : std::nullopt;
        if (want) {
          ASSERT_TRUE(batchtest::matches_oracle(batch[i], *want, hw, *spec->for64))
              << op_name(k) << " vs BigFloat, i=" << i << " fmt " << spec->to_string()
              << " hw=" << hw << " got=0x" << std::hex << std::bit_cast<u64>(batch[i])
              << " want=0x" << std::bit_cast<u64>(*want);
        }
      }
      EXPECT_EQ(scalar_counts, batch_counts) << op_name(k);
    }
  }
}

TEST_F(RuntimeTest, Op1AndOp3BatchMatchScalarLoops) {
  const auto a = batchtest::operand_pool(1200, 33);
  const auto b = batchtest::operand_pool(1200, 44);
  const auto c = batchtest::operand_pool(1200, 55);
  for (const bool hw : {false, true}) {
    for (const auto& spec : {TruncationSpec::trunc64(8, 12), TruncationSpec::trunc64(8, 23),
                             TruncationSpec::trunc64(12, 30)}) {
      R.reset_all();
      R.set_hw_fastpath(hw);
      TruncScope sc(spec);
      for (const OpKind k : {OpKind::Neg, OpKind::Sqrt, OpKind::Exp}) {
        std::vector<double> scalar(a.size()), batch(a.size());
        for (std::size_t i = 0; i < a.size(); ++i) scalar[i] = R.op1(k, a[i], 64);
        R.op1_batch(k, a.data(), batch.data(), a.size(), 64);
        for (std::size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i]))
              << op_name(k) << " hw=" << hw << " i=" << i << " a=0x" << std::hex
              << std::bit_cast<u64>(a[i]);
          if (const auto want = batchtest::oracle(k, a[i], 0.0, 0.0, *spec.for64)) {
            ASSERT_TRUE(batchtest::matches_oracle(batch[i], *want, hw, *spec.for64))
                << op_name(k) << " vs BigFloat, hw=" << hw << " fmt " << spec.to_string()
                << " i=" << i << " got=0x" << std::hex << std::bit_cast<u64>(batch[i])
                << " want=0x" << std::bit_cast<u64>(*want);
          }
        }
      }
      std::vector<double> scalar(a.size()), batch(a.size());
      R.reset_counters();
      for (std::size_t i = 0; i < a.size(); ++i) {
        scalar[i] = R.op3(OpKind::Fma, a[i], b[i], c[i], 64);
      }
      const auto scalar_counts = batchtest::totals();
      R.reset_counters();
      R.op3_batch(OpKind::Fma, a.data(), b.data(), c.data(), batch.data(), a.size(), 64);
      EXPECT_EQ(scalar_counts, batchtest::totals());
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i]))
            << "fma hw=" << hw << " fmt " << spec.to_string() << " i=" << i << " a=0x"
            << std::hex << std::bit_cast<u64>(a[i]) << " b=0x" << std::bit_cast<u64>(b[i])
            << " c=0x" << std::bit_cast<u64>(c[i]);
        const double want = *batchtest::oracle(OpKind::Fma, a[i], b[i], c[i], *spec.for64);
        ASSERT_TRUE(batchtest::matches_oracle(batch[i], want, hw, *spec.for64))
            << "fma vs BigFloat, hw=" << hw << " fmt " << spec.to_string() << " i=" << i
            << " got=0x" << std::hex << std::bit_cast<u64>(batch[i])
            << " want=0x" << std::bit_cast<u64>(want);
      }
    }
  }
}

TEST_F(RuntimeTest, TruncArrayMatchesQuantizeAndDoesNotCount) {
  const auto a = batchtest::operand_pool(2000, 77);
  for (const auto& fmt : {sf::Format{8, 12}, sf::Format{12, 30}, sf::Format{5, 2}}) {
    R.reset_all();
    TruncScope sc(fmt.exp_bits, fmt.man_bits);
    std::vector<double> out(a.size());
    R.trunc_array(a.data(), out.data(), a.size(), 64);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(std::bit_cast<u64>(out[i]), std::bit_cast<u64>(sf::quantize(a[i], fmt)))
          << fmt.to_string() << " a=0x" << std::hex << std::bit_cast<u64>(a[i]);
    }
  }
  EXPECT_EQ(R.counters().total_flops(), 0u);  // conversion is not a flop
  // In-place and untruncated pass-through.
  R.reset_all();
  std::vector<double> inplace = a;
  R.trunc_array(inplace.data(), inplace.data(), inplace.size(), 64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<u64>(inplace[i]), std::bit_cast<u64>(a[i]));
  }
}

TEST_F(RuntimeTest, BatchHonorsScopeRegionAndEpochChangesBetweenBatches) {
  const std::vector<double> a = {1.0, 1.0 / 3.0, 2.0, 1e-5};
  const std::vector<double> b = {3.0, 3.0, 7.0, 1.0};
  std::vector<double> out(a.size());
  // The effective format is resolved at batch entry, exactly like a scalar
  // op at the same point. A global-config change between batches must be
  // picked up through the epoch-invalidated cache (PR 2 machinery).
  R.set_truncate_all(TruncationSpec::trunc64(8, 4));
  R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<u64>(out[i]),
              std::bit_cast<u64>(sf::trunc_div(a[i], b[i], sf::Format{8, 4})));
  }
  R.set_truncate_all(TruncationSpec::trunc64(11, 30));  // epoch bump
  R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<u64>(out[i]),
              std::bit_cast<u64>(sf::trunc_div(a[i], b[i], sf::Format{11, 30})));
  }
  R.clear_truncate_all();
  R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
  EXPECT_DOUBLE_EQ(out[1], (1.0 / 3.0) / 3.0);
  // Scope + excluded region around a batch behaves like around scalar ops.
  R.exclude_region("batch/excluded");
  TruncScope sc(8, 4);
  {
    Region reg("batch/excluded");
    R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
    EXPECT_DOUBLE_EQ(out[1], (1.0 / 3.0) / 3.0);  // native: exclusion applies
  }
  R.op2_batch(OpKind::Div, a.data(), b.data(), out.data(), a.size(), 64);
  EXPECT_EQ(std::bit_cast<u64>(out[1]),
            std::bit_cast<u64>(sf::trunc_div(1.0 / 3.0, 3.0, sf::Format{8, 4})));
}

TEST_F(RuntimeTest, BatchWidthSelectsSpecSlot) {
  R.set_truncate_all(TruncationSpec::parse("32_to_5_4"));
  const std::vector<double> a = {1.0}, b = {3.0};
  double out64 = 0, out32 = 0;
  R.op2_batch(OpKind::Div, a.data(), b.data(), &out64, 1, 64);
  R.op2_batch(OpKind::Div, a.data(), b.data(), &out32, 1, 32);
  EXPECT_DOUBLE_EQ(out64, 1.0 / 3.0);
  EXPECT_NE(out32, 1.0 / 3.0);
}

TEST_F(RuntimeTest, MemModeTruncArrayBoxesLikePreC) {
  // In mem-mode trunc_array is the array _raptor_pre_c: each element gets a
  // NaN-boxed shadow entry (quantizing the handle bits would destroy it).
  R.set_mode(Mode::Mem);
  TruncScope sc(8, 10);
  const double in[3] = {1.0 / 3.0, 2.0, -1e-4};
  double out[3];
  R.trunc_array(in, out, 3, 64);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(Runtime::is_boxed(out[i])) << i;
    EXPECT_DOUBLE_EQ(R.mem_value(out[i]), sf::quantize(in[i], sf::Format{8, 10})) << i;
    EXPECT_DOUBLE_EQ(R.mem_shadow(out[i]), in[i]) << i;
    R.mem_release(out[i]);
  }
  EXPECT_EQ(R.mem_live(), 0u);
  EXPECT_EQ(R.counters().total_flops(), 0u);
}

TEST_F(RuntimeTest, MemModeBatchFallsBackToScalarSemantics) {
  R.set_mode(Mode::Mem);
  TruncScope sc(8, 10);
  const double a0 = R.mem_make(1.0 / 3.0);
  const double a1 = R.mem_make(2.0);
  const double as[2] = {a0, a1};
  const double bs[2] = {3.14159, 1e-4};
  double out[2];
  R.op2_batch(OpKind::Mul, as, bs, out, 2, 64);
  ASSERT_TRUE(Runtime::is_boxed(out[0]));
  ASSERT_TRUE(Runtime::is_boxed(out[1]));
  const double expect0 = sf::trunc_mul(sf::quantize(1.0 / 3.0, sf::Format{8, 10}), 3.14159,
                                       sf::Format{8, 10});
  EXPECT_DOUBLE_EQ(R.mem_value(out[0]), expect0);
  R.mem_release(out[0]);
  R.mem_release(out[1]);
  R.mem_release(a0);
  R.mem_release(a1);
  EXPECT_EQ(R.mem_live(), 0u);
}

// ---------------------------------------------------------------------------
// Double-rounding regression (DESIGN.md §8)
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, DoubleRoundingWitnessNeverTakesAnFp32Path) {
  // Witness pair for Format{8,12} (p = 13): a = 1, b = 2^-13 + 2^-24 (both
  // exactly representable in the format). The exact sum 1 + 2^-13 + 2^-24
  // is just above the format's rounding midpoint, so a single correct
  // rounding gives 1 + 2^-12. Computing through fp32 hardware first lands
  // exactly on fp32's tie (2^-24 = half its ulp), rounds to even at
  // 1 + 2^-13, and the second rounding then ties down to 1.0 — the classic
  // double-rounding failure of "widen narrow formats onto the fp32 path".
  const double a = 1.0;
  const double b = 0x1p-13 + 0x1p-24;
  const double single = 1.0 + 0x1p-12;
  const double via_fp32 =
      sf::quantize(static_cast<double>(static_cast<float>(a) + static_cast<float>(b)),
                   sf::Format{8, 12});
  ASSERT_EQ(via_fp32, 1.0);  // the hazard is real for this pair
  ASSERT_EQ(sf::trunc_add(a, b, sf::Format{8, 12}), single);

  TruncScope sc(8, 12);
  for (const bool hw : {false, true}) {
    R.set_hw_fastpath(hw);
    EXPECT_EQ(R.op2(OpKind::Add, a, b, 64), single) << "scalar hw=" << hw;
    double out = 0;
    R.op2_batch(OpKind::Add, &a, &b, &out, 1, 64);
    EXPECT_EQ(out, single) << "batch hw=" << hw;
  }
}

// ---------------------------------------------------------------------------
// C batch shims (capi)
// ---------------------------------------------------------------------------

TEST_F(RuntimeTest, CBatchShimsMatchScalarShims) {
  const auto a = batchtest::operand_pool(600, 88);
  const auto b = batchtest::operand_pool(600, 99);
  std::vector<double> scalar(a.size()), batch(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    scalar[i] = capi::_raptor_mul_f64(a[i], b[i], 8, 12, "t.cpp:1:1");
  }
  capi::_raptor_mul_f64_batch(a.data(), b.data(), batch.data(), a.size(), 8, 12, "t.cpp:1:1");
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batch[i])) << i;
  }
  capi::_raptor_trunc_f64_batch(a.data(), batch.data(), a.size(), 5, 7);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(std::bit_cast<u64>(batch[i]),
              std::bit_cast<u64>(sf::quantize(a[i], sf::Format{5, 7})))
        << i;
  }
}

// ---------------------------------------------------------------------------
// trunc_func wrappers (paper Fig. 3 usage)
// ---------------------------------------------------------------------------

double kernel_product(double a, double b) {
  auto& R = Runtime::instance();
  return R.op2(OpKind::Mul, a, b, 64);
}

TEST_F(RuntimeTest, TruncFuncOpWrapsWholeCall) {
  auto f = trunc_func_op(kernel_product, 64, 5, 8);
  const double truncated = f(1.0 / 3.0, 1.0 / 7.0);
  const double native = kernel_product(1.0 / 3.0, 1.0 / 7.0);
  EXPECT_NE(truncated, native);
  EXPECT_DOUBLE_EQ(truncated, sf::quantize(truncated, sf::Format{5, 8}));
}

TEST_F(RuntimeTest, TruncFuncOpReturnsFunctionLikeObject) {
  int calls = 0;
  auto f = trunc_func_op([&calls](double x) {
    ++calls;
    return Runtime::instance().op2(OpKind::Add, x, x, 64);
  }, 64, 8, 23);
  EXPECT_DOUBLE_EQ(f(0.5), 1.0);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace raptor::rt
