// Elementary-function tests for the BigFloat math kernels.
//
// Oracle strategy: at fp64 the results must match glibc's libm to within a
// couple of ulps (neither is proven correctly rounded; both are faithful).
// At reduced formats we check (a) representability/closure, (b) monotone
// error decay with mantissa width, and (c) exact identities.
//
// The fast elementary kernels (sf::fast_exp/log/log2/log10/cbrt) are pinned
// bit for bit against trunc_*, scalar and through the span kernels on every
// SIMD path: >= 1M random inputs per function over eight formats, plus
// crafted inputs (exact results, 1 +- 2^-k, the formats' overflow and
// subnormal boundaries, the 2^-1000 fallback boundary).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "softfloat/bigfloat.hpp"
#include "softfloat/fast_round.hpp"
#include "softfloat/fast_round_simd.hpp"
#include "support/rng.hpp"

namespace raptor::sf {
namespace {

double ulp_diff(double a, double b) {
  if (a == b) return 0.0;
  if (std::isnan(a) || std::isnan(b)) return HUGE_VAL;
  const double scale = std::ldexp(1.0, std::ilogb(std::fabs(b)) - 52);
  return std::fabs(a - b) / scale;
}

TEST(MathConstants, MatchLibmToWorkingPrecision) {
  EXPECT_NEAR(const_ln2().to_double(), M_LN2, 1e-16);
  EXPECT_NEAR(const_pi().to_double(), M_PI, 1e-15);
  EXPECT_NEAR(const_pi_over_2().to_double(), M_PI_2, 1e-15);
}

TEST(MathExp, MatchesLibmWithinUlps) {
  Rng rng(21);
  const Format f = Format::fp64();
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-700.0, 700.0);
    EXPECT_LE(ulp_diff(trunc_exp(x, f), std::exp(x)), 2.0) << x;
  }
}

TEST(MathExp, SmallArguments) {
  const Format f = Format::fp64();
  Rng rng(22);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-1e-8, 1e-8);
    EXPECT_LE(ulp_diff(trunc_exp(x, f), std::exp(x)), 2.0) << x;
  }
}

TEST(MathExp, SpecialValues) {
  const Format f = Format::fp64();
  EXPECT_DOUBLE_EQ(trunc_exp(0.0, f), 1.0);
  EXPECT_TRUE(std::isinf(trunc_exp(INFINITY, f)));
  EXPECT_DOUBLE_EQ(trunc_exp(-INFINITY, f), 0.0);
  EXPECT_TRUE(std::isnan(trunc_exp(std::nan(""), f)));
  EXPECT_TRUE(std::isinf(trunc_exp(1e6, f)));
  EXPECT_DOUBLE_EQ(trunc_exp(-1e6, f), 0.0);
}

TEST(MathLog, MatchesLibmWithinUlps) {
  Rng rng(23);
  const Format f = Format::fp64();
  for (int i = 0; i < 5000; ++i) {
    const double x = std::exp(rng.uniform(-700.0, 700.0));
    EXPECT_LE(ulp_diff(trunc_log(x, f), std::log(x)), 2.0) << x;
  }
}

TEST(MathLog, NearOne) {
  const Format f = Format::fp64();
  Rng rng(24);
  for (int i = 0; i < 2000; ++i) {
    const double x = 1.0 + rng.uniform(-1e-6, 1e-6);
    EXPECT_LE(ulp_diff(trunc_log(x, f), std::log(x)), 2.0) << x;
  }
}

TEST(MathLog, SpecialValues) {
  const Format f = Format::fp64();
  EXPECT_DOUBLE_EQ(trunc_log(1.0, f), 0.0);
  EXPECT_TRUE(std::isnan(trunc_log(-1.0, f)));
  EXPECT_TRUE(std::isinf(trunc_log(0.0, f)));
  EXPECT_LT(trunc_log(0.0, f), 0.0);
  EXPECT_TRUE(std::isinf(trunc_log(INFINITY, f)));
}

TEST(MathLog, ExpLogRoundTrip) {
  Rng rng(25);
  const Format f = Format::fp64();
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-20.0, 20.0);
    EXPECT_NEAR(trunc_log(trunc_exp(x, f), f), x, 1e-13 * std::max(1.0, std::fabs(x)));
  }
}

TEST(MathLog2Log10, MatchesLibm) {
  Rng rng(26);
  const Format f = Format::fp64();
  for (int i = 0; i < 3000; ++i) {
    const double x = std::exp(rng.uniform(-100.0, 100.0));
    EXPECT_LE(ulp_diff(trunc_log2(x, f), std::log2(x)), 3.0) << x;
    EXPECT_LE(ulp_diff(trunc_log10(x, f), std::log10(x)), 3.0) << x;
  }
  EXPECT_DOUBLE_EQ(trunc_log2(8.0, f), 3.0);
  EXPECT_DOUBLE_EQ(trunc_log2(0.25, f), -2.0);
}

TEST(MathSinCos, MatchesLibmOnPrimaryRange) {
  Rng rng(27);
  const Format f = Format::fp64();
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-100.0, 100.0);
    EXPECT_LE(ulp_diff(trunc_sin(x, f), std::sin(x)), 3.0) << x;
    EXPECT_LE(ulp_diff(trunc_cos(x, f), std::cos(x)), 3.0) << x;
  }
}

TEST(MathSinCos, PythagoreanIdentity) {
  Rng rng(28);
  const Format f = Format::fp64();
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    const double s = trunc_sin(x, f);
    const double c = trunc_cos(x, f);
    EXPECT_NEAR(s * s + c * c, 1.0, 1e-14) << x;
  }
}

TEST(MathSinCos, ExactPoints) {
  const Format f = Format::fp64();
  EXPECT_DOUBLE_EQ(trunc_sin(0.0, f), 0.0);
  EXPECT_DOUBLE_EQ(trunc_cos(0.0, f), 1.0);
  EXPECT_NEAR(trunc_sin(M_PI_2, f), 1.0, 1e-15);
  EXPECT_NEAR(trunc_cos(M_PI, f), -1.0, 1e-15);
  EXPECT_TRUE(std::isnan(trunc_sin(INFINITY, f)));
}

TEST(MathTan, MatchesLibm) {
  Rng rng(29);
  const Format f = Format::fp64();
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(-1.4, 1.4);
    EXPECT_LE(ulp_diff(trunc_tan(x, f), std::tan(x)), 4.0) << x;
  }
}

TEST(MathAtan, MatchesLibm) {
  Rng rng(30);
  const Format f = Format::fp64();
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.uniform(-50.0, 50.0);
    EXPECT_LE(ulp_diff(trunc_atan(x, f), std::atan(x)), 3.0) << x;
  }
  EXPECT_NEAR(trunc_atan(1e300, f), M_PI_2, 1e-15);
  EXPECT_NEAR(trunc_atan(-1e300, f), -M_PI_2, 1e-15);
}

TEST(MathAtan2, QuadrantsMatchLibm) {
  Rng rng(31);
  const Format f = Format::fp64();
  for (int i = 0; i < 5000; ++i) {
    const double y = rng.uniform(-10.0, 10.0);
    const double x = rng.uniform(-10.0, 10.0);
    if (std::fabs(x) < 1e-6) continue;
    EXPECT_NEAR(trunc_atan2(y, x, f), std::atan2(y, x), 1e-14) << y << "," << x;
  }
  EXPECT_NEAR(trunc_atan2(1.0, 0.0, f), M_PI_2, 1e-15);
  EXPECT_NEAR(trunc_atan2(-1.0, 0.0, f), -M_PI_2, 1e-15);
}

TEST(MathTanh, MatchesLibm) {
  Rng rng(32);
  const Format f = Format::fp64();
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(-20.0, 20.0);
    EXPECT_LE(ulp_diff(trunc_tanh(x, f), std::tanh(x)), 4.0) << x;
  }
  // Tiny-argument series path.
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-1e-3, 1e-3);
    EXPECT_LE(ulp_diff(trunc_tanh(x, f), std::tanh(x)), 2.0) << x;
  }
  EXPECT_DOUBLE_EQ(trunc_tanh(100.0, f), 1.0);
  EXPECT_DOUBLE_EQ(trunc_tanh(-100.0, f), -1.0);
}

TEST(MathCbrt, MatchesLibm) {
  Rng rng(33);
  const Format f = Format::fp64();
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(-1e6, 1e6);
    // glibc cbrt itself is only faithful to a few ulp; allow the combined
    // discrepancy (we observed inputs where BigFloat is closer than libm).
    EXPECT_LE(ulp_diff(trunc_cbrt(x, f), std::cbrt(x)), 4.0) << x;
  }
  EXPECT_DOUBLE_EQ(trunc_cbrt(27.0, f), 3.0);
  EXPECT_DOUBLE_EQ(trunc_cbrt(-8.0, f), -2.0);
}

TEST(MathPow, MatchesLibm) {
  Rng rng(34);
  const Format f = Format::fp64();
  for (int i = 0; i < 3000; ++i) {
    const double x = rng.uniform(0.01, 100.0);
    const double y = rng.uniform(-20.0, 20.0);
    EXPECT_LE(ulp_diff(trunc_pow(x, y, f), std::pow(x, y)), 8.0) << x << "^" << y;
  }
}

TEST(MathPow, IntegerExponentsNearExact) {
  const Format f = Format::fp64();
  EXPECT_DOUBLE_EQ(trunc_pow(2.0, 10.0, f), 1024.0);
  EXPECT_DOUBLE_EQ(trunc_pow(3.0, 4.0, f), 81.0);
  EXPECT_DOUBLE_EQ(trunc_pow(2.0, -3.0, f), 0.125);
  EXPECT_DOUBLE_EQ(trunc_pow(-2.0, 3.0, f), -8.0);
  EXPECT_DOUBLE_EQ(trunc_pow(-2.0, 2.0, f), 4.0);
}

TEST(MathPow, SpecialCases) {
  const Format f = Format::fp64();
  EXPECT_DOUBLE_EQ(trunc_pow(5.0, 0.0, f), 1.0);
  EXPECT_DOUBLE_EQ(trunc_pow(0.0, 3.0, f), 0.0);
  EXPECT_TRUE(std::isinf(trunc_pow(0.0, -2.0, f)));
  EXPECT_TRUE(std::isnan(trunc_pow(-2.0, 0.5, f)));
  EXPECT_DOUBLE_EQ(trunc_pow(1.0, 1e18, f), 1.0);
  EXPECT_TRUE(std::isinf(trunc_pow(2.0, INFINITY, f)));
  EXPECT_DOUBLE_EQ(trunc_pow(2.0, -INFINITY, f), 0.0);
}

// ---------------------------------------------------------------------------
// Reduced-precision behaviour of the math kernels
// ---------------------------------------------------------------------------

class MathFormatSweep : public ::testing::TestWithParam<Format> {};

TEST_P(MathFormatSweep, ResultsRepresentableInFormat) {
  const Format f = GetParam();
  Rng rng(35);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform(0.1, 4.0);
    for (const double r : {trunc_exp(x, f), trunc_log(x, f), trunc_sin(x, f), trunc_cos(x, f),
                           trunc_sqrt(x, f)}) {
      EXPECT_TRUE(quantize(r, f) == r || (std::isnan(r))) << r;
    }
  }
}

TEST_P(MathFormatSweep, ErrorShrinksWithMantissa) {
  // For a fixed argument, widening the mantissa from GetParam() to fp64 must
  // not increase the error vs libm (sanity of the truncation semantics).
  const Format f = GetParam();
  const double x = 1.2345678;
  const double coarse = std::fabs(trunc_exp(x, f) - std::exp(x));
  const double fine = std::fabs(trunc_exp(x, Format::fp64()) - std::exp(x));
  EXPECT_LE(fine, coarse + 1e-18);
}

INSTANTIATE_TEST_SUITE_P(Formats, MathFormatSweep,
                         ::testing::Values(Format{5, 4}, Format{5, 10}, Format{8, 14},
                                           Format{8, 23}, Format{11, 42}),
                         [](const auto& info) { return info.param.tag(); });

// ---------------------------------------------------------------------------
// Fast elementary kernels vs the BigFloat reference
// ---------------------------------------------------------------------------

struct Elementary {
  const char* name;
  simd::SpanOp op;
  double (*fast)(double, const RoundSpec&);
  double (*ref)(double, const Format&);
  double (*libm)(double);
};

double libm_exp(double x) { return std::exp(x); }
double libm_log(double x) { return std::log(x); }
double libm_log2(double x) { return std::log2(x); }
double libm_log10(double x) { return std::log10(x); }
double libm_cbrt(double x) { return std::cbrt(x); }

const Elementary kElementary[] = {
    {"exp", simd::SpanOp::Exp, fast_exp, trunc_exp, libm_exp},
    {"log", simd::SpanOp::Log, fast_log, trunc_log, libm_log},
    {"log2", simd::SpanOp::Log2, fast_log2, trunc_log2, libm_log2},
    {"log10", simd::SpanOp::Log10, fast_log10, trunc_log10, libm_log10},
    {"cbrt", simd::SpanOp::Cbrt, fast_cbrt, trunc_cbrt, libm_cbrt},
};

const Format kElementaryFormats[] = {{11, 13}, {11, 16}, {11, 30}, {11, 44},
                                     {8, 12},  {8, 23},  {5, 10},  {4, 3}};

u64 bits(double d) { return std::bit_cast<u64>(d); }

/// True if the kernel keeps libm's result for x (its rounding test, as
/// documented in fast_math.cpp); used only to show the tests exercise it.
bool keeps_libm(const Elementary& e, double x, const RoundSpec& spec) {
  const double y = e.libm(fast_round(x, spec));
  return std::isfinite(y) && std::fabs(y) >= 0x1p-1000 &&
         fast_round(y * (1.0 - 0x1p-46), spec) == fast_round(y * (1.0 + 0x1p-46), spec);
}

std::vector<simd::Path> available_paths() {
  std::vector<simd::Path> v;
  for (const simd::Path p : {simd::Path::Portable, simd::Path::Avx2, simd::Path::Avx512}) {
    if (simd::path_supported(p)) v.push_back(p);
  }
  return v;
}

/// Compare e.fast and the span kernel (out aliasing the operand) on every
/// path against e.ref for every input; returns the number of inputs on
/// which the kernel keeps libm's result.
std::size_t expect_bit_identical(const Elementary& e, const Format& fmt,
                                 const std::vector<double>& x) {
  const RoundSpec spec(fmt);
  std::vector<u64> want(x.size());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    want[i] = bits(e.ref(x[i], fmt));
    const double got = e.fast(x[i], spec);
    EXPECT_EQ(bits(got), want[i]) << e.name << " " << fmt.to_string() << " x=" << std::hexfloat
                                  << x[i] << " fast=" << got << " ref=" << e.ref(x[i], fmt);
    if (bits(got) != want[i]) return kept;
    kept += keeps_libm(e, x[i], spec) ? 1 : 0;
  }
  for (const simd::Path p : available_paths()) {
    std::vector<double> out = x;
    simd::span_exec(p, e.op, out.data(), nullptr, nullptr, out.data(), out.size(), spec);
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(bits(out[i]), want[i]) << e.name << " " << simd::path_name(p) << " "
                                       << fmt.to_string() << " x=" << std::hexfloat << x[i];
      if (bits(out[i]) != want[i]) break;
    }
  }
  return kept;
}

/// Random inputs for `e` in `fmt`: mostly arguments whose results lie in
/// the format's range, plus small arguments, arguments near 1, and raw bit
/// patterns (NaN, inf, negatives, extremes).
std::vector<double> random_inputs(const Elementary& e, const Format& fmt, std::size_t n,
                                  Rng& rng) {
  const int elo = fmt.emin_subnormal() - 2, ehi = fmt.emax() + 2;
  const auto any_exp = [&] {
    const int ex = elo + static_cast<int>(rng.next_u64() % static_cast<u64>(ehi - elo + 1));
    return std::ldexp(1.0 + rng.next_double(), ex);
  };
  std::vector<double> x(n);
  for (double& v : x) {
    const u64 kind = rng.next_u64() % 16;
    if (kind == 0) {
      v = std::bit_cast<double>(rng.next_u64());
    } else if (kind <= 2) {
      v = std::ldexp(rng.uniform(-1.0, 1.0), -static_cast<int>(rng.next_u64() % 60));
      if (e.op != simd::SpanOp::Exp) v += 1.0;  // near 1 for log, small for exp
    } else if (e.op == simd::SpanOp::Exp) {
      v = rng.uniform(elo * 0.6931471805599453, ehi * 0.6931471805599453);
    } else if (e.op == simd::SpanOp::Cbrt) {
      v = (rng.next_u64() & 1) != 0 ? -any_exp() : any_exp();
    } else {
      v = any_exp();
    }
  }
  return x;
}

TEST(FastElementary, MillionRandomInputsPerFunctionBitIdentical) {
  constexpr std::size_t kPerFormat = std::size_t{1} << 17;  // x 8 formats >= 1M
  for (const Elementary& e : kElementary) {
    for (const Format& fmt : kElementaryFormats) {
      ASSERT_TRUE(simd::span_supports(e.op, fmt));
      Rng rng(0xE1E + static_cast<u64>(e.op) * 4096 + static_cast<u64>(fmt.man_bits));
      const std::vector<double> x = random_inputs(e, fmt, kPerFormat, rng);
      const std::size_t kept = expect_bit_identical(e, fmt, x);
      if (::testing::Test::HasFailure()) return;
      // The inputs must exercise the libm path, not only the fallback.
      EXPECT_GT(kept, fmt.man_bits <= 30 ? kPerFormat / 2 : kPerFormat / 8)
          << e.name << " " << fmt.to_string();
    }
  }
}

TEST(FastElementary, CraftedInputsBitIdentical) {
  std::vector<double> common = {0.0, -0.0, 1.0, -1.0, 0.5, 2.0, HUGE_VAL, -HUGE_VAL,
                                std::nan(""), 0x1p-1074, 0x1p-1022, 0x1.fffffffffffffp1023};
  for (int k = 1; k <= 52; ++k) {
    common.push_back(1.0 + std::ldexp(1.0, -k));
    common.push_back(1.0 - std::ldexp(1.0, -k));
  }
  for (const Format& fmt : kElementaryFormats) {
    // The format's own extremes and their neighbors.
    const double maxfin = std::ldexp(2.0 - std::ldexp(1.0, -fmt.man_bits), fmt.emax());
    const double minsub = std::ldexp(1.0, fmt.emin_subnormal());
    const double minnorm = std::ldexp(1.0, fmt.emin());
    std::vector<double> base = common;
    for (const double v : {maxfin, minsub, minnorm}) {
      base.insert(base.end(), {v, std::nextafter(v, 0.0), std::nextafter(v, HUGE_VAL)});
    }

    std::vector<double> exp_in = base;
    // exp at the overflow threshold, the smallest subnormal's half (round
    // to zero), the smallest normal, and the 2^-1000 fallback boundary.
    for (const double t : {std::log(maxfin), std::log(std::ldexp(2.0, fmt.emax())),
                           std::log(minsub), std::log(minsub / 2), std::log(minnorm),
                           -1000 * 0.6931471805599453, 709.782712893384, -745.1332191019412,
                           -708.3964185322641, 1e5, -1e5, 1e6, -1e6}) {
      double v = t;
      for (int k = 0; k < 8; ++k) v = std::nextafter(v, -HUGE_VAL);
      for (int k = 0; k < 17; ++k, v = std::nextafter(v, HUGE_VAL)) exp_in.push_back(v);
    }
    for (int k = 1; k <= 1074; k += 7) {
      exp_in.push_back(std::ldexp(1.0, -k));
      exp_in.push_back(-std::ldexp(1.0, -k));
    }

    std::vector<double> log_in = base;
    for (int k = fmt.emin_subnormal(); k <= fmt.emax(); ++k) log_in.push_back(std::ldexp(1.0, k));
    double ten = 1.0;
    for (int k = 0; k <= 22; ++k, ten *= 10.0) log_in.insert(log_in.end(), {ten, 1.0 / ten});

    std::vector<double> cbrt_in = base;
    for (int k = 1; k <= 2000; ++k) {
      const double cube = static_cast<double>(k) * k * k;
      cbrt_in.insert(cbrt_in.end(), {cube, -cube, std::nextafter(cube, 0.0)});
    }
    for (int k = fmt.emin_subnormal(); k <= fmt.emax(); ++k) cbrt_in.push_back(std::ldexp(1.0, k));

    for (const Elementary& e : kElementary) {
      const std::vector<double>& x = e.op == simd::SpanOp::Exp    ? exp_in
                                     : e.op == simd::SpanOp::Cbrt ? cbrt_in
                                                                  : log_in;
      expect_bit_identical(e, fmt, x);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

TEST(FastElementary, ExactResults) {
  for (const Format& fmt : kElementaryFormats) {
    const RoundSpec spec(fmt);
    EXPECT_EQ(bits(fast_exp(0.0, spec)), bits(1.0)) << fmt.to_string();
    EXPECT_EQ(bits(fast_log(1.0, spec)), bits(trunc_log(1.0, fmt))) << fmt.to_string();
    EXPECT_EQ(fast_log(1.0, spec), 0.0);
    EXPECT_EQ(bits(fast_log2(8.0, spec)), bits(3.0)) << fmt.to_string();
    EXPECT_EQ(bits(fast_cbrt(27.0, spec)), bits(3.0)) << fmt.to_string();
    EXPECT_EQ(bits(fast_cbrt(-8.0, spec)), bits(-2.0)) << fmt.to_string();
    if (fmt.man_bits >= 10) {
      EXPECT_EQ(bits(fast_log10(1000.0, spec)), bits(3.0)) << fmt.to_string();
      EXPECT_EQ(bits(fast_cbrt(1000.0, spec)), bits(10.0)) << fmt.to_string();
    }
  }
}

}  // namespace
}  // namespace raptor::sf
