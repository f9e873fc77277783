// Fast elementary functions for op-mode (DESIGN.md §6): libm on the rounded
// operand, kept only where a rounding test proves it bit-identical to the
// BigFloat reference (sf::trunc_*), which computes every other case.
//
// The reference evaluates a 62-bit working value w and rounds it once into
// the target format. For exp/log/log2/log10/cbrt |w - f(x)| is within ~2^-59
// relative; libm's y is within a few 2^-53. So w lies in [y(1-d), y(1+d)]
// for d = 2^-46, with a wide safety factor. Rounding is monotonic: when
// both ends of that interval round to the same format value, every point
// inside does, w included, and the reference returns exactly that value.
// The test needs y to carry full double precision, so a zero, non-finite or
// tiny (|y| < 2^-1000, near double's subnormal range) y always takes the
// reference. sin/cos/tan/atan/tanh/pow stay on BigFloat: their working
// error is not uniformly bounded (two-term Cody-Waite reduction; pow's
// exp(y log x) amplifies the log error by |y log x|).
#include <cmath>

#include "softfloat/bigfloat.hpp"
#include "softfloat/fast_round.hpp"

namespace raptor::sf {

namespace {

constexpr double kRelErr = 0x1p-46;

template <double (*Libm)(double), double (*Ref)(double, const Format&)>
double rounding_tested(double x, const RoundSpec& fmt) {
  const double y = Libm(fast_round(x, fmt));
  if (std::isfinite(y) && std::fabs(y) >= 0x1p-1000) {
    const double lo = fast_round(y * (1.0 - kRelErr), fmt);
    if (lo == fast_round(y * (1.0 + kRelErr), fmt)) return lo;
  }
  return Ref(x, fmt.format());
}

double libm_exp(double x) { return std::exp(x); }
double libm_log(double x) { return std::log(x); }
double libm_log2(double x) { return std::log2(x); }
double libm_log10(double x) { return std::log10(x); }
double libm_cbrt(double x) { return std::cbrt(x); }

}  // namespace

double fast_exp(double x, const RoundSpec& fmt) {
  return rounding_tested<libm_exp, trunc_exp>(x, fmt);
}
double fast_log(double x, const RoundSpec& fmt) {
  return rounding_tested<libm_log, trunc_log>(x, fmt);
}
double fast_log2(double x, const RoundSpec& fmt) {
  return rounding_tested<libm_log2, trunc_log2>(x, fmt);
}
double fast_log10(double x, const RoundSpec& fmt) {
  return rounding_tested<libm_log10, trunc_log10>(x, fmt);
}
double fast_cbrt(double x, const RoundSpec& fmt) {
  return rounding_tested<libm_cbrt, trunc_cbrt>(x, fmt);
}

}  // namespace raptor::sf
