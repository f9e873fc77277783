// Burn module and Cellular mini-app tests: rate physics, backward-Euler
// stability under stiffness, fuel conservation, detonation propagation, and
// the module-scoped truncation wiring.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "burn/burn.hpp"
#include "burn/cellular.hpp"
#include "runtime/runtime.hpp"
#include "softfloat/fast_round.hpp"
#include "support/rng.hpp"

namespace raptor::burn {
namespace {

class BurnTest : public ::testing::Test {
 protected:
  void SetUp() override { rt::Runtime::instance().reset_all(); }
  void TearDown() override { rt::Runtime::instance().reset_all(); }
  BurnParams bp;
};

TEST_F(BurnTest, RateIsZeroWhenCold) {
  EXPECT_DOUBLE_EQ(to_double(burn_rate(bp, 1.0, 1e7, 4e7)), 0.0);
}

TEST_F(BurnTest, RateIsNegativeAndTemperatureSensitive) {
  const double r1 = to_double(burn_rate(bp, 1.0, 1e7, 1.5e9));
  const double r2 = to_double(burn_rate(bp, 1.0, 1e7, 3.0e9));
  EXPECT_LT(r1, 0.0);
  EXPECT_LT(r2, r1);                      // hotter burns faster
  EXPECT_GT(std::fabs(r2 / r1), 5.0);     // strongly nonlinear in T
}

TEST_F(BurnTest, RateScalesWithFuelSquared) {
  const double r_full = to_double(burn_rate(bp, 1.0, 1e7, 2e9));
  const double r_half = to_double(burn_rate(bp, 0.5, 1e7, 2e9));
  EXPECT_NEAR(r_half / r_full, 0.25, 1e-12);
}

TEST_F(BurnTest, CellBurnConsumesFuelAndReleasesEnergy) {
  const auto res = burn_cell(bp, 1.0, 1e7, 3e9, 1e-9);
  EXPECT_LT(to_double(res.x_new), 1.0);
  EXPECT_GE(to_double(res.x_new), 0.0);
  const double consumed = 1.0 - to_double(res.x_new);
  EXPECT_NEAR(to_double(res.energy_released), bp.q_release * consumed,
              1e-6 * bp.q_release * std::max(consumed, 1e-12));
}

TEST_F(BurnTest, StiffStepStaysBounded) {
  // A huge dt must not produce negative fuel or energy overshoot.
  const auto res = burn_cell(bp, 1.0, 1e7, 4e9, 1.0);
  EXPECT_GE(to_double(res.x_new), 0.0);
  EXPECT_LE(to_double(res.x_new), 1.0);
  EXPECT_LE(to_double(res.energy_released), bp.q_release * 1.0000001);
  EXPECT_GT(res.substeps, 1);  // sub-cycling engaged
}

TEST_F(BurnTest, NoBurnMeansNoEnergy) {
  const auto res = burn_cell(bp, 1.0, 1e7, 5e7, 1e-6);
  EXPECT_DOUBLE_EQ(to_double(res.x_new), 1.0);
  EXPECT_DOUBLE_EQ(to_double(res.energy_released), 0.0);
}

// ---------------------------------------------------------------------------
// Cellular mini-app
// ---------------------------------------------------------------------------

TEST_F(BurnTest, CellularDetonationPropagates) {
  CellularConfig cfg;
  cfg.n = 192;
  CellularSim<double> sim(cfg);
  const double front0 = sim.front_position();
  double t = 0.0;
  for (int s = 0; s < 120; ++s) t += sim.step();
  const double front1 = sim.front_position();
  EXPECT_GT(front1, front0);
  EXPECT_GT(sim.total_energy_released(), 0.0);
  // Burned region is hot, unburned fuel ahead remains cool-ish.
  EXPECT_GT(sim.temperature(2), 1e9);
  EXPECT_LT(sim.mass_fraction(2), 0.5);
  EXPECT_GT(sim.mass_fraction(cfg.n - 2), 0.95);
}

TEST_F(BurnTest, CellularEosConvergesAtFullPrecision) {
  CellularConfig cfg;
  cfg.n = 128;
  CellularSim<double> sim(cfg);
  for (int s = 0; s < 40; ++s) sim.step();
  const auto& stats = sim.eos_stats();
  EXPECT_GT(stats.calls, 1000u);
  EXPECT_LT(stats.failure_rate(), 0.01);
}

TEST_F(BurnTest, CellularEosTruncationCausesNewtonFailures) {
  // The §6.1 result end-to-end: truncating the EOS module to a small
  // mantissa makes Newton-Raphson fail persistently. Flash-X aborts on the
  // first failed call; our stats count per-call failures, and with O(cells)
  // calls per step any nonzero rate above a few percent means the real
  // application would never complete a step.
  CellularConfig cfg;
  cfg.n = 96;
  cfg.eos_trunc = rt::TruncationSpec::trunc64(11, 24);
  CellularSim<Real> sim(cfg);
  for (int s = 0; s < 12; ++s) sim.step();
  const double fail24 = sim.eos_stats().failure_rate();
  EXPECT_GT(fail24, 0.05);

  rt::Runtime::instance().reset_all();
  CellularConfig cfg52 = cfg;
  cfg52.eos_trunc = rt::TruncationSpec::trunc64(11, 52);
  CellularSim<Real> sim52(cfg52);
  for (int s = 0; s < 12; ++s) sim52.step();
  EXPECT_LT(sim52.eos_stats().failure_rate(), 0.005);
  EXPECT_GT(fail24, 20.0 * sim52.eos_stats().failure_rate() + 0.02);
}

TEST_F(BurnTest, CellularCountsEosOpsAsTruncated) {
  rt::Runtime::instance().reset_counters();
  CellularConfig cfg;
  cfg.n = 64;
  cfg.eos_trunc = rt::TruncationSpec::trunc64(11, 30);
  CellularSim<Real> sim(cfg);
  sim.step();
  const auto c = rt::Runtime::instance().counters();
  EXPECT_GT(c.trunc_flops, 0u);  // eos module truncated
  EXPECT_GT(c.full_flops, 0u);   // hydro + burn at full precision
}

// ---------------------------------------------------------------------------
// Batched dispatch parity (DESIGN.md §8)
// ---------------------------------------------------------------------------

TEST_F(BurnTest, BatchedBurnMatchesScalarBitwise) {
  auto& R = rt::Runtime::instance();
  // Lanes spanning frozen cells, gentle burns, and stiff near-detonation
  // conditions — exercising sub-cycling and Newton lane retirement.
  for (const int man : {52, 18}) {
    SCOPED_TRACE(man);
    std::optional<TruncScope> scope;
    if (man < 52) scope.emplace(11, man);

    Rng rng(man);
    const std::size_t n = 48;
    std::vector<double> x(n), rho(n), temp(n);
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = rng.uniform(0.05, 1.0);
      rho[k] = std::pow(10.0, rng.uniform(5.0, 7.5));
      temp[k] = std::pow(10.0, rng.uniform(7.2, 9.7));  // spans frozen..fierce
    }
    const double dt = 1e-9;

    std::vector<double> x_s(n), en_s(n);
    std::vector<int> sub_s(n);
    R.reset_counters();
    for (std::size_t k = 0; k < n; ++k) {
      const auto res = burn_cell(bp, Real(x[k]), Real(rho[k]), Real(temp[k]), dt);
      x_s[k] = to_double(res.x_new);
      en_s[k] = to_double(res.energy_released);
      sub_s[k] = res.substeps;
    }
    const auto cs = R.counters();

    std::vector<double> x_b = x, en_b(n);
    std::vector<int> sub_b(n);
    R.reset_counters();
    burn_cells_batch(bp, n, x_b.data(), rho.data(), temp.data(), dt, en_b.data(), sub_b.data());
    const auto cb = R.counters();

    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(std::bit_cast<u64>(x_s[k]), std::bit_cast<u64>(x_b[k])) << k;
      EXPECT_EQ(std::bit_cast<u64>(en_s[k]), std::bit_cast<u64>(en_b[k])) << k;
      EXPECT_EQ(sub_s[k], sub_b[k]) << k;
    }
    EXPECT_EQ(cs.trunc_flops, cb.trunc_flops);
    EXPECT_EQ(cs.full_flops, cb.full_flops);
    for (int i = 0; i < rt::kNumOpKinds; ++i) {
      EXPECT_EQ(cs.trunc_by_kind[i], cb.trunc_by_kind[i]) << i;
      EXPECT_EQ(cs.full_by_kind[i], cb.full_by_kind[i]) << i;
    }
  }
}

TEST_F(BurnTest, CellularBatchStepMatchesScalarBitwise) {
  auto& R = rt::Runtime::instance();
  // Truncate the EOS module (the §6.1 configuration) so the parity covers
  // truncated and full-precision regions at once.
  const auto run = [&](bool batch, rt::CounterSnapshot& counters) {
    R.reset_counters();
    CellularConfig cc;
    cc.n = 48;
    cc.batch = batch;
    cc.eos_trunc = rt::TruncationSpec::trunc64(11, 44);
    CellularSim<Real> sim(cc);
    std::vector<double> out;
    for (int s = 0; s < 6; ++s) out.push_back(sim.step());
    for (int i = 0; i < cc.n; ++i) {
      out.push_back(sim.temperature(i));
      out.push_back(sim.mass_fraction(i));
      out.push_back(sim.density(i));
    }
    out.push_back(sim.total_energy_released());
    out.push_back(static_cast<double>(sim.eos_stats().total_iterations));
    out.push_back(static_cast<double>(sim.eos_stats().failures));
    counters = R.counters();
    return out;
  };
  rt::CounterSnapshot cs, cb;
  const auto scalar = run(false, cs);
  const auto batch = run(true, cb);
  ASSERT_EQ(scalar.size(), batch.size());
  for (std::size_t k = 0; k < scalar.size(); ++k) {
    EXPECT_EQ(std::bit_cast<u64>(scalar[k]), std::bit_cast<u64>(batch[k])) << k;
  }
  EXPECT_EQ(cs.trunc_flops, cb.trunc_flops);
  EXPECT_EQ(cs.full_flops, cb.full_flops);
  for (int i = 0; i < rt::kNumOpKinds; ++i) {
    EXPECT_EQ(cs.trunc_by_kind[i], cb.trunc_by_kind[i]) << i;
    EXPECT_EQ(cs.full_by_kind[i], cb.full_by_kind[i]) << i;
  }
  EXPECT_GT(cs.trunc_flops, 0u);
}

TEST_F(BurnTest, CellularBatchFallsBackOutsideOpMode) {
  // Mem-mode and the double instantiation must take the scalar path even
  // with cfg.batch set (batch::Vec-style raw payloads would leak handles).
  auto& R = rt::Runtime::instance();
  R.set_mode(rt::Mode::Mem);
  CellularConfig cc;
  cc.n = 16;
  cc.batch = true;
  CellularSim<Real> sim(cc);
  const double dt = sim.step();
  EXPECT_GT(dt, 0.0);
  R.set_mode(rt::Mode::Op);
  CellularSim<double> simd(cc);
  EXPECT_GT(simd.step(), 0.0);
}

// ---------------------------------------------------------------------------
// Batch/scalar parity at the search's e11 formats (fast kernels, DESIGN.md
// §6 and §13): rounding-tested exp/cbrt and guarded e11 arithmetic
// ---------------------------------------------------------------------------

void expect_same_counts(const rt::CounterSnapshot& cs, const rt::CounterSnapshot& cb) {
  EXPECT_EQ(cs.trunc_flops, cb.trunc_flops);
  EXPECT_EQ(cs.full_flops, cb.full_flops);
  for (int i = 0; i < rt::kNumOpKinds; ++i) {
    EXPECT_EQ(cs.trunc_by_kind[i], cb.trunc_by_kind[i]) << i;
    EXPECT_EQ(cs.full_by_kind[i], cb.full_by_kind[i]) << i;
  }
}

TEST_F(BurnTest, BatchedBurnMatchesScalarBitwiseAtE11SearchFormats) {
  auto& R = rt::Runtime::instance();
  // A steep activation puts exp's argument at -800..-600 for lanes just
  // above the frozen threshold: some exp results fall below 2^-1000 (the
  // elementary kernel's BigFloat fallback), and with small densities the
  // rate's final multiply lands in double's subnormal range (the e11 mul
  // guard). burn_cells_batch writes x in place and its rate spans alias
  // their output with an operand.
  BurnParams steep = bp;
  steep.t9_activation = 300.0;
  for (const int man : {13, 16}) {
    SCOPED_TRACE(man);
    const sf::Format fmt{11, man};
    const sf::RoundSpec spec(fmt);
    TruncScope scope(11, man);

    Rng rng(0xB0 + man);
    const std::size_t n = 61;  // not a multiple of any lane width
    std::vector<double> x(n), rho(n), temp(n);
    int exp_fallback = 0, subnormal_product = 0;
    for (std::size_t k = 0; k < n; ++k) {
      x[k] = rng.uniform(0.05, 1.0);
      rho[k] = std::pow(10.0, rng.uniform(1.0, 4.0));
      temp[k] = k % 8 == 0 ? std::pow(10.0, rng.uniform(8.5, 9.7)) : rng.uniform(5.5e7, 9e7);
      // The first rate evaluation, op for op as burn_rate computes it.
      const double t9 = sf::fast_mul(temp[k], 1e-9, spec);
      if (t9 <= 0.05) continue;
      const double arg = sf::fast_div(-steep.t9_activation, sf::fast_cbrt(t9, spec), spec);
      exp_fallback += std::exp(arg) < 0x1p-1000 ? 1 : 0;
      double pre = sf::fast_mul(-steep.rate_coeff, x[k], spec);
      pre = sf::fast_mul(sf::fast_mul(pre, x[k], spec), rho[k], spec);
      pre = sf::fast_mul(pre, 1e-12, spec);
      subnormal_product +=
          sf::double_subnormal(sf::fast_round(pre, spec) * sf::fast_exp(arg, spec)) ? 1 : 0;
    }
    EXPECT_GT(exp_fallback, 0);
    EXPECT_GT(subnormal_product, 0);
    const double dt = 1e-9;

    std::vector<double> x_s(n), en_s(n);
    std::vector<int> sub_s(n);
    R.reset_counters();
    for (std::size_t k = 0; k < n; ++k) {
      const auto res = burn_cell(steep, Real(x[k]), Real(rho[k]), Real(temp[k]), dt);
      x_s[k] = to_double(res.x_new);
      en_s[k] = to_double(res.energy_released);
      sub_s[k] = res.substeps;
    }
    const auto cs = R.counters();

    std::vector<double> x_b = x, en_b(n);
    std::vector<int> sub_b(n);
    R.reset_counters();
    burn_cells_batch(steep, n, x_b.data(), rho.data(), temp.data(), dt, en_b.data(),
                     sub_b.data());
    const auto cb = R.counters();

    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(std::bit_cast<u64>(x_s[k]), std::bit_cast<u64>(x_b[k])) << k;
      EXPECT_EQ(std::bit_cast<u64>(en_s[k]), std::bit_cast<u64>(en_b[k])) << k;
      EXPECT_EQ(sub_s[k], sub_b[k]) << k;
    }
    expect_same_counts(cs, cb);
    EXPECT_GT(cb.trunc_by_kind[static_cast<int>(rt::OpKind::Exp)], 0u);
  }
}

TEST_F(BurnTest, CellularBatchStepMatchesScalarBitwiseAtE11SearchFormats) {
  // Every region at one of the search's e11 candidates, as during a
  // PrecisionSearch evaluation: the EOS (log10), hydro and burn (exp, cbrt)
  // stages all run on the fast kernels.
  auto& R = rt::Runtime::instance();
  for (const int man : {13, 16}) {
    SCOPED_TRACE(man);
    const auto run = [&](bool batch, rt::CounterSnapshot& counters) {
      R.reset_all();
      for (const char* region : {"eos", "hydro", "burn"}) {
        R.set_region_format(region, rt::TruncationSpec::trunc64(11, man));
      }
      CellularConfig cc;
      cc.n = 48;
      cc.batch = batch;
      CellularSim<Real> sim(cc);
      std::vector<double> out;
      for (int s = 0; s < 8; ++s) out.push_back(sim.step());
      for (int i = 0; i < cc.n; ++i) {
        out.push_back(sim.temperature(i));
        out.push_back(sim.mass_fraction(i));
        out.push_back(sim.density(i));
      }
      out.push_back(sim.total_energy_released());
      out.push_back(static_cast<double>(sim.eos_stats().total_iterations));
      out.push_back(static_cast<double>(sim.eos_stats().failures));
      counters = R.counters();
      return out;
    };
    rt::CounterSnapshot cs, cb;
    const auto scalar = run(false, cs);
    const auto batch = run(true, cb);
    ASSERT_EQ(scalar.size(), batch.size());
    for (std::size_t k = 0; k < scalar.size(); ++k) {
      EXPECT_EQ(std::bit_cast<u64>(scalar[k]), std::bit_cast<u64>(batch[k])) << k;
    }
    expect_same_counts(cs, cb);
    EXPECT_GT(cb.trunc_by_kind[static_cast<int>(rt::OpKind::Log10)], 0u);
    EXPECT_GT(cb.trunc_by_kind[static_cast<int>(rt::OpKind::Exp)], 0u);
    EXPECT_GT(cb.trunc_by_kind[static_cast<int>(rt::OpKind::Cbrt)], 0u);
  }
}

}  // namespace
}  // namespace raptor::burn
