// Hydro solver tests: exact Riemann oracle, approximate-solver consistency,
// Sod convergence against the analytic solution, Sedov physics checks,
// conservation, and truncation scoping behaviour.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "hydro/euler.hpp"
#include "hydro/exact_riemann.hpp"
#include "hydro/setups.hpp"
#include "io/sfocu.hpp"
#include "runtime/runtime.hpp"

namespace raptor::hydro {
namespace {

constexpr double kGamma = 1.4;

// ---------------------------------------------------------------------------
// Exact Riemann solver (oracle)
// ---------------------------------------------------------------------------

TEST(ExactRiemann, SodStarStateMatchesToro) {
  // Toro, table 4.2, test 1: p* = 0.30313, u* = 0.92745.
  const RiemannState l{1.0, 0.0, 1.0};
  const RiemannState r{0.125, 0.0, 0.1};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.p_star, 0.30313, 2e-4);
  EXPECT_NEAR(sol.u_star, 0.92745, 2e-4);
}

TEST(ExactRiemann, Toro123Problem) {
  // Toro test 2 (123 problem): two rarefactions, near-vacuum middle.
  const RiemannState l{1.0, -2.0, 0.4};
  const RiemannState r{1.0, 2.0, 0.4};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.p_star, 0.00189, 2e-4);
  EXPECT_NEAR(sol.u_star, 0.0, 1e-8);
}

TEST(ExactRiemann, StrongShockTube) {
  // Toro test 3: left blast, p* = 460.894, u* = 19.5975.
  const RiemannState l{1.0, 0.0, 1000.0};
  const RiemannState r{1.0, 0.0, 0.01};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.p_star, 460.894, 0.5);
  EXPECT_NEAR(sol.u_star, 19.5975, 0.01);
}

TEST(ExactRiemann, TrivialContactPreservesState) {
  const RiemannState l{1.0, 0.5, 1.0};
  const RiemannState r{1.0, 0.5, 1.0};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  ASSERT_TRUE(sol.converged);
  EXPECT_NEAR(sol.p_star, 1.0, 1e-10);
  EXPECT_NEAR(sol.u_star, 0.5, 1e-10);
  const auto mid = sample_exact_riemann(l, r, kGamma, sol, 0.0);
  EXPECT_NEAR(mid.rho, 1.0, 1e-10);
}

TEST(ExactRiemann, SampledSolutionIsSelfSimilar) {
  const RiemannState l{1.0, 0.0, 1.0};
  const RiemannState r{0.125, 0.0, 0.1};
  const auto sol = solve_exact_riemann(l, r, kGamma);
  // Far left/right recover the initial states.
  EXPECT_NEAR(sample_exact_riemann(l, r, kGamma, sol, -10.0).rho, 1.0, 1e-12);
  EXPECT_NEAR(sample_exact_riemann(l, r, kGamma, sol, 10.0).rho, 0.125, 1e-12);
  // Monotone density through the rarefaction fan.
  double prev = 1.0;
  for (double s = -1.1; s < -0.1; s += 0.05) {
    const double rho = sample_exact_riemann(l, r, kGamma, sol, s).rho;
    EXPECT_LE(rho, prev + 1e-12);
    prev = rho;
  }
}

// ---------------------------------------------------------------------------
// Approximate Riemann solvers
// ---------------------------------------------------------------------------

TEST(ApproxRiemann, AllSolversAgreeOnUniformFlow) {
  const PrimState<double> w{1.4, 2.5, -0.5, 2.0};
  for (const auto kind : {RiemannKind::Rusanov, RiemannKind::HLL, RiemannKind::HLLC}) {
    const auto f = riemann_flux(kind, w, w, kGamma);
    const auto exact = physical_flux(w, kGamma);
    for (int k = 0; k < 4; ++k) EXPECT_NEAR(f.f[k], exact.f[k], 1e-12) << static_cast<int>(kind);
  }
}

TEST(ApproxRiemann, HllcResolvesStationaryContactExactly) {
  // Density jump, equal pressure/velocity: HLLC preserves it, HLL smears.
  const PrimState<double> wl{1.0, 0.0, 0.0, 1.0};
  const PrimState<double> wr{0.25, 0.0, 0.0, 1.0};
  const auto hllc = hllc_flux(wl, wr, kGamma);
  EXPECT_NEAR(hllc.f[0], 0.0, 1e-12);  // no mass flux through the contact
  const auto hll = hll_flux(wl, wr, kGamma);
  EXPECT_GT(std::fabs(hll.f[0]), 1e-3);  // HLL diffuses the contact
}

TEST(ApproxRiemann, SupersonicFluxIsUpwind) {
  const PrimState<double> wl{1.0, 5.0, 0.0, 1.0};  // Mach ~4 to the right
  const PrimState<double> wr{0.5, 5.0, 0.0, 0.5};
  const auto f = hllc_flux(wl, wr, kGamma);
  const auto fl = physical_flux(wl, kGamma);
  for (int k = 0; k < 4; ++k) EXPECT_NEAR(f.f[k], fl.f[k], 1e-12);
}

TEST(ApproxRiemann, FluxConsistencyAcrossScalarTypes) {
  rt::Runtime::instance().reset_all();
  const PrimState<double> wl{1.0, 0.3, -0.2, 1.2};
  const PrimState<double> wr{0.7, -0.5, 0.1, 0.8};
  const PrimState<Real> rl{Real(1.0), Real(0.3), Real(-0.2), Real(1.2)};
  const PrimState<Real> rr{Real(0.7), Real(-0.5), Real(0.1), Real(0.8)};
  for (const auto kind : {RiemannKind::Rusanov, RiemannKind::HLL, RiemannKind::HLLC}) {
    const auto fd = riemann_flux(kind, wl, wr, kGamma);
    const auto fr = riemann_flux(kind, rl, rr, kGamma);
    for (int k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(to_double(fr.f[k]), fd.f[k]);
  }
  rt::Runtime::instance().reset_all();
}

// ---------------------------------------------------------------------------
// Sod shock tube vs analytic solution
// ---------------------------------------------------------------------------

TEST(SodProblem, ConvergesToExactSolution) {
  const SodParams sp;
  auto cfg = sod_grid_config(/*max_level=*/3);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sod_init(sp, x, y, v); });

  HydroConfig hc;
  hc.gamma = sp.gamma;
  HydroSolver<double> solver(hc);
  const double t_end = 0.15;
  run_to_time(grid, solver, t_end);

  const auto exact_sol =
      solve_exact_riemann({sp.rho_l, 0.0, sp.p_l}, {sp.rho_r, 0.0, sp.p_r}, sp.gamma);
  double err = 0.0;
  int count = 0;
  for (double x = 0.05; x < 0.95; x += 0.01) {
    const double s = (x - sp.x_jump) / t_end;
    const auto ref =
        sample_exact_riemann({sp.rho_l, 0.0, sp.p_l}, {sp.rho_r, 0.0, sp.p_r}, sp.gamma,
                             exact_sol, s);
    err += std::fabs(grid.sample(DENS, x, 0.5) - ref.rho);
    ++count;
  }
  err /= count;
  EXPECT_LT(err, 0.015) << "mean density error vs exact solution";
}

TEST(SodProblem, PlanarSymmetryInY) {
  const SodParams sp;
  auto cfg = sod_grid_config(2);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sod_init(sp, x, y, v); });
  HydroConfig hc;
  HydroSolver<double> solver(hc);
  run_to_time(grid, solver, 0.1);
  // The solution must stay independent of y.
  for (double x : {0.3, 0.5, 0.7, 0.85}) {
    const double a = grid.sample(DENS, x, 0.25);
    const double b = grid.sample(DENS, x, 0.75);
    EXPECT_NEAR(a, b, 1e-11) << x;
  }
}

TEST(SodProblem, MassAndEnergyConserved) {
  // Before the waves reach the boundaries, outflow BCs leak nothing.
  const SodParams sp;
  auto cfg = sod_grid_config(3);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sod_init(sp, x, y, v); });
  HydroConfig hc;
  HydroSolver<double> solver(hc);
  const double mass0 = grid.integral(DENS);
  const double ener0 = grid.integral(ENER);
  run_to_time(grid, solver, 0.1);
  EXPECT_NEAR(grid.integral(DENS), mass0, 5e-3 * mass0);
  EXPECT_NEAR(grid.integral(ENER), ener0, 5e-3 * ener0);
}

// ---------------------------------------------------------------------------
// Sedov blast
// ---------------------------------------------------------------------------

TEST(SedovProblem, ShockExpandsRadially) {
  const SedovParams sp;
  auto cfg = sedov_grid_config(3);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sedov_init(sp, x, y, v); });
  HydroConfig hc;
  hc.gamma = sp.gamma;
  HydroSolver<double> solver(hc);
  run_to_time(grid, solver, 0.02);

  // Locate the density maximum along +x: that's the shock radius.
  auto shock_radius = [&grid, &sp]() {
    double best_r = 0.0, best_v = 0.0;
    for (double r = 0.01; r < 0.49; r += 0.004) {
      const double v = grid.sample(DENS, sp.cx + r, sp.cy);
      if (v > best_v) {
        best_v = v;
        best_r = r;
      }
    }
    return best_r;
  };
  const double r1 = shock_radius();
  EXPECT_GT(r1, 0.05);
  run_to_time(grid, solver, 0.02);  // advance further
  const double r2 = shock_radius();
  EXPECT_GT(r2, r1);

  // Radial symmetry: density at +x, -x, +y, -y matches.
  const double d1 = grid.sample(DENS, sp.cx + r2, sp.cy);
  const double d2 = grid.sample(DENS, sp.cx - r2, sp.cy);
  const double d3 = grid.sample(DENS, sp.cx, sp.cy + r2);
  EXPECT_NEAR(d1, d2, 0.05 * d1);
  EXPECT_NEAR(d1, d3, 0.05 * d1);
}

TEST(SedovProblem, RefinementTracksTheShock) {
  const SedovParams sp;
  auto cfg = sedov_grid_config(4);
  amr::AmrGrid<double> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<double> v) { sedov_init(sp, x, y, v); });
  HydroConfig hc;
  HydroSolver<double> solver(hc);
  run_to_time(grid, solver, 0.03);
  // The finest blocks must cluster near the shock annulus; blocks far from
  // it sit at least one level lower (quartet-granularity derefinement and
  // 2:1 chains put a floor on how coarse the far field can get with this
  // root-block geometry, exactly as in PARAMESH).
  EXPECT_EQ(grid.max_level_present(), 4);
  double max_r_of_finest = 0.0;
  int fine_far = 0, total_far = 0;
  for (int n = 0; n < grid.num_leaves(); ++n) {
    const auto& b = grid.leaf(n);
    const double bx = grid.cell_x(b, grid.config().nxb / 2);
    const double by = grid.cell_y(b, grid.config().nyb / 2);
    const double r = std::hypot(bx - sp.cx, by - sp.cy);
    if (b.level == 4) max_r_of_finest = std::max(max_r_of_finest, r);
    if (r > 0.45) {
      ++total_far;
      if (b.level == 4) ++fine_far;
    }
  }
  ASSERT_GT(total_far, 0);
  EXPECT_EQ(fine_far, 0);              // no max-level blocks far away
  EXPECT_LT(max_r_of_finest, 0.40);    // finest level hugs the shock
}

// ---------------------------------------------------------------------------
// Operator-split gravity source (Rayleigh–Taylor support)
// ---------------------------------------------------------------------------

TEST(HydroGravity, OperatorSplitSourceMatchesAnalyticImpulse) {
  // Uniform medium in a reflecting channel: both sweeps see a constant
  // state, so after one step the only update is the gravity source —
  // momy += rho*g*dt, energy follows the trapezoidal kinetic update, and
  // density is untouched.
  auto gc = rayleigh_taylor_grid_config(1);
  amr::AmrGrid<double> g(gc);
  const double rho = 2.0, e0 = 2.5 / 0.4;
  g.init([rho, e0](double, double, std::span<double> v) {
    v[DENS] = rho;
    v[MOMX] = 0.0;
    v[MOMY] = 0.0;
    v[ENER] = e0;
  });
  HydroConfig hc;
  hc.gravity = -0.1;
  HydroSolver<double> solver(hc);
  const double dt = 1e-3;
  solver.step(g, dt);
  const double gdt = hc.gravity * dt;
  const double my = 0.0 + gdt * rho;
  for (int n = 0; n < g.num_leaves(); ++n) {
    const auto& b = g.leaf(n);
    EXPECT_DOUBLE_EQ(g.at(b, DENS, 3, 3), rho);
    EXPECT_DOUBLE_EQ(g.at(b, MOMX, 3, 3), 0.0);
    EXPECT_NEAR(g.at(b, MOMY, 3, 3), my, 1e-15);
    EXPECT_NEAR(g.at(b, ENER, 3, 3), e0 + gdt * 0.5 * my, 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Batched Riemann kernel
// ---------------------------------------------------------------------------

using batch::Vec;

/// Crafted faces that reach every branch of the three solvers (checked by
/// BatchedRiemann.CraftedFacesReachEveryBranch), padded with pseudo-random
/// smooth faces to a span length that is not a multiple of any SIMD width.
std::vector<std::pair<PrimState<double>, PrimState<double>>> crafted_faces() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::pair<PrimState<double>, PrimState<double>>> f = {
      {{1.0, 5.0, 0.1, 1.0}, {0.9, 5.2, -0.1, 0.8}},     // supersonic right: sl >= 0
      {{1.0, -5.0, 0.1, 1.0}, {0.9, -5.2, -0.1, 0.8}},   // supersonic left: sr <= 0
      {{1.0, 0.4, 0.2, 1.0}, {0.5, 0.3, -0.2, 0.4}},     // S* > 0
      {{0.5, -0.3, 0.2, 0.4}, {1.0, -0.4, -0.2, 1.0}},   // S* < 0
      {{1.0, 0.0, 0.0, 1.0}, {1.0, 0.0, 0.0, 1.0}},      // S* = -0 (goes left)
      {{-1.0, 0.0, 0.0, -1.0}, {-1.0, 0.0, 0.0, -1.0}},  // S* = +0 (rho, p < 0)
      {{1.0, 0.2, 0.0, 1.0}, {nan, 0.1, 0.0, 1.0}},      // NaN wave speeds: fan, S* NaN
      {{1.0, -0.4, 0.3, 1.0}, {1.0, -0.7, 0.1, 1.2}},    // un < 0 on both sides
      {{1.0, -0.0, 0.0, 1.0}, {1.0, 0.0, 0.0, 1.0}},     // un = -0: no Neg
      {{1.0, nan, 0.0, 1.0}, {1.0, 0.1, 0.0, 1.0}},      // un NaN: no Neg
      // gamma * p / rho = 1 exactly (in every format), so c = 1:
      {{1.4, 1.0, 0.0, 1.0}, {1.4, 2.0, 0.0, 1.0}},      // sl = +0 exactly: F_L
      {{1.4, -2.0, 0.0, 1.0}, {1.4, -1.0, 0.0, 1.0}},    // sr = +0 exactly: F_R
  };
  u64 state = 0x9e3779b97f4a7c15ull;
  const auto next = [&state] {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) * 0x1.0p-53;  // [0, 1)
  };
  while (f.size() < 53) {
    const auto side = [&] {
      return PrimState<double>{0.2 + next(), 2.0 * next() - 1.0, next() - 0.5, 0.1 + next()};
    };
    f.emplace_back(side(), side());
  }
  return f;
}

TEST(BatchedRiemann, CraftedFacesReachEveryBranch) {
  // The crafted set must keep reaching what it is there for; classified
  // with untruncated Real so NaNs follow Real's fmin/fmax rule.
  rt::Runtime::instance().reset_all();
  int left = 0, right = 0, nan_speed = 0, pos = 0, neg = 0, pzero = 0, nzero = 0, neg_un = 0;
  int sl_zero = 0, sr_zero = 0;
  for (const auto& [l, r] : crafted_faces()) {
    const PrimState<Real> wl{l.rho, l.un, l.ut, l.p}, wr{r.rho, r.un, r.ut, r.p};
    Real sl, sr;
    detail::wave_speeds(wl, wr, kGamma, sl, sr);
    if (l.un < 0 || r.un < 0) ++neg_un;
    if (std::isnan(sl.value()) || std::isnan(sr.value())) ++nan_speed;
    if (sl.value() == 0.0) ++sl_zero;
    if (sr.value() == 0.0) ++sr_zero;
    if (sl.value() >= 0.0) {
      ++left;
      continue;
    }
    if (sr.value() <= 0.0) {
      ++right;
      continue;
    }
    const double s = detail::hllc_sstar(wl, wr, sl, sr).value();
    if (s > 0) ++pos;
    if (s < 0) ++neg;
    if (s == 0 && !std::signbit(s)) ++pzero;
    if (s == 0 && std::signbit(s)) ++nzero;
  }
  EXPECT_GT(left, 0);
  EXPECT_GT(right, 0);
  EXPECT_GT(nan_speed, 0);
  EXPECT_GT(pos, 0);
  EXPECT_GT(neg, 0);
  EXPECT_GT(pzero, 0);
  EXPECT_GT(nzero, 0);
  EXPECT_GT(neg_un, 0);
  EXPECT_GT(sl_zero, 0);
  EXPECT_GT(sr_zero, 0);
  rt::Runtime::instance().reset_all();
}

TEST(BatchedRiemann, BitwiseAndCountParityWithScalarPerFace) {
  // riemann_flux_batch over a span of faces against riemann_flux<Real> per
  // face: every flux component bitwise, and the per-OpKind counters, for
  // every solver at e8m12 (fast kernels), e11m30 (BigFloat) and untruncated.
  auto& R = rt::Runtime::instance();
  R.reset_all();
  const auto faces = crafted_faces();
  const auto gather = [&faces](bool right, double PrimState<double>::* m) {
    return Vec::gather(faces.size(),
                       [&](std::size_t i) { return (right ? faces[i].second : faces[i].first).*m; });
  };
  const auto states = [&gather](bool right) {
    return PrimState<Vec>{gather(right, &PrimState<double>::rho),
                          gather(right, &PrimState<double>::un),
                          gather(right, &PrimState<double>::ut),
                          gather(right, &PrimState<double>::p)};
  };
  const PrimState<Vec> wl = states(false), wr = states(true);
  const std::vector<std::optional<rt::TruncationSpec>> formats = {
      rt::TruncationSpec::trunc64(8, 12), rt::TruncationSpec::trunc64(11, 30), std::nullopt};
  for (const RiemannKind kind : {RiemannKind::Rusanov, RiemannKind::HLL, RiemannKind::HLLC}) {
    for (const auto& fmt : formats) {
      SCOPED_TRACE("riemann=" + std::to_string(static_cast<int>(kind)) + " " +
                   (fmt ? fmt->for64->to_string() : std::string("untruncated")));
      std::optional<TruncScope> scope;
      if (fmt) scope.emplace(*fmt);
      R.reset_counters();
      std::vector<Flux<Real>> want;
      for (const auto& [l, r] : faces) {
        want.push_back(riemann_flux(kind, PrimState<Real>{l.rho, l.un, l.ut, l.p},
                                    PrimState<Real>{r.rho, r.un, r.ut, r.p}, kGamma));
      }
      const rt::CounterSnapshot scalar = R.counters();
      R.reset_counters();
      const Flux<Vec> got = riemann_flux_batch(kind, wl, wr, kGamma);
      const rt::CounterSnapshot batched = R.counters();
      for (int k = 0; k < 4; ++k) {
        ASSERT_EQ(got.f[k].size(), faces.size());
        for (std::size_t i = 0; i < faces.size(); ++i) {
          EXPECT_EQ(std::bit_cast<u64>(got.f[k][i]), std::bit_cast<u64>(want[i].f[k].raw()))
              << "face " << i << " component " << k;
        }
      }
      EXPECT_GT(scalar.total_flops(), 0u);
      EXPECT_EQ(scalar.trunc_by_kind, batched.trunc_by_kind);
      EXPECT_EQ(scalar.full_by_kind, batched.full_by_kind);
      EXPECT_EQ(scalar.trunc_flops, batched.trunc_flops);
      EXPECT_EQ(scalar.full_flops, batched.full_flops);
    }
  }
  R.reset_all();
}

TEST(BatchedRecon, MultiPencilSpanMatchesScalarPencils) {
  // recon_batch over three pencils stored back to back against
  // plm_pencil<Real> per pencil: bitwise face states and equal per-OpKind
  // counters, with NaNs, -0 and values below the floors in the data (the
  // floors are Real's fmax: NaN yields the floor). Both reconstructions.
  auto& R = rt::Runtime::instance();
  R.reset_all();
  constexpr int n = 7, ng = 2, rows = 3, wlen = n + 2 * ng;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double dfloor = 1e-3, pfloor = 1e-4;
  std::vector<std::vector<PrimState<Real>>> pencils(rows, std::vector<PrimState<Real>>(wlen));
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < wlen; ++c) {
      const double x = 0.37 * (c + 3 * r);
      pencils[r][c] = {1.0 + 0.9 * std::sin(x), 0.5 * std::cos(1.3 * x), -0.0,
                       1.0 + std::sin(2.1 * x)};
    }
  }
  pencils[0][4].p = nan;
  pencils[1][5].rho = nan;
  pencils[1][2].un = nan;
  pencils[2][6].rho = -0.5;
  pencils[2][3].p = -1e-9;
  TruncScope sc(8, 12);
  for (const ReconKind recon : {ReconKind::PLM, ReconKind::FirstOrder}) {
    SCOPED_TRACE(recon == ReconKind::PLM ? "plm" : "first-order");
    R.reset_counters();
    std::vector<PrimState<Real>> want_l, want_r;
    for (const auto& w : pencils) {
      std::vector<PrimState<Real>> wl(n + 1), wr(n + 1);
      plm_pencil(w, wl, wr, n, ng, recon, dfloor, pfloor);
      want_l.insert(want_l.end(), wl.begin(), wl.end());
      want_r.insert(want_r.end(), wr.begin(), wr.end());
    }
    const rt::CounterSnapshot scalar = R.counters();
    R.reset_counters();
    const auto lanes = [&pencils](Real PrimState<Real>::* m) {
      return Vec::gather(rows * wlen,
                         [&](std::size_t q) { return (pencils[q / wlen][q % wlen].*m).raw(); });
    };
    const PrimState<Vec> w{lanes(&PrimState<Real>::rho), lanes(&PrimState<Real>::un),
                           lanes(&PrimState<Real>::ut), lanes(&PrimState<Real>::p)};
    PrimState<Vec> gl, gr;
    recon_batch(w, gl, gr, rows, n, ng, recon, dfloor, pfloor);
    const rt::CounterSnapshot batched = R.counters();
    EXPECT_EQ(scalar.trunc_by_kind, batched.trunc_by_kind);
    EXPECT_EQ(scalar.full_by_kind, batched.full_by_kind);
    const auto bits = [](double d) { return std::bit_cast<u64>(d); };
    ASSERT_EQ(gl.rho.size(), want_l.size());
    for (std::size_t f = 0; f < want_l.size(); ++f) {
      EXPECT_EQ(bits(gl.rho[f]), bits(want_l[f].rho.raw())) << f;
      EXPECT_EQ(bits(gl.un[f]), bits(want_l[f].un.raw())) << f;
      EXPECT_EQ(bits(gl.ut[f]), bits(want_l[f].ut.raw())) << f;
      EXPECT_EQ(bits(gl.p[f]), bits(want_l[f].p.raw())) << f;
      EXPECT_EQ(bits(gr.rho[f]), bits(want_r[f].rho.raw())) << f;
      EXPECT_EQ(bits(gr.un[f]), bits(want_r[f].un.raw())) << f;
      EXPECT_EQ(bits(gr.ut[f]), bits(want_r[f].ut.raw())) << f;
      EXPECT_EQ(bits(gr.p[f]), bits(want_r[f].p.raw())) << f;
    }
  }
  R.reset_all();
}

// ---------------------------------------------------------------------------
// Truncation scoping through the solver
// ---------------------------------------------------------------------------

TEST(HydroTruncation, BatchedSolverBitwiseMatchesScalarSolver) {
  // The block-level batched sweep (DESIGN.md §8) must be bit-identical to
  // the scalar per-pencil dispatch through full multi-step AMR runs — same
  // cell values, the same counter totals (flops + per-OpKind histogram),
  // and per region label the same counters and bytes, so no op migrates
  // between the load ("hydro"), recon, Riemann and update stages. Sod
  // (level 2, to t = 0.05) and Sedov (level 3, 8 steps, two regrids), every
  // Riemann solver; Sod also with first-order reconstruction.
  auto& R = rt::Runtime::instance();
  R.reset_all();
  R.set_region_profiling(true);
  struct Case {
    bool sedov;
    RiemannKind riemann;
    ReconKind recon;
  };
  std::vector<Case> cases;
  for (const RiemannKind k : {RiemannKind::Rusanov, RiemannKind::HLL, RiemannKind::HLLC}) {
    cases.push_back({false, k, ReconKind::PLM});
    cases.push_back({true, k, ReconKind::PLM});
  }
  cases.push_back({false, RiemannKind::HLLC, ReconKind::FirstOrder});
  const auto run_with = [&R](const Case& c, bool batch) {
    R.reset_counters();
    R.reset_region_profiles();
    HydroConfig hc;
    hc.trunc = rt::TruncationSpec::trunc64(8, 12);
    hc.riemann = c.riemann;
    hc.recon = c.recon;
    hc.batch = batch;
    HydroSolver<Real> solver(hc);
    std::vector<double> fields;
    const auto collect = [&fields](const amr::AmrGrid<Real>& grid) {
      for (const int v : {DENS, MOMX, MOMY, ENER}) {
        const auto f = io::to_uniform(grid, v);
        fields.insert(fields.end(), f.begin(), f.end());
      }
    };
    if (c.sedov) {
      const SedovParams sp;
      amr::AmrGrid<Real> grid(sedov_grid_config(3));
      grid.build_with_ic(
          [&sp](double x, double y, std::span<Real> v) { sedov_init(sp, x, y, v); });
      const double dt = 0.5 * solver.compute_dt(grid);
      for (int s = 0; s < 8; ++s) {
        if (s > 0 && s % 3 == 0) grid.regrid();
        solver.step(grid, dt);
      }
      collect(grid);
    } else {
      const SodParams sp;
      amr::AmrGrid<Real> grid(sod_grid_config(2));
      grid.build_with_ic(
          [&sp](double x, double y, std::span<Real> v) { sod_init(sp, x, y, v); });
      run_to_time(grid, solver, 0.05, /*regrid_interval=*/4);
      collect(grid);
    }
    std::map<std::string, rt::CounterSnapshot> stages;
    for (const auto& e : R.region_profiles()) {
      if (e.label == "hydro" || e.label.rfind("hydro/", 0) == 0) stages[e.label] = e.profile.counters;
    }
    return std::tuple{fields, R.counters(), stages};
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.sedov ? "sedov" : "sod") + " riemann=" +
                 std::to_string(static_cast<int>(c.riemann)) +
                 (c.recon == ReconKind::PLM ? " plm" : " first-order"));
    const auto [scalar, sc, s_stages] = run_with(c, false);
    const auto [batched, bc, b_stages] = run_with(c, true);
    ASSERT_EQ(scalar.size(), batched.size());
    for (std::size_t i = 0; i < scalar.size(); ++i) {
      ASSERT_EQ(std::bit_cast<u64>(scalar[i]), std::bit_cast<u64>(batched[i])) << "cell " << i;
    }
    EXPECT_EQ(sc.trunc_flops, bc.trunc_flops);
    EXPECT_EQ(sc.full_flops, bc.full_flops);
    EXPECT_EQ(sc.trunc_by_kind, bc.trunc_by_kind);
    EXPECT_EQ(sc.full_by_kind, bc.full_by_kind);
    EXPECT_EQ(sc.trunc_bytes, bc.trunc_bytes);
    EXPECT_EQ(sc.full_bytes, bc.full_bytes);
    for (const char* label : {"hydro", "hydro/recon", "hydro/riemann", "hydro/update"}) {
      SCOPED_TRACE(label);
      ASSERT_TRUE(s_stages.count(label) && b_stages.count(label));
      const auto& a = s_stages.at(label);
      const auto& b = b_stages.at(label);
      // First-order reconstruction copies cell states: no recon ops.
      const bool copies = c.recon == ReconKind::FirstOrder && label == std::string("hydro/recon");
      EXPECT_EQ(a.total_flops() > 0, !copies);
      EXPECT_EQ(a.trunc_by_kind, b.trunc_by_kind);
      EXPECT_EQ(a.full_by_kind, b.full_by_kind);
      EXPECT_EQ(a.trunc_bytes, b.trunc_bytes);
      EXPECT_EQ(a.full_bytes, b.full_bytes);
    }
    EXPECT_EQ(s_stages.size(), b_stages.size());
  }
  R.reset_all();
}

TEST(HydroTruncation, TruncatedRunDegradesGracefully) {
  rt::Runtime::instance().reset_all();
  const SodParams sp;

  const auto run_with = [&sp](std::optional<rt::TruncationSpec> spec) {
    auto cfg = sod_grid_config(2);
    amr::AmrGrid<Real> grid(cfg);
    grid.build_with_ic(
        [&sp](double x, double y, std::span<Real> v) { sod_init(sp, x, y, v); });
    HydroConfig hc;
    hc.trunc = spec;
    HydroSolver<Real> solver(hc);
    run_to_time(grid, solver, 0.1, /*regrid_interval=*/4);
    return io::to_uniform(grid, DENS);
  };

  const auto reference = run_with(std::nullopt);
  const auto trunc40 = run_with(rt::TruncationSpec::trunc64(11, 40));
  const auto trunc8 = run_with(rt::TruncationSpec::trunc64(8, 8));

  const double e40 = io::compare_fields(trunc40, reference).l1;
  const double e8 = io::compare_fields(trunc8, reference).l1;
  EXPECT_GT(e8, e40);       // coarser mantissa -> larger error
  EXPECT_GT(e8, 1e-5);      // 8 bits visibly wrong
  EXPECT_LT(e40, 1e-6);     // 40 bits close to reference
  EXPECT_GT(e40, 0.0);      // but not identical
  rt::Runtime::instance().reset_all();
}

TEST(HydroTruncation, LevelGateRestrictsTruncatedOps) {
  rt::Runtime::instance().reset_all();
  auto& R = rt::Runtime::instance();
  const SedovParams sp;
  auto cfg = sedov_grid_config(3);
  amr::AmrGrid<Real> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<Real> v) { sedov_init(sp, x, y, v); });

  const auto fraction_with_gate = [&](std::function<bool(int)> gate) {
    R.reset_counters();
    HydroConfig hc;
    hc.trunc = rt::TruncationSpec::trunc64(8, 12);
    hc.trunc_enabled = std::move(gate);
    HydroSolver<Real> solver(hc);
    auto g2 = grid;  // copy the initial hierarchy for a fair comparison
    const double dt = solver.compute_dt(g2);
    solver.step(g2, dt);
    return R.counters().trunc_fraction();
  };

  const int M = grid.max_level_present();
  const double f_all = fraction_with_gate([](int) { return true; });
  const double f_m1 = fraction_with_gate([M](int level) { return level <= M - 1; });
  const double f_m2 = fraction_with_gate([M](int level) { return level <= M - 2; });
  EXPECT_GT(f_all, 0.9);
  EXPECT_LT(f_m1, f_all);
  EXPECT_LT(f_m2, f_m1);
  rt::Runtime::instance().reset_all();
}

TEST(HydroTruncation, RegionExclusionKeepsStageNative) {
  rt::Runtime::instance().reset_all();
  auto& R = rt::Runtime::instance();
  const SodParams sp;
  auto cfg = sod_grid_config(2);
  amr::AmrGrid<Real> grid(cfg);
  grid.build_with_ic([&sp](double x, double y, std::span<Real> v) { sod_init(sp, x, y, v); });

  HydroConfig hc;
  hc.trunc = rt::TruncationSpec::trunc64(8, 12);
  HydroSolver<Real> solver(hc);

  R.reset_counters();
  solver.step(grid, 1e-4);
  const double f_baseline = R.counters().trunc_fraction();

  R.exclude_region("hydro/riemann");
  R.reset_counters();
  solver.step(grid, 1e-4);
  const double f_excluded = R.counters().trunc_fraction();

  EXPECT_LT(f_excluded, f_baseline - 0.05);
  rt::Runtime::instance().reset_all();
}

}  // namespace
}  // namespace raptor::hydro
