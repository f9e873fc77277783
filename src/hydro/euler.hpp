// Compressible Euler solver on the block-AMR grid, structured like the
// Spark solver the paper debugs in §6.3: three pluggable, separately
// labelled stages —
//   "hydro/recon"   reconstruction (first-order or PLM/minmod),
//   "hydro/riemann" approximate Riemann solver (Rusanov/HLL/HLLC),
//   "hydro/update"  conservative flux-difference update —
// advanced with dimensional splitting (x sweep, then y sweep, with guard
// refills between). Region labels let mem-mode group deviation flags per
// stage and let Table-2-style experiments exclude a stage from truncation.
//
// Batching (HydroConfig::batch, op-mode, T = Real): each block's sweep runs
// stage by stage over all its pencils at once through the runtime batch
// entry points (sweep_block_batch: load, recon_batch, riemann_flux_batch,
// update), bit-identical to the per-pencil scalar loop in results and in
// per-region counters (DESIGN.md §8). The double baseline, mem-mode and
// batch = false keep the per-pencil loop.
//
// Truncation scoping: when `trunc` is configured, every block's kernels run
// under TruncScope(trunc, trunc_enabled(level)) — the per-AMR-level dynamic
// cutoff of the paper's M-l experiments. CFL control and the AMR machinery
// always run in native double (paper §6.1: the AMR algorithm itself is not
// truncated, it only reacts to truncated data).
#pragma once

#include <functional>
#include <optional>
#include <type_traits>

#include "amr/grid.hpp"
#include "hydro/riemann.hpp"
#include "runtime/config.hpp"
#include "trunc/scope.hpp"
#include "trunc/span_ops.hpp"

namespace raptor::hydro {

/// Conserved variable indices on the grid.
enum Var : int { DENS = 0, MOMX = 1, MOMY = 2, ENER = 3 };
constexpr int kNumVars = 4;

enum class ReconKind { FirstOrder, PLM };

struct HydroConfig {
  double gamma = 1.4;
  double cfl = 0.4;
  ReconKind recon = ReconKind::PLM;
  RiemannKind riemann = RiemannKind::HLLC;
  double dens_floor = 1e-10;
  double pres_floor = 1e-14;
  /// Constant vertical acceleration applied as an operator-split source
  /// term after the sweeps (Rayleigh–Taylor); 0 disables the stage.
  double gravity = 0.0;
  /// Truncation spec applied around block kernels (absent: run natively).
  std::optional<rt::TruncationSpec> trunc;
  /// Per-level gate for the spec (the M-l cutoff); default: all levels.
  std::function<bool(int level)> trunc_enabled;
  /// Run each block's instrumented sweep — primitive load, reconstruction,
  /// Riemann fluxes and flux update of all its pencils — through the array
  /// batch dispatch (DESIGN.md §8) when running op-mode with T = Real.
  /// Bit-identical results and per-region counters; only the dispatch
  /// overhead changes. The double baseline and mem-mode always take the
  /// scalar per-pencil path.
  bool batch = true;
};

// ---------------------------------------------------------------------------
// Pencil reconstruction (free functions shared by the solver and bench/)
// ---------------------------------------------------------------------------

template <class T>
T plm_minmod(const T& a, const T& b) {
  if (to_double(a) * to_double(b) <= 0.0) return T(0.0);
  return std::fabs(to_double(a)) < std::fabs(to_double(b)) ? a : b;
}

/// Scalar pencil reconstruction: interface f sits between cells (f-1) and f
/// (cell index c maps to w[c+ng]). First-order: piecewise constant; PLM:
/// minmod-limited linear.
template <class T>
void plm_pencil(const std::vector<PrimState<T>>& w, std::vector<PrimState<T>>& wl,
                std::vector<PrimState<T>>& wr, int n_interior, int ng, ReconKind recon,
                double dens_floor, double pres_floor) {
  for (int f = 0; f <= n_interior; ++f) {
    const PrimState<T>& cl = w[f - 1 + ng];
    const PrimState<T>& cr = w[f + ng];
    if (recon == ReconKind::FirstOrder) {
      wl[f] = cl;
      wr[f] = cr;
      continue;
    }
    const auto limited = [&](auto member) {
      const T dl_m = cl.*member - w[f - 2 + ng].*member;
      const T dl_p = cr.*member - cl.*member;
      const T dr_m = dl_p;
      const T dr_p = w[f + 1 + ng].*member - cr.*member;
      return std::pair<T, T>{plm_minmod(dl_m, dl_p), plm_minmod(dr_m, dr_p)};
    };
    const auto [srho_l, srho_r] = limited(&PrimState<T>::rho);
    const auto [sun_l, sun_r] = limited(&PrimState<T>::un);
    const auto [sut_l, sut_r] = limited(&PrimState<T>::ut);
    const auto [sp_l, sp_r] = limited(&PrimState<T>::p);
    wl[f].rho = cl.rho + T(0.5) * srho_l;
    wl[f].un = cl.un + T(0.5) * sun_l;
    wl[f].ut = cl.ut + T(0.5) * sut_l;
    wl[f].p = cl.p + T(0.5) * sp_l;
    wr[f].rho = cr.rho - T(0.5) * srho_r;
    wr[f].un = cr.un - T(0.5) * sun_r;
    wr[f].ut = cr.ut - T(0.5) * sut_r;
    wr[f].p = cr.p - T(0.5) * sp_r;
    using std::fmax;
    wl[f].rho = fmax(wl[f].rho, T(dens_floor));
    wr[f].rho = fmax(wr[f].rho, T(dens_floor));
    wl[f].p = fmax(wl[f].p, T(pres_floor));
    wr[f].p = fmax(wr[f].p, T(pres_floor));
  }
}

/// Primitive state of one cell from its conserved variables, in the sweep
/// frame (un along the sweep). Shared by the scalar load and, with
/// T = batch::Vec, the block batch load.
template <class T>
PrimState<T> prim_from_cons(const T& dens, const T& mx, const T& my, const T& en, bool xdir,
                            double gamma, double dens_floor, double pres_floor) {
  using std::fmax;
  const T rho = fmax(dens, T(dens_floor));
  const T u = mx / rho;
  const T v = my / rho;
  const T p = fmax(T(gamma - 1.0) * (en - T(0.5) * rho * (u * u + v * v)), T(pres_floor));
  PrimState<T> out;
  out.rho = rho;
  out.un = xdir ? u : v;
  out.ut = xdir ? v : u;
  out.p = p;
  return out;
}

/// Batched reconstruction of `rows` pencils stored back to back in one span
/// of cells (pencil r's cell c, guards included, at lane
/// r * (n_interior + 2 ng) + c) into face states (pencil r's face f at lane
/// r * (n_interior + 1) + f): plm_pencil's ops for every face of every
/// pencil, one batch call per op. The stencil operands are copied into
/// face-indexed spans, so no face straddles two pencils. Op-mode only.
inline void recon_batch(const PrimState<batch::Vec>& w, PrimState<batch::Vec>& wl,
                        PrimState<batch::Vec>& wr, std::size_t rows, int n_interior, int ng,
                        ReconKind recon, double dens_floor, double pres_floor) {
  using batch::Vec;
  const std::size_t nf = static_cast<std::size_t>(n_interior) + 1;
  const std::size_t wlen = static_cast<std::size_t>(n_interior + 2 * ng);
  const auto minmod = [](const Vec& a, const Vec& b) {
    return Vec::gather(a.size(), [&](std::size_t q) { return plm_minmod(a[q], b[q]); });
  };
  // Lane of cell f - ng of every face f (face f sits between cells f-1, f).
  std::vector<std::size_t> base;
  base.reserve(rows * nf);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t f = 0; f < nf; ++f) base.push_back(r * wlen + f);
  }
  for (auto mem : {&PrimState<Vec>::rho, &PrimState<Vec>::un, &PrimState<Vec>::ut,
                   &PrimState<Vec>::p}) {
    const Vec& m = w.*mem;
    const auto cell = [&](int off) {
      const auto o = static_cast<std::size_t>(off);
      return Vec::gather(base.size(), [&](std::size_t q) { return m[base[q] + o]; });
    };
    const Vec cl = cell(ng - 1), cr = cell(ng);
    if (recon == ReconKind::FirstOrder) {
      wl.*mem = cl;
      wr.*mem = cr;
      continue;
    }
    const Vec dl_m = cl - cell(ng - 2), dl_p = cr - cl, dr_p = cell(ng + 1) - cr;
    wl.*mem = cl + Vec(0.5) * minmod(dl_m, dl_p);
    wr.*mem = cr - Vec(0.5) * minmod(dl_p, dr_p);
  }
  if (recon == ReconKind::PLM) {
    // Real's fmax: a selection, so NaN yields the floor.
    wl.rho = fmax(wl.rho, Vec(dens_floor));
    wr.rho = fmax(wr.rho, Vec(dens_floor));
    wl.p = fmax(wl.p, Vec(pres_floor));
    wr.p = fmax(wr.p, Vec(pres_floor));
  }
}

/// One PLM pencil of Reals through recon_batch: the same results and
/// counter totals as plm_pencil<Real>, one batch call per op.
inline void plm_pencil_batch(const std::vector<PrimState<Real>>& w,
                             std::vector<PrimState<Real>>& wl, std::vector<PrimState<Real>>& wr,
                             int n_interior, int ng, double dens_floor, double pres_floor) {
  using batch::Vec;
  const auto load = [&](Real PrimState<Real>::* mem) {
    return Vec::gather(w.size(), [&](std::size_t c) { return (w[c].*mem).raw(); });
  };
  const PrimState<Vec> wv{load(&PrimState<Real>::rho), load(&PrimState<Real>::un),
                          load(&PrimState<Real>::ut), load(&PrimState<Real>::p)};
  PrimState<Vec> l, r;
  recon_batch(wv, l, r, 1, n_interior, ng, ReconKind::PLM, dens_floor, pres_floor);
  for (int f = 0; f <= n_interior; ++f) {
    const auto q = static_cast<std::size_t>(f);
    wl[f] = {Real::adopt_raw(l.rho[q]), Real::adopt_raw(l.un[q]), Real::adopt_raw(l.ut[q]),
             Real::adopt_raw(l.p[q])};
    wr[f] = {Real::adopt_raw(r.rho[q]), Real::adopt_raw(r.un[q]), Real::adopt_raw(r.ut[q]),
             Real::adopt_raw(r.p[q])};
  }
}

template <class T>
class HydroSolver {
 public:
  explicit HydroSolver(HydroConfig cfg) : cfg_(std::move(cfg)) {
    if (!cfg_.trunc_enabled) cfg_.trunc_enabled = [](int) { return true; };
  }

  [[nodiscard]] const HydroConfig& config() const { return cfg_; }

  /// CFL-limited global time step (native double arithmetic).
  [[nodiscard]] double compute_dt(const amr::AmrGrid<T>& g) const {
    double dt = 1e300;
#pragma omp parallel for schedule(dynamic) reduction(min : dt)
    for (int n = 0; n < g.num_leaves(); ++n) {
      const auto& b = g.leaf(n);
      const double hx = g.dx(b.level), hy = g.dy(b.level);
      for (int j = 0; j < g.config().nyb; ++j) {
        for (int i = 0; i < g.config().nxb; ++i) {
          const double rho = std::max(to_double(g.at(b, DENS, i, j)), cfg_.dens_floor);
          const double mx = to_double(g.at(b, MOMX, i, j));
          const double my = to_double(g.at(b, MOMY, i, j));
          const double en = to_double(g.at(b, ENER, i, j));
          const double u = mx / rho, v = my / rho;
          const double p =
              std::max((cfg_.gamma - 1.0) * (en - 0.5 * rho * (u * u + v * v)), cfg_.pres_floor);
          const double c = std::sqrt(cfg_.gamma * p / rho);
          dt = std::min(dt, hx / (std::fabs(u) + c));
          dt = std::min(dt, hy / (std::fabs(v) + c));
        }
      }
    }
    return cfg_.cfl * dt;
  }

  /// One dimensionally split step: x sweep then y sweep, then the gravity
  /// source (when configured).
  void step(amr::AmrGrid<T>& g, double dt) {
    g.fill_guards();
    sweep(g, dt, /*xdir=*/true);
    g.fill_guards();
    sweep(g, dt, /*xdir=*/false);
    if (cfg_.gravity != 0.0) apply_gravity(g, dt);
  }

 private:
  /// Operator-split gravity source on the y-momentum and energy:
  ///   momy += rho * g * dt,
  ///   ener += g * dt * 0.5 * (momy_old + momy_new)   (time-centered work),
  /// per block under the same truncation scoping as the sweeps, labelled
  /// "hydro/gravity" so search/trace treat it as its own solver stage.
  void apply_gravity(amr::AmrGrid<T>& g, double dt) {
    const double gdt_raw = cfg_.gravity * dt;
#pragma omp parallel for schedule(dynamic)
    for (int n = 0; n < g.num_leaves(); ++n) {
      auto& b = g.leaf(n);
      std::optional<TruncScope> scope;
      if (cfg_.trunc) scope.emplace(*cfg_.trunc, cfg_.trunc_enabled(b.level));
      Region hydro_region("hydro");
      Region r("hydro/gravity");
      const T gdt = T(gdt_raw);
      const T half = T(0.5);
      for (int j = 0; j < g.config().nyb; ++j) {
        for (int i = 0; i < g.config().nxb; ++i) {
          const T my = g.at(b, MOMY, i, j);
          const T my_new = my + gdt * g.at(b, DENS, i, j);
          g.at(b, ENER, i, j) = g.at(b, ENER, i, j) + gdt * (half * (my + my_new));
          g.at(b, MOMY, i, j) = my_new;
        }
      }
      rt::Runtime::instance().count_mem(static_cast<u64>(g.config().nxb) * g.config().nyb * 3 *
                                        2 * sizeof(double));
    }
  }
  void sweep(amr::AmrGrid<T>& g, double dt, bool xdir) {
    const int n_interior = xdir ? g.config().nxb : g.config().nyb;
    const int n_rows = xdir ? g.config().nyb : g.config().nxb;
    const int ng = g.config().ng;

    // Batched dispatch applies to the instrumented op-mode run only; the
    // double baseline and mem-mode take the scalar path (DESIGN.md §8).
    bool use_batch = false;
    if constexpr (std::is_same_v<T, Real>) {
      use_batch = cfg_.batch && rt::Runtime::instance().mode() == rt::Mode::Op;
    }

#pragma omp parallel
    {
      // Row-sized work buffers, one set per thread.
      std::vector<PrimState<T>> w(n_interior + 2 * ng);
      std::vector<PrimState<T>> wl(n_interior + 1), wr(n_interior + 1);
      std::vector<Flux<T>> fx(n_interior + 1);

#pragma omp for schedule(dynamic)
      for (int n = 0; n < g.num_leaves(); ++n) {
        auto& b = g.leaf(n);
        const double h = xdir ? g.dx(b.level) : g.dy(b.level);

        // Scoped truncation with the per-level gate; region labelling makes
        // this whole solver one "hydro" module with three sub-stages.
        std::optional<TruncScope> scope;
        if (cfg_.trunc) scope.emplace(*cfg_.trunc, cfg_.trunc_enabled(b.level));
        Region hydro_region("hydro");

        if constexpr (std::is_same_v<T, Real>) {
          if (use_batch) {
            sweep_block_batch(g, b, xdir, dt / h);
            continue;
          }
        }
        const T dtdx = T(dt / h);
        for (int row = 0; row < n_rows; ++row) {
          // Load primitives along the pencil (includes guards).
          for (int k = -ng; k < n_interior + ng; ++k) {
            const int i = xdir ? k : row;
            const int j = xdir ? row : k;
            w[k + ng] = load_prim(g, b, i, j, xdir);
          }
          {
            Region r("hydro/recon");
            plm_pencil(w, wl, wr, n_interior, ng, cfg_.recon, cfg_.dens_floor, cfg_.pres_floor);
          }
          {
            Region r("hydro/riemann");
            for (int f = 0; f <= n_interior; ++f) {
              fx[f] = riemann_flux(cfg_.riemann, wl[f], wr[f], cfg_.gamma);
            }
          }
          {
            Region r("hydro/update");
            for (int k = 0; k < n_interior; ++k) {
              const int i = xdir ? k : row;
              const int j = xdir ? row : k;
              apply_update(g, b, i, j, xdir, dtdx, fx[k], fx[k + 1]);
            }
          }
          rt::Runtime::instance().count_mem(static_cast<u64>(n_interior) * kNumVars * 2 *
                                            sizeof(double));
        }
      }
    }
  }

  PrimState<T> load_prim(amr::AmrGrid<T>& g, typename amr::AmrGrid<T>::Block& b, int i, int j,
                         bool xdir) const {
    return prim_from_cons(g.at(b, DENS, i, j), g.at(b, MOMX, i, j), g.at(b, MOMY, i, j),
                          g.at(b, ENER, i, j), xdir, cfg_.gamma, cfg_.dens_floor,
                          cfg_.pres_floor);
  }

  /// The op-mode sweep of one block through the batch entry points
  /// (DESIGN.md §8): the per-pencil loop's load, recon, Riemann and update
  /// ops for all pencils of the block at once, one batch call per op, each
  /// stage entering its region once per block. A sweep's pencils are
  /// disjoint (the x sweep of row j reads and writes only row j), so loading
  /// every pencil before any update reads exactly what the loop reads.
  /// Only instantiated for T = Real (guarded by if constexpr at the call
  /// site).
  void sweep_block_batch(amr::AmrGrid<T>& g, typename amr::AmrGrid<T>::Block& b, bool xdir,
                         double dtdx) const {
    using batch::Vec;
    const int n = xdir ? g.config().nxb : g.config().nyb;  // interior cells per pencil
    const std::size_t rows = static_cast<std::size_t>(xdir ? g.config().nyb : g.config().nxb);
    const int ng = g.config().ng;
    const std::size_t nc = static_cast<std::size_t>(n), nf = nc + 1, wlen = nc + 2 * ng;
    // Grid (i, j) of every lane: all cells of the block's pencils, guards
    // included, then the interior cells alone with their left face lanes.
    std::vector<std::pair<int, int>> cells, interior;
    std::vector<std::size_t> left_face;
    cells.reserve(rows * wlen);
    interior.reserve(rows * nc);
    left_face.reserve(rows * nc);
    for (int row = 0; row < static_cast<int>(rows); ++row) {
      for (int k = -ng; k < n + ng; ++k) {
        cells.push_back(xdir ? std::pair{k, row} : std::pair{row, k});
        if (k < 0 || k >= n) continue;
        interior.push_back(cells.back());
        left_face.push_back(static_cast<std::size_t>(row) * nf + static_cast<std::size_t>(k));
      }
    }
    const auto load = [&](int var, const std::vector<std::pair<int, int>>& at) {
      return Vec::gather(at.size(),
                         [&](std::size_t q) { return g.at(b, var, at[q].first, at[q].second).raw(); });
    };
    const PrimState<Vec> w =
        prim_from_cons(load(DENS, cells), load(MOMX, cells), load(MOMY, cells), load(ENER, cells),
                       xdir, cfg_.gamma, cfg_.dens_floor, cfg_.pres_floor);
    PrimState<Vec> wl, wr;
    {
      Region r("hydro/recon");
      recon_batch(w, wl, wr, rows, n, ng, cfg_.recon, cfg_.dens_floor, cfg_.pres_floor);
    }
    Flux<Vec> fx;
    {
      Region r("hydro/riemann");
      fx = riemann_flux_batch(cfg_.riemann, wl, wr, cfg_.gamma);
    }
    {
      Region r("hydro/update");
      const std::size_t m = interior.size();
      const Vec dt_dx = Vec::gather(m, [&](std::size_t) { return dtdx; });
      // Flux components are in the sweep frame [rho, mom_n, mom_t, E].
      const int vars[4] = {DENS, xdir ? MOMX : MOMY, xdir ? MOMY : MOMX, ENER};
      for (int v = 0; v < 4; ++v) {
        const auto face = [&](std::size_t d) {
          return Vec::gather(m, [&](std::size_t q) { return fx.f[v][left_face[q] + d]; });
        };
        const Vec u = load(vars[v], interior) + dt_dx * (face(0) - face(1));
        for (std::size_t q = 0; q < m; ++q) {
          g.at(b, vars[v], interior[q].first, interior[q].second) = Real::adopt_raw(u[q]);
        }
      }
    }
    rt::Runtime::instance().count_mem(static_cast<u64>(rows * nc) * kNumVars * 2 *
                                      sizeof(double));
  }

  void apply_update(amr::AmrGrid<T>& g, typename amr::AmrGrid<T>::Block& b, int i, int j,
                    bool xdir, const T& dtdx, const Flux<T>& fm, const Flux<T>& fp) const {
    // Flux components are in the sweep frame [rho, mom_n, mom_t, E];
    // map back to (DENS, MOMX, MOMY, ENER).
    const int mom_n = xdir ? MOMX : MOMY;
    const int mom_t = xdir ? MOMY : MOMX;
    g.at(b, DENS, i, j) = g.at(b, DENS, i, j) + dtdx * (fm.f[0] - fp.f[0]);
    g.at(b, mom_n, i, j) = g.at(b, mom_n, i, j) + dtdx * (fm.f[1] - fp.f[1]);
    g.at(b, mom_t, i, j) = g.at(b, mom_t, i, j) + dtdx * (fm.f[2] - fp.f[2]);
    g.at(b, ENER, i, j) = g.at(b, ENER, i, j) + dtdx * (fm.f[3] - fp.f[3]);
  }

  HydroConfig cfg_;
};

}  // namespace raptor::hydro
