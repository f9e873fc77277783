// Out-of-line template implementations for AmrGrid (included by grid.hpp).
#pragma once

#include <algorithm>

#include "amr/grid.hpp"

namespace raptor::amr {

namespace detail {
inline double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::fabs(a) < std::fabs(b) ? a : b;
}

// ---------------------------------------------------------------------------
// Instrumented mesh kernels (T = Real, op-mode only — callers gate).
//
// Each kernel exists in two dispatch shapes chosen by `batch`: a scalar
// per-element loop through Runtime::op2, and an array sweep through the
// op2_batch/trunc_array entry points. The batch entry points are pinned
// bitwise-identical to the scalar op loop (results and per-OpKind counter
// totals, test_runtime), so the two shapes of every kernel below are too.
// ---------------------------------------------------------------------------

/// Slope-select codes: which one-sided difference survives the limiter.
/// Both differences are always computed (the clamped stencil makes the
/// unused one an exact zero at edges) so scalar/batch op counts agree; the
/// selection itself is raw logic, not a counted op, exactly like the minmod
/// in hydro::recon_batch.
enum : signed char { kSlopeMinmod = 0, kSlopeLo = 1, kSlopeHi = 2 };

inline double select_slope(signed char code, double dm, double dp) {
  if (code == kSlopeLo) return dm;
  if (code == kSlopeHi) return dp;
  return minmod(dm, dp);
}

/// Array `_raptor_pre_c` move of n gathered payloads: quantize-on-move into
/// the effective format at the call site (identity copy when no truncation
/// applies). Not counted as flops, like mem_make.
inline void mesh_move(const double* in, double* out, std::size_t n, bool batch) {
  auto& R = rt::Runtime::instance();
  if (batch) {
    R.trunc_array(in, out, n);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) R.trunc_array(in + k, out + k, 1);
}

/// Conservative 2x2 restriction over gathered fine payloads:
///   0.25 * ((f00 + f10) + (f01 + f11))
/// — 3 Adds + 1 Mul per element, the same association as the native double
/// path. Writes `out` (may alias a scratch member not used by this kernel).
inline void mesh_restrict(MeshScratch& s, std::size_t n, bool batch, double* out) {
  auto& R = rt::Runtime::instance();
  if (!batch) {
    for (std::size_t k = 0; k < n; ++k) {
      const double a = R.op2(rt::OpKind::Add, s.f00[k], s.f10[k]);
      const double b = R.op2(rt::OpKind::Add, s.f01[k], s.f11[k]);
      out[k] = R.op2(rt::OpKind::Mul, 0.25, R.op2(rt::OpKind::Add, a, b));
    }
    return;
  }
  if (s.quarter.size() < n) s.quarter.assign(n, 0.25);
  R.op2_batch(rt::OpKind::Add, s.f00.data(), s.f10.data(), s.s1.data(), n);
  R.op2_batch(rt::OpKind::Add, s.f01.data(), s.f11.data(), s.s2.data(), n);
  R.op2_batch(rt::OpKind::Add, s.s1.data(), s.s2.data(), s.s1.data(), n);
  R.op2_batch(rt::OpKind::Mul, s.quarter.data(), s.s1.data(), out, n);
}

/// Slope-limited prolongation over gathered coarse payloads:
///   out = (uc + offx * sx) + offy * sy
/// with sx/sy selected from the one-sided differences by the per-element
/// codes — 4 Subs + 2 Muls + 2 Adds per element, matching the association
/// of the native double path.
inline void mesh_prolong(MeshScratch& s, std::size_t n, bool batch, double* out) {
  auto& R = rt::Runtime::instance();
  if (!batch) {
    for (std::size_t k = 0; k < n; ++k) {
      const double dxm = R.op2(rt::OpKind::Sub, s.uc[k], s.xlo[k]);
      const double dxp = R.op2(rt::OpKind::Sub, s.xhi[k], s.uc[k]);
      const double dym = R.op2(rt::OpKind::Sub, s.uc[k], s.ylo[k]);
      const double dyp = R.op2(rt::OpKind::Sub, s.yhi[k], s.uc[k]);
      const double sx = select_slope(s.cx[k], dxm, dxp);
      const double sy = select_slope(s.cy[k], dym, dyp);
      const double tx = R.op2(rt::OpKind::Mul, s.offx[k], sx);
      const double part = R.op2(rt::OpKind::Add, s.uc[k], tx);
      const double ty = R.op2(rt::OpKind::Mul, s.offy[k], sy);
      out[k] = R.op2(rt::OpKind::Add, part, ty);
    }
    return;
  }
  R.op2_batch(rt::OpKind::Sub, s.uc.data(), s.xlo.data(), s.dm.data(), n);
  R.op2_batch(rt::OpKind::Sub, s.xhi.data(), s.uc.data(), s.dp.data(), n);
  for (std::size_t k = 0; k < n; ++k) s.sx[k] = select_slope(s.cx[k], s.dm[k], s.dp[k]);
  R.op2_batch(rt::OpKind::Sub, s.uc.data(), s.ylo.data(), s.dm.data(), n);
  R.op2_batch(rt::OpKind::Sub, s.yhi.data(), s.uc.data(), s.dp.data(), n);
  for (std::size_t k = 0; k < n; ++k) s.sy[k] = select_slope(s.cy[k], s.dm[k], s.dp[k]);
  R.op2_batch(rt::OpKind::Mul, s.offx.data(), s.sx.data(), s.t1.data(), n);
  R.op2_batch(rt::OpKind::Add, s.uc.data(), s.t1.data(), s.s1.data(), n);
  R.op2_batch(rt::OpKind::Mul, s.offy.data(), s.sy.data(), s.t1.data(), n);
  R.op2_batch(rt::OpKind::Add, s.s1.data(), s.t1.data(), out, n);
}

inline void resize_prolong(MeshScratch& s, std::size_t n) {
  for (auto* v : {&s.uc, &s.xlo, &s.xhi, &s.ylo, &s.yhi, &s.offx, &s.offy, &s.dm, &s.dp, &s.sx,
                  &s.sy, &s.t1, &s.s1, &s.dst}) {
    v->resize(n);
  }
  s.cx.resize(n);
  s.cy.resize(n);
}

inline void resize_restrict(MeshScratch& s, std::size_t n) {
  for (auto* v : {&s.f00, &s.f10, &s.f01, &s.f11, &s.s1, &s.s2, &s.dst}) v->resize(n);
}
}  // namespace detail

template <class T>
double AmrGrid<T>::coarse_slope(const Block& cb, int var, int i, int j, bool xdir) const {
  const auto u = [&](int ii, int jj) { return to_double(at(cb, var, ii, jj)); };
  const int di = xdir ? 1 : 0;
  const int dj = xdir ? 0 : 1;
  // Guards of the source block are valid during prolongation (regrid fills
  // guards first); fill_side prolongation clamps to the interior instead.
  const int lo = xdir ? i - di : j - dj;
  const int hi = xdir ? i + di : j + dj;
  const int n = xdir ? cfg_.nxb : cfg_.nyb;
  const bool have_lo = lo >= -cfg_.ng && lo < n + cfg_.ng;
  const bool have_hi = hi >= -cfg_.ng && hi < n + cfg_.ng;
  const double uc = u(i, j);
  const double dm = have_lo ? uc - u(i - di, j - dj) : 0.0;
  const double dp = have_hi ? u(i + di, j + dj) - uc : 0.0;
  if (!have_lo) return dp;
  if (!have_hi) return dm;
  return detail::minmod(dm, dp);
}

template <class T>
void AmrGrid<T>::fill_physical(Block& b, Side side, detail::MeshScratch& s, bool instr) {
  const BC bc = cfg_.bc[static_cast<int>(side)];
  RAPTOR_ASSERT(bc != BC::Periodic);
  const bool xdir = side == Side::XLo || side == Side::XHi;
  const auto& odd = xdir ? cfg_.x_odd_vars : cfg_.y_odd_vars;
  const auto is_odd = [&odd](int v) {
    return std::find(odd.begin(), odd.end(), v) != odd.end();
  };
  if (instr) {
    if constexpr (std::is_same_v<T, Real>) {
      // Quantize-on-move: gather the mirrored payloads (sign applied raw —
      // rounding is symmetric, so flip-then-quantize equals the scalar
      // semantics), stream them through trunc_array, adopt the results.
      const std::size_t count =
          static_cast<std::size_t>(cfg_.ng) * (xdir ? cfg_.nyb : cfg_.nxb);
      s.src.resize(count);
      s.dst.resize(count);
      for (int v = 0; v < cfg_.nvar; ++v) {
        const double sgn = (bc == BC::Reflect && is_odd(v)) ? -1.0 : 1.0;
        std::size_t idx = 0;
        const auto gather = [&](int si, int sj) {
          const double raw = at(b, v, si, sj).raw();
          s.src[idx++] = sgn == 1.0 ? raw : -raw;
        };
        for_each_physical_guard(side, [&](int /*gi*/, int /*gj*/, int si, int sj) {
          gather(si, sj);
        });
        detail::mesh_move(s.src.data(), s.dst.data(), count, cfg_.batch);
        idx = 0;
        for_each_physical_guard(side, [&](int gi, int gj, int /*si*/, int /*sj*/) {
          at(b, v, gi, gj) = Real::adopt_raw(s.dst[idx++]);
        });
      }
      return;
    }
  }
  for (int v = 0; v < cfg_.nvar; ++v) {
    const double sgn = (bc == BC::Reflect && is_odd(v)) ? -1.0 : 1.0;
    for_each_physical_guard(side, [&](int gi, int gj, int si, int sj) {
      at(b, v, gi, gj) = (sgn == 1.0) ? at(b, v, si, sj) : T(-to_double(at(b, v, si, sj)));
    });
  }
}

template <class T>
void AmrGrid<T>::fill_side(Block& b, Side side, detail::MeshScratch& s, bool instr) {
  const int ng = cfg_.ng, nxb = cfg_.nxb, nyb = cfg_.nyb;
  int nix = b.ix, niy = b.iy;
  switch (side) {
    case Side::XLo: --nix; break;
    case Side::XHi: ++nix; break;
    case Side::YLo: --niy; break;
    case Side::YHi: ++niy; break;
  }
  const int bx = blocks_x(b.level), by = blocks_y(b.level);
  if (nix < 0 || nix >= bx || niy < 0 || niy >= by) {
    if (cfg_.bc[static_cast<int>(side)] != BC::Periodic) {
      fill_physical(b, side, s, instr);
      return;
    }
    nix = (nix + bx) % bx;
    niy = (niy + by) % by;
  }

  // Guard index ranges for this side and the neighbor-local mapping.
  int i0, i1, j0, j1;
  switch (side) {
    case Side::XLo: i0 = -ng; i1 = 0; j0 = 0; j1 = nyb; break;
    case Side::XHi: i0 = nxb; i1 = nxb + ng; j0 = 0; j1 = nyb; break;
    case Side::YLo: i0 = 0; i1 = nxb; j0 = -ng; j1 = 0; break;
    default:        i0 = 0; i1 = nxb; j0 = nyb; j1 = nyb + ng; break;
  }
  const auto local = [&](int i, int j, int& li, int& lj) {
    li = i;
    lj = j;
    switch (side) {
      case Side::XLo: li = i + nxb; break;
      case Side::XHi: li = i - nxb; break;
      case Side::YLo: lj = j + nyb; break;
      case Side::YHi: lj = j - nyb; break;
    }
  };

  const std::size_t count = static_cast<std::size_t>(i1 - i0) * (j1 - j0);

  // Case 1: same-level neighbor — direct copy of interior cells
  // (quantize-on-move through trunc_array when instrumented).
  if (const int nb = find_leaf(b.level, nix, niy); nb >= 0) {
    const Block& src = leaves_[nb];
    if (instr) {
      if constexpr (std::is_same_v<T, Real>) {
        s.src.resize(count);
        s.dst.resize(count);
        for (int v = 0; v < cfg_.nvar; ++v) {
          std::size_t idx = 0;
          for (int j = j0; j < j1; ++j) {
            for (int i = i0; i < i1; ++i) {
              int li, lj;
              local(i, j, li, lj);
              s.src[idx++] = at(src, v, li, lj).raw();
            }
          }
          detail::mesh_move(s.src.data(), s.dst.data(), count, cfg_.batch);
          idx = 0;
          for (int j = j0; j < j1; ++j) {
            for (int i = i0; i < i1; ++i) at(b, v, i, j) = Real::adopt_raw(s.dst[idx++]);
          }
        }
        return;
      }
    }
    for (int v = 0; v < cfg_.nvar; ++v) {
      for (int j = j0; j < j1; ++j) {
        for (int i = i0; i < i1; ++i) {
          int li, lj;
          local(i, j, li, lj);
          at(b, v, i, j) = at(src, v, li, lj);
        }
      }
    }
    return;
  }

  // Case 2: coarser neighbor — slope-limited prolongation (interior-only
  // slopes: the neighbor's guards may not be valid during this pass; the
  // instrumented kernel clamps its stencil reads to the interior instead,
  // which makes the unused one-sided difference an exact zero at edges).
  if (const int cb = find_leaf(b.level - 1, nix >> 1, niy >> 1); cb >= 0) {
    const Block& src = leaves_[cb];
    const auto stencil = [&](int i, int j, int& ci, int& cj, double& offx, double& offy) {
      int li, lj;
      local(i, j, li, lj);
      const int fx = (nix & 1) * nxb + li;  // position within the coarse
      const int fy = (niy & 1) * nyb + lj;  // neighbor, in fine cells
      ci = fx >> 1;
      cj = fy >> 1;
      offx = (fx & 1) ? 0.25 : -0.25;
      offy = (fy & 1) ? 0.25 : -0.25;
    };
    if (instr) {
      if constexpr (std::is_same_v<T, Real>) {
        detail::resize_prolong(s, count);
        for (int v = 0; v < cfg_.nvar; ++v) {
          std::size_t idx = 0;
          for (int j = j0; j < j1; ++j) {
            for (int i = i0; i < i1; ++i) {
              int ci, cj;
              double offx, offy;
              stencil(i, j, ci, cj, offx, offy);
              s.uc[idx] = at(src, v, ci, cj).raw();
              s.xlo[idx] = at(src, v, ci > 0 ? ci - 1 : ci, cj).raw();
              s.xhi[idx] = at(src, v, ci < nxb - 1 ? ci + 1 : ci, cj).raw();
              s.ylo[idx] = at(src, v, ci, cj > 0 ? cj - 1 : cj).raw();
              s.yhi[idx] = at(src, v, ci, cj < nyb - 1 ? cj + 1 : cj).raw();
              s.offx[idx] = offx;
              s.offy[idx] = offy;
              s.cx[idx] = (ci > 0 && ci < nxb - 1) ? detail::kSlopeMinmod
                          : (ci > 0 ? detail::kSlopeLo : detail::kSlopeHi);
              s.cy[idx] = (cj > 0 && cj < nyb - 1) ? detail::kSlopeMinmod
                          : (cj > 0 ? detail::kSlopeLo : detail::kSlopeHi);
              ++idx;
            }
          }
          detail::mesh_prolong(s, count, cfg_.batch, s.dst.data());
          idx = 0;
          for (int j = j0; j < j1; ++j) {
            for (int i = i0; i < i1; ++i) at(b, v, i, j) = Real::adopt_raw(s.dst[idx++]);
          }
        }
        return;
      }
    }
    for (int v = 0; v < cfg_.nvar; ++v) {
      for (int j = j0; j < j1; ++j) {
        for (int i = i0; i < i1; ++i) {
          int ci, cj;
          double offx, offy;
          stencil(i, j, ci, cj, offx, offy);
          const auto u = [&](int ii, int jj) { return to_double(at(src, v, ii, jj)); };
          const double uc = u(ci, cj);
          const double dxm = ci > 0 ? uc - u(ci - 1, cj) : 0.0;
          const double dxp = ci < nxb - 1 ? u(ci + 1, cj) - uc : 0.0;
          const double sx = (ci > 0 && ci < nxb - 1) ? detail::minmod(dxm, dxp)
                                                     : (ci > 0 ? dxm : dxp);
          const double dym = cj > 0 ? uc - u(ci, cj - 1) : 0.0;
          const double dyp = cj < nyb - 1 ? u(ci, cj + 1) - uc : 0.0;
          const double sy = (cj > 0 && cj < nyb - 1) ? detail::minmod(dym, dyp)
                                                     : (cj > 0 ? dym : dyp);
          at(b, v, i, j) = T(uc + sx * offx + sy * offy);
        }
      }
    }
    return;
  }

  // Case 3: finer neighbors — conservative restriction (average 2x2).
  const auto fine_cell = [&](int i, int j, const Block*& fb, int& fi, int& fj) {
    int li, lj;
    local(i, j, li, lj);
    const int fli = 2 * li;
    const int flj = 2 * lj;
    const int cx = fli >= nxb ? 1 : 0;
    const int cy = flj >= nyb ? 1 : 0;
    const int child = find_leaf(b.level + 1, 2 * nix + cx, 2 * niy + cy);
    RAPTOR_REQUIRE(child >= 0, "guard fill: 2:1 balance violated");
    fb = &leaves_[child];
    fi = fli - cx * nxb;
    fj = flj - cy * nyb;
  };
  if (instr) {
    if constexpr (std::is_same_v<T, Real>) {
      detail::resize_restrict(s, count);
      for (int v = 0; v < cfg_.nvar; ++v) {
        std::size_t idx = 0;
        for (int j = j0; j < j1; ++j) {
          for (int i = i0; i < i1; ++i) {
            const Block* fb = nullptr;
            int fi, fj;
            fine_cell(i, j, fb, fi, fj);
            s.f00[idx] = at(*fb, v, fi, fj).raw();
            s.f10[idx] = at(*fb, v, fi + 1, fj).raw();
            s.f01[idx] = at(*fb, v, fi, fj + 1).raw();
            s.f11[idx] = at(*fb, v, fi + 1, fj + 1).raw();
            ++idx;
          }
        }
        detail::mesh_restrict(s, count, cfg_.batch, s.dst.data());
        idx = 0;
        for (int j = j0; j < j1; ++j) {
          for (int i = i0; i < i1; ++i) at(b, v, i, j) = Real::adopt_raw(s.dst[idx++]);
        }
      }
      return;
    }
  }
  for (int v = 0; v < cfg_.nvar; ++v) {
    for (int j = j0; j < j1; ++j) {
      for (int i = i0; i < i1; ++i) {
        const Block* fb = nullptr;
        int fi, fj;
        fine_cell(i, j, fb, fi, fj);
        // Same association as the instrumented kernel so the untruncated
        // Real run stays bitwise-equal to the double substrate.
        const double avg =
            0.25 * ((to_double(at(*fb, v, fi, fj)) + to_double(at(*fb, v, fi + 1, fj))) +
                    (to_double(at(*fb, v, fi, fj + 1)) + to_double(at(*fb, v, fi + 1, fj + 1))));
        at(b, v, i, j) = T(avg);
      }
    }
  }
}

template <class T>
int AmrGrid<T>::regrid() {
  fill_guards();
  const int n = num_leaves();

  // The estimator below and the flag/balance fixpoint run in native double
  // by design (paper §6.1: the AMR algorithm itself is never truncated; it
  // only *reacts* to truncated solution data). Only the data transfers of
  // step 4 — merge restriction and split prolongation — are instrumented,
  // under amr/L<k>/restrict / amr/L<k>/prolong region labels.
  bool instr = false;
  if constexpr (std::is_same_v<T, Real>) {
    instr = rt::Runtime::instance().mode() == rt::Mode::Op;
  }
  detail::MeshScratch scratch;

  // 1. Desired level per leaf from the Löhner estimator.
  std::vector<int> desired(n);
#pragma omp parallel for schedule(dynamic)
  for (int i = 0; i < n; ++i) {
    const Block& b = leaves_[i];
    const double err = loehner_error(b);
    int d = b.level;
    if (err > cfg_.refine_thresh) {
      d = std::min(b.level + 1, cfg_.max_level);
    } else if (err < cfg_.derefine_thresh) {
      d = std::max(b.level - 1, 1);
    }
    desired[i] = d;
  }

  // 2. Collect adjacency edges (faces + corners, across levels).
  std::vector<std::pair<int, int>> edges;
  edges.reserve(static_cast<std::size_t>(n) * 8);
  for (int i = 0; i < n; ++i) {
    const Block& b = leaves_[i];
    const int bx = blocks_x(b.level), by = blocks_y(b.level);
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dxn = -1; dxn <= 1; ++dxn) {
        if (dxn == 0 && dy == 0) continue;
        int nix = b.ix + dxn, niy = b.iy + dy;
        bool wrapped = false;
        if (nix < 0 || nix >= bx) {
          if (cfg_.bc[nix < 0 ? 0 : 1] != BC::Periodic) continue;
          nix = (nix + bx) % bx;
          wrapped = true;
        }
        if (niy < 0 || niy >= by) {
          if (cfg_.bc[niy < 0 ? 2 : 3] != BC::Periodic) continue;
          niy = (niy + by) % by;
          wrapped = true;
        }
        (void)wrapped;
        if (const int s = find_leaf(b.level, nix, niy); s >= 0) {
          if (i < s) edges.emplace_back(i, s);
          continue;
        }
        if (const int c = find_leaf(b.level - 1, nix >> 1, niy >> 1); c >= 0) {
          edges.emplace_back(std::min(i, c), std::max(i, c));
          continue;
        }
        // Finer: given prior balance the neighbor's children exist at
        // level+1. Only the children that actually touch this block
        // constrain it: for a face, the two children on the shared face;
        // for a corner, the single child at the shared corner. (Connecting
        // all four would over-propagate refinement diagonally.)
        const int cx_lo = dxn == -1 ? 1 : 0;
        const int cx_hi = dxn == 1 ? 0 : 1;
        const int cy_lo = dy == -1 ? 1 : 0;
        const int cy_hi = dy == 1 ? 0 : 1;
        for (int cy = cy_lo; cy <= cy_hi; ++cy) {
          for (int cx = cx_lo; cx <= cx_hi; ++cx) {
            if (const int f = find_leaf(b.level + 1, 2 * nix + cx, 2 * niy + cy); f >= 0) {
              edges.emplace_back(std::min(i, f), std::max(i, f));
            }
          }
        }
      }
    }
  }

  // 3. Make desired levels both 2:1-consistent and *realizable*: a leaf can
  //    only coarsen if its whole sibling quartet coarsens, so an infeasible
  //    merge wish must be demoted back to the current level — which can in
  //    turn invalidate neighbouring merges. Iterate to a joint fixpoint
  //    (desires only ever increase, so this terminates).
  bool adjusted = true;
  while (adjusted) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& [a, c] : edges) {
        if (desired[a] > desired[c] + 1) {
          desired[c] = desired[a] - 1;
          changed = true;
        }
        if (desired[c] > desired[a] + 1) {
          desired[a] = desired[c] - 1;
          changed = true;
        }
      }
    }
    for (int i = 0; i < n; ++i) {
      desired[i] = std::clamp(desired[i], std::max(leaves_[i].level - 1, 1),
                              std::min(leaves_[i].level + 1, cfg_.max_level));
    }
    adjusted = false;
    for (int i = 0; i < n; ++i) {
      const Block& b = leaves_[i];
      if (desired[i] >= b.level) continue;
      const int pix = b.ix >> 1, piy = b.iy >> 1;
      bool feasible = true;
      for (int cy = 0; cy <= 1 && feasible; ++cy) {
        for (int cx = 0; cx <= 1 && feasible; ++cx) {
          const int s = find_leaf(b.level, 2 * pix + cx, 2 * piy + cy);
          feasible = s >= 0 && desired[s] < leaves_[s].level;
        }
      }
      if (!feasible) {
        desired[i] = b.level;
        adjusted = true;
      }
    }
  }

  // 4. Apply: merge sibling quartets flagged for derefinement, split leaves
  //    flagged for refinement, keep the rest.
  std::vector<Block> out;
  out.reserve(leaves_.size());
  std::vector<bool> consumed(n, false);
  int changes = 0;

  for (int i = 0; i < n; ++i) {
    if (consumed[i]) continue;
    const Block& b = leaves_[i];
    if (desired[i] >= b.level) continue;
    // Candidate merge: locate all four siblings.
    const int pix = b.ix >> 1, piy = b.iy >> 1;
    int sib[2][2];
    bool ok = true;
    for (int cy = 0; cy <= 1 && ok; ++cy) {
      for (int cx = 0; cx <= 1 && ok; ++cx) {
        const int s = find_leaf(b.level, 2 * pix + cx, 2 * piy + cy);
        ok = s >= 0 && !consumed[s] && desired[s] < leaves_[s].level;
        sib[cy][cx] = s;
      }
    }
    if (!ok) continue;
    Block parent;
    parent.level = b.level - 1;
    parent.ix = pix;
    parent.iy = piy;
    parent.data.assign(block_elems(), T(0.0));
    Region region(restrict_label(parent.level));
    for (int cy = 0; cy <= 1; ++cy) {
      for (int cx = 0; cx <= 1; ++cx) {
        const Block& ch = leaves_[sib[cy][cx]];
        consumed[sib[cy][cx]] = true;
        if (instr) {
          if constexpr (std::is_same_v<T, Real>) {
            const std::size_t count =
                static_cast<std::size_t>(cfg_.nxb / 2) * (cfg_.nyb / 2);
            detail::resize_restrict(scratch, count);
            for (int v = 0; v < cfg_.nvar; ++v) {
              std::size_t idx = 0;
              for (int j = 0; j < cfg_.nyb; j += 2) {
                for (int ii = 0; ii < cfg_.nxb; ii += 2) {
                  scratch.f00[idx] = at(ch, v, ii, j).raw();
                  scratch.f10[idx] = at(ch, v, ii + 1, j).raw();
                  scratch.f01[idx] = at(ch, v, ii, j + 1).raw();
                  scratch.f11[idx] = at(ch, v, ii + 1, j + 1).raw();
                  ++idx;
                }
              }
              detail::mesh_restrict(scratch, count, cfg_.batch, scratch.dst.data());
              idx = 0;
              for (int j = 0; j < cfg_.nyb; j += 2) {
                for (int ii = 0; ii < cfg_.nxb; ii += 2) {
                  at(parent, v, cx * (cfg_.nxb / 2) + ii / 2, cy * (cfg_.nyb / 2) + j / 2) =
                      Real::adopt_raw(scratch.dst[idx++]);
                }
              }
            }
            continue;
          }
        }
        for (int v = 0; v < cfg_.nvar; ++v) {
          for (int j = 0; j < cfg_.nyb; j += 2) {
            for (int ii = 0; ii < cfg_.nxb; ii += 2) {
              const double avg =
                  0.25 * ((to_double(at(ch, v, ii, j)) + to_double(at(ch, v, ii + 1, j))) +
                          (to_double(at(ch, v, ii, j + 1)) + to_double(at(ch, v, ii + 1, j + 1))));
              at(parent, v, cx * (cfg_.nxb / 2) + ii / 2, cy * (cfg_.nyb / 2) + j / 2) = T(avg);
            }
          }
        }
      }
    }
    out.push_back(std::move(parent));
    ++changes;
  }

  for (int i = 0; i < n; ++i) {
    if (consumed[i]) continue;
    Block& b = leaves_[i];
    if (desired[i] <= b.level) {
      out.push_back(std::move(b));
      continue;
    }
    // Split into four children with slope-limited prolongation (guards of b
    // are valid: regrid filled them above, so the stencil always has both
    // neighbors and the limiter is always the two-sided minmod).
    Region region(prolong_label(b.level + 1));
    for (int cy = 0; cy <= 1; ++cy) {
      for (int cx = 0; cx <= 1; ++cx) {
        Block ch;
        ch.level = b.level + 1;
        ch.ix = 2 * b.ix + cx;
        ch.iy = 2 * b.iy + cy;
        ch.data.assign(block_elems(), T(0.0));
        bool filled = false;
        if (instr) {
          if constexpr (std::is_same_v<T, Real>) {
            const std::size_t count = static_cast<std::size_t>(cfg_.nxb) * cfg_.nyb;
            detail::resize_prolong(scratch, count);
            for (int v = 0; v < cfg_.nvar; ++v) {
              std::size_t idx = 0;
              for (int j = 0; j < cfg_.nyb; ++j) {
                for (int ii = 0; ii < cfg_.nxb; ++ii) {
                  const int fx = cx * cfg_.nxb + ii;
                  const int fy = cy * cfg_.nyb + j;
                  const int ci = fx >> 1;
                  const int cj = fy >> 1;
                  scratch.uc[idx] = at(b, v, ci, cj).raw();
                  scratch.xlo[idx] = at(b, v, ci - 1, cj).raw();
                  scratch.xhi[idx] = at(b, v, ci + 1, cj).raw();
                  scratch.ylo[idx] = at(b, v, ci, cj - 1).raw();
                  scratch.yhi[idx] = at(b, v, ci, cj + 1).raw();
                  scratch.offx[idx] = (fx & 1) ? 0.25 : -0.25;
                  scratch.offy[idx] = (fy & 1) ? 0.25 : -0.25;
                  scratch.cx[idx] = detail::kSlopeMinmod;
                  scratch.cy[idx] = detail::kSlopeMinmod;
                  ++idx;
                }
              }
              detail::mesh_prolong(scratch, count, cfg_.batch, scratch.dst.data());
              idx = 0;
              for (int j = 0; j < cfg_.nyb; ++j) {
                for (int ii = 0; ii < cfg_.nxb; ++ii) {
                  at(ch, v, ii, j) = Real::adopt_raw(scratch.dst[idx++]);
                }
              }
            }
            filled = true;
          }
        }
        if (!filled) {
          for (int v = 0; v < cfg_.nvar; ++v) {
            for (int j = 0; j < cfg_.nyb; ++j) {
              for (int ii = 0; ii < cfg_.nxb; ++ii) {
                const int fx = cx * cfg_.nxb + ii;
                const int fy = cy * cfg_.nyb + j;
                const int ci = fx >> 1;
                const int cj = fy >> 1;
                const double offx = (fx & 1) ? 0.25 : -0.25;
                const double offy = (fy & 1) ? 0.25 : -0.25;
                const double uc = to_double(at(b, v, ci, cj));
                const double sx = coarse_slope(b, v, ci, cj, /*xdir=*/true);
                const double sy = coarse_slope(b, v, ci, cj, /*xdir=*/false);
                at(ch, v, ii, j) = T(uc + sx * offx + sy * offy);
              }
            }
          }
        }
        out.push_back(std::move(ch));
      }
    }
    ++changes;
  }

  // Kept blocks were moved into `out` regardless of whether anything
  // changed, so the swap is unconditional.
  leaves_ = std::move(out);
  rebuild_map();
  return changes;
}

template <class T>
double AmrGrid<T>::sample(int var, double x, double y) const {
  x = std::clamp(x, cfg_.xmin + 1e-12, cfg_.xmax - 1e-12);
  y = std::clamp(y, cfg_.ymin + 1e-12, cfg_.ymax - 1e-12);
  for (int l = cfg_.max_level; l >= 1; --l) {
    const double hx = dx(l), hy = dy(l);
    const int gx = static_cast<int>((x - cfg_.xmin) / hx);
    const int gy = static_cast<int>((y - cfg_.ymin) / hy);
    const int bxc = gx / cfg_.nxb, byc = gy / cfg_.nyb;
    const int n = find_leaf(l, bxc, byc);
    if (n < 0) continue;
    const Block& b = leaves_[n];
    return to_double(at(b, var, gx - bxc * cfg_.nxb, gy - byc * cfg_.nyb));
  }
  RAPTOR_REQUIRE(false, "sample: no covering leaf (corrupt hierarchy)");
  return 0.0;
}

template <class T>
bool AmrGrid<T>::balanced() const {
  // Probe points just across every face/corner of every leaf at the leaf's
  // own cell granularity; the covering leaf's level must differ by <= 1.
  const double eps_x = dx(cfg_.max_level) * 0.25;
  const double eps_y = dy(cfg_.max_level) * 0.25;
  const double wx = cfg_.xmax - cfg_.xmin;
  const double wy = cfg_.ymax - cfg_.ymin;
  const auto level_at = [this](double x, double y) -> int {
    for (int l = cfg_.max_level; l >= 1; --l) {
      const int gx = static_cast<int>((x - cfg_.xmin) / dx(l));
      const int gy = static_cast<int>((y - cfg_.ymin) / dy(l));
      if (find_leaf(l, gx / cfg_.nxb, gy / cfg_.nyb) >= 0) return l;
    }
    return -1;
  };
  for (const auto& b : leaves_) {
    const double hx = dx(b.level), hy = dy(b.level);
    const double x0 = cfg_.xmin + b.ix * cfg_.nxb * hx;
    const double y0 = cfg_.ymin + b.iy * cfg_.nyb * hy;
    const double x1 = x0 + cfg_.nxb * hx;
    const double y1 = y0 + cfg_.nyb * hy;
    std::vector<std::pair<double, double>> probes;
    for (int k = 0; k < cfg_.nxb; ++k) {
      const double x = x0 + (k + 0.5) * hx;
      probes.emplace_back(x, y0 - eps_y);
      probes.emplace_back(x, y1 + eps_y);
    }
    for (int k = 0; k < cfg_.nyb; ++k) {
      const double y = y0 + (k + 0.5) * hy;
      probes.emplace_back(x0 - eps_x, y);
      probes.emplace_back(x1 + eps_x, y);
    }
    probes.emplace_back(x0 - eps_x, y0 - eps_y);
    probes.emplace_back(x1 + eps_x, y0 - eps_y);
    probes.emplace_back(x0 - eps_x, y1 + eps_y);
    probes.emplace_back(x1 + eps_x, y1 + eps_y);
    for (auto [px, py] : probes) {
      if (px < cfg_.xmin) {
        if (cfg_.bc[0] != BC::Periodic) continue;
        px += wx;
      }
      if (px > cfg_.xmax) {
        if (cfg_.bc[1] != BC::Periodic) continue;
        px -= wx;
      }
      if (py < cfg_.ymin) {
        if (cfg_.bc[2] != BC::Periodic) continue;
        py += wy;
      }
      if (py > cfg_.ymax) {
        if (cfg_.bc[3] != BC::Periodic) continue;
        py -= wy;
      }
      const int l = level_at(px, py);
      if (l < 0 || std::abs(l - b.level) > 1) return false;
    }
  }
  return true;
}

}  // namespace raptor::amr
