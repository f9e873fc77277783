// Approximate Riemann solvers for the 2D compressible Euler equations
// (gamma-law gas): Rusanov (local Lax-Friedrichs), HLL and HLLC (Toro).
//
// All kernels are templated on the scalar type T; with T = raptor::Real
// every operation routes through the RAPTOR runtime. The "hydro/riemann"
// region label is applied by the caller (euler.hpp), so mem-mode flags and
// Table-2 exclusions see these kernels as one module.
//
// riemann_flux_batch runs the same kernels over a whole span of faces in
// op-mode (DESIGN.md §8): the branch-free parts are instantiated with
// T = batch::Vec, the wave-speed branches partition the faces (gather →
// batch ops → scatter), and every face gets bit-identically the flux and
// the per-OpKind op counts of riemann_flux<Real>.
#pragma once

#include <cmath>
#include <cstddef>
#include <vector>

#include "trunc/real.hpp"
#include "trunc/span_ops.hpp"

namespace raptor::hydro {

enum class RiemannKind { Rusanov, HLL, HLLC };

/// Primitive state in the sweep frame: un = normal velocity, ut =
/// transverse velocity.
template <class T>
struct PrimState {
  T rho, un, ut, p;
};

/// Conserved flux in the sweep frame: [rho, rho*un, rho*ut, E].
template <class T>
struct Flux {
  T f[4];
};

template <class T>
T sound_speed(const PrimState<T>& w, double gamma) {
  using std::sqrt;
  return sqrt(T(gamma) * w.p / w.rho);
}

template <class T>
T total_energy(const PrimState<T>& w, double gamma) {
  return w.p / T(gamma - 1.0) + T(0.5) * w.rho * (w.un * w.un + w.ut * w.ut);
}

/// Physical flux F(W) in the normal direction.
template <class T>
Flux<T> physical_flux(const PrimState<T>& w, double gamma) {
  const T e = total_energy(w, gamma);
  Flux<T> f;
  f.f[0] = w.rho * w.un;
  f.f[1] = w.rho * w.un * w.un + w.p;
  f.f[2] = w.rho * w.un * w.ut;
  f.f[3] = w.un * (e + w.p);
  return f;
}

template <class T>
Flux<T> rusanov_flux(const PrimState<T>& wl, const PrimState<T>& wr, double gamma) {
  using std::fabs;
  using std::fmax;
  const Flux<T> fl = physical_flux(wl, gamma);
  const Flux<T> fr = physical_flux(wr, gamma);
  const T cl = sound_speed(wl, gamma);
  const T cr = sound_speed(wr, gamma);
  const T smax = fmax(fabs(wl.un) + cl, fabs(wr.un) + cr);
  const T ul[4] = {wl.rho, wl.rho * wl.un, wl.rho * wl.ut, total_energy(wl, gamma)};
  const T ur[4] = {wr.rho, wr.rho * wr.un, wr.rho * wr.ut, total_energy(wr, gamma)};
  Flux<T> out;
  for (int k = 0; k < 4; ++k) {
    out.f[k] = T(0.5) * (fl.f[k] + fr.f[k]) - T(0.5) * smax * (ur[k] - ul[k]);
  }
  return out;
}

namespace detail {
/// Davis wave-speed estimates.
template <class T>
void wave_speeds(const PrimState<T>& wl, const PrimState<T>& wr, double gamma, T& sl, T& sr) {
  using std::fmin;
  using std::fmax;
  const T cl = sound_speed(wl, gamma);
  const T cr = sound_speed(wr, gamma);
  sl = fmin(wl.un - cl, wr.un - cr);
  sr = fmax(wl.un + cl, wr.un + cr);
}
}  // namespace detail

namespace detail {
/// HLL flux of a face inside the fan (sl < 0 < sr).
template <class T>
Flux<T> hll_star_flux(const PrimState<T>& wl, const PrimState<T>& wr, const T& sl, const T& sr,
                      const Flux<T>& fl, const Flux<T>& fr, double gamma) {
  const T ul[4] = {wl.rho, wl.rho * wl.un, wl.rho * wl.ut, total_energy(wl, gamma)};
  const T ur[4] = {wr.rho, wr.rho * wr.un, wr.rho * wr.ut, total_energy(wr, gamma)};
  Flux<T> out;
  const T inv = T(1.0) / (sr - sl);
  for (int k = 0; k < 4; ++k) {
    out.f[k] = (sr * fl.f[k] - sl * fr.f[k] + sl * sr * (ur[k] - ul[k])) * inv;
  }
  return out;
}

/// HLLC contact speed S* of a face inside the fan.
template <class T>
T hllc_sstar(const PrimState<T>& wl, const PrimState<T>& wr, const T& sl, const T& sr) {
  const T ml = wl.rho * (sl - wl.un);  // rho_L (S_L - u_L)
  const T mr = wr.rho * (sr - wr.un);
  return (wr.p - wl.p + wl.un * ml - wr.un * mr) / (ml - mr);
}

/// HLLC star-region flux F_K + S_K (U*_K - U_K) of side K = (w, s, f).
template <class T>
Flux<T> hllc_star_flux(const PrimState<T>& w, const T& s, const Flux<T>& f, const T& sstar,
                       double gamma) {
  const T e = total_energy(w, gamma);
  const T coef = w.rho * (s - w.un) / (s - sstar);
  T ustar[4];
  ustar[0] = coef;
  ustar[1] = coef * sstar;
  ustar[2] = coef * w.ut;
  ustar[3] = coef * (e / w.rho + (sstar - w.un) * (sstar + w.p / (w.rho * (s - w.un))));
  const T u[4] = {w.rho, w.rho * w.un, w.rho * w.ut, e};
  Flux<T> out;
  for (int k = 0; k < 4; ++k) out.f[k] = f.f[k] + s * (ustar[k] - u[k]);
  return out;
}
}  // namespace detail

template <class T>
Flux<T> hll_flux(const PrimState<T>& wl, const PrimState<T>& wr, double gamma) {
  T sl, sr;
  detail::wave_speeds(wl, wr, gamma, sl, sr);
  const Flux<T> fl = physical_flux(wl, gamma);
  const Flux<T> fr = physical_flux(wr, gamma);
  if (to_double(sl) >= 0.0) return fl;
  if (to_double(sr) <= 0.0) return fr;
  return detail::hll_star_flux(wl, wr, sl, sr, fl, fr, gamma);
}

template <class T>
Flux<T> hllc_flux(const PrimState<T>& wl, const PrimState<T>& wr, double gamma) {
  T sl, sr;
  detail::wave_speeds(wl, wr, gamma, sl, sr);
  const Flux<T> fl = physical_flux(wl, gamma);
  const Flux<T> fr = physical_flux(wr, gamma);
  if (to_double(sl) >= 0.0) return fl;
  if (to_double(sr) <= 0.0) return fr;
  const T sstar = detail::hllc_sstar(wl, wr, sl, sr);
  if (to_double(sstar) >= 0.0) return detail::hllc_star_flux(wl, sl, fl, sstar, gamma);
  return detail::hllc_star_flux(wr, sr, fr, sstar, gamma);
}

template <class T>
Flux<T> riemann_flux(RiemannKind kind, const PrimState<T>& wl, const PrimState<T>& wr,
                     double gamma) {
  switch (kind) {
    case RiemannKind::Rusanov: return rusanov_flux(wl, wr, gamma);
    case RiemannKind::HLL: return hll_flux(wl, wr, gamma);
    case RiemannKind::HLLC: return hllc_flux(wl, wr, gamma);
  }
  return rusanov_flux(wl, wr, gamma);
}

// ---------------------------------------------------------------------------
// Batched face kernels (op-mode only; raw payloads, lane i = face i)
// ---------------------------------------------------------------------------

namespace detail {
using batch::Vec;

/// Lanes `idx` of v, in order.
inline Vec take(const Vec& v, const std::vector<std::size_t>& idx) {
  return Vec::gather(idx.size(), [&](std::size_t i) { return v[idx[i]]; });
}
inline PrimState<Vec> take(const PrimState<Vec>& w, const std::vector<std::size_t>& idx) {
  return {take(w.rho, idx), take(w.un, idx), take(w.ut, idx), take(w.p, idx)};
}
inline Flux<Vec> take(const Flux<Vec>& f, const std::vector<std::size_t>& idx) {
  return {{take(f.f[0], idx), take(f.f[1], idx), take(f.f[2], idx), take(f.f[3], idx)}};
}

/// HLL / HLLC over a span of faces. The faces are partitioned on the
/// scalar code's own tests — sl >= 0 takes F_L, else sr <= 0 takes F_R,
/// else (NaN speeds included) the fan — and only the fan faces run the
/// fan ops, gathered into one span. HLLC then sends each fan face to its
/// star side (S* >= 0: left, so -0 goes left and NaN right) by gathering
/// that side's operands per lane, so both star sides share one span.
inline Flux<Vec> hll_family_batch(bool hllc, const PrimState<Vec>& wl, const PrimState<Vec>& wr,
                                  double gamma) {
  Vec sl, sr;
  wave_speeds(wl, wr, gamma, sl, sr);
  const Flux<Vec> fl = physical_flux(wl, gamma);
  const Flux<Vec> fr = physical_flux(wr, gamma);
  const std::size_t n = sl.size();
  enum : unsigned char { kLeft, kRight, kFan };
  std::vector<unsigned char> branch(n);
  std::vector<std::size_t> fan, slot(n);
  for (std::size_t i = 0; i < n; ++i) {
    branch[i] = sl[i] >= 0.0 ? kLeft : sr[i] <= 0.0 ? kRight : kFan;
    if (branch[i] == kFan) {
      slot[i] = fan.size();
      fan.push_back(i);
    }
  }
  Flux<Vec> mid;
  if (!fan.empty()) {
    const PrimState<Vec> wlf = take(wl, fan), wrf = take(wr, fan);
    const Vec slf = take(sl, fan), srf = take(sr, fan);
    if (hllc) {
      const Vec sstar = hllc_sstar(wlf, wrf, slf, srf);
      // Fan lane i's star-side operand, from face fan[i] of l or r.
      const auto side = [&](const Vec& l, const Vec& r) {
        return Vec::gather(fan.size(),
                           [&](std::size_t i) { return sstar[i] >= 0.0 ? l[fan[i]] : r[fan[i]]; });
      };
      const PrimState<Vec> w{side(wl.rho, wr.rho), side(wl.un, wr.un), side(wl.ut, wr.ut),
                             side(wl.p, wr.p)};
      const Flux<Vec> f{{side(fl.f[0], fr.f[0]), side(fl.f[1], fr.f[1]), side(fl.f[2], fr.f[2]),
                         side(fl.f[3], fr.f[3])}};
      mid = hllc_star_flux(w, side(sl, sr), f, sstar, gamma);
    } else {
      mid = hll_star_flux(wlf, wrf, slf, srf, take(fl, fan), take(fr, fan), gamma);
    }
  }
  Flux<Vec> out;
  for (int k = 0; k < 4; ++k) {
    out.f[k] = Vec::gather(n, [&](std::size_t i) {
      return branch[i] == kLeft ? fl.f[k][i] : branch[i] == kRight ? fr.f[k][i] : mid.f[k][slot[i]];
    });
  }
  return out;
}
}  // namespace detail

/// riemann_flux over a span of faces (lane i of wl/wr = face i), through
/// the runtime batch entry points. Per face, the flux and the per-OpKind op
/// counts equal riemann_flux<Real>'s bitwise. Op-mode only: batch::Vec
/// holds raw payloads, which mem-mode handles are not.
inline Flux<batch::Vec> riemann_flux_batch(RiemannKind kind, const PrimState<batch::Vec>& wl,
                                           const PrimState<batch::Vec>& wr, double gamma) {
  switch (kind) {
    case RiemannKind::Rusanov: return rusanov_flux(wl, wr, gamma);
    case RiemannKind::HLL: return detail::hll_family_batch(false, wl, wr, gamma);
    case RiemannKind::HLLC: return detail::hll_family_batch(true, wl, wr, gamma);
  }
  return rusanov_flux(wl, wr, gamma);
}

}  // namespace raptor::hydro
