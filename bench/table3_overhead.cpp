// Table 3 reproduction: RAPTOR's slowdown in practice.
//
// Measures wall-clock overhead of the instrumented Sedov run against the
// uninstrumented native baseline at a 12-bit mantissa, across the M-l
// cutoffs, for:
//   * op-mode, naive allocation (per-op heap cells ~ mpfr_init2/clear),
//   * op-mode, scratch-pad allocation (the Fig. 4b optimization),
//   * both with operation counting enabled (the paper's second block),
//   * the hardware fast path at a native format (fp32) — near-zero
//     emulation overhead (§3.4),
//   * mem-mode (baseline truncate-hydro and with Recon excluded; both cost
//     alike since exclusion is handled dynamically, paper fn. 20).
//
// The op-mode rows pin hc.batch = false so they measure the paper's per-op
// scalar dispatch, at e12m12: a 12-bit mantissa as in the paper, with an
// exponent wider than double's so that no fast_* kernel applies, every
// truncated op is BigFloat emulation and the allocation ablation bites.
// The native baseline and every row are timed round-robin, best of
// bench::kTrials, and written to table3_overhead.csv and, for the recorded
// perf trajectory, BENCH_table3.json.
//
// Expected shape: overhead tracks the truncated-op share; scratch beats
// naive; counting adds measurable cost; mem-mode is the most expensive.
//
// The batched op-mode dispatch (DESIGN.md §8) is measured at e8m12, inside
// the envelope, on three wired inner loops — the WENO5 row kernel, the PLM
// reconstruction pencil and the HLLC Riemann fluxes of a span of faces — as
//     overhead_ratio = (t_scalar - t_native) / (t_batch - t_native).
// The batched phase runs once per supported SIMD dispatch path (DESIGN.md
// §13); the forced-portable run is the pre-SIMD per-element loop body, so
// batch_portable_s / batch_<best>_s is the SIMD speedup. The loop numbers
// are written to BENCH_simd.json.
//
// Options: --level=N, --steps=N, --csv=..., --json=..., --simd-json=...,
//   --loops-only (skip the Sedov table; CI), --gate-simd=N (exit nonzero
//   unless the best SIMD path is >= N times the portable path on every
//   loop; no-op when only the portable path is supported).
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "incomp/weno.hpp"
#include "io/csv.hpp"
#include "support/cli.hpp"
#include "support/timer.hpp"
#include "trunc/span_ops.hpp"

using namespace raptor;

namespace {

constexpr int kMantissa = 12;

constexpr sf::simd::Path kAllPaths[3] = {sf::simd::Path::Portable, sf::simd::Path::Avx2,
                                         sf::simd::Path::Avx512};

const rt::TruncationSpec kLoopSpec = rt::TruncationSpec::trunc64(8, kMantissa);

/// One inner loop at format e8m12 in its three forms: native doubles, per-op
/// scalar Real dispatch, and the batched path. Each runs `reps` repetitions
/// over the same inputs and returns the seconds of that section.
struct Loop {
  const char* name;  ///< JSON key
  int reps;          ///< repetitions per trial
  std::function<double(int)> native, scalar, batch;
};

struct LoopTimes {
  double native_s = 0.0, scalar_s = 0.0, batch_s = 0.0;
  /// Batched phase under each forced SIMD path, indexed by Path; -1 marks
  /// paths this binary/CPU cannot run. batch_s is the default path's entry.
  double batch_path_s[3] = {-1.0, -1.0, -1.0};
  [[nodiscard]] double overhead_ratio() const {
    const double denom = batch_s - native_s;
    return denom > 0.0 ? (scalar_s - native_s) / denom : 0.0;
  }
  [[nodiscard]] double simd_speedup() const {
    double best = batch_path_s[0];
    for (const double s : batch_path_s) {
      if (s > 0.0 && s < best) best = s;
    }
    return best > 0.0 ? batch_path_s[0] / best : 0.0;
  }
};

/// Times the three forms of `loop`, the batched one once per supported SIMD
/// path, all round-robin through bench::min_of_trials.
LoopTimes time_loop(const Loop& loop) {
  auto& R = rt::Runtime::instance();
  const auto fresh = [&R, &loop](const std::function<double(int)>& form,
                                 std::optional<sf::simd::Path> path) {
    return [&R, &loop, &form, path] {
      R.reset_all();
      if (path) R.force_simd_path(*path);
      const double s = form(loop.reps);
      R.reset_all();
      return s;
    };
  };
  std::vector<std::function<double()>> runs{fresh(loop.native, std::nullopt),
                                            fresh(loop.scalar, std::nullopt)};
  std::vector<sf::simd::Path> paths;
  for (const sf::simd::Path p : kAllPaths) {
    if (!sf::simd::path_supported(p)) continue;
    paths.push_back(p);
    runs.emplace_back(fresh(loop.batch, p));
  }
  const std::vector<double> t = bench::min_of_trials(runs);
  LoopTimes out;
  out.native_s = t[0];
  out.scalar_s = t[1];
  for (std::size_t i = 0; i < paths.size(); ++i) {
    out.batch_path_s[static_cast<int>(paths[i])] = t[2 + i];
  }
  out.batch_s = out.batch_path_s[static_cast<int>(sf::simd::default_path())];
  return out;
}

/// WENO5 advection row: per-cell scalar Real dispatch (per-cell TruncScope,
/// as the solver's scalar path) against the batched Vec path (one scope per
/// row).
Loop weno_row(int n) {
  std::vector<double> phi_d(n + 6);
  for (int i = 0; i < n + 6; ++i) phi_d[i] = std::sin(0.05 * i) + 1.5;
  const double h = 1.0 / n;
  Loop loop{"weno_row", 64, {}, {}, {}};
  loop.native = [phi_d, n, h](int reps) {
    volatile double sink = 0.0;
    Timer t;
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < n; ++i) {
        sink = sink + incomp::weno5_derivative<double>(
                          [&](int k) -> double { return phi_d[i + 3 + k]; }, 1.0, h);
      }
    }
    return t.seconds();
  };
  loop.scalar = [phi_d, n, h](int reps) {
    const std::vector<Real> phi(phi_d.begin(), phi_d.end());
    volatile double sink = 0.0;
    Timer t;
    for (int r = 0; r < reps; ++r) {
      for (int i = 0; i < n; ++i) {
        TruncScope sc(kLoopSpec);
        sink = sink + to_double(incomp::weno5_derivative<Real>(
                          [&](int k) -> Real { return phi[i + 3 + k]; }, 1.0, h));
      }
    }
    return t.seconds();
  };
  loop.batch = [phi_d, n, h](int reps) {
    volatile double sink = 0.0;
    Timer t;
    for (int r = 0; r < reps; ++r) {
      TruncScope sc(kLoopSpec);
      const auto d = [&](int off) {
        return batch::Vec::gather(static_cast<std::size_t>(n), [&](std::size_t k) {
          return phi_d[k + 3 + static_cast<std::size_t>(off)];
        });
      };
      const batch::Vec ih(1.0 / h);
      const batch::Vec v1 = (d(-2) - d(-3)) * ih;
      const batch::Vec v2 = (d(-1) - d(-2)) * ih;
      const batch::Vec v3 = (d(0) - d(-1)) * ih;
      const batch::Vec v4 = (d(1) - d(0)) * ih;
      const batch::Vec v5 = (d(2) - d(1)) * ih;
      const batch::Vec dv = incomp::weno5<batch::Vec>(v1, v2, v3, v4, v5);
      sink = sink + dv[0];
    }
    return t.seconds();
  };
  return loop;
}

/// PLM reconstruction pencil: plm_pencil<double> / plm_pencil<Real> /
/// plm_pencil_batch over the same pencil.
Loop plm_pencil(int n) {
  constexpr int ng = 2;
  const auto filled = [n](auto tag) {
    std::vector<hydro::PrimState<decltype(tag)>> w(n + 2 * ng);
    for (int c = 0; c < n + 2 * ng; ++c) {
      w[c].rho = 1.0 + 0.3 * std::sin(0.11 * c);
      w[c].un = 0.5 * std::cos(0.07 * c);
      w[c].ut = 0.1 * std::sin(0.05 * c);
      w[c].p = 2.0 + std::cos(0.13 * c);
    }
    return w;
  };
  const auto per_op = [n, filled](auto tag) {
    return [n, w = filled(tag)](int reps) {
      std::vector<hydro::PrimState<decltype(tag)>> wl(n + 1), wr(n + 1);
      TruncScope sc(kLoopSpec);  // no effect on the double form
      Timer t;
      for (int r = 0; r < reps; ++r) {
        hydro::plm_pencil(w, wl, wr, n, ng, hydro::ReconKind::PLM, 1e-10, 1e-14);
      }
      return t.seconds();
    };
  };
  Loop loop{"plm_pencil", 64, per_op(0.0), per_op(Real{}), {}};
  loop.batch = [n, w = filled(Real{})](int reps) {
    std::vector<hydro::PrimState<Real>> wl(n + 1), wr(n + 1);
    TruncScope sc(kLoopSpec);
    Timer t;
    for (int r = 0; r < reps; ++r) hydro::plm_pencil_batch(w, wl, wr, n, ng, 1e-10, 1e-14);
    return t.seconds();
  };
  return loop;
}

/// HLLC Riemann fluxes over a span of faces: riemann_flux<double> /
/// riemann_flux<Real> per face / riemann_flux_batch over the whole span (its
/// wave-speed partitions included). The faces mix subsonic ones (the star
/// regions) with supersonic ones of both signs.
Loop riemann_faces(int n) {
  constexpr double gamma = 1.4;
  const auto filled = [n](auto tag, double phase) {
    std::vector<hydro::PrimState<decltype(tag)>> w(n);
    for (int f = 0; f < n; ++f) {
      const double drift = 3.0 * std::sin(0.013 * f);  // |u| > c on some faces
      w[f] = {1.0 + 0.3 * std::sin(0.11 * f + 0.4 * phase),
              drift + 0.2 * std::cos(0.07 * f + 0.3 * phase),
              0.1 * std::sin(0.05 * f + 0.2 * phase), 1.0 + 0.5 * std::cos(0.13 * f + 0.5 * phase)};
    }
    return w;
  };
  const auto per_op = [n, filled](auto tag) {
    return [n, wl = filled(tag, 0.0), wr = filled(tag, 1.0)](int reps) {
      volatile double sink = 0.0;
      TruncScope sc(kLoopSpec);  // no effect on the double form
      Timer t;
      for (int r = 0; r < reps; ++r) {
        for (int f = 0; f < n; ++f) {
          sink = sink +
                 to_double(hydro::riemann_flux(hydro::RiemannKind::HLLC, wl[f], wr[f], gamma).f[3]);
        }
      }
      return t.seconds();
    };
  };
  Loop loop{"riemann_faces", 16, per_op(0.0), per_op(Real{}), {}};
  loop.batch = [wl = filled(Real{}, 0.0), wr = filled(Real{}, 1.0)](int reps) {
    const auto lanes = [](const std::vector<hydro::PrimState<Real>>& w) {
      const auto member = [&](Real hydro::PrimState<Real>::* m) {
        return batch::Vec::gather(w.size(), [&](std::size_t f) { return (w[f].*m).raw(); });
      };
      return hydro::PrimState<batch::Vec>{member(&hydro::PrimState<Real>::rho),
                                          member(&hydro::PrimState<Real>::un),
                                          member(&hydro::PrimState<Real>::ut),
                                          member(&hydro::PrimState<Real>::p)};
    };
    volatile double sink = 0.0;
    TruncScope sc(kLoopSpec);
    Timer t;
    for (int r = 0; r < reps; ++r) {
      sink = sink + hydro::riemann_flux_batch(hydro::RiemannKind::HLLC, lanes(wl), lanes(wr), gamma)
                        .f[3][0];
    }
    return t.seconds();
  };
  return loop;
}

/// Times the loops, writes BENCH_simd.json and applies the CI speedup gate.
/// Returns nonzero when gating is requested and the best SIMD path is not at
/// least `gate_simd` times the portable path on every loop (skipped — with a
/// note — when only the portable path exists, e.g. non-x86 runners).
int loop_bench_and_gate(const std::string& path, int gate_simd) {
  const Loop loops[] = {weno_row(4096), plm_pencil(4096), riemann_faces(4096)};
  std::vector<LoopTimes> times;
  std::printf("# batched dispatch, format e8m12, best of %d (overhead vs native, "
              "scalar/batched; batch per forced SIMD path):\n",
              bench::kTrials);
  double min_speedup = std::numeric_limits<double>::infinity();
  for (const Loop& loop : loops) {
    const LoopTimes& lt = times.emplace_back(time_loop(loop));
    std::printf("%-14s native %.4fs  scalar %.4fs", loop.name, lt.native_s, lt.scalar_s);
    for (const sf::simd::Path p : kAllPaths) {
      const double s = lt.batch_path_s[static_cast<int>(p)];
      if (s >= 0.0) std::printf("  %s %.4fs", sf::simd::path_name(p), s);
    }
    std::printf("  overhead ratio %.1fx  speedup %.2fx\n", lt.overhead_ratio(), lt.simd_speedup());
    min_speedup = std::min(min_speedup, lt.simd_speedup());
  }

  const bool vector_paths = sf::simd::best_path() != sf::simd::Path::Portable;
  const bool pass = !vector_paths || min_speedup >= static_cast<double>(gate_simd);
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"simd_batch_kernels\",\n  \"format\": \"e8m12\",\n");
    std::fprintf(f, "  \"default_path\": \"%s\",\n  \"trials\": %d,\n",
                 sf::simd::path_name(sf::simd::default_path()), bench::kTrials);
    std::fprintf(f, "  \"loops\": {\n");
    for (std::size_t i = 0; i < times.size(); ++i) {
      const LoopTimes& lt = times[i];
      std::fprintf(f, "    \"%s\": {\"reps\": %d, \"native_s\": %.6g, \"scalar_s\": %.6g",
                   loops[i].name, loops[i].reps, lt.native_s, lt.scalar_s);
      for (const sf::simd::Path p : kAllPaths) {
        const double s = lt.batch_path_s[static_cast<int>(p)];
        if (s >= 0.0) std::fprintf(f, ", \"batch_%s_s\": %.6g", sf::simd::path_name(p), s);
      }
      std::fprintf(f, ", \"overhead_ratio\": %.3f, \"simd_speedup\": %.3f}%s\n",
                   lt.overhead_ratio(), lt.simd_speedup(), i + 1 < times.size() ? "," : "");
    }
    std::fprintf(f, "  },\n");
    std::fprintf(f, "  \"gate\": {\"min_speedup\": %d, \"pass\": %s}\n}\n", gate_simd,
                 pass ? "true" : "false");
    std::fclose(f);
    std::printf("# wrote %s\n", path.c_str());
  }
  if (gate_simd <= 0) return 0;
  if (!vector_paths) {
    std::printf("# gate-simd skipped: only the portable path is supported here\n");
    return 0;
  }
  std::printf("# gate-simd=%d: %s (slowest loop %.2fx)\n", gate_simd, pass ? "PASS" : "FAIL",
              min_speedup);
  return pass ? 0 : 1;
}

/// One instrumented Sedov configuration of the table.
struct Sedov {
  rt::Mode mode = rt::Mode::Op;
  rt::AllocStrategy alloc = rt::AllocStrategy::Scratch;
  bool counting = false;
  bool hw = false;
  sf::Format fmt{12, kMantissa};  // outside every fast_* envelope
  int cutoff = 0;
  bool exclude_recon = false;
};

struct Row {
  std::string mode;
  int cutoff = 0;
  std::optional<Sedov> naive;  ///< the naive-allocation twin of `opt`, if timed
  Sedov opt;
  double naive_s = 0.0, opt_s = 0.0, trunc_frac = -1.0;
};

std::vector<Row> table_rows() {
  std::vector<Row> rows;
  for (const bool counting : {false, true}) {
    for (const int cutoff : {0, 1, 2, 3}) {
      Sedov opt;
      opt.counting = counting;
      opt.cutoff = cutoff;
      Sedov naive = opt;
      naive.alloc = rt::AllocStrategy::Naive;
      rows.push_back({counting ? "op-mode with op counting" : "op-mode", cutoff, naive, opt});
    }
  }
  Sedov hw;
  hw.hw = true;
  hw.fmt = sf::Format::fp32();
  rows.push_back({"op-mode hw fast path (fp32)", 0, std::nullopt, hw});
  // Mem-mode rows (paper: "Truncate Hydro" vs "Exclude Recon" — comparable
  // cost because exclusion is dynamic in the runtime).
  for (const bool exclude_recon : {false, true}) {
    Sedov mem;
    mem.mode = rt::Mode::Mem;
    mem.counting = true;
    mem.fmt = {11, kMantissa};
    mem.exclude_recon = exclude_recon;
    rows.push_back({exclude_recon ? "mem-mode, exclude Recon" : "mem-mode, truncate hydro", 0,
                    std::nullopt, mem});
  }
  return rows;
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int max_level = cli.get_int("level", 3);
  const int steps = cli.get_int("steps", 12);

  // -- Batched op-mode dispatch on the wired inner loops (DESIGN.md §8/§13),
  // measured first so --loops-only (CI) can skip the Sedov table entirely.
  const int gate_rc =
      loop_bench_and_gate(cli.get("simd-json", "BENCH_simd.json"), cli.get_int("gate-simd", 0));
  if (cli.has("loops-only")) return gate_rc;

  hydro::SedovParams sp;
  const auto grid_cfg = hydro::sedov_grid_config(max_level);
  auto& R = rt::Runtime::instance();

  // Shared fixed dt so every run does identical work.
  amr::AmrGrid<double> probe(grid_cfg);
  probe.build_with_ic(
      [&sp](double x, double y, std::span<double> v) { hydro::sedov_init(sp, x, y, v); });
  hydro::HydroConfig hc0;
  hydro::HydroSolver<double> probe_solver(hc0);
  const double fixed_dt = 0.5 * probe_solver.compute_dt(probe);

  const auto advance = [&](auto& grid, auto& solver) {
    Timer t;
    for (int s = 0; s < steps; ++s) {
      if (s > 0 && s % 4 == 0) grid.regrid();
      solver.step(grid, fixed_dt);
    }
    return t.seconds();
  };

  const auto run_native = [&]() {
    amr::AmrGrid<double> grid(grid_cfg);
    grid.build_with_ic(
        [&sp](double x, double y, std::span<double> v) { hydro::sedov_init(sp, x, y, v); });
    hydro::HydroConfig hc;
    hydro::HydroSolver<double> solver(hc);
    return advance(grid, solver);
  };

  const auto run_instrumented = [&](const Sedov& c, double* trunc_frac) {
    R.reset_all();
    R.set_mode(c.mode);
    R.set_alloc_strategy(c.alloc);
    R.set_counting(c.counting);
    R.set_hw_fastpath(c.hw);
    if (c.exclude_recon) R.exclude_region("hydro/recon");
    double secs = 0.0;
    {
      // Inner scope: release mem-mode boxed values before the table is recycled.
      amr::AmrGrid<Real> grid(grid_cfg);
      grid.build_with_ic(
          [&sp](double x, double y, std::span<Real> v) { hydro::sedov_init(sp, x, y, v); });
      hydro::HydroConfig hc;
      hc.trunc = rt::TruncationSpec::trunc64(c.fmt.exp_bits, c.fmt.man_bits);
      hc.batch = false;  // the paper's Table 3 measures per-op scalar dispatch
      hc.trunc_enabled = [M = max_level, cutoff = c.cutoff](int level) {
        return level <= M - cutoff;
      };
      hydro::HydroSolver<Real> solver(hc);
      secs = advance(grid, solver);
      if (trunc_frac != nullptr) *trunc_frac = R.counters().trunc_fraction();
    }
    R.reset_all();
    return secs;
  };

  std::vector<Row> rows = table_rows();
  std::vector<std::function<double()>> runs{run_native};
  for (Row& row : rows) {
    if (row.naive) runs.emplace_back([&] { return run_instrumented(*row.naive, nullptr); });
    runs.emplace_back(
        [&] { return run_instrumented(row.opt, row.opt.counting ? &row.trunc_frac : nullptr); });
  }
  const std::vector<double> t = bench::min_of_trials(runs);
  const double base = t[0];
  std::size_t next = 1;
  for (Row& row : rows) {
    if (row.naive) row.naive_s = t[next++];
    row.opt_s = t[next++];
  }

  std::printf("# Table 3: slowdown of RAPTOR in practice (Sedov, %d-bit mantissa, %d steps, "
              "best of %d)\n",
              kMantissa, steps, bench::kTrials);
  std::printf("# native baseline: %.4f s\n\n", base);
  std::printf("%-28s %-7s %-10s %-10s %-9s %-9s %s\n", "configuration", "cutoff", "naive(s)",
              "opt(s)", "naive(x)", "opt(x)", "trunc%");
  io::CsvWriter csv(cli.get("csv", "table3_overhead.csv"),
                    {"mode", "cutoff_l", "naive_s", "opt_s", "naive_x", "opt_x", "trunc_frac"});
  const auto cell = [](bool timed, double v, const char* fmt) {
    char b[32] = "-";
    if (timed) std::snprintf(b, sizeof b, fmt, v);
    return std::string(b);
  };
  for (const Row& r : rows) {
    std::printf("%-28s M-%-5d %-10s %-10.3f %-9s %-9.1f %s\n", r.mode.c_str(), r.cutoff,
                cell(r.naive.has_value(), r.naive_s, "%.3f").c_str(), r.opt_s,
                cell(r.naive.has_value(), r.naive_s / base, "%.1f").c_str(), r.opt_s / base,
                cell(r.trunc_frac >= 0.0, 100.0 * r.trunc_frac, "%.1f").c_str());
    csv.row_strings({r.mode, std::to_string(r.cutoff), std::to_string(r.naive_s),
                     std::to_string(r.opt_s), std::to_string(r.naive_s / base),
                     std::to_string(r.opt_s / base), std::to_string(r.trunc_frac)});
  }

  // -- BENCH_table3.json: the recorded perf trajectory ---------------------
  const std::string json_path = cli.get("json", "BENCH_table3.json");
  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"table3_overhead\",\n");
    std::fprintf(f, "  \"level\": %d, \"steps\": %d, \"mantissa\": %d, \"trials\": %d,\n",
                 max_level, steps, kMantissa, bench::kTrials);
    std::fprintf(f, "  \"native_baseline_s\": %.6g,\n", base);
    std::fprintf(f, "  \"rows\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& r = rows[i];
      std::fprintf(f,
                   "    {\"mode\": \"%s\", \"cutoff_l\": %d, \"naive_s\": %.6g, \"opt_s\": %.6g, "
                   "\"naive_x\": %.3f, \"opt_x\": %.3f, \"trunc_frac\": %.4f}%s\n",
                   r.mode.c_str(), r.cutoff, r.naive_s, r.opt_s, r.naive_s / base, r.opt_s / base,
                   r.trunc_frac, i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("# wrote %s\n", json_path.c_str());
  }
  return gate_rc;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
