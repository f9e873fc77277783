#include "workloads.hpp"

#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "amr/grid.hpp"
#include "burn/cellular.hpp"
#include "hydro/euler.hpp"
#include "probes.hpp"
#include "runtime/live_telemetry.hpp"
#include "runtime/profile_config.hpp"
#include "runtime/runtime.hpp"
#include "search/precision_search.hpp"
#include "softfloat/fast_round.hpp"
#include "spans.hpp"
#include "support/timer.hpp"
#include "telemetry/exposition.hpp"
#include "trace/analysis.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"

namespace perfbench {

using namespace raptor;

namespace {

// The Table-3 case: AMR level 3, fixed dt, 12 steps, regrid every 4 steps.
constexpr int kLevel = 3;
constexpr int kSteps = 12;
constexpr int kRegridEvery = 4;
constexpr int kExp = 8, kMan = 12;
constexpr u32 kTraceStride = 64;
// The built-in burn search workload's quick schedule: a search takes about
// 0.5 s, so a run holds enough searches for steady medians.
constexpr int kBurnCells = 48;
constexpr int kBurnSteps = 12;
constexpr int kSetupRepeats = 15;
// Native burn samples on each side of a search, and runs per sample.
constexpr int kNativeRepeats = 2;
constexpr int kNativeBlock = 16;

rt::Runtime& R() { return rt::Runtime::instance(); }

void set_threads(int n) {
#ifdef _OPENMP
  omp_set_num_threads(n);
#else
  (void)n;
#endif
}

int g_last_unit = 0;
int next_unit() {
  SpanRecorder::instance().set_unit(++g_last_unit);
  return g_last_unit;
}

void check(int unit, const char* name, bool ok, const std::string& detail = {}) {
  Record("check").num("unit", unit).str("name", name).flag("ok", ok).str("detail", detail).emit();
}

void metric(const std::string& name, double value, const char* unit) {
  Record("metric").str("name", name).num("value", value).str("unit", unit).emit();
}

void emit_unit(int id, const char* kind, double seconds, const rt::CounterSnapshot& c,
               bool traced) {
  Record("unit")
      .num("id", id)
      .str("kind", kind)
      .num("s", seconds)
      .num("ops", static_cast<double>(c.total_flops()))
      .num("trunc_ops", static_cast<double>(c.trunc_flops))
      .flag("traced", traced)
      .emit();
}

bool same_counts(const rt::CounterSnapshot& a, const rt::CounterSnapshot& b) {
  return a.trunc_by_kind == b.trunc_by_kind && a.full_by_kind == b.full_by_kind &&
         a.trunc_bytes == b.trunc_bytes && a.full_bytes == b.full_bytes;
}

struct Fnv {
  u64 h = 1469598103934665603ULL;
  void mix(u64 v) {
    for (int k = 0; k < 8; ++k) {
      h ^= (v >> (8 * k)) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
};

/// Leaf layout and every interior value, bit for bit.
template <class T>
u64 fingerprint(const amr::AmrGrid<T>& g) {
  Fnv f;
  const auto& c = g.config();
  for (int n = 0; n < g.num_leaves(); ++n) {
    const auto& b = g.leaf(n);
    f.mix(static_cast<u64>(b.level));
    f.mix(static_cast<u64>(b.ix));
    f.mix(static_cast<u64>(b.iy));
    for (int v = 0; v < c.nvar; ++v) {
      for (int j = 0; j < c.nyb; ++j) {
        for (int i = 0; i < c.nxb; ++i) f.mix(std::bit_cast<u64>(to_double(g.at(b, v, i, j))));
      }
    }
  }
  return f.h;
}

u64 fingerprint(const std::vector<double>& v) {
  Fnv f;
  for (const double d : v) f.mix(std::bit_cast<u64>(d));
  return f.h;
}

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Sedov
// ---------------------------------------------------------------------------

struct Problem {
  amr::GridConfig cfg;
  hydro::SedovParams sp;
  double dt = 0.0;
};

template <class T>
std::function<void(double, double, std::span<T>)> sedov_ic(const hydro::SedovParams& sp) {
  return [sp](double x, double y, std::span<T> v) { hydro::sedov_init(sp, x, y, v); };
}

Problem make_problem(const Inputs& in) {
  Problem p{hydro::sedov_grid_config(kLevel), in.sedov, 0.0};
  amr::AmrGrid<double> probe(p.cfg);
  probe.build_with_ic(sedov_ic<double>(p.sp));
  p.dt = 0.5 * hydro::HydroSolver<double>(hydro::HydroConfig{}).compute_dt(probe);
  return p;
}

/// Observability layered onto a run: region profiling, a trace session at
/// stride 64 and the runtime's telemetry metrics; a Prometheus render after
/// every step and a trace report after the run.
class Observer {
 public:
  explicit Observer(std::string path) : path_(std::move(path)) {}

  void begin() {
    rt::register_runtime_metrics();
    R().set_region_profiling(true);
    trace::TraceOptions topts;
    topts.path = path_;
    topts.sample_stride = kTraceStride;
    R().trace_start(topts);
  }
  void after_step() {
    SpanScope span("telemetry.scrape");
    scrape_bytes_ += telemetry::to_prometheus(telemetry::Registry::instance().snapshot()).size();
  }
  void end() {
    {
      SpanScope span("trace.stop");
      stats_ = R().trace_stop();
    }
    R().set_region_profiling(false);
    R().reset_region_profiles();
    SpanScope span("telemetry.report");
    const trace::TraceData td = trace::read_rtrace(path_);
    report_bytes_ = trace::report_json(td, trace::build_reports(td)).size();
    file_bytes_ = std::filesystem::file_size(path_);
    std::filesystem::remove(path_);
  }

  [[nodiscard]] const trace::TraceStats& stats() const { return stats_; }
  [[nodiscard]] u64 file_bytes() const { return file_bytes_; }
  [[nodiscard]] bool rendered() const { return scrape_bytes_ > 0 && report_bytes_ > 0; }

 private:
  std::string path_;
  trace::TraceStats stats_;
  u64 file_bytes_ = 0;
  std::size_t scrape_bytes_ = 0, report_bytes_ = 0;
};

struct RunResult {
  double build_s = 0.0, run_s = 0.0;
  u64 fingerprint = 0;
  rt::CounterSnapshot counters;
  std::vector<double> step_ms;
};

/// One fixed-step run. The timed part is the stepping loop (plus, when
/// observed, the session start, scrapes, stop and report); the grid build
/// and IC are timed separately as set-up.
template <class T>
RunResult sedov_run(const Problem& p, bool truncate, Observer* obs = nullptr) {
  RunResult out;
  R().reset_counters();
  amr::AmrGrid<T> grid(p.cfg);
  {
    SpanScope span("amr.build");
    Timer t;
    grid.build_with_ic(sedov_ic<T>(p.sp));
    out.build_s = t.seconds();
  }
  hydro::HydroConfig hc;
  if (truncate) hc.trunc = rt::TruncationSpec::trunc64(kExp, kMan);
  hydro::HydroSolver<T> solver(hc);
  Timer t;
  if (obs != nullptr) obs->begin();
  for (int s = 0; s < kSteps; ++s) {
    if (s > 0 && s % kRegridEvery == 0) {
      SpanScope span("amr.regrid");
      grid.regrid();
    }
    {
      SpanScope span("hydro.step");
      Timer ts;
      solver.step(grid, p.dt);
      out.step_ms.push_back(1e3 * ts.seconds());
    }
    if (obs != nullptr) obs->after_step();
  }
  if (obs != nullptr) obs->end();
  out.run_s = t.seconds();
  out.fingerprint = fingerprint(grid);
  out.counters = R().counters();
  return out;
}

/// Region self-time attribution of one profiled run (hydro stages, mesh
/// guard fill, prolongation/restriction).
void emit_stage_shares(const std::vector<rt::RegionProfileEntry>& profiles) {
  struct Group {
    const char* name;
    std::function<bool(const std::string&)> match;
    double s = 0.0;
    u64 ops = 0;
  };
  const auto amr_suffix = [](const std::string& l, const char* suffix) {
    return l.rfind("amr/", 0) == 0 && l.size() > std::strlen(suffix) &&
           l.compare(l.size() - std::strlen(suffix), std::string::npos, suffix) == 0;
  };
  std::vector<Group> groups = {
      {"hydro.riemann", [](const std::string& l) { return l == "hydro/riemann"; }},
      {"hydro.recon", [](const std::string& l) { return l == "hydro/recon"; }},
      {"hydro.update", [](const std::string& l) { return l == "hydro/update"; }},
      {"amr.guard", [&](const std::string& l) { return amr_suffix(l, "/guard"); }},
      {"amr.prolong_restrict",
       [&](const std::string& l) { return amr_suffix(l, "/prolong") || amr_suffix(l, "/restrict"); }},
  };
  double total = 0.0;
  for (const auto& e : profiles) {
    total += e.profile.seconds;
    for (auto& g : groups) {
      if (g.match(e.label)) {
        g.s += e.profile.seconds;
        g.ops += e.profile.counters.total_flops();
      }
    }
  }
  for (const auto& g : groups) {
    metric(std::string(g.name) + "_self_share", total > 0.0 ? g.s / total : 0.0, "share");
    metric(std::string(g.name) + "_self_s", g.s, "s");
    metric(std::string(g.name) + "_ops", static_cast<double>(g.ops), "count");
  }
}

enum class SedovKind { Op, Mem, Observed };

class SedovWorkload {
 public:
  SedovWorkload(const Options& o, SedovKind kind, int threads)
      : kind_(kind), threads_(threads), p_(make_problem(o.inputs)),
        trace_path_(o.workdir + "/observed.rtrace") {}

  void setup_checks() {
    set_threads(threads_);
    // Oracle independent of the rounding code: an untruncated Real run is
    // the native double run, bit for bit.
    const u64 native = sedov_run<double>(p_, false).fingerprint;
    const u64 untrunc = sedov_run<Real>(p_, false).fingerprint;
    check(0, "untruncated_real_equals_native", native == untrunc, hex(native) + " vs " + hex(untrunc));
    if (kind_ == SedovKind::Observed) {
      // With one thread the sampler's countdown runs over every dispatch
      // call in order, so events + dropped is exactly calls / stride; with
      // T threads each thread's remainder can hold back one more sample.
      set_threads(1);
      Observer obs(trace_path_);
      sedov_run<Real>(p_, true, &obs);
      implied_samples_ = obs.stats().events + obs.stats().dropped;
      set_threads(threads_);
    }
  }

  /// One main unit, with its baselines; `traced` adds spans and region
  /// profiling.
  void iteration(bool traced) {
    set_threads(threads_);
    native();
    if (kind_ == SedovKind::Observed) plain();
    main_unit(traced);
    native();
  }

  /// One traced op-mode unit at one thread, for the stage attribution of
  /// workloads that do not run one.
  static void attribution_op_unit(const Options& o) {
    set_threads(1);
    const Problem p = make_problem(o.inputs);
    R().set_region_profiling(true);
    R().reset_region_profiles();
    next_unit();
    sedov_run<Real>(p, true);
    emit_stage_shares(R().region_profiles());
    R().set_region_profiling(false);
    R().reset_region_profiles();
  }

  /// One observed unit at two threads, for the trace/telemetry attribution
  /// of workloads that do not run one.
  static void attribution_observed_unit(const Options& o) {
    set_threads(2);
    const Problem p = make_problem(o.inputs);
    next_unit();
    Observer obs(o.workdir + "/observed.rtrace");
    sedov_run<Real>(p, true, &obs);
    emit_trace_metrics(obs);
  }

 private:
  static void emit_trace_metrics(const Observer& obs) {
    const auto& st = obs.stats();
    metric("trace.events_per_run", static_cast<double>(st.events), "count");
    const double sampled = static_cast<double>(st.events + st.dropped);
    metric("trace.drop_share", sampled > 0 ? static_cast<double>(st.dropped) / sampled : 0.0,
           "share");
    metric("trace.bytes_per_run", static_cast<double>(obs.file_bytes()), "B");
  }

  void native() {
    const int id = next_unit();
    const RunResult r = sedov_run<double>(p_, false);
    emit_unit(id, "native", r.run_s, r.counters, false);
    for (const double ms : r.step_ms) Record("inner").num("unit", id).num("ms", ms).emit();
    if (!first_native_) first_native_ = r.fingerprint;
    check(id, "native_repeats", r.fingerprint == *first_native_);
  }

  void plain() {
    const int id = next_unit();
    const RunResult r = sedov_run<Real>(p_, true);
    emit_unit(id, "plain", r.run_s, r.counters, false);
    if (!first_plain_) first_plain_ = r.fingerprint;
    check(id, "plain_repeats", r.fingerprint == *first_plain_);
  }

  void main_unit(bool traced) {
    const bool profile = traced && kind_ != SedovKind::Observed;
    if (profile) {
      R().set_region_profiling(true);
      R().reset_region_profiles();
    }
    SpanRecorder::instance().enable(traced);
    const int id = next_unit();
    RunResult r;
    std::optional<Observer> obs;
    if (kind_ == SedovKind::Mem) {
      ModeScope mem(rt::Mode::Mem);
      r = sedov_run<Real>(p_, true);
    } else if (kind_ == SedovKind::Observed) {
      obs.emplace(trace_path_);
      r = sedov_run<Real>(p_, true, &*obs);
    } else {
      r = sedov_run<Real>(p_, true);
    }
    SpanRecorder::instance().enable(false);
    if (profile) {
      emit_stage_shares(R().region_profiles());
      R().set_region_profiling(false);
      R().reset_region_profiles();
    }

    emit_unit(id, "main", r.run_s, r.counters, traced);
    Record("setup").num("s", r.build_s).emit();
    for (const double ms : r.step_ms) Record("inner").num("unit", id).num("ms", ms).emit();
    if (!first_) {
      first_ = r.fingerprint;
      first_counters_ = r.counters;
    }
    check(id, "observable_repeats", r.fingerprint == *first_, hex(r.fingerprint));
    check(id, "op_counts_repeat", same_counts(r.counters, *first_counters_));

    if (kind_ == SedovKind::Mem) {
      const std::size_t leaked = R().mem_clear();
      check(id, "mem_clear_no_leaks", leaked == 0, std::to_string(leaked) + " leaked");
      u64 flagged = 0, fresh = 0;
      for (const auto& f : R().flag_report()) {
        flagged += f.flagged;
        fresh += f.fresh;
      }
      R().reset_flags();
      if (!first_flags_) first_flags_ = {flagged, fresh};
      check(id, "flag_totals_repeat", *first_flags_ == std::pair<u64, u64>{flagged, fresh},
            std::to_string(flagged) + "/" + std::to_string(fresh));
    }
    if (kind_ == SedovKind::Observed) {
      check(id, "observed_equals_plain", first_plain_ && r.fingerprint == *first_plain_);
      const u64 sampled = obs->stats().events + obs->stats().dropped;
      const u64 slack = obs->stats().threads > 0 ? obs->stats().threads - 1 : 0;
      check(id, "trace_samples_match_stride",
            sampled <= implied_samples_ && sampled + slack >= implied_samples_,
            std::to_string(sampled) + " of " + std::to_string(implied_samples_));
      check(id, "observed_outputs_rendered", obs->rendered());
      if (traced) emit_trace_metrics(*obs);
    }
  }

  SedovKind kind_;
  int threads_;
  Problem p_;
  std::string trace_path_;
  u64 implied_samples_ = 0;
  std::optional<u64> first_, first_native_, first_plain_;
  std::optional<rt::CounterSnapshot> first_counters_;
  std::optional<std::pair<u64, u64>> first_flags_;
};

// ---------------------------------------------------------------------------
// Burn search
// ---------------------------------------------------------------------------

const char* const kBurnRegions[] = {"eos", "hydro", "burn"};

burn::CellularConfig burn_config(const Inputs& in) {
  burn::CellularConfig cc;
  cc.n = kBurnCells;
  cc.spark_frac = in.spark_frac;
  return cc;
}

template <class S>
std::vector<double> burn_observable(const burn::CellularSim<S>& sim) {
  std::vector<double> out;
  out.reserve(3 * static_cast<std::size_t>(sim.cells()));
  for (int i = 0; i < sim.cells(); ++i) out.push_back(sim.temperature(i));
  for (int i = 0; i < sim.cells(); ++i) out.push_back(sim.mass_fraction(i));
  for (int i = 0; i < sim.cells(); ++i) out.push_back(sim.density(i));
  return out;
}

/// What the wrapped run callback saw during one search.
struct EvalLog {
  std::vector<double> ms;
  rt::CounterSnapshot ops;  ///< flop totals summed over the evaluations
  int truncated = 0;  ///< evaluations with at least one region override
  int fast = 0;       ///< ... all of whose formats are inside fast_op_supports
};

search::Workload make_burn_workload(const burn::CellularConfig& cc, EvalLog& log) {
  search::Workload w;
  w.name = "burn";
  w.regions = {kBurnRegions[0], kBurnRegions[1], kBurnRegions[2]};
  w.run = [cc, &log]() {
    SpanScope span("search.eval");
    bool any = false, all_fast = true;
    for (const char* region : kBurnRegions) {
      if (const auto spec = R().region_format(region); spec && spec->for64) {
        any = true;
        all_fast = all_fast && sf::fast_op_supports(*spec->for64);
      }
    }
    log.truncated += any ? 1 : 0;
    log.fast += any && all_fast ? 1 : 0;
    const rt::CounterSnapshot before = R().counters();
    Timer t;
    burn::CellularSim<Real> sim(cc);
    for (int s = 0; s < kBurnSteps; ++s) sim.step();
    std::vector<double> out = burn_observable(sim);
    log.ms.push_back(1e3 * t.seconds());
    const rt::CounterSnapshot after = R().counters();
    log.ops.trunc_flops += after.trunc_flops - before.trunc_flops;
    log.ops.full_flops += after.full_flops - before.full_flops;
    return out;
  };
  return w;
}

class BurnWorkload {
 public:
  explicit BurnWorkload(const Options& o) : cc_(burn_config(o.inputs)) {}

  void setup() {
    set_threads(1);
    for (int k = 0; k < kSetupRepeats; ++k) {
      Timer t;
      EvalLog log;
      const search::Workload w = make_burn_workload(cc_, log);
      const burn::CellularSim<Real> sim(cc_);
      Record("setup").num("s", t.seconds()).emit();
    }
  }

  void iteration(bool traced) {
    set_threads(1);
    for (int k = 0; k < kNativeRepeats; ++k) native();
    search_unit(traced, true);
    for (int k = 0; k < kNativeRepeats; ++k) native();
  }

  /// One traced search for the attribution of workloads that do not run one.
  static void attribution_unit(const Options& o) {
    set_threads(1);
    BurnWorkload b(o);
    b.search_unit(true, false);
  }

 private:
  /// One native sample: the mean of kNativeBlock native runs (construction
  /// included, as in the search's run callback). A single run takes about
  /// 0.5 ms and alternates between two heap layouts whose speeds differ by
  /// 40%; a block averages over both.
  void native() {
    const int id = next_unit();
    double secs = 0.0;
    bool repeats = true;
    for (int k = 0; k < kNativeBlock; ++k) {
      Timer t;
      burn::CellularSim<double> sim(cc_);
      for (int s = 0; s < kBurnSteps; ++s) sim.step();
      secs += t.seconds();
      const u64 fp = fingerprint(burn_observable(sim));
      if (!first_native_) first_native_ = fp;
      repeats = repeats && fp == *first_native_;
    }
    check(id, "native_repeats", repeats);
    secs /= kNativeBlock;
    emit_unit(id, "native", secs, rt::CounterSnapshot{}, false);
    Record("inner").num("unit", id).num("ms", 1e3 * secs).emit();
  }

  void search_unit(bool traced, bool report) {
    SpanRecorder::instance().enable(traced);
    const int id = next_unit();
    EvalLog log;
    const search::Workload w = make_burn_workload(cc_, log);
    search::SearchOptions so;
    so.tolerance = 1e-3;
    Timer t;
    search::SearchResult res;
    {
      SpanScope span("search.run");
      res = search::PrecisionSearch(so).run(w);
    }
    const double secs = t.seconds();
    SpanRecorder::instance().enable(false);

    if (traced) {
      double total = 0.0;
      for (const auto& e : res.reference_profile) total += e.profile.seconds;
      for (const char* region : kBurnRegions) {
        double s = 0.0;
        for (const auto& e : res.reference_profile) {
          if (e.label == region) s += e.profile.seconds;
        }
        metric(std::string(region) + ".self_share", total > 0.0 ? s / total : 0.0, "share");
      }
      metric("search.evaluations", res.evaluations, "count");
      metric("softfloat.fast_envelope_share",
             log.truncated > 0 ? static_cast<double>(log.fast) / log.truncated : 0.0, "share");
    }
    if (!report) return;

    emit_unit(id, "main", secs, log.ops, traced);
    for (const double ms : log.ms) Record("inner").num("unit", id).num("ms", ms).emit();
    const std::string profile = rt::emit_profile(res.config);
    if (!first_profile_) {
      first_profile_ = profile;
      first_counters_ = res.final_counters;
    }
    check(id, "within_tolerance", res.within_tolerance, std::to_string(res.final_error));
    check(id, "profile_text_repeats", profile == *first_profile_, profile);
    check(id, "final_counts_repeat", same_counts(res.final_counters, *first_counters_));
  }

  burn::CellularConfig cc_;
  std::optional<u64> first_native_;
  std::optional<std::string> first_profile_;
  std::optional<rt::CounterSnapshot> first_counters_;
};

/// Runs `iteration(traced)` until the deadline. A traced run alternates
/// untraced and traced units, swapping their order every pair so neither
/// always runs first. An untraced run makes at least `min_units` units, so
/// its inner timings reach the 100 samples a p90 needs; a traced run makes
/// at least one pair.
template <class F>
void loop(const Options& o, const Timer& clock, int min_units, F&& iteration) {
  const int min_iterations = o.traced ? 1 : min_units;
  for (int k = 0; k < min_iterations || clock.seconds() < o.seconds; ++k) {
    if (!o.traced) {
      iteration(false);
      continue;
    }
    const bool traced_first = k % 2 == 1;
    iteration(traced_first);
    iteration(!traced_first);
  }
}

}  // namespace

void run_workload(const Options& o) {
  const std::string& w = o.workload;
  const bool sedov = w == "sedov_op" || w == "sedov_mem" || w == "sedov_observed";
  if (!sedov && w != "burn_search") throw std::invalid_argument("unknown workload: " + w);
  const int threads = w == "sedov_observed" ? 2 : 1;
  Record("meta")
      .str("workload", w)
      .num("threads", threads)
      .num("level", kLevel)
      .num("steps", kSteps)
      .str("format", "e8m12")
      .num("cx", o.inputs.sedov.cx)
      .num("cy", o.inputs.sedov.cy)
      .num("e_blast", o.inputs.sedov.e_blast)
      .num("r_init", o.inputs.sedov.r_init)
      .num("spark_frac", o.inputs.spark_frac)
      .emit();

  const Timer clock;
  if (o.traced) {
    SpanRecorder::instance().enable(true);
    run_probes(o.inputs.operand_seed, o.workdir);
    if (w != "sedov_op" && w != "sedov_mem") SedovWorkload::attribution_op_unit(o);
    if (w != "sedov_observed") SedovWorkload::attribution_observed_unit(o);
    if (w != "burn_search") BurnWorkload::attribution_unit(o);
    SpanRecorder::instance().enable(false);
  }

  if (sedov) {
    const SedovKind kind = w == "sedov_op"    ? SedovKind::Op
                           : w == "sedov_mem" ? SedovKind::Mem
                                              : SedovKind::Observed;
    SedovWorkload sw(o, kind, threads);
    sw.setup_checks();
    loop(o, clock, 9, [&](bool traced) { sw.iteration(traced); });  // 12 steps each
  } else {
    BurnWorkload bw(o);
    bw.setup();
    loop(o, clock, 6, [&](bool traced) { bw.iteration(traced); });  // 19 evaluations each
  }
}

}  // namespace perfbench
