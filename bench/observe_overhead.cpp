// Observability overhead on the dispatch path: tracing (DESIGN.md §12) and
// live telemetry (DESIGN.md §16) against counting-only.
//
// Measures ns/element over three shapes at format (8, 12): op2_batch add,
// op3_batch fma, and a scalar op2 add loop, each in six configurations:
//   counting           the baseline every ratio divides by;
//   traced             tracing at the default 1/64 stride (gated <= 2.0x);
//   rotating           tracing at 1/64 with segment rotation + compaction,
//                      the bounded-disk capture mode; rotation work lands on
//                      the drainer, so it is gated like plain tracing;
//   traced_every_span  tracing at 1/1, the worst case (reported only);
//   telemetry          register_runtime_metrics() armed and region
//                      profiling (wall-clock timing) on (gated <= 1.2x);
//   telemetry_scrape   telemetry plus a full Registry snapshot + Prometheus
//                      render every 64 reps (reported only).
// All work runs inside one Region. The configurations are timed round-robin
// and each keeps its best trial (bench::min_of_trials).
//
// Writes BENCH_observe_overhead.json (committed at the repo root as the
// recorded perf trajectory) and exits nonzero when a gated ratio exceeds its
// bound.
//
// Options: --quick (200 instead of 2000 reps) --json=PATH
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "runtime/live_telemetry.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "telemetry/exposition.hpp"
#include "telemetry/registry.hpp"
#include "trunc/scope.hpp"

using namespace raptor;

namespace {

constexpr std::size_t kN = 4096;
constexpr const char* kTracePath = "observe_overhead.rtrace";

struct Config {
  const char* name;
  u32 trace_stride;  ///< 0 = no trace
  bool rotate;
  bool telemetry;
  int scrape_every;  ///< 0 = never scrape
  double max_ratio;  ///< gate against counting-only; 0 = reported only
};

constexpr Config kConfigs[] = {
    {"counting", 0, false, false, 0, 0.0},
    {"traced", 64, false, false, 0, 2.0},
    {"rotating", 64, true, false, 0, 2.0},
    {"traced_every_span", 1, false, false, 0, 0.0},
    {"telemetry", 0, false, true, 0, 1.2},
    {"telemetry_scrape", 0, false, true, 64, 0.0},
};

struct Operands {
  std::vector<double> a, b, c, out;
};

std::vector<double> make_data(u64 seed) {
  Rng rng(seed);
  std::vector<double> v(kN);
  for (double& x : v) x = rng.uniform(0.25, 4.0);  // positive, spread exponents
  return v;
}

struct Shape {
  const char* name;
  void (*rep)(Operands& d);  ///< one repetition over the kN elements
};

constexpr Shape kShapes[] = {
    {"batch_add",
     [](Operands& d) {
       rt::Runtime::instance().op2_batch(rt::OpKind::Add, d.a.data(), d.b.data(), d.out.data(),
                                         kN, 64);
     }},
    {"batch_fma",
     [](Operands& d) {
       rt::Runtime::instance().op3_batch(rt::OpKind::Fma, d.a.data(), d.b.data(), d.c.data(),
                                         d.out.data(), kN, 64);
     }},
    {"scalar_add",
     [](Operands& d) {
       auto& R = rt::Runtime::instance();
       for (std::size_t i = 0; i < kN; ++i) d.out[i] = R.op2(rt::OpKind::Add, d.a[i], d.b[i], 64);
     }},
};

double ns_per_el(const Shape& shape, const Config& cfg, Operands& d, int reps) {
  auto& R = rt::Runtime::instance();
  auto& reg = telemetry::Registry::instance();
  R.reset_all();
  reg.reset();
  TruncScope scope(8, 12);
  if (cfg.telemetry) {
    rt::register_runtime_metrics();
    R.set_region_profiling(true);
  }
  if (cfg.trace_stride > 0) {
    trace::TraceOptions topts;
    topts.path = kTracePath;
    topts.sample_stride = cfg.trace_stride;
    if (cfg.rotate) {
      topts.segment_bytes = 1 << 16;
      topts.compact_segments = true;
    }
    R.trace_start(topts);
  }
  double sec = 0.0;
  {
    Region region("bench/observe");
    for (int r = 0; r < reps / 4; ++r) shape.rep(d);  // warm-up (thread attach, page faults)
    Timer t;
    for (int r = 0; r < reps; ++r) {
      shape.rep(d);
      if (cfg.scrape_every > 0 && r % cfg.scrape_every == 0) {
        const std::string text = telemetry::to_prometheus(reg.snapshot());
        volatile std::size_t sink = text.size();  // keep the render
        (void)sink;
      }
    }
    sec = t.seconds();
  }
  R.reset_all();  // stops the trace
  reg.reset();
  return 1e9 * sec / (static_cast<double>(kN) * reps);
}

}  // namespace

int run(int argc, char** argv) {
  const Cli cli(argc, argv);
  const int reps = cli.has("quick") ? 200 : 2000;
  const std::string json_path = cli.get("json", "BENCH_observe_overhead.json");
  constexpr std::size_t kNumConfigs = std::size(kConfigs);

  std::printf("observability overhead on the dispatch path (n=%zu, reps=%d, format (8,12), "
              "best of %d)\n\nns/element:\n%-12s",
              kN, reps, bench::kTrials, "shape");
  for (const Config& cfg : kConfigs) std::printf(" %18s", cfg.name);
  std::printf("\n");

  Operands d{make_data(1), make_data(2), make_data(3), std::vector<double>(kN)};
  std::vector<std::vector<double>> ns;  // [shape][config]
  for (const Shape& shape : kShapes) {
    std::vector<std::function<double()>> runs;
    for (const Config& cfg : kConfigs) {
      runs.emplace_back([&, cfg_p = &cfg] { return ns_per_el(shape, *cfg_p, d, reps); });
    }
    ns.push_back(bench::min_of_trials(runs));
    std::printf("%-12s", shape.name);
    for (const double v : ns.back()) std::printf(" %15.2f ns", v);
    std::printf("\n");
  }
  std::remove(kTracePath);
  for (u32 i = 1; std::remove(trace::segment_path(kTracePath, i).c_str()) == 0; ++i) {
  }

  std::vector<std::string> misses;
  std::printf("\nratio to counting-only:\n%-12s", "shape");
  for (std::size_t c = 1; c < kNumConfigs; ++c) std::printf(" %18s", kConfigs[c].name);
  std::printf("\n");
  for (std::size_t s = 0; s < std::size(kShapes); ++s) {
    std::printf("%-12s", kShapes[s].name);
    for (std::size_t c = 1; c < kNumConfigs; ++c) {
      const double ratio = ns[s][c] / ns[s][0];
      std::printf(" %17.2fx", ratio);
      if (kConfigs[c].max_ratio > 0.0 && ratio > kConfigs[c].max_ratio) {
        char line[128];
        std::snprintf(line, sizeof line, "%s %s/counting ratio %.2fx exceeds %.1fx",
                      kShapes[s].name, kConfigs[c].name, ratio, kConfigs[c].max_ratio);
        misses.emplace_back(line);
      }
    }
    std::printf("\n");
  }
  const bool ok = misses.empty();

  if (std::FILE* f = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"n\": %zu, \"reps\": %d, \"trials\": %d,\n  \"shapes\": {\n", kN, reps,
                 bench::kTrials);
    for (std::size_t s = 0; s < std::size(kShapes); ++s) {
      std::fprintf(f, "    \"%s\": {", kShapes[s].name);
      for (std::size_t c = 0; c < kNumConfigs; ++c) {
        std::fprintf(f, "%s\"%s\": {\"ns_per_el\": %.3f", c > 0 ? ", " : "", kConfigs[c].name,
                     ns[s][c]);
        if (c > 0) std::fprintf(f, ", \"ratio\": %.3f", ns[s][c] / ns[s][0]);
        if (kConfigs[c].max_ratio > 0.0) std::fprintf(f, ", \"max\": %.1f", kConfigs[c].max_ratio);
        std::fprintf(f, "}");
      }
      std::fprintf(f, "}%s\n", s + 1 < std::size(kShapes) ? "," : "");
    }
    std::fprintf(f, "  },\n  \"pass\": %s\n}\n", ok ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  for (const std::string& m : misses) std::printf("FAIL: %s\n", m.c_str());
  if (!ok) return 1;
  std::printf("OK: traced and rotating within 2.0x, telemetry within 1.2x of counting-only\n");
  return 0;
}

int main(int argc, char** argv) { return raptor::cli_main(run, argc, argv); }
