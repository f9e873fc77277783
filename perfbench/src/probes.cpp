#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "runtime/runtime.hpp"
#include "softfloat/bigfloat.hpp"
#include "softfloat/fast_round.hpp"
#include "softfloat/fast_round_simd.hpp"
#include "spans.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "trunc/real.hpp"
#include "trunc/scope.hpp"

namespace perfbench {

using namespace raptor;

namespace {

constexpr std::size_t kN = 4096;
constexpr int kTrials = 7;
constexpr double kTrialSeconds = 0.006;

/// Keeps the compiler from discarding or hoisting the probed work.
template <class T>
void escape(T* p) {
  asm volatile("" : : "g"(p) : "memory");
}

/// Median ns per operation of `body`, which performs `ops` operations per
/// call: one warm-up call, reps calibrated to ~kTrialSeconds per trial,
/// kTrials trials.
template <class F>
double ns_per_op(F&& body, double ops) {
  Timer warm;
  body();
  const double once = std::max(warm.seconds(), 1e-7);
  const int reps = std::max(1, static_cast<int>(kTrialSeconds / once));
  std::vector<double> ns;
  for (int t = 0; t < kTrials; ++t) {
    Timer timer;
    for (int r = 0; r < reps; ++r) body();
    ns.push_back(1e9 * timer.seconds() / (ops * reps));
  }
  std::nth_element(ns.begin(), ns.begin() + kTrials / 2, ns.end());
  return ns[kTrials / 2];
}

void emit_probe(const char* name, double value, const char* unit, const std::string& fmt,
                std::size_t n) {
  Record("probe")
      .str("name", name)
      .num("value", value)
      .str("unit", unit)
      .str("format", fmt)
      .num("n", static_cast<double>(n))
      .emit();
}

std::string fmt_name(const sf::Format& f) {
  // Appending sidesteps a GCC 12 -Wrestrict false positive on "e" + string.
  std::string s = "e";
  s += std::to_string(f.exp_bits);
  s += 'm';
  s += std::to_string(f.man_bits);
  return s;
}

/// Seeded operands: magnitudes spread over a few binades, both signs, no
/// zeros, quantized into `f` so every probe sees format values.
std::vector<double> operands(Rng& rng, const sf::Format& f) {
  std::vector<double> v(kN);
  for (double& x : v) {
    const double mag = rng.uniform(0.5, 8.0);
    x = sf::fast_round(rng.next_double() < 0.5 ? -mag : mag, f);
  }
  return v;
}

void probe_bigfloat(Rng& rng, const sf::Format& f) {
  const auto a = operands(rng, f), b = operands(rng, f);
  std::vector<sf::BigFloat> ba, bb;
  for (std::size_t i = 0; i < kN; ++i) {
    ba.push_back(sf::BigFloat::from_double(a[i]));
    bb.push_back(sf::BigFloat::from_double(b[i]));
  }
  std::vector<double> out(kN);
  const double ns = ns_per_op(
      [&] {
        for (std::size_t i = 0; i < kN; ++i) {
          const sf::BigFloat s = sf::BigFloat::add(ba[i], bb[i], f);
          out[i] = sf::BigFloat::mul(s, bb[i], f).to_double();
        }
        escape(out.data());
      },
      2.0 * kN);
  emit_probe(("softfloat.bigfloat_ns_per_op." + fmt_name(f)).c_str(), ns, "ns", fmt_name(f), kN);
}

void probe_fast(Rng& rng, const sf::Format& f) {
  const auto a = operands(rng, f), b = operands(rng, f);
  const sf::RoundSpec spec(f);
  std::vector<double> out(kN);
  const double ns = ns_per_op(
      [&] {
        for (std::size_t i = 0; i < kN; ++i) {
          out[i] = sf::fast_mul(sf::fast_add(a[i], b[i], spec), b[i], spec);
        }
        escape(out.data());
      },
      2.0 * kN);
  emit_probe("softfloat.fast_ns_per_op.e8m12", ns, "ns", fmt_name(f), kN);

  const sf::simd::Path path = sf::simd::default_path();
  const double span_ns = ns_per_op(
      [&] {
        sf::simd::span_exec(path, sf::simd::SpanOp::Add, a.data(), b.data(), nullptr,
                            out.data(), kN, spec);
        sf::simd::span_exec(path, sf::simd::SpanOp::Mul, out.data(), b.data(), nullptr,
                            out.data(), kN, spec);
        escape(out.data());
      },
      2.0 * kN);
  emit_probe("softfloat.span_ns_per_el.e8m12", span_ns, "ns",
             fmt_name(f) + "/" + sf::simd::path_name(path), kN);
}

/// Runtime::op2 Add then Mul per element under whatever scope/region/mode
/// the caller has set up.
double scalar_dispatch_ns(const std::vector<double>& a, const std::vector<double>& b) {
  auto& R = rt::Runtime::instance();
  std::vector<double> out(kN);
  return ns_per_op(
      [&] {
        for (std::size_t i = 0; i < kN; ++i) {
          out[i] = R.op2(rt::OpKind::Mul, R.op2(rt::OpKind::Add, a[i], b[i]), b[i]);
        }
        escape(out.data());
      },
      2.0 * kN);
}

void probe_runtime(Rng& rng, const std::string& workdir) {
  auto& R = rt::Runtime::instance();
  const sf::Format e8m12{8, 12}, e11m30{11, 30};
  const auto a = operands(rng, e8m12), b = operands(rng, e8m12);
  std::vector<double> out(kN);

  {
    const double ns = ns_per_op(
        [&] {
          for (std::size_t i = 0; i < kN; ++i) out[i] = (a[i] + b[i]) * b[i];
          escape(out.data());
        },
        2.0 * kN);
    emit_probe("runtime.native_ns_per_op", ns, "ns", "fp64", kN);
  }
  emit_probe("runtime.untrunc_ns_per_op", scalar_dispatch_ns(a, b), "ns", "fp64", kN);
  {
    TruncScope scope(8, 12);
    emit_probe("runtime.scalar_ns_per_op.e8m12", scalar_dispatch_ns(a, b), "ns", "e8m12", kN);
  }
  {
    std::vector<Real> ra(a.begin(), a.end()), rb(b.begin(), b.end()), rout(kN);
    TruncScope scope(8, 12);
    const double ns = ns_per_op(
        [&] {
          for (std::size_t i = 0; i < kN; ++i) rout[i] = (ra[i] + rb[i]) * rb[i];
          escape(rout.data());
        },
        2.0 * kN);
    emit_probe("trunc.real_ns_per_op.e8m12", ns, "ns", "e8m12", kN);
  }
  for (const sf::Format& f : {e8m12, e11m30}) {
    const auto fa = operands(rng, f), fb = operands(rng, f);
    TruncScope scope(f.exp_bits, f.man_bits);
    const double ns = ns_per_op(
        [&] {
          R.op2_batch(rt::OpKind::Add, fa.data(), fb.data(), out.data(), kN);
          R.op2_batch(rt::OpKind::Mul, out.data(), fb.data(), out.data(), kN);
          escape(out.data());
        },
        2.0 * kN);
    emit_probe(("runtime.batch_ns_per_el." + fmt_name(f)).c_str(), ns, "ns", fmt_name(f), kN);
  }
  {
    R.set_region_profiling(true);
    {
      TruncScope scope(8, 12);
      Region region("perfbench/probe");
      emit_probe("runtime.profiled_ns_per_op.e8m12", scalar_dispatch_ns(a, b), "ns", "e8m12",
                 kN);
    }
    R.set_region_profiling(false);
    R.reset_region_profiles();
  }
  {
    trace::TraceOptions topts;
    topts.path = workdir + "/probe.rtrace";
    topts.sample_stride = 64;
    R.trace_start(topts);
    {
      TruncScope scope(8, 12);
      emit_probe("trace.sampled_ns_per_op.e8m12", scalar_dispatch_ns(a, b), "ns",
                 "e8m12/stride64", kN);
    }
    R.trace_stop();
    std::remove(topts.path.c_str());
  }
  {
    R.set_mode(rt::Mode::Mem);
    const u64 sections0 = R.mem_locked_sections();
    double ops = 0.0;
    {
      std::vector<Real> ra(a.begin(), a.end()), rb(b.begin(), b.end()), rout(kN);
      TruncScope scope(8, 12);
      const double ns = ns_per_op(
          [&] {
            for (std::size_t i = 0; i < kN; ++i) rout[i] = (ra[i] + rb[i]) * rb[i];
            escape(rout.data());
            ops += 2.0 * kN;
          },
          2.0 * kN);
      emit_probe("runtime.mem_ns_per_op.e8m12", ns, "ns", "e8m12", kN);
    }
    const double sections = static_cast<double>(R.mem_locked_sections() - sections0);
    emit_probe("runtime.mem_locked_sections_per_op", sections / ops, "count", "e8m12", kN);
    R.mem_clear();
    R.set_mode(rt::Mode::Op);
  }
  R.reset_counters();
}

}  // namespace

void run_probes(u64 seed, const std::string& workdir) {
  Rng rng(seed);
  probe_bigfloat(rng, sf::Format{8, 12});
  probe_bigfloat(rng, sf::Format{11, 30});
  probe_fast(rng, sf::Format{8, 12});
  probe_runtime(rng, workdir);
}

}  // namespace perfbench
