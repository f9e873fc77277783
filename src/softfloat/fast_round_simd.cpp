// Dispatch and portable fallback for the SIMD batch truncation kernels
// (fast_round_simd.hpp; DESIGN.md §13).
#include "softfloat/fast_round_simd.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace raptor::sf::simd {

namespace {

/// Portable path: per-element calls into the scalar sf::fast_* kernels,
/// i.e. exactly the pre-SIMD batch loop bodies. This is both the fallback
/// for non-x86 builds and the measurement baseline the BENCH_simd.json gate
/// compares the vector paths against.
void span_portable(SpanOp op, const double* a, const double* b, const double* c, double* out,
                   std::size_t n, const RoundSpec& spec) {
  switch (op) {
    case SpanOp::Round:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_round(a[i], spec);
      break;
    case SpanOp::Add:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_add(a[i], b[i], spec);
      break;
    case SpanOp::Sub:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_sub(a[i], b[i], spec);
      break;
    case SpanOp::Mul:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_mul(a[i], b[i], spec);
      break;
    case SpanOp::Div:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_div(a[i], b[i], spec);
      break;
    case SpanOp::Neg:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_neg(a[i], spec);
      break;
    case SpanOp::Sqrt:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_sqrt(a[i], spec);
      break;
    case SpanOp::Fma:
      for (std::size_t i = 0; i < n; ++i) out[i] = fast_fma(a[i], b[i], c[i], spec);
      break;
    case SpanOp::Exp:
    case SpanOp::Log:
    case SpanOp::Log2:
    case SpanOp::Log10:
    case SpanOp::Cbrt:
      elementary_span(op, a, out, n, spec);
      break;
  }
}

/// Runtime CPUID support for a path the binary was able to compile.
bool cpu_supports(Path p) {
  switch (p) {
    case Path::Portable:
      return true;
    case Path::Avx2:
#if defined(RAPTOR_SIMD_HAVE_AVX2)
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
    case Path::Avx512:
#if defined(RAPTOR_SIMD_HAVE_AVX512)
      // The kernels use AVX-512 F (core u64 lane ops, masks) and CD
      // (vplzcntq for floor_log2); both ship together on every AVX-512
      // core since Skylake-SP, but check each explicitly.
      return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512cd") != 0;
#endif
      return false;
  }
  return false;
}

Path detect_best() {
  if (cpu_supports(Path::Avx512)) return Path::Avx512;
  if (cpu_supports(Path::Avx2)) return Path::Avx2;
  return Path::Portable;
}

Path read_env_default() {
  const char* e = std::getenv("RAPTOR_SIMD");
  if (e == nullptr || *e == '\0') return best_path();
  if (const auto p = parse_path(e); p && path_supported(*p)) return *p;
  std::fprintf(stderr,
               "raptor: RAPTOR_SIMD=%s names an unknown or unsupported SIMD path "
               "(want portable|avx2|avx512); using %s\n",
               e, path_name(best_path()));
  return best_path();
}

}  // namespace

void elementary_span(SpanOp op, const double* a, double* out, std::size_t n,
                     const RoundSpec& spec) {
  double (*fn)(double, const RoundSpec&) = nullptr;
  switch (op) {
    case SpanOp::Exp: fn = fast_exp; break;
    case SpanOp::Log: fn = fast_log; break;
    case SpanOp::Log2: fn = fast_log2; break;
    case SpanOp::Log10: fn = fast_log10; break;
    case SpanOp::Cbrt: fn = fast_cbrt; break;
    default: RAPTOR_REQUIRE(false, "elementary_span: not an elementary op");
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = fn(a[i], spec);
}

bool path_supported(Path p) { return cpu_supports(p); }

Path best_path() {
  static const Path p = detect_best();
  return p;
}

Path default_path() {
  static const Path p = read_env_default();
  return p;
}

Path resolve_path(std::optional<Path> requested) {
  if (requested && path_supported(*requested)) return *requested;
  return default_path();
}

const char* path_name(Path p) {
  switch (p) {
    case Path::Portable:
      return "portable";
    case Path::Avx2:
      return "avx2";
    case Path::Avx512:
      return "avx512";
  }
  return "?";
}

std::optional<Path> parse_path(std::string_view s) {
  std::string lower(s);
  for (char& ch : lower) ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
  if (lower == "portable" || lower == "scalar") return Path::Portable;
  if (lower == "avx2") return Path::Avx2;
  if (lower == "avx512" || lower == "avx-512") return Path::Avx512;
  return std::nullopt;
}

void span_exec(Path p, SpanOp op, const double* a, const double* b, const double* c, double* out,
               std::size_t n, const RoundSpec& spec) {
  if (n == 0) return;
  if (!path_supported(p)) p = default_path();  // never execute unsupported code
  switch (p) {
#if defined(RAPTOR_SIMD_HAVE_AVX2)
    case Path::Avx2:
      detail::span_avx2(op, a, b, c, out, n, spec);
      return;
#endif
#if defined(RAPTOR_SIMD_HAVE_AVX512)
    case Path::Avx512:
      detail::span_avx512(op, a, b, c, out, n, spec);
      return;
#endif
    default:
      span_portable(op, a, b, c, out, n, spec);
      return;
  }
}

}  // namespace raptor::sf::simd
