// Array front-end for the batched op-mode dispatch (DESIGN.md §8). The
// runtime batch entry points these reach execute on the SIMD truncation
// kernels (DESIGN.md §13) — contiguous spans assembled here are consumed as
// full AVX2/AVX-512 vectors when the host supports them, bit-identically to
// the scalar kernels on every path.
//
// Two layers, both reaching Runtime::op*_batch / trunc_array:
//
//  * Span helpers — element-wise add/sub/mul/div/scale/trunc over spans of
//    raptor::Real (raw payloads are gathered chunk-wise, dispatched in one
//    batch call, and the results adopted back), with `double` overloads that
//    compile to plain native loops so substrate kernels templated on the
//    scalar type keep an uninstrumented baseline.
//
//  * batch::Vec — a dynamically sized vector of raw payloads with operator
//    overloading and Real's sqrt/fabs/fmin/fmax. A kernel templated on its
//    scalar type (e.g. incomp::weno5, hydro::physical_flux) instantiated
//    with Vec executes the *same expression tree* as its Real instantiation,
//    so per-element results and counter totals are bitwise identical to the
//    scalar op loop — but every operator is one batch call instead of n
//    scalar dispatches. Payload blocks are recycled per thread.
//
// Ownership: raw payloads are plain doubles in op-mode. These helpers are
// op-mode only — Vec intermediates would leak NaN-boxed shadow entries in
// mem-mode — so substrates gate on Runtime::mode() == Mode::Op before taking
// the batch path (the runtime batch entry points themselves fall back to
// scalar dispatch in mem-mode, which the span helpers inherit).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "trunc/real.hpp"

namespace raptor::batch {

// ---------------------------------------------------------------------------
// Span helpers
// ---------------------------------------------------------------------------

namespace detail {

/// Chunk size for gather/dispatch/adopt over Real spans: large enough to
/// amortize the per-batch dispatch, small enough to stay on the stack.
inline constexpr std::size_t kChunk = 256;

inline void bin_real(rt::OpKind k, std::span<const Real> a, std::span<const Real> b,
                     std::span<Real> out) {
  RAPTOR_REQUIRE(a.size() == b.size() && a.size() == out.size(), "batch: span size mismatch");
  auto& R = rt::Runtime::instance();
  double xa[kChunk], xb[kChunk], xo[kChunk];
  for (std::size_t base = 0; base < a.size(); base += kChunk) {
    const std::size_t m = std::min(kChunk, a.size() - base);
    for (std::size_t i = 0; i < m; ++i) {
      xa[i] = a[base + i].raw();
      xb[i] = b[base + i].raw();
    }
    R.op2_batch(k, xa, xb, xo, m);
    for (std::size_t i = 0; i < m; ++i) out[base + i] = Real::adopt_raw(xo[i]);
  }
}

inline void bin_double(rt::OpKind k, std::span<const double> a, std::span<const double> b,
                       std::span<double> out) {
  RAPTOR_REQUIRE(a.size() == b.size() && a.size() == out.size(), "batch: span size mismatch");
  switch (k) {
    case rt::OpKind::Add:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
      break;
    case rt::OpKind::Sub:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
      break;
    case rt::OpKind::Mul:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] * b[i];
      break;
    default:
      for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] / b[i];
      break;
  }
}

}  // namespace detail

inline void add(std::span<const Real> a, std::span<const Real> b, std::span<Real> out) {
  detail::bin_real(rt::OpKind::Add, a, b, out);
}
inline void sub(std::span<const Real> a, std::span<const Real> b, std::span<Real> out) {
  detail::bin_real(rt::OpKind::Sub, a, b, out);
}
inline void mul(std::span<const Real> a, std::span<const Real> b, std::span<Real> out) {
  detail::bin_real(rt::OpKind::Mul, a, b, out);
}
inline void div(std::span<const Real> a, std::span<const Real> b, std::span<Real> out) {
  detail::bin_real(rt::OpKind::Div, a, b, out);
}
inline void add(std::span<const double> a, std::span<const double> b, std::span<double> out) {
  detail::bin_double(rt::OpKind::Add, a, b, out);
}
inline void sub(std::span<const double> a, std::span<const double> b, std::span<double> out) {
  detail::bin_double(rt::OpKind::Sub, a, b, out);
}
inline void mul(std::span<const double> a, std::span<const double> b, std::span<double> out) {
  detail::bin_double(rt::OpKind::Mul, a, b, out);
}
inline void div(std::span<const double> a, std::span<const double> b, std::span<double> out) {
  detail::bin_double(rt::OpKind::Div, a, b, out);
}

/// out[i] = s * a[i] (one Mul per element, like the scalar `T(s) * a[i]`).
inline void scale(std::span<const Real> a, const Real& s, std::span<Real> out) {
  RAPTOR_REQUIRE(a.size() == out.size(), "batch: span size mismatch");
  auto& R = rt::Runtime::instance();
  double xa[detail::kChunk], xs[detail::kChunk], xo[detail::kChunk];
  for (std::size_t i = 0; i < detail::kChunk; ++i) xs[i] = s.raw();
  for (std::size_t base = 0; base < a.size(); base += detail::kChunk) {
    const std::size_t m = std::min(detail::kChunk, a.size() - base);
    for (std::size_t i = 0; i < m; ++i) xa[i] = a[base + i].raw();
    R.op2_batch(rt::OpKind::Mul, xs, xa, xo, m);
    for (std::size_t i = 0; i < m; ++i) out[base + i] = Real::adopt_raw(xo[i]);
  }
}
inline void scale(std::span<const double> a, double s, std::span<double> out) {
  RAPTOR_REQUIRE(a.size() == out.size(), "batch: span size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = s * a[i];
}

/// Quantize a span into the current effective format (array `_raptor_pre_c`;
/// no flop counting, mirroring Runtime::trunc_array).
inline void trunc(std::span<const Real> a, std::span<Real> out) {
  RAPTOR_REQUIRE(a.size() == out.size(), "batch: span size mismatch");
  auto& R = rt::Runtime::instance();
  double xa[detail::kChunk], xo[detail::kChunk];
  for (std::size_t base = 0; base < a.size(); base += detail::kChunk) {
    const std::size_t m = std::min(detail::kChunk, a.size() - base);
    for (std::size_t i = 0; i < m; ++i) xa[i] = a[base + i].raw();
    R.trunc_array(xa, xo, m);
    for (std::size_t i = 0; i < m; ++i) out[base + i] = Real::adopt_raw(xo[i]);
  }
}
inline void trunc(std::span<const double> a, std::span<double> out) {
  RAPTOR_REQUIRE(a.size() == out.size(), "batch: span size mismatch");
  rt::Runtime::instance().trunc_array(a.data(), out.data(), a.size());
}

// ---------------------------------------------------------------------------
// batch::Vec — operator-overloaded batches of raw payloads
// ---------------------------------------------------------------------------

namespace detail {

/// Per-thread free lists of payload blocks, one per power-of-two size. A
/// batched kernel's Vec intermediates are short-lived and of few sizes, but
/// glibc's per-size cache keeps only a handful of freed blocks, so without
/// this most of them take malloc's slow path.
class BlockCache {
 public:
  static void* take(std::size_t bytes) {
    const int c = size_class(bytes);
    if (!dead_) {
      Node*& head = instance().head_[c];
      if (Node* n = head) {
        head = n->next;
        return n;
      }
    }
    return ::operator new(std::size_t{1} << c);
  }
  static void give(void* p, std::size_t bytes) noexcept {
    if (dead_) {
      ::operator delete(p);
      return;
    }
    Node*& head = instance().head_[size_class(bytes)];
    head = ::new (p) Node{head};
  }

 private:
  struct Node {
    Node* next;
  };
  static int size_class(std::size_t bytes) {
    return static_cast<int>(std::bit_width(std::max(bytes, sizeof(Node)) - 1));
  }
  static BlockCache& instance() {
    static thread_local BlockCache cache;
    return cache;
  }
  ~BlockCache() {
    for (Node* n : head_) {
      while (n != nullptr) {
        Node* next = n->next;
        ::operator delete(n);
        n = next;
      }
    }
    dead_ = true;
  }
  std::array<Node*, 64> head_{};
  // Trivially destructible, so still readable when a Vec dies during the
  // thread's teardown after the cache: such blocks go straight back to the
  // heap.
  static inline thread_local bool dead_ = false;
};

/// Vec's payload allocator: blocks from BlockCache, lanes default-
/// initialised (every lane is written before it is read, so no zero fill).
template <class T>
struct PayloadAlloc {
  using value_type = T;
  PayloadAlloc() = default;
  template <class U>
  PayloadAlloc(const PayloadAlloc<U>&) noexcept {}  // NOLINT(google-explicit-constructor)
  T* allocate(std::size_t n) { return static_cast<T*>(BlockCache::take(n * sizeof(T))); }
  void deallocate(T* p, std::size_t n) noexcept { BlockCache::give(p, n * sizeof(T)); }
  template <class U>
  void construct(U* p) noexcept {
    ::new (static_cast<void*>(p)) U;
  }
  template <class U, class... A>
  void construct(U* p, A&&... a) {
    ::new (static_cast<void*>(p)) U(std::forward<A>(a)...);
  }
  friend bool operator==(const PayloadAlloc&, const PayloadAlloc&) { return true; }
};

}  // namespace detail

class Vec {
 public:
  Vec() = default;
  /// Broadcast constant, mirroring the scalar kernels' `S(2.0)` idiom: each
  /// element-wise use still issues one runtime op per element.
  Vec(double scalar) : scalar_(scalar), is_scalar_(true) {}  // NOLINT: numeric

  /// Build by gathering raw payloads: fn(i) -> double, i in [0, n).
  template <typename Fn>
  static Vec gather(std::size_t n, Fn&& fn) {
    Vec r(n);
    for (std::size_t i = 0; i < n; ++i) r.v_[i] = fn(i);
    return r;
  }

  [[nodiscard]] bool is_scalar() const { return is_scalar_; }
  [[nodiscard]] std::size_t size() const { return is_scalar_ ? 1 : v_.size(); }
  [[nodiscard]] double operator[](std::size_t i) const { return is_scalar_ ? scalar_ : v_[i]; }

  friend Vec operator+(const Vec& a, const Vec& b) { return bin(rt::OpKind::Add, a, b); }
  friend Vec operator-(const Vec& a, const Vec& b) { return bin(rt::OpKind::Sub, a, b); }
  friend Vec operator*(const Vec& a, const Vec& b) { return bin(rt::OpKind::Mul, a, b); }
  friend Vec operator/(const Vec& a, const Vec& b) { return bin(rt::OpKind::Div, a, b); }
  Vec operator-() const {
    auto& R = rt::Runtime::instance();
    if (is_scalar_) return Vec(R.op1(rt::OpKind::Neg, scalar_));
    Vec r(v_.size());
    R.op1_batch(rt::OpKind::Neg, v_.data(), r.v_.data(), v_.size());
    return r;
  }

  // -- Math mirroring raptor::Real's (found by ADL, so a kernel's
  //    `using std::sqrt; sqrt(x)` reaches these for T = Vec) -------------

  friend Vec sqrt(const Vec& a) {
    auto& R = rt::Runtime::instance();
    if (a.is_scalar_) return Vec(R.op1(rt::OpKind::Sqrt, a.scalar_));
    Vec r(a.v_.size());
    R.op1_batch(rt::OpKind::Sqrt, a.v_.data(), r.v_.data(), a.v_.size());
    return r;
  }
  /// Real's `a < 0 ? -a : a`: one Neg per negative lane and no op on the
  /// others (-0 and NaN included), so the negative lanes are gathered into
  /// one batch and scattered back.
  friend Vec fabs(const Vec& a) {
    auto& R = rt::Runtime::instance();
    if (a.is_scalar_) return a.scalar_ < 0 ? Vec(R.op1(rt::OpKind::Neg, a.scalar_)) : a;
    Vec r = a;
    std::vector<std::size_t> neg;
    for (std::size_t i = 0; i < a.v_.size(); ++i) {
      if (a.v_[i] < 0) neg.push_back(i);
    }
    if (neg.empty()) return r;
    std::vector<double> x(neg.size());
    for (std::size_t i = 0; i < neg.size(); ++i) x[i] = a.v_[neg[i]];
    R.op1_batch(rt::OpKind::Neg, x.data(), x.data(), x.size());
    for (std::size_t i = 0; i < neg.size(); ++i) r.v_[neg[i]] = x[i];
    return r;
  }
  /// Real's selections, lane-wise and without ops: `a <= b ? a : b` and
  /// `a >= b ? a : b`, so a NaN in `a` yields `b`.
  friend Vec fmin(const Vec& a, const Vec& b) {
    return select(a, b, [](double x, double y) { return x <= y; });
  }
  friend Vec fmax(const Vec& a, const Vec& b) {
    return select(a, b, [](double x, double y) { return x >= y; });
  }

 private:
  /// n lanes, uninitialised: every caller writes each lane before use.
  explicit Vec(std::size_t n) : v_(n) {}

  template <typename Pred>
  static Vec select(const Vec& a, const Vec& b, Pred take_a) {
    if (a.is_scalar_ && b.is_scalar_) return take_a(a.scalar_, b.scalar_) ? a : b;
    const std::size_t n = a.is_scalar_ ? b.v_.size() : a.v_.size();
    RAPTOR_REQUIRE(a.is_scalar_ || b.is_scalar_ || b.v_.size() == n, "Vec: size mismatch");
    return gather(n, [&](std::size_t i) { return take_a(a[i], b[i]) ? a[i] : b[i]; });
  }

  /// Broadcast scratch reused across operator calls (one live broadcast per
  /// op2_batch call, so a single thread-local buffer suffices) — the WENO
  /// kernels do ~20 scalar-times-vector ops per invocation and must not pay
  /// an allocation for each.
  static const double* broadcast(double scalar, std::size_t n) {
    static thread_local std::vector<double> buf;
    static thread_local std::size_t filled = 0;  // leading lanes holding `scalar`
    static thread_local u64 held = 0;            // their bit pattern (+0 != -0)
    const u64 bits = std::bit_cast<u64>(scalar);
    if (bits != held) filled = 0;
    if (filled < n) {
      if (buf.size() < n) buf.resize(n);
      std::fill(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(n), scalar);
      filled = n;
      held = bits;
    }
    return buf.data();
  }

  static Vec bin(rt::OpKind k, const Vec& a, const Vec& b) {
    auto& R = rt::Runtime::instance();
    if (a.is_scalar_ && b.is_scalar_) return Vec(R.op2(k, a.scalar_, b.scalar_));
    const std::size_t n = a.is_scalar_ ? b.v_.size() : a.v_.size();
    RAPTOR_REQUIRE(a.is_scalar_ || b.is_scalar_ || b.v_.size() == n, "Vec: size mismatch");
    Vec r(n);
    if (a.is_scalar_) {
      R.op2_batch(k, broadcast(a.scalar_, n), b.v_.data(), r.v_.data(), n);
    } else if (b.is_scalar_) {
      R.op2_batch(k, a.v_.data(), broadcast(b.scalar_, n), r.v_.data(), n);
    } else {
      R.op2_batch(k, a.v_.data(), b.v_.data(), r.v_.data(), n);
    }
    return r;
  }

  std::vector<double, detail::PayloadAlloc<double>> v_;
  double scalar_ = 0.0;
  bool is_scalar_ = false;
};

}  // namespace raptor::batch
