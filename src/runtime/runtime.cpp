#include "runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <tuple>

#include "softfloat/fast_round.hpp"

namespace raptor::rt {

namespace {

double deviation_of(double t, double s) {
  const bool t_nan = std::isnan(t);
  const bool s_nan = std::isnan(s);
  // Both NaN: the truncated run diverged exactly as the reference did —
  // nothing new to flag. One-sided NaN is catastrophic divergence (e.g. a
  // narrow-format overflow turning inf - inf into NaN while the FP64 shadow
  // stays finite): report infinite deviation so the flag always fires.
  if (t_nan && s_nan) return 0.0;
  if (t_nan || s_nan) return std::numeric_limits<double>::infinity();
  // Infinities would otherwise produce NaN (inf - inf or inf / inf): the
  // same overflow on both sides is agreement, anything one-sided or
  // sign-flipped is catastrophic.
  if (std::isinf(t) || std::isinf(s)) {
    return t == s ? 0.0 : std::numeric_limits<double>::infinity();
  }
  const double denom = std::max(std::fabs(s), 1e-300);
  return std::fabs(t - s) / denom;
}

int width_index(int width) { return width == 64 ? 0 : width == 32 ? 1 : 2; }

}  // namespace

struct Runtime::ThreadState {
  struct ScopeFrame {
    TruncationSpec spec;
    bool enabled = true;
  };
  /// One open region: its slot plus the exclusion and format override in
  /// force, inherited from the enclosing frame unless the slot has its own.
  /// Both are decided at region entry; `region_format` points into the slot
  /// that supplied the override (nullptr = none).
  struct RegionFrame {
    RegionSlot* slot;
    bool excluded;
    const TruncationSpec* region_format;
  };

  /// Resolved truncation state for one operand width: what
  /// effective_format() would compute at the current scope/region/config
  /// point, plus the fast kernels' rounding constants for it. Recomputed
  /// lazily after any scope/region push/pop (local invalidation) or global
  /// config change (epoch mismatch), so steady-state op dispatch costs one
  /// flag test instead of a stack walk.
  struct TruncCache {
    bool cached = false;
    bool active = false;
    sf::Format fmt;
    sf::RoundSpec spec{sf::Format::fp64()};
  };

  std::vector<ScopeFrame> scopes;
  /// One slot per region label this thread entered (node-based: slot
  /// pointers survive growth), and a pointer-keyed front cache over it.
  /// A front-cache hit is only taken when the caller's text still equals
  /// the slot's own copy, so a recycled label buffer never inherits a slot.
  SlotTable slots;
  std::array<std::pair<const char*, RegionSlot*>, 64> front{};
  /// The region stack; the bottom frame is "<toplevel>", which is never
  /// excluded or overridden.
  std::vector<RegionFrame> regions;
  TruncCache trunc_cache[3];  ///< widths 64 / 32 / 16
  u64 config_epoch = 0;
  CounterSnapshot counters;
  /// Start of the innermost region's current wall-clock interval
  /// (DESIGN.md §16). Zero = no interval open (profiling just enabled, or
  /// reset): the next region boundary stamps it without accruing. Only the
  /// owning thread reads/writes it during execution; set_region_profiling
  /// and reset_region_profiles zero it under the quiescence contract.
  std::chrono::steady_clock::time_point region_t0{};
  /// Trace capture state (DESIGN.md §12): the thread's ring for the current
  /// tracer session and the sampling countdown. The session stamp re-syncs
  /// both across trace_start/trace_stop.
  trace::ThreadTrace* trace_buf = nullptr;
  u64 trace_session = 0;
  u64 trace_countdown = 0;
  /// Emulation cells of the scratch allocation strategy (Fig. 4b).
  sf::BigFloat scratch[4];
  Runtime* owner;

  /// The slot of `label`, interned on first use.
  RegionSlot& slot_for(const char* label) {
    auto& [key, hit] =
        front[(reinterpret_cast<std::uintptr_t>(label) * 0x9E3779B97F4A7C15ull) >> 58];
    if (key == label && std::strcmp(hit->label->c_str(), label) == 0) return *hit;
    auto it = slots.find(std::string_view(label));
    if (it == slots.end()) {
      it = slots.try_emplace(label).first;
      it->second.label = &it->first;
    }
    key = label;
    hit = &it->second;
    return *hit;
  }
  [[nodiscard]] RegionSlot& slot() const { return *regions.back().slot; }
  /// The innermost region's profile, or nullptr when profiling is off.
  RegionProfile* profile(bool profiling) const {
    if (!profiling) return nullptr;
    slot().profiled = true;
    return &slot().profile;
  }

  /// Rounding constants of the format effective_format() just resolved.
  [[nodiscard]] const sf::RoundSpec& round_spec(int width) const {
    return trunc_cache[width_index(width)].spec;
  }

  void invalidate_trunc_cache() {
    for (TruncCache& c : trunc_cache) c.cached = false;
  }

  explicit ThreadState(Runtime* o) : owner(o) {
    regions.push_back({&slot_for("<toplevel>"), false, nullptr});
    o->register_thread(this);
  }
  ~ThreadState() { owner->retire_thread(this); }
};

void Runtime::RegionSlot::fold(const RegionSlot& s, u64 session) {
  profile.merge(s.profile);
  profiled = profiled || s.profiled;
  if (!s.traced_in(session)) return;
  if (!traced_in(session)) {
    trace_session = session;
    hist = {};
  }
  trace_id = s.trace_id;
  hist.merge(s.hist);
}

std::vector<RegionProfileEntry> Runtime::profile_rows(const SlotTable& slots) {
  std::vector<RegionProfileEntry> out;
  for (const auto& [label, s] : slots) {
    if (s.profiled) out.push_back({label, s.profile});
  }
  std::sort(out.begin(), out.end(), [](const RegionProfileEntry& a, const RegionProfileEntry& b) {
    return a.profile.counters.total_flops() > b.profile.counters.total_flops();
  });
  return out;
}

Runtime& Runtime::instance() {
  static Runtime* r = new Runtime;  // leaked: immune to shutdown-order issues
  return *r;
}

Runtime::ThreadState& Runtime::tls() {
  thread_local ThreadState ts(this);
  return ts;
}

void Runtime::register_thread(ThreadState* ts) {
  std::lock_guard lock(threads_mu_);
  threads_.push_back(ts);
}

void Runtime::retire_thread(ThreadState* ts) {
  // Close the thread's open wall-clock interval so a worker dying inside a
  // region doesn't silently drop that region's tail time.
  if (region_profiling_) accrue_region_time(*ts);
  // Fold the slots into the retired aggregate; histograms of a stale trace
  // session are left out. Undrained ring events are picked up by the
  // drainer, so nothing is lost on retirement.
  std::lock_guard lock(threads_mu_);
  retired_.merge(ts->counters);
  const u64 session = tracer_.session();
  for (const auto& [label, s] : ts->slots) retired_slots_[label].fold(s, session);
  std::erase(threads_, ts);
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

void Runtime::set_truncate_all(const TruncationSpec& spec) {
  {
    std::lock_guard lock(config_mu_);
    global_spec_ = spec;
    have_global_ = true;
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::clear_truncate_all() {
  {
    std::lock_guard lock(config_mu_);
    have_global_ = false;
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

std::optional<TruncationSpec> Runtime::truncate_all() const {
  std::lock_guard lock(config_mu_);
  if (!have_global_) return std::nullopt;
  return global_spec_;
}

void Runtime::exclude_region(const std::string& label) {
  {
    std::lock_guard lock(config_mu_);
    if (std::find(exclusions_.begin(), exclusions_.end(), label) == exclusions_.end()) {
      exclusions_.push_back(label);
    }
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::clear_exclusions() {
  {
    std::lock_guard lock(config_mu_);
    exclusions_.clear();
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

bool Runtime::is_excluded(const std::string& label) const {
  std::lock_guard lock(config_mu_);
  return std::find(exclusions_.begin(), exclusions_.end(), label) != exclusions_.end();
}

void Runtime::set_region_format(const std::string& label, const TruncationSpec& spec) {
  {
    std::lock_guard lock(config_mu_);
    auto it = std::find_if(region_formats_.begin(), region_formats_.end(),
                           [&](const auto& e) { return e.first == label; });
    if (it != region_formats_.end()) {
      it->second = spec;
    } else {
      region_formats_.emplace_back(label, spec);
    }
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

void Runtime::clear_region_formats() {
  {
    std::lock_guard lock(config_mu_);
    region_formats_.clear();
  }
  config_epoch_.fetch_add(1, std::memory_order_release);
}

std::optional<TruncationSpec> Runtime::region_format(const std::string& label) const {
  std::lock_guard lock(config_mu_);
  for (const auto& [l, s] : region_formats_) {
    if (l == label) return s;
  }
  return std::nullopt;
}

void Runtime::set_region_profiling(bool on) {
  {
    std::lock_guard lock(config_mu_);
    region_profiling_ = on;
  }
  {
    // Discard any open wall-clock interval: a stale region_t0 from a
    // previous profiling session would otherwise accrue the whole gap to
    // whichever region is innermost at the next boundary. Quiescence
    // contract: no instrumented code is executing, so touching other
    // threads' state under threads_mu_ is safe.
    std::lock_guard lock(threads_mu_);
    for (ThreadState* ts : threads_) ts->region_t0 = {};
  }
}

Runtime::SlotTable Runtime::merged_slots() const {
  std::lock_guard lock(threads_mu_);
  SlotTable merged = retired_slots_;
  const u64 session = tracer_.session();
  for (const ThreadState* ts : threads_) {
    for (const auto& [label, s] : ts->slots) merged[label].fold(s, session);
  }
  return merged;
}

std::vector<RegionProfileEntry> Runtime::region_profiles() const {
  return profile_rows(merged_slots());
}

void Runtime::reset_region_profiles() {
  // Zeroed in place: slot pointers held by open frames stay valid.
  std::lock_guard lock(threads_mu_);
  const auto zero = [](SlotTable& slots) {
    for (auto& [label, s] : slots) {
      s.profile = {};
      s.profiled = false;
    }
  };
  zero(retired_slots_);
  for (ThreadState* ts : threads_) {
    zero(ts->slots);
    ts->region_t0 = {};  // the open interval belongs to the discarded data
  }
}

std::vector<trace::RegionHistEntry> Runtime::trace_histograms() const {
  const u64 session = tracer_.session();
  std::vector<trace::RegionHistEntry> out;
  for (const auto& [label, s] : merged_slots()) {
    if (s.traced_in(session)) out.push_back({label, s.hist});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.hist.exp.total() > b.hist.exp.total();
  });
  return out;
}

// ---------------------------------------------------------------------------
// Scoping
// ---------------------------------------------------------------------------

void Runtime::push_scope(const TruncationSpec& spec, bool enabled) {
  ThreadState& ts = tls();
  ts.scopes.push_back({spec, enabled});
  ts.invalidate_trunc_cache();
}

void Runtime::pop_scope() {
  ThreadState& ts = tls();
  RAPTOR_REQUIRE(!ts.scopes.empty(), "pop_scope without matching push_scope");
  ts.scopes.pop_back();
  ts.invalidate_trunc_cache();
}

void Runtime::push_region(const char* label) {
  ThreadState& ts = tls();
  // Time accrues to the *enclosing* region up to this entry point.
  if (region_profiling_) accrue_region_time(ts);
  // Exclusion and format overrides are decided at region entry (cheap
  // per-op reads afterwards); a region nested under an excluded one stays
  // excluded, and a region without its own override inherits the enclosing
  // region's. The slot keeps its label's own lookup until the config epoch
  // moves, so config_mu_ is taken only on a label's first entry or after a
  // configuration change.
  RegionSlot& s = ts.slot_for(label);
  const u64 epoch = config_epoch_.load(std::memory_order_acquire);
  if (s.config_epoch != epoch) {
    std::lock_guard lock(config_mu_);
    s.excluded = std::find(exclusions_.begin(), exclusions_.end(), label) != exclusions_.end();
    auto it = std::find_if(region_formats_.begin(), region_formats_.end(),
                           [&](const auto& e) { return e.first == label; });
    s.has_override = it != region_formats_.end();
    if (s.has_override) s.override_spec = it->second;
    s.config_epoch = epoch;
  }
  const ThreadState::RegionFrame& up = ts.regions.back();
  ts.regions.push_back({&s, up.excluded || s.excluded,
                        s.has_override ? &s.override_spec : up.region_format});
  ts.invalidate_trunc_cache();
}

void Runtime::pop_region() {
  ThreadState& ts = tls();
  RAPTOR_REQUIRE(ts.regions.size() > 1, "pop_region without matching push_region");
  // The popped region is still innermost: close its interval first.
  if (region_profiling_) accrue_region_time(ts);
  ts.regions.pop_back();
  ts.invalidate_trunc_cache();
}

const char* Runtime::current_region() { return tls().slot().label->c_str(); }

void Runtime::sync_epoch(ThreadState& ts) const {
  const u64 epoch = config_epoch_.load(std::memory_order_acquire);
  if (ts.config_epoch != epoch) {
    ts.invalidate_trunc_cache();
    ts.config_epoch = epoch;
  }
}

const sf::Format* Runtime::effective_format(ThreadState& ts, int width) const {
  sync_epoch(ts);
  ThreadState::TruncCache& c = ts.trunc_cache[width_index(width)];
  if (!c.cached) {
    std::optional<sf::Format> f;
    const ThreadState::RegionFrame& r = ts.regions.back();
    if (!r.excluded) {
      if (r.region_format != nullptr) {
        // Per-region override (precision-search output): most specific
        // user intent, beaten only by exclusion.
        f = r.region_format->for_width(width);
      } else if (!ts.scopes.empty()) {
        if (ts.scopes.back().enabled) f = ts.scopes.back().spec.for_width(width);
      } else {
        // Global spec: the only cross-thread input, read under config_mu_
        // once per invalidation rather than on every operation.
        std::lock_guard lock(config_mu_);
        if (have_global_) f = global_spec_.for_width(width);
      }
    }
    c.active = f.has_value();
    if (f) {
      c.fmt = *f;
      c.spec = sf::RoundSpec(*f);
    }
    c.cached = true;
  }
  return c.active ? &c.fmt : nullptr;
}

void Runtime::accrue_region_time(ThreadState& ts) {
  // Close the innermost region's open wall-clock interval and start a new
  // one. Called at region boundaries (before the stack mutates), so the
  // accrued time is exclusive self-time: a parent's clock pauses while a
  // child region is innermost.
  const auto now = std::chrono::steady_clock::now();
  if (ts.region_t0.time_since_epoch().count() != 0) {
    ts.profile(true)->seconds += std::chrono::duration<double>(now - ts.region_t0).count();
  }
  ts.region_t0 = now;
}

bool Runtime::truncation_active(int width) { return effective_format(tls(), width) != nullptr; }

std::optional<sf::Format> Runtime::active_format(int width) {
  const sf::Format* f = effective_format(tls(), width);
  if (f == nullptr) return std::nullopt;
  return *f;
}

// ---------------------------------------------------------------------------
// Executors (DESIGN.md §5), written once for every arity N (1, 2, 3 operands)
// ---------------------------------------------------------------------------

namespace {

/// Operand i of the spans x[0..N).
template <std::size_t N>
std::array<double, N> at(const std::array<const double*, N>& x, std::size_t i) {
  std::array<double, N> v;
  for (std::size_t j = 0; j < N; ++j) v[j] = x[j][i];
  return v;
}

/// Calls `run(op)` with `op` the hardware operation `k` on N operands of
/// type T: T = double is the untruncated (and fp64 fast-path) executor,
/// T = float the fp32 one. The kind switch sits outside whatever loop `run`
/// holds, so untruncated spans stay vectorizable.
template <class T, std::size_t N, class Run>
void with_native(OpKind k, const Run& run) {
  if constexpr (N == 1) {
    switch (k) {
      case OpKind::Neg: return run([](T a) { return -a; });
      case OpKind::Sqrt: return run([](T a) { return std::sqrt(a); });
      case OpKind::Exp: return run([](T a) { return std::exp(a); });
      case OpKind::Log: return run([](T a) { return std::log(a); });
      case OpKind::Log2: return run([](T a) { return std::log2(a); });
      case OpKind::Log10: return run([](T a) { return std::log10(a); });
      case OpKind::Sin: return run([](T a) { return std::sin(a); });
      case OpKind::Cos: return run([](T a) { return std::cos(a); });
      case OpKind::Tan: return run([](T a) { return std::tan(a); });
      case OpKind::Atan: return run([](T a) { return std::atan(a); });
      case OpKind::Tanh: return run([](T a) { return std::tanh(a); });
      case OpKind::Cbrt: return run([](T a) { return std::cbrt(a); });
      default: RAPTOR_REQUIRE(false, "bad unary op");
    }
  } else if constexpr (N == 2) {
    switch (k) {
      case OpKind::Add: return run([](T a, T b) { return a + b; });
      case OpKind::Sub: return run([](T a, T b) { return a - b; });
      case OpKind::Mul: return run([](T a, T b) { return a * b; });
      case OpKind::Div: return run([](T a, T b) { return a / b; });
      case OpKind::Pow: return run([](T a, T b) { return std::pow(a, b); });
      case OpKind::Atan2: return run([](T a, T b) { return std::atan2(a, b); });
      default: RAPTOR_REQUIRE(false, "bad binary op");
    }
  } else {
    RAPTOR_REQUIRE(k == OpKind::Fma, "bad ternary op");
    // Single-rounding FMA in T, matching the BigFloat fused semantics.
    run([](T a, T b, T c) { return std::fma(a, b, c); });
  }
}

/// The BigFloat operation `k` in format `f`: correctly rounded for the
/// arithmetic kinds, faithful for the elementary functions (DESIGN.md §6).
template <std::size_t N>
sf::BigFloat bf_apply(OpKind k, const sf::BigFloat* const* x, const sf::Format& f) {
  const sf::BigFloat& a = *x[0];
  if constexpr (N == 1) {
    switch (k) {
      case OpKind::Neg: return a.negated();
      case OpKind::Sqrt: return sf::BigFloat::sqrt(a, f);
      case OpKind::Exp: return sf::bf_exp(a, f);
      case OpKind::Log: return sf::bf_log(a, f);
      case OpKind::Log2: return sf::bf_log2(a, f);
      case OpKind::Log10: return sf::bf_log10(a, f);
      case OpKind::Sin: return sf::bf_sin(a, f);
      case OpKind::Cos: return sf::bf_cos(a, f);
      case OpKind::Tan: return sf::bf_tan(a, f);
      case OpKind::Atan: return sf::bf_atan(a, f);
      case OpKind::Tanh: return sf::bf_tanh(a, f);
      case OpKind::Cbrt: return sf::bf_cbrt(a, f);
      default: RAPTOR_REQUIRE(false, "bad unary op"); return {};
    }
  } else if constexpr (N == 2) {
    const sf::BigFloat& b = *x[1];
    switch (k) {
      case OpKind::Add: return sf::BigFloat::add(a, b, f);
      case OpKind::Sub: return sf::BigFloat::sub(a, b, f);
      case OpKind::Mul: return sf::BigFloat::mul(a, b, f);
      case OpKind::Div: return sf::BigFloat::div(a, b, f);
      case OpKind::Pow: return sf::bf_pow(a, b, f);
      case OpKind::Atan2: return sf::bf_atan2(a, b, f);
      default: RAPTOR_REQUIRE(false, "bad binary op"); return {};
    }
  } else {
    RAPTOR_REQUIRE(k == OpKind::Fma, "bad ternary op");
    return sf::BigFloat::fma(a, *x[1], *x[2], f);
  }
}

/// The fast_* kernel computing `k` at arity N, if it has one (bit-identical
/// to BigFloat inside its envelope, sf::simd::span_supports; fast_round.hpp).
template <std::size_t N>
std::optional<sf::simd::SpanOp> fast_kernel(OpKind k) {
  using sf::simd::SpanOp;
  if (N == 1 && k == OpKind::Neg) return SpanOp::Neg;
  if (N == 1 && k == OpKind::Sqrt) return SpanOp::Sqrt;
  if (N == 1 && k == OpKind::Exp) return SpanOp::Exp;
  if (N == 1 && k == OpKind::Log) return SpanOp::Log;
  if (N == 1 && k == OpKind::Log2) return SpanOp::Log2;
  if (N == 1 && k == OpKind::Log10) return SpanOp::Log10;
  if (N == 1 && k == OpKind::Cbrt) return SpanOp::Cbrt;
  if (N == 2 && k == OpKind::Add) return SpanOp::Add;
  if (N == 2 && k == OpKind::Sub) return SpanOp::Sub;
  if (N == 2 && k == OpKind::Mul) return SpanOp::Mul;
  if (N == 2 && k == OpKind::Div) return SpanOp::Div;
  if (N == 3 && k == OpKind::Fma) return SpanOp::Fma;
  return std::nullopt;
}

/// One element of a fast_kernel() span operation. As for the span kernels,
/// operand slots `op` does not read alias the last operand.
template <std::size_t N>
double fast_apply(sf::simd::SpanOp op, const std::array<double, N>& x, const sf::RoundSpec& s) {
  const double a = x[0], b = x[N > 1 ? 1 : 0], c = x[N - 1];
  switch (op) {
    case sf::simd::SpanOp::Neg: return sf::fast_neg(a, s);
    case sf::simd::SpanOp::Sqrt: return sf::fast_sqrt(a, s);
    case sf::simd::SpanOp::Exp: return sf::fast_exp(a, s);
    case sf::simd::SpanOp::Log: return sf::fast_log(a, s);
    case sf::simd::SpanOp::Log2: return sf::fast_log2(a, s);
    case sf::simd::SpanOp::Log10: return sf::fast_log10(a, s);
    case sf::simd::SpanOp::Cbrt: return sf::fast_cbrt(a, s);
    case sf::simd::SpanOp::Add: return sf::fast_add(a, b, s);
    case sf::simd::SpanOp::Sub: return sf::fast_sub(a, b, s);
    case sf::simd::SpanOp::Mul: return sf::fast_mul(a, b, s);
    case sf::simd::SpanOp::Div: return sf::fast_div(a, b, s);
    default: return sf::fast_fma(a, b, c, s);
  }
}

enum class Exec : u8 {
  F64,      ///< double hardware: untruncated, or an fp64 target under hw_fastpath
  F32,      ///< float hardware: an fp32 target under hw_fastpath
  Fast,     ///< fp64 hardware or libm + fast_round, inside the bit-exact envelope
  BigFloat  ///< per-op emulation (Fig. 5a); everything else
};

/// The one dispatch rule, shared by the scalar and span executors; `f` is
/// the resolved target format (nullptr = untruncated). Narrower formats
/// never widen through float hardware: that double-rounds for man_bits > 11
/// (DESIGN.md §8; pinned by DoubleRoundingWitness in test_runtime).
template <std::size_t N>
Exec select_exec(OpKind k, const sf::Format* f, bool hw_fastpath) {
  if (f == nullptr) return Exec::F64;
  if (hw_fastpath && *f == sf::Format::fp64()) return Exec::F64;
  if (hw_fastpath && *f == sf::Format::fp32()) return Exec::F32;
  const auto op = fast_kernel<N>(k);
  return op && sf::simd::span_supports(*op, *f) ? Exec::Fast : Exec::BigFloat;
}

}  // namespace

template <std::size_t N>
double Runtime::emulate(ThreadState& ts, OpKind k, const std::array<double, N>& x,
                        const sf::Format& f) {
  // Each cell stands in for an MPFR variable: [0, N) hold the rounded
  // operands, N the result. Naive mode news/deletes every cell per
  // operation (mpfr_init2 / mpfr_clear); scratch mode reuses the pad.
  const bool naive = alloc_ == AllocStrategy::Naive;
  std::array<sf::BigFloat*, N + 1> cell;
  for (std::size_t i = 0; i <= N; ++i) cell[i] = naive ? new sf::BigFloat : &ts.scratch[i];
  for (std::size_t i = 0; i < N; ++i) *cell[i] = sf::BigFloat::from_double_rounded(x[i], f);
  *cell[N] = bf_apply<N>(k, cell.data(), f);
  const double r = cell[N]->to_double();  // mpfr_get
  if (naive) {
    for (sf::BigFloat* c : cell) delete c;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Mem-mode (Fig. 5b semantics with refcounting on top)
// ---------------------------------------------------------------------------

template <std::size_t N>
double Runtime::mem_op(ThreadState& ts, OpKind k, const std::array<double, N>& args,
                       const sf::Format& f, bool truncated) {
  std::array<sf::BigFloat, N> t;
  std::array<double, N> s;
  std::array<const sf::BigFloat*, N> tp;  // bf_apply's operand view of t
  bool fresh = true;  // no operand already deviates beyond the threshold
  ShadowEntry e;
  for (std::size_t i = 0; i < N; ++i) {
    // One locked read per boxed operand: the generation check and the entry
    // copy share a single shard-locked section. A stale handle (surviving
    // mem_clear) fails the check and is promoted below as a NaN *value*.
    if (boxing::is_boxed(args[i]) &&
        shadow_.snapshot_if_current(boxing::unbox_id(args[i]),
                                    boxing::unbox_generation(args[i]), e)) {
      t[i] = e.trunc;
      s[i] = e.shadow;
      fresh = fresh && deviation_of(t[i].to_double(), s[i]) <= dev_threshold_;
    } else {
      // Constant / unconverted operand: promote on the fly. Rounding error
      // introduced here belongs to *this* operation (it is the _raptor_pre_c
      // step), so it does not disqualify the result from being "fresh".
      t[i] = truncated ? sf::BigFloat::from_double_rounded(args[i], f)
                       : sf::BigFloat::from_double(args[i]);
      s[i] = args[i];
    }
    tp[i] = &t[i];
  }

  const sf::BigFloat tr = bf_apply<N>(k, tp.data(), f);
  double sr = 0.0;
  with_native<double, N>(k, [&](auto op) { sr = std::apply(op, s); });

  const double dev_r = deviation_of(tr.to_double(), sr);
  if (RegionProfile* rp = ts.profile(region_profiling_)) {
    if (dev_r > rp->max_deviation) rp->max_deviation = dev_r;
    if (dev_r > dev_threshold_) ++rp->flagged;
  }
  if (dev_r > dev_threshold_) record_flag(*ts.slot().label, k, dev_r, fresh);
  // Mem-mode events carry the result's deviation bucket; op_scalar does not
  // trace mem-mode results, so this is the only capture point.
  if (trace_on_) {
    const double rv = tr.to_double();
    trace_event(ts, k, &rv, 1, truncated ? &f : nullptr, /*span=*/false, /*mem=*/true,
                trace::DevHistogram::bucket_of(dev_r));
  }
  // One locked write for the result: alloc_boxed stamps the generation under
  // the same shard lock as the allocation.
  return shadow_.alloc_boxed(tr, sr);
}

// Handles carry the table generation; after mem_clear() (which bumps it),
// straggling handles become stale: reads return NaN, retain/release are
// ignored. This keeps long-lived instrumented data structures safe across
// experiment resets. Every accessor below folds the generation check into
// its single shard-locked section (the *_if_current ShadowTable calls).

double Runtime::mem_make(double v, int width) {
  ThreadState& ts = tls();
  const sf::Format* f = effective_format(ts, width);
  const sf::BigFloat t =
      f ? sf::BigFloat::from_double_rounded(v, *f) : sf::BigFloat::from_double(v);
  return shadow_.alloc_boxed(t, v);
}

double Runtime::mem_value(double maybe_boxed) const {
  if (!boxing::is_boxed(maybe_boxed)) return maybe_boxed;
  ShadowEntry e;
  if (!shadow_.snapshot_if_current(boxing::unbox_id(maybe_boxed),
                                   boxing::unbox_generation(maybe_boxed), e)) {
    return std::nan("");
  }
  return e.trunc.to_double();
}

double Runtime::mem_shadow(double maybe_boxed) const {
  if (!boxing::is_boxed(maybe_boxed)) return maybe_boxed;
  ShadowEntry e;
  if (!shadow_.snapshot_if_current(boxing::unbox_id(maybe_boxed),
                                   boxing::unbox_generation(maybe_boxed), e)) {
    return std::nan("");
  }
  return e.shadow;
}

double Runtime::mem_deviation(double maybe_boxed) const {
  if (!boxing::is_boxed(maybe_boxed)) return 0.0;
  ShadowEntry e;
  if (!shadow_.snapshot_if_current(boxing::unbox_id(maybe_boxed),
                                   boxing::unbox_generation(maybe_boxed), e)) {
    return 0.0;
  }
  return deviation_of(e.trunc.to_double(), e.shadow);
}

double Runtime::mem_materialize(double maybe_boxed) {
  if (!boxing::is_boxed(maybe_boxed)) return maybe_boxed;
  ShadowEntry e;
  if (!shadow_.take_if_current(boxing::unbox_id(maybe_boxed),
                               boxing::unbox_generation(maybe_boxed), e)) {
    return std::nan("");
  }
  return e.trunc.to_double();
}

void Runtime::mem_retain(double boxed) {
  if (boxing::is_boxed(boxed)) {
    shadow_.retain_if_current(boxing::unbox_id(boxed), boxing::unbox_generation(boxed));
  }
}

void Runtime::mem_release(double maybe_boxed) {
  if (boxing::is_boxed(maybe_boxed)) {
    shadow_.release_if_current(boxing::unbox_id(maybe_boxed),
                               boxing::unbox_generation(maybe_boxed));
  }
}

// ---------------------------------------------------------------------------
// Trace capture (DESIGN.md §12)
// ---------------------------------------------------------------------------
//
// Called from the op entry points only while a session is active. The
// steady-state cost is the session check plus one countdown decrement; the
// sampled slow path interns the region label (once per thread, label and
// session: the id is kept in the region's slot), updates the slot's
// histograms — per element for batch spans — and pushes one event into the
// thread's SPSC ring (never blocking: a full ring counts a drop).

void Runtime::trace_event(ThreadState& ts, OpKind k, const double* vals, std::size_t n,
                          const sf::Format* f, bool span, bool mem, u8 dev_bucket) {
  const u64 session = tracer_.session();
  if (ts.trace_session != session || ts.trace_buf == nullptr) {
    ts.trace_buf = tracer_.attach();
    ts.trace_session = session;
    ts.trace_countdown = tracer_.stride();
  }
  if (--ts.trace_countdown != 0) return;
  ts.trace_countdown = tracer_.stride();
  RegionSlot& s = ts.slot();
  if (!s.traced_in(session)) {
    s.trace_id = tracer_.intern(s.label->c_str());
    s.trace_session = session;
    s.hist = {};
  }
  // Span-event audit (DESIGN.md §13): batch callers pass the whole result
  // span here AFTER the loop body ran, so SIMD vectorization inside the body
  // cannot change what is recorded — still exactly one event per sampled
  // span (ev.count = n) with one histogram update per element, independent
  // of lane width. Pinned by test_simd_parity's trace-conservation tests.
  trace::ExpHistogram& eh = s.hist.exp;
  i32 mn = std::numeric_limits<i32>::max();
  i32 mx = std::numeric_limits<i32>::min();
  for (std::size_t i = 0; i < n; ++i) {
    const i32 cls = trace::exp_class(vals[i]);
    eh.add_class(cls);
    mn = std::min(mn, cls);
    mx = std::max(mx, cls);
  }
  if (dev_bucket != trace::kDevNone) s.hist.dev.add_bucket(dev_bucket);

  trace::Event ev;
  ev.kind = static_cast<u8>(k);
  ev.flags = static_cast<u8>((f != nullptr ? trace::kFlagTruncated : 0u) |
                             (span ? trace::kFlagSpan : 0u) | (mem ? trace::kFlagMem : 0u));
  ev.region = static_cast<u16>(s.trace_id);
  if (f != nullptr) {
    ev.fmt_exp = static_cast<u8>(f->exp_bits);
    ev.fmt_man = static_cast<u8>(f->man_bits);
  }
  ev.dev_bucket = dev_bucket;
  ev.exp_min = static_cast<i16>(mn);
  ev.exp_max = static_cast<i16>(mx);
  ev.count = static_cast<u32>(n);
  ts.trace_buf->ring.try_push(ev);
}

// ---------------------------------------------------------------------------
// Instrumented entry points: the scalar and span executors
// ---------------------------------------------------------------------------

void Runtime::count(ThreadState& ts, OpKind k, bool trunc, u64 n) {
  if (!counting_) return;
  // One bump per span, whatever the lane width or tail split: `ops counted
  // == elements processed` (DESIGN.md §13; test_simd_parity pins it).
  ts.counters.bump_ops(k, trunc, n);
  if (RegionProfile* rp = ts.profile(region_profiling_)) rp->counters.bump_ops(k, trunc, n);
}

template <std::size_t N>
double Runtime::op_scalar(OpKind k, const std::array<double, N>& x, int width) {
  ThreadState& ts = tls();
  const sf::Format* f = effective_format(ts, width);
  count(ts, k, f != nullptr, 1);
  if (mode_ == Mode::Mem && (f != nullptr || std::any_of(x.begin(), x.end(), boxing::is_boxed))) {
    return mem_op(ts, k, x, f != nullptr ? *f : sf::Format::fp64(), f != nullptr);
  }
  double r = 0.0;
  const auto hw = [&](auto op) { r = std::apply(op, x); };
  switch (select_exec<N>(k, f, hw_fastpath_)) {
    case Exec::F64: with_native<double, N>(k, hw); break;
    case Exec::F32: with_native<float, N>(k, hw); break;
    case Exec::Fast: r = fast_apply(*fast_kernel<N>(k), x, ts.round_spec(width)); break;
    case Exec::BigFloat: r = emulate(ts, k, x, *f); break;
  }
  if (trace_on_) trace_event(ts, k, &r, 1, f, /*span=*/false, /*mem=*/false, trace::kDevNone);
  return r;
}

template <std::size_t N>
void Runtime::op_span(OpKind k, const std::array<const double*, N>& x, double* out, std::size_t n,
                      int width) {
  if (n == 0) return;
  if (mode_ == Mode::Mem) {
    // Scalar ops keep handle ownership semantics and trace each element
    // (with deviation buckets) themselves.
    for (std::size_t i = 0; i < n; ++i) out[i] = op_scalar(k, at(x, i), width);
    return;
  }
  ThreadState& ts = tls();
  const sf::Format* f = effective_format(ts, width);
  count(ts, k, f != nullptr, n);
  const auto hw = [&](auto op) {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::apply(op, at(x, i));
  };
  switch (select_exec<N>(k, f, hw_fastpath_)) {
    case Exec::F64: with_native<double, N>(k, hw); break;
    case Exec::F32: with_native<float, N>(k, hw); break;
    case Exec::Fast:
      // Operand slots the kernel does not read alias the last operand.
      sf::simd::span_exec(simd_path_, *fast_kernel<N>(k), x[0], x[N > 1 ? 1 : 0], x[N - 1], out,
                          n, ts.round_spec(width));
      break;
    case Exec::BigFloat:
      for (std::size_t i = 0; i < n; ++i) out[i] = emulate(ts, k, at(x, i), *f);
      break;
  }
  // One sampling-countdown decrement per span; a sampled span records one
  // event plus per-element exponent histogram updates.
  if (trace_on_) trace_event(ts, k, out, n, f, /*span=*/true, /*mem=*/false, trace::kDevNone);
}

double Runtime::op1(OpKind k, double a, int width) { return op_scalar<1>(k, {a}, width); }
double Runtime::op2(OpKind k, double a, double b, int width) {
  return op_scalar<2>(k, {a, b}, width);
}
double Runtime::op3(OpKind k, double a, double b, double c, int width) {
  return op_scalar<3>(k, {a, b, c}, width);
}

void Runtime::op1_batch(OpKind k, const double* a, double* out, std::size_t n, int width) {
  op_span<1>(k, {a}, out, n, width);
}
void Runtime::op2_batch(OpKind k, const double* a, const double* b, double* out, std::size_t n,
                        int width) {
  op_span<2>(k, {a, b}, out, n, width);
}
void Runtime::op3_batch(OpKind k, const double* a, const double* b, const double* c, double* out,
                        std::size_t n, int width) {
  op_span<3>(k, {a, b, c}, out, n, width);
}

void Runtime::trunc_array(const double* in, double* out, std::size_t n, int width) {
  if (n == 0) return;
  ThreadState& ts = tls();
  if (mode_ == Mode::Mem) {
    // Array form of the _raptor_pre_c protocol: each element becomes a
    // NaN-boxed mem-mode value (the caller owns the handles, exactly as for
    // scalar mem_make); quantizing a boxed handle's bit pattern would
    // destroy it.
    for (std::size_t i = 0; i < n; ++i) out[i] = mem_make(in[i], width);
    return;
  }
  const sf::Format* f = effective_format(ts, width);
  if (f == nullptr) {
    if (out != in) std::copy(in, in + n, out);
    return;
  }
  if (sf::fast_round_supports(*f)) {
    // Wider envelope than the arithmetic ops: pure rounding is exact for
    // every format representable in double, including exp_bits == 11
    // formats whose outputs land in double's subnormal range.
    sf::simd::span_exec(simd_path_, sf::simd::SpanOp::Round, in, nullptr, nullptr, out, n,
                        ts.round_spec(width));
    return;
  }
  for (std::size_t i = 0; i < n; ++i) out[i] = sf::quantize(in[i], *f);
}

void Runtime::count_mem(u64 bytes) {
  if (!counting_) return;
  ThreadState& ts = tls();
  const bool trunc = effective_format(ts, 64) != nullptr;
  RegionProfile* rp = ts.profile(region_profiling_);
  if (trunc) {
    ts.counters.trunc_bytes += bytes;
    if (rp != nullptr) rp->counters.trunc_bytes += bytes;
  } else {
    ts.counters.full_bytes += bytes;
    if (rp != nullptr) rp->counters.full_bytes += bytes;
  }
}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

void Runtime::record_flag(const std::string& location, OpKind k, double deviation, bool fresh) {
  std::lock_guard lock(flags_mu_);
  for (auto& f : flags_) {
    if (f.op == k && f.location == location) {
      ++f.flagged;
      if (fresh) ++f.fresh;
      f.max_deviation = std::max(f.max_deviation, deviation);
      return;
    }
  }
  FlagRecord rec;
  rec.location = location;
  rec.op = k;
  rec.flagged = 1;
  rec.fresh = fresh ? 1 : 0;
  rec.max_deviation = deviation;
  flags_.push_back(std::move(rec));
}

CounterSnapshot Runtime::counters() const {
  std::lock_guard lock(threads_mu_);
  CounterSnapshot out = retired_;
  for (const ThreadState* ts : threads_) out.merge(ts->counters);
  return out;
}

void Runtime::reset_counters() {
  std::lock_guard lock(threads_mu_);
  retired_ = CounterSnapshot{};
  for (ThreadState* ts : threads_) ts->counters = CounterSnapshot{};
}

std::vector<FlagRecord> Runtime::flag_report() const {
  std::lock_guard lock(flags_mu_);
  std::vector<FlagRecord> out = flags_;
  std::sort(out.begin(), out.end(), [](const FlagRecord& a, const FlagRecord& b) {
    if (a.fresh != b.fresh) return a.fresh > b.fresh;
    return a.flagged > b.flagged;
  });
  return out;
}

void Runtime::reset_flags() {
  std::lock_guard lock(flags_mu_);
  flags_.clear();
}

void Runtime::trace_start(const trace::TraceOptions& opts) {
  tracer_.start(opts);
  trace_on_ = true;
}

trace::TraceStats Runtime::trace_stop() {
  trace_on_ = false;
  const u64 session = tracer_.session();
  const SlotTable merged = merged_slots();
  std::vector<std::pair<u32, trace::RegionHist>> hists;
  for (const auto& [label, s] : merged) {
    if (s.traced_in(session)) hists.emplace_back(s.trace_id, s.hist);
  }
  std::sort(hists.begin(), hists.end(), [](const auto& a, const auto& b) { return a.first < b.first; });
  // Carry the per-region wall-clock totals into the capture as 'T' blocks,
  // so offline analysis ranks by time without needing the profile dump
  // next to the trace. A region that was timed but never sampled is
  // interned here.
  std::vector<std::pair<u32, double>> seconds;
  if (region_profiling_) {
    for (const RegionProfileEntry& e : profile_rows(merged)) {
      if (e.profile.seconds <= 0.0) continue;
      const RegionSlot& s = merged.find(e.label)->second;
      const u32 id = s.traced_in(session) ? s.trace_id : tracer_.intern(e.label.c_str());
      seconds.emplace_back(id, e.profile.seconds);
    }
  }
  const trace::TraceStats stats = tracer_.stop(hists, seconds);
  // Fold the closed session into the cumulative telemetry totals: the live
  // stats_now() accounting zeroes at stop, the counters must not.
  trace_events_total_.fetch_add(stats.events, std::memory_order_relaxed);
  trace_dropped_total_.fetch_add(stats.dropped, std::memory_order_relaxed);
  return stats;
}

void Runtime::reset_all() {
  if (trace_on_) trace_stop();
  trace_events_total_.store(0, std::memory_order_relaxed);
  trace_dropped_total_.store(0, std::memory_order_relaxed);
  clear_truncate_all();
  clear_exclusions();
  clear_region_formats();
  set_region_profiling(false);
  reset_counters();
  reset_region_profiles();
  reset_flags();
  mem_clear();
  set_mode(Mode::Op);
  set_alloc_strategy(AllocStrategy::Scratch);
  set_hw_fastpath(false);
  set_counting(true);
  set_deviation_threshold(1e-4);
  // Restore the startup default (CPUID or RAPTOR_SIMD), not Portable: the
  // CI forced-portable pass pins the path for a whole test binary via the
  // environment and must survive per-test reset_all() calls.
  force_simd_path(std::nullopt);
}

}  // namespace raptor::rt
