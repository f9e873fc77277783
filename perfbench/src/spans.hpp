// The benchmark's own instrumentation: JSON-line records on stdout and an
// in-memory span recorder written out at exit.
//
// Records are the interface between this binary and run.py: one JSON object
// per line, tagged by "rec". run.py computes every statistic (medians,
// percentiles, span self-time); this binary only measures and reports raw
// samples.
//
// Spans wrap the benchmark's calls into a library layer (name, start, end,
// parent, unit id). They are recorded only in a traced run, kept in memory,
// and written to the --spans file when the process ends.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// One JSON-line record; fields are appended in call order and the line is
/// printed by emit().
class Record {
 public:
  explicit Record(const char* rec);
  Record& num(const char* key, double v);
  Record& str(const char* key, const std::string& v);
  Record& flag(const char* key, bool v);
  void emit();

 private:
  std::string line_;
};

/// Seconds since the process-wide span epoch (steady clock).
[[nodiscard]] double now_s();

class SpanRecorder {
 public:
  static SpanRecorder& instance();

  /// Spans are recorded only while enabled (the traced run).
  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Id of the timed unit new spans belong to.
  void set_unit(int unit) { unit_ = unit; }

  int open(const char* name);
  void close(int id);
  /// Write every span as one JSON line: {"id","parent","unit","name","t0","t1"}.
  void write(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    double t0, t1;
    int parent, unit;
  };
  bool enabled_ = false;
  int unit_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span around one call into a layer. A no-op when recording is off.
class SpanScope {
 public:
  explicit SpanScope(const char* name)
      : id_(SpanRecorder::instance().enabled() ? SpanRecorder::instance().open(name) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) SpanRecorder::instance().close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
