#include "spans.hpp"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "support/escape.hpp"

namespace perfbench {

namespace {

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

const auto kEpoch = std::chrono::steady_clock::now();

}  // namespace

Record::Record(const char* rec) : line_(std::string("{\"rec\":\"") + rec + "\"") {}

Record& Record::num(const char* key, double v) {
  line_ += std::string(",\"") + key + "\":" + fmt_num(v);
  return *this;
}

Record& Record::str(const char* key, const std::string& v) {
  line_ += std::string(",\"") + key + "\":\"" + raptor::json_escape(v) + "\"";
  return *this;
}

Record& Record::flag(const char* key, bool v) {
  line_ += std::string(",\"") + key + "\":" + (v ? "true" : "false");
  return *this;
}

void Record::emit() {
  line_ += "}\n";
  std::fputs(line_.c_str(), stdout);
  std::fflush(stdout);
}

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - kEpoch).count();
}

SpanRecorder& SpanRecorder::instance() {
  static SpanRecorder r;
  return r;
}

int SpanRecorder::open(const char* name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, now_s(), -1.0, open_.empty() ? -1 : open_.back(), unit_});
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  spans_[static_cast<std::size_t>(id)].t1 = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"unit\":" << s.unit
        << ",\"name\":\"" << s.name << "\",\"t0\":" << fmt_num(s.t0)
        << ",\"t1\":" << fmt_num(s.t1) << "}\n";
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

}  // namespace perfbench
