#include "telemetry/exposition.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "support/escape.hpp"

namespace raptor::telemetry {

namespace {

/// Prometheus floating-point rendering: shortest round-trippable decimal,
/// with the format's spellings for the non-finite values.
std::string prom_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// `{k1="v1",k2="v2"}`, empty string when there are no labels. `extra`
/// appends one more pair (the histogram `le` label) after the user labels.
std::string label_block(const Labels& labels, const std::string* extra_key = nullptr,
                        const std::string* extra_val = nullptr) {
  if (labels.empty() && extra_key == nullptr) return {};
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += prom_escape_label(v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += *extra_key;
    out += "=\"";
    out += prom_escape_label(*extra_val);
    out += '"';
  }
  out += '}';
  return out;
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

std::string to_prometheus(const Snapshot& snap) {
  std::string out;
  std::string last_header;  // suppress repeated HELP/TYPE for labelled series
  for (const Sample& s : snap.samples) {
    if (s.name != last_header) {
      out += "# HELP " + s.name + ' ' + (s.help.empty() ? s.name : s.help) + '\n';
      out += "# TYPE " + s.name + ' ' + kind_name(s.kind) + '\n';
      last_header = s.name;
    }
    if (s.kind == MetricKind::Histogram) {
      static const std::string kLe = "le";
      u64 cumulative = 0;
      for (std::size_t i = 0; i < s.bucket_counts.size(); ++i) {
        cumulative += s.bucket_counts[i];
        const std::string le =
            i < s.bounds.size() ? prom_double(s.bounds[i]) : std::string("+Inf");
        out += s.name + "_bucket" + label_block(s.labels, &kLe, &le) + ' ' +
               std::to_string(cumulative) + '\n';
      }
      out += s.name + "_sum" + label_block(s.labels) + ' ' + prom_double(s.sum) + '\n';
      out += s.name + "_count" + label_block(s.labels) + ' ' + std::to_string(s.count) + '\n';
    } else if (s.kind == MetricKind::Counter) {
      out += s.name + label_block(s.labels) + ' ' + std::to_string(s.count) + '\n';
    } else {
      out += s.name + label_block(s.labels) + ' ' + prom_double(s.value) + '\n';
    }
  }
  return out;
}

std::vector<ParsedSample> parse_prometheus(std::string_view text) {
  std::vector<ParsedSample> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty() || line.front() == '#') continue;

    ParsedSample sample;
    std::size_t i = 0;
    // Metric name: up to '{' or space.
    while (i < line.size() && line[i] != '{' && line[i] != ' ') ++i;
    if (i == 0 || i == line.size()) continue;
    sample.name = std::string(line.substr(0, i));

    if (line[i] == '{') {
      ++i;
      while (i < line.size() && line[i] != '}') {
        std::size_t eq = line.find('=', i);
        if (eq == std::string_view::npos || eq + 1 >= line.size() || line[eq + 1] != '"') break;
        std::string key(line.substr(i, eq - i));
        // Value: quoted, with backslash escapes — scan for the closing
        // quote skipping escaped characters.
        std::size_t v = eq + 2;
        std::string raw;
        bool closed = false;
        while (v < line.size()) {
          if (line[v] == '\\' && v + 1 < line.size()) {
            raw += line[v];
            raw += line[v + 1];
            v += 2;
            continue;
          }
          if (line[v] == '"') {
            closed = true;
            break;
          }
          raw += line[v];
          ++v;
        }
        if (!closed) break;
        sample.labels.emplace_back(std::move(key), prom_unescape_label(raw));
        i = v + 1;
        if (i < line.size() && line[i] == ',') ++i;
      }
      std::size_t close = line.find('}', i);
      if (close == std::string_view::npos) continue;
      i = close + 1;
    }

    while (i < line.size() && line[i] == ' ') ++i;
    if (i >= line.size()) continue;
    std::string_view val = line.substr(i);
    if (val == "+Inf") {
      sample.value = HUGE_VAL;
    } else if (val == "-Inf") {
      sample.value = -HUGE_VAL;
    } else if (val == "NaN") {
      sample.value = NAN;
    } else {
      char* end = nullptr;
      const std::string val_s(val);
      sample.value = std::strtod(val_s.c_str(), &end);
      if (end == val_s.c_str()) continue;  // not a number: drop the line
    }
    out.push_back(std::move(sample));
  }
  return out;
}

}  // namespace raptor::telemetry
