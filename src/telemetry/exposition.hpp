// Serializers for Registry snapshots (DESIGN.md §16):
//
//   * to_prometheus(): the Prometheus text exposition format, version
//     0.0.4 — `# HELP` / `# TYPE` headers, one `name{labels} value` line
//     per series, histograms expanded to cumulative `_bucket{le=...}` /
//     `_sum` / `_count`. Label values escape backslash, quote and newline
//     via the shared helper in support/escape.hpp.
//   * parse_prometheus(): a minimal exposition-text parser, enough for the
//     raptor_monitor client and the round-trip tests — series lines only,
//     comments skipped, labels unescaped.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "telemetry/registry.hpp"

namespace raptor::telemetry {

[[nodiscard]] std::string to_prometheus(const Snapshot& snap);

/// One parsed exposition-format series line.
struct ParsedSample {
  std::string name;
  Labels labels;
  double value = 0.0;
};

/// Parse exposition text into series samples. Comment (`#`) and blank
/// lines are skipped; malformed lines are dropped rather than fatal (the
/// monitor polls a live server and must tolerate torn reads).
[[nodiscard]] std::vector<ParsedSample> parse_prometheus(std::string_view text);

}  // namespace raptor::telemetry
