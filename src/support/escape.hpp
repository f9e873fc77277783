// Shared string-escaping helpers for every text serializer in the tree:
// the JSON/CSV profile dumps (io/profile_dump.hpp), the trace analyzer's
// report writers, and the telemetry exposition layer (telemetry/). Region
// labels are user-controlled strings, so every writer that interpolates one
// must escape it — this header is the single implementation those writers
// share, so the same label round-trips identically through every format.
//
//   * JSON per RFC 8259: quote, backslash, the mnemonic control characters,
//     \u00xx for the rest of C0.
//   * CSV per RFC 4180: fields containing comma, quote or newline are
//     quoted with doubled inner quotes.
//   * Prometheus exposition-format label values: backslash, double-quote
//     and newline are backslash-escaped (the format's full escape set);
//     everything else passes through verbatim.
//
// JSON and Prometheus share one backslash-escaping core; they differ only
// in the mapped control set and in what happens to unmapped controls.
//
// json_number() is the one JSON number writer of the JSON serializers, so
// /report and the profile dumps agree on every number's spelling.
#pragma once

#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>

namespace raptor {

namespace detail {

/// Backslash-escaping core: `\`, `"` and '\n' always escape. With
/// `json_controls`, the remaining mnemonic controls map to their escapes
/// and any other C0 byte becomes \u00xx; without it (Prometheus label
/// values escape exactly those three) everything else passes through.
inline std::string backslash_escape(std::string_view s, bool json_controls) {
  std::string out;
  out.reserve(s.size());
  for (const char ch : s) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (c == '"') {
      out += "\\\"";
    } else if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else if (json_controls && c == '\b') {
      out += "\\b";
    } else if (json_controls && c == '\f') {
      out += "\\f";
    } else if (json_controls && c == '\r') {
      out += "\\r";
    } else if (json_controls && c == '\t') {
      out += "\\t";
    } else if (json_controls && c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace detail

/// RFC 8259 JSON string escaping (quote, backslash, control characters).
[[nodiscard]] inline std::string json_escape(std::string_view s) {
  return detail::backslash_escape(s, /*json_controls=*/true);
}

/// JSON representation of a double: the numeric literal when finite, a
/// quoted string otherwise (JSON has no inf/nan literals).
[[nodiscard]] inline std::string json_number(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  std::ostringstream os;
  os << v;
  return os.str();
}

/// RFC 4180 CSV field: quoted (with doubled inner quotes) when the value
/// contains a comma, quote or newline.
[[nodiscard]] inline std::string csv_field(std::string_view s) {
  if (s.find_first_of(",\"\n\r") == std::string_view::npos) return std::string(s);
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

/// Prometheus exposition-format label-value escaping: backslash, quote and
/// newline (the format defines exactly these three).
[[nodiscard]] inline std::string prom_escape_label(std::string_view s) {
  return detail::backslash_escape(s, /*json_controls=*/false);
}

/// Inverse of prom_escape_label, for clients parsing exposition text (the
/// raptor_monitor table pivot). Tolerant of unknown escapes: a backslash
/// before anything but `\`, `"` or `n` is kept literally, matching how
/// Prometheus itself ingests sloppy exposition input.
[[nodiscard]] inline std::string prom_unescape_label(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 1 < s.size()) {
      const char next = s[i + 1];
      if (next == '\\' || next == '"') {
        out += next;
        ++i;
        continue;
      }
      if (next == 'n') {
        out += '\n';
        ++i;
        continue;
      }
    }
    out += s[i];
  }
  return out;
}

}  // namespace raptor
