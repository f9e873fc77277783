// Serialization of the per-region profile aggregation (DESIGN.md §10): the
// rows behind the precision-search ranking, dumped as CSV (spreadsheet /
// plotting) or JSON (tool ingestion). Columns mirror rt::RegionProfile,
// including the per-region wall-clock seconds the runtime accrues when
// region profiling is on (DESIGN.md §16).
//
// Region labels are user-controlled strings, so both writers escape them
// via the shared helpers in support/escape.hpp (JSON per RFC 8259, CSV per
// RFC 4180 — the same implementations the telemetry exposition layer uses,
// so a label round-trips identically through every serializer). Non-finite
// numbers have no JSON literal — mem-mode max_deviation can legitimately be
// +inf (one-sided NaN divergence) — so the shared json_number() emits them
// as the strings "inf" / "-inf" / "nan".
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "io/csv.hpp"
#include "runtime/counters.hpp"
#include "support/escape.hpp"

namespace raptor::io {

using raptor::csv_field;
using raptor::json_escape;
using raptor::json_number;

inline void write_region_profiles_csv(const std::string& path,
                                      const std::vector<rt::RegionProfileEntry>& entries) {
  CsvWriter csv(path, {"region", "trunc_flops", "full_flops", "trunc_bytes", "full_bytes",
                       "trunc_fraction", "seconds", "max_deviation", "flagged"});
  for (const auto& e : entries) {
    const rt::CounterSnapshot& c = e.profile.counters;
    csv.row_strings({csv_field(e.label), std::to_string(c.trunc_flops),
                     std::to_string(c.full_flops), std::to_string(c.trunc_bytes),
                     std::to_string(c.full_bytes), std::to_string(c.trunc_fraction()),
                     std::to_string(e.profile.seconds),
                     std::to_string(e.profile.max_deviation),
                     std::to_string(e.profile.flagged)});
  }
}

inline void write_region_profiles_json(std::ostream& out,
                                       const std::vector<rt::RegionProfileEntry>& entries) {
  out << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& e = entries[i];
    const rt::CounterSnapshot& c = e.profile.counters;
    out << "  {\"region\": \"" << json_escape(e.label) << "\", \"trunc_flops\": " << c.trunc_flops
        << ", \"full_flops\": " << c.full_flops << ", \"trunc_bytes\": " << c.trunc_bytes
        << ", \"full_bytes\": " << c.full_bytes << ", \"trunc_fraction\": " << c.trunc_fraction()
        << ", \"seconds\": " << json_number(e.profile.seconds)
        << ", \"max_deviation\": " << json_number(e.profile.max_deviation)
        << ", \"flagged\": " << e.profile.flagged << "}";
    out << (i + 1 < entries.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

inline void write_region_profiles_json(const std::string& path,
                                       const std::vector<rt::RegionProfileEntry>& entries) {
  std::ofstream out(path);
  RAPTOR_REQUIRE(out.good(), "write_region_profiles_json: cannot open output file");
  write_region_profiles_json(out, entries);
}

}  // namespace raptor::io
