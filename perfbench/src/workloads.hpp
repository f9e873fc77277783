// The benchmark's four workloads (README.md has the table and the reasons):
//   sedov_op        Sedov, AMR level 3, op-mode e8m12, 1 thread
//   burn_search     PrecisionSearch at tol 1e-3 over a cellular detonation, 1 thread
//   sedov_observed  Sedov op-mode e8m12, plain and observed runs alternating, 2 threads
//   sedov_mem       Sedov mem-mode e8m12, 1 thread
// Each runs timed units until its time budget is spent and reports raw
// samples as records (spans.hpp); run.py turns them into metrics.
#pragma once

#include <string>

#include "hydro/setups.hpp"
#include "support/common.hpp"

namespace perfbench {

/// The generated inputs (run.py derives them from --seed).
struct Inputs {
  raptor::hydro::SedovParams sedov;
  double spark_frac = 0.06;
  raptor::u64 operand_seed = 1;
};

struct Options {
  std::string workload;
  double seconds = 10.0;
  /// Traced run: layer probes, spans and region profiles for the per-layer
  /// metrics, with traced and untraced units alternating.
  bool traced = false;
  /// Directory for temporary trace captures.
  std::string workdir = ".";
  Inputs inputs;
};

/// Run one workload. Throws std::invalid_argument on an unknown name.
void run_workload(const Options& opts);

}  // namespace perfbench
