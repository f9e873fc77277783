// perfbench: runs one benchmark workload and prints JSON-line records
// (spans.hpp). Normally started by run.py, which generates the inputs from
// a seed; every input is a flag so the program sees only generated values.
//
//   perfbench --workload=sedov_op --seconds=20 [--traced --spans=FILE]
//             --workdir=DIR --cx=.. --cy=.. --e-blast=.. --r-init=..
//             --spark-frac=.. --operand-seed=..
#include <malloc.h>

#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <string>

#include "spans.hpp"
#include "support/cli.hpp"
#include "workloads.hpp"

namespace {

/// Peak resident set of this process image (VmHWM). Unlike getrusage's
/// ru_maxrss it does not carry over the launching process's peak across exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

int run(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it after large frees, so
  // where later large blocks live, and with it peak_rss_mb, would depend on
  // the order of earlier frees (observed runs varied by 15%).
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  const raptor::Cli cli(argc, argv);
  perfbench::Options o;
  o.workload = cli.get("workload", "");
  o.seconds = cli.get_double("seconds", 10.0);
  o.traced = cli.has("traced");
  o.workdir = cli.get("workdir", ".");
  auto& in = o.inputs;
  in.sedov.cx = cli.get_double("cx", in.sedov.cx);
  in.sedov.cy = cli.get_double("cy", in.sedov.cy);
  in.sedov.e_blast = cli.get_double("e-blast", in.sedov.e_blast);
  in.sedov.r_init = cli.get_double("r-init", in.sedov.r_init);
  in.spark_frac = cli.get_double("spark-frac", in.spark_frac);
  in.operand_seed = static_cast<raptor::u64>(cli.get_int("operand-seed", 1));

  perfbench::run_workload(o);

  perfbench::Record("rss").num("peak_mb", peak_rss_mb()).emit();
  if (o.traced) perfbench::SpanRecorder::instance().write(cli.get("spans", "spans.jsonl"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return raptor::cli_main(run, argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
