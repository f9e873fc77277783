// Layer micro-probes: each times one public library function on seeded
// operand arrays after a warm-up, and emits a "probe" record with its
// format and operand count n.
#pragma once

#include <string>

#include "support/common.hpp"

namespace perfbench {

/// Run every probe; operands come from `seed`. `workdir` holds the trace
/// probe's temporary capture.
void run_probes(raptor::u64 seed, const std::string& workdir);

}  // namespace perfbench
