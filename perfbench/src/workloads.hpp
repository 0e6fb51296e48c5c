// The four workloads. Each sets itself up from the seed, checks the
// program's outputs, runs its closed loop for the requested time and
// reports its metrics. README.md says why each exists.
#pragma once

#include "bench.hpp"

namespace perfbench {

Outcome run_cold_source(const Options& o, Tracer& tracer);
Outcome run_case_sweep(const Options& o, Tracer& tracer);
Outcome run_edit_loop(const Options& o, Tracer& tracer);
Outcome run_serve_stream(const Options& o, Tracer& tracer);

/// CPUs this process may run on (what `nproc` prints).
unsigned nproc();
/// Worker threads for case analysis: min(nproc, 4).
unsigned case_jobs();

}  // namespace perfbench
