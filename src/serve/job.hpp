// Verification job specifications for the scaldtvd batch/daemon front end.
//
// A job names one design to verify and the per-run options its worker
// runs it with (the same meaning as the scaldtv flags of that name). Jobs arrive as newline-delimited JSON
// ("job files", one object per line -- appendable, diffable, and trivially
// mergeable from a directory watch):
//
//   {"id": "smoke-1", "design": "designs/stdlib_pipeline.shdl",
//    "stdlib": true, "time_limit": 5.0}
//   {"id": "chaos-3", "design": "designs/regfile_example.shdl",
//    "fault": "evaluator.eval@40:abort", "fault_attempts": 1}
//
// Recognized keys (all but id/design optional):
//   id             unique job name; duplicate ids in one batch are rejected
//   design         path to the .shdl source (relative to the daemon's cwd),
//                  or to a compiled .tvc artifact when "compiled" is true
//   compiled       bool: `design` is a scaldtvc artifact; the worker loads
//                  it as scaldtv --compiled does, skipping the HDL front end
//   stdlib         bool: prepend the standard chip-macro library (sources
//                  only; a compiled artifact already baked its library in)
//   time_limit     seconds: the worker's --time-limit budget; also sets
//                  the supervisor's watchdog for this job
//   jobs           case-analysis worker threads inside the worker process
//   reverify       path to a JSON netlist delta (docs/incremental.md): the
//                  worker verifies the baseline, applies the delta, and
//                  reports on the edited design (scaldtv --reverify), then
//                  restores its resident baseline by applying the inverse
//                  delta
//   fault          fault plan (util/fault.hpp grammar, checked when the
//                  file loads) armed in the worker for the attempt
//   fault_attempts inject `fault` only on the first N attempts (0 = all):
//                  chaos tests use 1 so the retry path is observably
//                  exercised -- attempt 1 dies, attempt 2 runs clean
//
// The grammar is documented in docs/serving.md.
#pragma once

#include <optional>
#include <string>
#include <vector>

namespace tv::serve {

struct JobSpec {
  std::string id;
  std::string design;
  bool compiled = false;   // design is a scaldtvc artifact, not .shdl source
  bool stdlib = false;
  double time_limit = 0;   // 0 = no limit
  unsigned jobs = 0;       // 0 = worker default (1)
  std::string reverify;    // delta path; empty = plain verification
  std::string fault;       // empty = no injection
  int fault_attempts = 0;  // 0 = every attempt
};

/// Parses one newline-JSON job line. Returns std::nullopt and sets *error
/// on malformed input (bad JSON, missing id/design, unknown keys).
std::optional<JobSpec> parse_job_line(const std::string& line, std::string* error);

/// Parses a job file: one JSON object per line, blank lines and lines
/// starting with '#' ignored. On any bad line or duplicate id the whole
/// file is rejected (partial batches are worse than loud failures) with
/// *error naming the line number.
std::optional<std::vector<JobSpec>> parse_job_file(const std::string& path,
                                                   std::string* error);

}  // namespace tv::serve
