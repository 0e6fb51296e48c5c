// Run manifest: the byte-stable record scaldtvd writes when a batch ends.
//
// One JobRecord per job, sorted by id, fixed field order, no timestamps or
// durations -- two runs of the same batch with the same seed and fault plan
// produce byte-identical manifests, which is what lets the chaos tests (and
// operators) diff runs instead of eyeballing them.
#pragma once

#include <string>
#include <vector>

namespace tv::serve {

/// Terminal (and one non-terminal) states a job can end a run in.
enum class JobState {
  Done,        // worker exit 0: no violations
  Violations,  // worker exit 1: timing violations found
  InputError,  // worker exit 2: bad design / usage (permanent; no retry)
  Degraded,    // worker exit 3: partial results (resource degradation)
  Crashed,     // signal-killed / hung / transient on every attempt (exit 4)
  ResourceExhausted,  // breached --mem-limit-mb (exit 6; terminal unless
                      // --mem-retry, in which case only after max attempts)
  Shed,        // rejected at admission by --max-queue (exit 7; never ran)
  Quarantined, // fast-failed by the poison-design breaker (exit 8; never ran)
  Requeued,    // batch shut down before the job reached a terminal state
};

const char* job_state_name(JobState s);

/// Exit code scaldtvd reports for a job in this state (mirrors scaldtv's
/// contract; Crashed maps to the daemon-only code 4, ResourceExhausted /
/// Shed / Quarantined to the daemon-only codes 6 / 7 / 8, and Requeued to
/// -1 since the job never finished).
int job_state_exit_code(JobState s);

struct JobRecord {
  std::string id;
  std::string design;
  JobState state = JobState::Requeued;
  int attempts = 0;  // worker launches actually performed
  // One entry per attempt, oldest first: "exit:N", "signal:N", "timeout",
  // or "spawn-failed". Makes retries observable in the manifest.
  std::vector<std::string> outcomes;
};

struct Manifest {
  std::vector<JobRecord> jobs;

  // Warm-pool residents retired by the --max-resident LRU cap during this
  // run. Always 0 for uncapped runs (and for the fork/exec reference), so
  // the warm-vs-reference identity checks stay byte-exact; with a cap configured the
  // count reflects actual completion scheduling and is — together with
  // durability_degraded — excluded from the byte-determinism guarantee.
  std::size_t evictions = 0;

  // Durable writes (snapshot sidecars) the run had to skip because the
  // filesystem refused them (ENOSPC-shaped failures). Serving continues
  // without durability; this counter makes the degradation visible in the
  // manifest. Like evictions, it reflects runtime scheduling/IO and is
  // excluded from the byte-determinism guarantee.
  std::size_t durability_degraded = 0;

  /// Serializes the manifest: jobs sorted by id, fixed key order, one
  /// summary counts block. Deterministic for a given set of records.
  std::string to_json() const;

  /// Count of jobs in `state`.
  std::size_t count(JobState state) const;

  /// The daemon exit code the batch maps to. Precedence (worst wins):
  /// input-error 2 > crashed 4 > resource-exhausted 6 > quarantined 8 >
  /// shed 7 > degraded 3 > violations 1 > clean 0.
  /// Requeued jobs do not affect the exit code (shutdown is not failure).
  int exit_code() const;
};

}  // namespace tv::serve
