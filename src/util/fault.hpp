// Deterministic fault injection for robustness testing.
//
// A fault *plan* names injection sites compiled into the binary and, for
// each, the 1-based hit count at which the fault triggers and what happens
// then. Plans come from the TV_FAULT environment variable or the --fault
// flag, so the exact same failure -- an allocation that fails on the 37th
// intern, a worker that hangs on the 100th primitive evaluation -- can be
// replayed byte-for-byte in a test, in tvfuzz --serve-chaos, or in the CI
// chaos matrix.
//
// Spec grammar (documented in docs/serving.md):
//
//   spec   ::= entry (',' entry)*
//   entry  ::= site '@' nth ':' action
//   site   ::= dotted identifier, e.g. evaluator.eval, wave_table.intern
//   nth    ::= 1-based hit count at which the fault fires (once)
//   action ::= 'fail' | 'abort' | 'hang' | 'kill9' | 'bloat'
//
//   TV_FAULT="evaluator.eval@100:abort,io.read@1:fail"
//
// `fail` makes should_fail() return true (check() then throws
// InjectedFault, which drivers map to the transient exit code 5); `abort`
// raises SIGABRT at the site (a crash, from the supervisor's point of
// view); `hang` parks the thread in an interruptible sleep forever (the
// supervisor's watchdog kills it); `kill9` raises SIGKILL -- instant,
// uncatchable death with nothing flushed, the hammer the kill/restart
// chaos tests swing at the scaldtvd supervisor itself; `bloat` grows the
// process RSS without bound (touched, leaked allocations) so the
// supervisor's --mem-limit-mb watchdog has something deterministic to
// catch -- after a safety cap it parks like `hang` so an uncapped run
// still ends via the watchdog instead of the kernel OOM killer.
//
// Sites compiled into this repo:
//   evaluator.eval    once per primitive evaluation in the base fixpoint
//   snapshot.case     once per case evaluated on a snapshot
//   wave_table.intern once per waveform intern (simulated allocation)
//   io.read           design / job file reads in scaldtv and scaldtvd
//   io.write          durable file writes: atomic_write_file (snapshots,
//                     compiled artifacts, manifests, warm-pool sidecars)
//                     and write-ahead journal appends -- the ENOSPC-shaped
//                     disk-pressure site
//   serve.spawn       worker process launch in the scaldtvd supervisor
//   serve.kill9       after every write-ahead journal append in the
//                     supervisor (armed with kill9: the daemon dies
//                     mid-batch at a seeded transition; scaldtvd --resume
//                     must finish the batch with an identical manifest)
//   incremental.apply before a reverify delta is applied (baseline intact)
//   incremental.cone  before incremental cone re-evaluation (netlist edited)
//
// The layer is off (and a single relaxed atomic load) unless a plan is
// configured, so clean-run behavior and reports are untouched.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace tv::fault {

/// Thrown by check() when a `fail` action fires. Drivers treat it like a
/// transient environment failure (I/O error, allocation failure).
class InjectedFault : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Replaces the active plan with `spec` (empty spec = clear). Returns false
/// and sets *error on a malformed spec, leaving the previous plan in place.
bool configure(const std::string& spec, std::string* error = nullptr);

/// Parses `spec` exactly as configure() does, without touching the active
/// plan: the dry run scaldtvd uses to reject a job file's bad fault spec at
/// load time. Returns false and sets *error on a malformed spec.
bool validate(const std::string& spec, std::string* error = nullptr);

/// Loads the plan from TV_FAULT if set and nonempty. Malformed specs are
/// reported on stderr and ignored (a chaos harness must not turn a typo
/// into silent clean runs -- the message names the bad entry).
void configure_from_env();

/// Clears the plan and every hit counter.
void reset();

/// True when any plan entry is active.
bool enabled();

/// True when a plan is active and every entry targets `site`. Warm workers
/// use this to keep snapshot sidecar writes on under a pure disk-pressure
/// plan (io.write) -- such a plan cannot perturb evaluation, so the
/// "never snapshot under faults" rule would only hide the ENOSPC path the
/// plan exists to exercise.
bool plan_only_site(const char* site);

/// The injection point. Counts a hit at `site`; when the armed entry for
/// this site reaches its hit count: action `fail` returns true (exactly
/// once), `abort` raises SIGABRT, `hang` sleeps forever. Otherwise -- and
/// always when no plan is configured -- returns false.
bool should_fail(const char* site);

/// Convenience wrapper: throws InjectedFault when should_fail(site).
void check(const char* site);

/// Hits recorded at `site` since the last configure()/reset(). Zero when
/// the layer is disabled (hits are only counted for planned sites).
std::uint64_t hits(const char* site);

/// One-line description of the active plan ("off" when disabled).
std::string describe();

}  // namespace tv::fault
