// Chaos smoke mode for the scaldtvd serving layer (tvfuzz --serve-chaos).
//
// Generates a seeded batch of known-good SHDL designs, attaches random
// deterministic fault specs (injected read failures, mid-evaluation aborts,
// hangs, one permanently-crashing job) to a fraction of the jobs, pushes
// the batch through a real scaldtvd and its warm worker pool, and asserts
// the supervisor's contract:
//
//   * every job reaches a terminal state -- none lost, duplicated, or left
//     requeued when no shutdown was requested;
//   * jobs whose fault fires only on attempt 1 recover, with the retry
//     observable in the manifest's attempt count;
//   * the permanently-aborting job exhausts its attempts and lands in
//     state "crashed" (exit code 4);
//   * the daemon's exit code matches the manifest's worst state;
//   * the whole run is deterministic: a second identical run produces a
//     byte-identical manifest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace tv::check {

struct ServeChaosOptions {
  std::uint64_t seed = 1;
  int jobs = 12;              // generated jobs per batch
  std::string scaldtvd_path;  // daemon binary (required)
  // scaldtv binary for the fork/exec reference (check/fork_exec_reference.hpp);
  // required only by the scenarios that diff against it (reverify, mem-breach).
  std::string scaldtv_path;
  bool verbose = false;
};

struct ServeChaosFailure {
  std::string kind;    // "job-lost" | "job-not-terminal" | "retry-invisible" | ...
  std::string detail;
};

/// Runs one seeded chaos batch end to end. Returns the failure if the
/// supervisor contract was broken, std::nullopt otherwise. Work files live
/// in a fresh directory under TMPDIR, removed on success.
std::optional<ServeChaosFailure> check_serve_chaos(const ServeChaosOptions& opts);

/// The incremental-reverification chaos scenario (docs/incremental.md): a
/// batch of `reverify` jobs (plus interleaved plain verifies of the same
/// design) with deterministic faults injected at the delta-application and
/// cone-invalidation sites (incremental.apply, incremental.cone):
///
///   * transient faults (attempt 1 only) recover with the retry visible in
///     the manifest -- a crashed reverify attempt never poisons the job;
///   * one permanently-aborting reverify job exhausts its retries into
///     "crashed" (daemon exit 4);
///   * the daemon's manifest is byte-stable across two identical runs, and
///     byte-identical to the fork/exec reference's, run in process under
///     the same supervisor options: the warm pool's resident fixpoint
///     (restored via the inverse delta, or dropped on failure) never
///     changes a verdict.
/// Honors seed/paths/verbose; needs opts.scaldtv_path.
std::optional<ServeChaosFailure> check_reverify_chaos(const ServeChaosOptions& opts);

/// The kill/restart chaos scenario (docs/recovery.md): one reference batch
/// runs uninterrupted under a write-ahead journal, then the same batch is
/// re-run once per journal transition with the daemon SIGKILLed at exactly
/// that transition (fault site serve.kill9) and restarted with
/// `scaldtvd --resume` until the batch completes. Asserts:
///
///   * every kill point resumes to a manifest byte-identical to the
///     uninterrupted run's -- attempts, outcomes, states, and counts;
///   * a bounded number of restarts always finishes the batch (the journal
///     can never wedge resume into a loop);
///   * the journal itself replays cleanly after every kill (the torn-line
///     tolerance never hides mid-file corruption).
/// Honors seed and the daemon path.
std::optional<ServeChaosFailure> check_kill_restart(const ServeChaosOptions& opts);

/// The graceful-shutdown scenarios: SIGTERM lands (a) while a worker hangs
/// with retries already exhausted-to-be, and (b) while a job sits in retry
/// backoff. Both jobs must be recorded "requeued" -- never "crashed" -- with
/// the interrupted attempt counted but not held against the job, and the
/// daemon must exit 0 (requeued jobs do not affect the exit status).
/// Ignores opts.seed/opts.jobs; honors the daemon path.
std::optional<ServeChaosFailure> check_drain_requeue(const ServeChaosOptions& opts);

/// The memory-budget scenario (docs/serving.md "Overload & quarantine
/// semantics"): one job leaks allocations until it breaches --mem-limit-mb
/// (fault site evaluator.eval, action bloat) amid clean jobs. Asserts:
///
///   * the breaching job settles "resource-exhausted" (exit 6) on its first
///     attempt -- a budget breach is a classified verdict, never "crashed";
///   * clean neighbors are unaffected and the daemon folds to exit 6;
///   * the daemon's manifest is byte-identical to the fork/exec
///     reference's under the same options -- the RSS watchdog classifies a
///     breach the same way whichever process breached;
///   * with --mem-retry, an attempt-1-only breach retries and the job
///     recovers with the "mem-limit" attempt on record.
/// Honors seed/paths/verbose; needs opts.scaldtv_path.
std::optional<ServeChaosFailure> check_mem_breach(const ServeChaosOptions& opts);

/// The bounded-admission scenario: a batch larger than --max-queue. Jobs
/// beyond the cap must settle "shed" with zero attempts burned (never
/// launched, never retried), the daemon folds to exit 7, admitted jobs
/// finish normally, and two identical runs produce byte-identical
/// manifests (shedding is deterministic, not load-dependent).
/// Honors seed and the daemon path.
std::optional<ServeChaosFailure> check_shed(const ServeChaosOptions& opts);

/// The poison-design quarantine scenario, with crash-resume on top: two
/// jobs crash permanently against one design, tripping the breaker at
/// --quarantine-after 2; later jobs on the same design content settle
/// "quarantined" with zero attempts, a job on a different design is
/// untouched, and a job past --max-queue sheds. The journaled reference
/// run is then re-run once per durable transition with the daemon
/// SIGKILLed at exactly that transition (serve.kill9) and resumed; every
/// kill point must converge to a manifest byte-identical to the
/// uninterrupted run's -- the quarantine ledger and Shed settlements
/// replay exactly like verdicts do.
/// Honors seed and the daemon path.
std::optional<ServeChaosFailure> check_quarantine_resume(const ServeChaosOptions& opts);

/// The disk-pressure sweep (docs/recovery.md): a journaled reference batch
/// counts the daemon's durable writes (every journal append plus the final
/// manifest), then the batch is re-run once per write with io.write forced
/// to fail (ENOSPC) at exactly that write. Asserts:
///
///   * every faulted run fails loudly with exit 2 -- a dropped durable
///     write is never silent;
///   * the journal left behind is always a clean replayable prefix: a
///     bounded number of --resume runs (without the fault) converges to a
///     manifest byte-identical to the uninterrupted run's, whether the
///     failure hit the journal header, a mid-run append, or the manifest.
/// Honors seed and the daemon path.
std::optional<ServeChaosFailure> check_write_fail(const ServeChaosOptions& opts);

}  // namespace tv::check
