// Crash-isolated job supervisor for scaldtvd.
//
// Each verification job runs in a worker process (a resident warm worker,
// serve/warm_pool.hpp), so a crashing, hanging, or resource-exhausted design
// takes down one worker, never the daemon or the rest of the batch. The
// supervisor:
//
//   * keeps at most `workers` jobs in flight, launching from a FIFO queue;
//   * arms a per-job wall-clock watchdog (the job's --time-limit budget
//     plus `watchdog_slack` to let the worker degrade gracefully first;
//     jobs with no limit get `default_timeout`) and SIGKILLs overruns;
//   * classifies worker exits: 0/1/2/3 are terminal (mapped to JobStates),
//     exit 5 (transient environment failure) and any signal death are
//     retried with exponential backoff + deterministic jitter, up to
//     `max_attempts`; exhausted retries become JobState::Crashed (exit 4);
//   * on SIGTERM/SIGINT (signalled via *shutdown) stops launching, lets
//     running workers finish (watchdogs stay armed), and records pending
//     and backing-off jobs as Requeued in the manifest;
//   * enforces the overload policy (docs/serving.md): per-job RSS budgets
//     (mem_limit_mb -> ResourceExhausted), bounded admission (max_queue ->
//     Shed), and the poison-design circuit breaker (quarantine_after ->
//     Quarantined), all journaled so --resume replays them identically;
//   * winds down loudly (draining, jobs Requeued) the moment the
//     write-ahead journal latches a failed append -- a batch that cannot
//     be journaled must not pretend to be durable.
//
// Determinism: backoff jitter is a pure function of (job id, attempt,
// seed), and the manifest is sorted by id with no timestamps, so a batch
// replayed with the same seed and fault plan produces a byte-identical
// manifest regardless of worker scheduling.
#pragma once

#include <csignal>
#include <cstdint>
#include <string>
#include <sys/types.h>
#include <vector>

#include "serve/job.hpp"
#include "serve/manifest.hpp"

namespace tv::serve {

class Journal;
struct JournalReplay;

struct SupervisorOptions {
  unsigned workers = 1;                 // max jobs in flight
  int max_attempts = 3;                 // launches per job before Crashed
  std::uint64_t backoff_base_ms = 100;  // first retry delay
  std::uint64_t backoff_max_ms = 5000;  // delay cap
  double watchdog_slack = 2.0;          // seconds past --time-limit
  double default_timeout = 0;           // watchdog for no-limit jobs (0 = none)
  std::uint64_t jitter_seed = 0;        // keys the deterministic jitter
  // Fault spec armed in every worker (daemon-level chaos) for jobs with no
  // `fault` of their own; see effective_fault_spec.
  std::string fault_spec;
  // Set to nonzero (by a signal handler) to request graceful shutdown.
  volatile std::sig_atomic_t* shutdown = nullptr;
  bool verbose = false;  // per-attempt progress lines on stderr
  // Read by nothing: the warm pool is the only backend. Still declared
  // because perfbench's serve_stream workload assigns it; it goes when
  // that workload is next revised.
  bool warm = false;
  // Cap on idle resident workers the warm pool keeps alive between jobs
  // (0 = unlimited). When a verdict would push the idle pool past the cap
  // the least-recently-used resident is retired and counted in the
  // manifest's "evictions" field. With the cap on, workers persist each
  // design's fixpoint snapshot (<design>.tvf, core/fixpoint.hpp) after its
  // first clean baseline, so an evicted design's next worker restores the
  // warm baseline from the sidecar instead of re-verifying cold.
  std::size_t max_resident = 0;
  // Write-ahead job journal (serve/journal.hpp): every launch / outcome /
  // settle transition is appended+fsync'd before the batch proceeds. After
  // each append the supervisor touches the serve.kill9 fault site, so the
  // chaos tests can SIGKILL the daemon at any seeded transition and prove
  // --resume finishes the batch with a byte-identical manifest. Null = no
  // journaling.
  Journal* journal = nullptr;
  // Replayed prior run (scaldtvd --resume): jobs whose replayed outcomes
  // already settle them are carried straight into the manifest without
  // relaunching; the rest re-enter the queue with their attempt counts and
  // outcome histories preserved. Null = fresh batch.
  const JournalReplay* resume = nullptr;
  // Per-job memory budget in MiB (0 = none). Enforced by a supervisor-side
  // /proc/<pid>/statm RSS watchdog on running workers plus an RLIMIT_DATA
  // backstop set when each worker forks (apply_memory_backstop). A breach
  // is the deterministic outcome "mem-limit", never a raw SIGKILL mystery:
  // the job settles ResourceExhausted immediately, or -- with mem_retry --
  // is retried like a transient and settles ResourceExhausted only once
  // attempts are exhausted with the final attempt still breaching.
  long mem_limit_mb = 0;
  bool mem_retry = false;
  // Bounded admission (0 = unbounded): only the first max_queue jobs by
  // input order are admitted; the rest settle as JobState::Shed at batch
  // start. Keyed to input order, not runtime scheduling, so a resumed
  // batch sheds exactly the same jobs.
  long max_queue = 0;
  // Poison-design circuit breaker (0 = disabled): after quarantine_after
  // consecutive Crashed/ResourceExhausted settlements of jobs sharing a
  // design key (content hash of the design artifact + front-end mode
  // flags), the breaker trips and every not-yet-attempted job with that
  // key fast-fails as JobState::Quarantined. To make "consecutive" well
  // defined under parallelism, jobs sharing a key are serialized in input
  // order while the breaker is enabled.
  int quarantine_after = 0;
};

/// Deterministic backoff delay before `attempt`+1 (attempt is the 1-based
/// number of the launch that just failed): min(base * 2^(attempt-1), max)
/// plus jitter in [0, base) derived from (job_id, attempt, seed), the total
/// clamped to max -- backoff_max_ms is a hard ceiling on the delay, jitter
/// included.
std::uint64_t backoff_delay_ms(const SupervisorOptions& opts,
                               const std::string& job_id, int attempt);

/// One poll of a running attempt.
struct WorkerPoll {
  enum class Kind {
    Running,   // still going
    Exited,    // finished with `value` as its exit code
    Signaled,  // killed by signal `value` (or lost: treated as SIGKILL)
  };
  Kind kind = Kind::Running;
  int value = 0;
};

/// How the supervisor obtains worker processes. The retry/watchdog/drain
/// state machine in run_jobs launches an attempt, polls it, and may kill
/// it; the backend owns the processes. scaldtvd's only backend is the warm
/// pool (make_warm_pool_backend). The interface stays because two other
/// implementations need it: the fork/exec reference oracle
/// (check/fork_exec_reference.hpp), which the warm pool's manifests are
/// diffed against, and perfbench's timing wrapper. launch() returns the pid
/// to poll/kill, or -1 for a spawn failure (treated as a transient worker
/// loss).
class WorkerBackend {
 public:
  virtual ~WorkerBackend() = default;
  virtual pid_t launch(const JobSpec& job, int attempt) = 0;
  virtual WorkerPoll poll(pid_t pid) = 0;
  virtual void kill_worker(pid_t pid) = 0;
  /// Resident workers retired by the max_resident LRU cap so far. Backends
  /// without a resident pool report 0, which keeps manifests byte-identical
  /// to the reference's when no cap is configured.
  virtual std::size_t evictions() const { return 0; }
  /// Durable writes the backend's workers had to skip because the
  /// filesystem refused them (warm-pool snapshot sidecars under disk
  /// pressure). Feeds the manifest's durability_degraded counter; backends
  /// without durable writes report 0.
  virtual std::size_t durability_degraded() const { return 0; }
};

/// The fault spec this attempt runs under: the job's own fault wins (gated
/// on fault_attempts), else the daemon-wide spec, else null. The warm pool
/// sends it over the command pipe and the fork/exec reference sets it as
/// TV_FAULT, so both gate injection identically.
const std::string* effective_fault_spec(const JobSpec& job,
                                        const SupervisorOptions& opts,
                                        int attempt);

/// Resident set size of `pid` in bytes via /proc/<pid>/statm, or -1 when
/// the process is gone or /proc is unreadable. Shared by the supervisor's
/// per-job RSS watchdog and the warm pool's between-jobs soft check.
long worker_rss_bytes(pid_t pid);

/// The RLIMIT_DATA a worker runs under for a `mem_limit_mb` budget: 4x the
/// budget + 256 MiB, or 0 (no limit) when there is no budget or in an ASan
/// build, whose shadow mappings would trip the limit at startup.
std::uint64_t memory_backstop_bytes(long mem_limit_mb);

/// Sets memory_backstop_bytes(mem_limit_mb) as the calling process's
/// RLIMIT_DATA; a no-op when that is 0. Called in a freshly forked worker
/// (only setrlimit, so it is safe between fork and exec).
void apply_memory_backstop(long mem_limit_mb);

/// Runs every job to a terminal state (or Requeued under shutdown) and
/// returns the manifest. Jobs are launched in input order; results are
/// keyed by id, so output order does not depend on scheduling. The
/// two-argument form runs on a warm pool built from `opts`.
Manifest run_jobs(const std::vector<JobSpec>& jobs, const SupervisorOptions& opts);
Manifest run_jobs(const std::vector<JobSpec>& jobs, const SupervisorOptions& opts,
                  WorkerBackend& backend);

}  // namespace tv::serve
