// Warm in-process worker pool: scaldtvd's worker backend.
//
// A fresh scaldtv process per attempt would pay the full cold-start price
// every time: process creation, dynamic loading, HDL parse + macro
// expansion (or artifact load), and an empty waveform-intern table. The
// warm pool keeps one resident worker process per distinct design alive
// across jobs: the worker loads the design once, constructs one long-lived
// Verifier (whose WaveformTable and EvalMemo stay populated), and then
// serves "run" commands over a pipe, answering each with the exit code
// scaldtv would have produced.
//
// Protocol (newline-delimited text, parent -> worker on the command pipe,
// worker -> parent on the response pipe):
//
//   run <time_limit> <jobs> <fault-spec|-> <delta-path>   one job
//   done <code> [nodur]                      its scaldtv-compatible exit code
//
// The delta path is the rest of the run line as a JSON string (util/json),
// so any path scaldtv --reverify accepts -- newlines, leading spaces, a
// literal "-" -- arrives intact; "" means no delta.
//
// The optional "nodur" token reports that the run wanted to persist its
// fixpoint sidecar but the filesystem refused the write (ENOSPC-shaped):
// the verdict stands, the worker serves on without durability, and the
// parent counts the degradation into Manifest::durability_degraded.
//
// A non-empty delta path makes the run a reverify job (scaldtv --reverify):
// after the baseline verification the worker applies the JSON netlist delta
// and reports on the edited design. The worker then restores its resident
// baseline by applying the inverse delta; if the restore fails for any
// reason it drops the loaded design entirely, so a later job can never see
// a half-edited netlist.
//
// Crash isolation is preserved, not traded away:
//   * every worker is still a separate process -- a crashing or hanging
//     design kills its worker, never the daemon;
//   * the supervisor's watchdog SIGKILLs the worker pid; the backend
//     reports the signal death and the next attempt gets a fresh process;
//   * under a memory budget each worker forks with the RLIMIT_DATA
//     backstop (apply_memory_backstop) beneath the supervisor's RSS
//     watchdog;
//   * a worker is returned to the idle pool only after answering with a
//     verdict (exit 0/1/3). Any other response or death recycles it, so
//     retry semantics ("attempt 1 dies, attempt 2 runs clean") hold, and
//     manifests are byte-identical to the stateless fork/exec reference
//     (check/fork_exec_reference.hpp).
//
// Fault injection rides the protocol: the parent computes the effective
// per-attempt spec (effective_fault_spec) and sends it with each run
// command; the worker reconfigures its fault plan per run, so @N counters
// count within one job exactly as they do in a freshly exec'd scaldtv.
#pragma once

#include <memory>
#include <string>

#include "serve/supervisor.hpp"

namespace tv::serve {

/// Builds the warm-pool backend. `opts` must outlive it. Destroying the
/// backend SIGKILLs and reaps every resident worker. The constructor
/// ignores SIGPIPE process-wide: writing a command to a worker that just
/// died must surface as a failed launch, not kill the daemon.
///
/// When opts.max_resident > 0 the idle pool is bounded: returning a worker
/// that would push the idle count past the cap retires the least-recently-
/// used resident instead of keeping it (counted in Manifest::evictions),
/// and workers run with fixpoint snapshots enabled so an evicted design's
/// next process warm-starts from its `.tvf` sidecar.
std::unique_ptr<WorkerBackend> make_warm_pool_backend(const SupervisorOptions& opts);

/// Body of a resident worker (the child side of the protocol). Loads
/// `design` lazily on the first run command, keeps the Verifier warm, and
/// loops until the command pipe reaches EOF. Returns the worker's final
/// exit status. Exposed for tests.
///
/// With `snapshot` set the worker participates in eviction recovery
/// (docs/recovery.md): before the first cold baseline it tries to restore
/// the design's `.tvf` sidecar (core/fixpoint.hpp) -- answering the first
/// job from the restored fixed point with zero evaluations -- and after a
/// clean convergent cold baseline it writes that sidecar atomically. A
/// missing, stale, or unreadable sidecar silently falls back to the cold
/// path; the snapshot is a warm-start optimization, never a correctness
/// dependency.
int warm_worker_main(const std::string& design, bool stdlib, bool compiled,
                     bool snapshot, int cmd_fd, int resp_fd);

/// Installs a std::set_new_handler for a resident worker: on allocation
/// exhaustion it answers "done 5" on `resp_fd` (async-signal-safe write)
/// and _exit(5)s -- the clean transient exit -- instead of letting a
/// std::bad_alloc unwind through the pipe protocol, where a half-written
/// response line would be reported as a protocol violation (a lost
/// attempt) rather than a retryable transient. warm_worker_main installs
/// it; exposed separately for tests.
void warm_worker_install_oom_handler(int resp_fd);

}  // namespace tv::serve
