// The fork/exec worker backend, kept as the reference oracle for the warm
// pool (serve/warm_pool.hpp).
//
// scaldtvd ships one backend: resident warm workers. This one fork/execs a
// fresh `scaldtv` process per attempt -- no resident state, nothing carried
// between jobs -- which makes it the stateless reference for the serving
// layer's "warm vs fork/exec" byte-identity invariant. The tests, the
// serve-chaos scenarios and bench_serve_warm drive the same job batch
// through run_jobs() once with each backend and require byte-identical
// manifests.
//
// Fault injection reaches the worker through its TV_FAULT environment,
// gated per attempt by serve::effective_fault_spec exactly as the warm pool
// gates the spec it sends over its command pipe. With a memory budget the
// child runs under the same RLIMIT_DATA backstop as a warm worker
// (serve::apply_memory_backstop) before it execs.
#pragma once

#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/supervisor.hpp"

namespace tv::check {

/// The scaldtv argv (excluding argv[0]) a job translates to.
std::vector<std::string> worker_args(const serve::JobSpec& job);

/// One fork/exec of `scaldtv_path` (execvp semantics) per attempt. Worker
/// stdout goes to /dev/null; stderr passes through. `opts` must outlive the
/// backend.
class ForkExecReference : public serve::WorkerBackend {
 public:
  ForkExecReference(std::string scaldtv_path, const serve::SupervisorOptions& opts);

  pid_t launch(const serve::JobSpec& job, int attempt) override;
  serve::WorkerPoll poll(pid_t pid) override;
  void kill_worker(pid_t pid) override;

 private:
  std::string scaldtv_path_;
  const serve::SupervisorOptions& opts_;
};

}  // namespace tv::check
