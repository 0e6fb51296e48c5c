#include "check/fork_exec_reference.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>

namespace tv::check {

namespace {

std::string format_double(double v) {
  // Shortest round-trip-ish form: trim trailing zeros so worker argv stays
  // stable and readable (5.0 -> "5", 0.25 -> "0.25").
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

std::vector<std::string> worker_args(const serve::JobSpec& job) {
  std::vector<std::string> args;
  if (job.compiled) args.push_back("--compiled");
  if (job.stdlib) args.push_back("--stdlib");
  if (job.time_limit > 0) {
    args.push_back("--time-limit");
    args.push_back(format_double(job.time_limit));
  }
  if (job.jobs > 0) {
    args.push_back("--jobs");
    args.push_back(std::to_string(job.jobs));
  }
  if (!job.reverify.empty()) {
    args.push_back("--reverify");
    args.push_back(job.reverify);
  }
  args.push_back(job.design);
  return args;
}

ForkExecReference::ForkExecReference(std::string scaldtv_path,
                                     const serve::SupervisorOptions& opts)
    : scaldtv_path_(std::move(scaldtv_path)), opts_(opts) {}

pid_t ForkExecReference::launch(const serve::JobSpec& job, int attempt) {
  std::vector<std::string> args = worker_args(job);
  std::vector<char*> argv;
  argv.push_back(scaldtv_path_.data());
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const std::string* spec = serve::effective_fault_spec(job, opts_, attempt);

  pid_t pid = fork();
  if (pid != 0) return pid;  // parent (or fork failure, -1)

  // Child: only async-signal-safe calls plus exec. Workers write their
  // reports to /dev/null -- the manifest is the supervisor's output; worker
  // stderr is passed through so crash reports and diagnostics stay visible.
  int devnull = open("/dev/null", O_WRONLY);
  if (devnull >= 0) {
    dup2(devnull, STDOUT_FILENO);
    if (devnull > STDERR_FILENO) close(devnull);
  }
  if (spec) {
    setenv("TV_FAULT", spec->c_str(), 1);
  } else {
    unsetenv("TV_FAULT");
  }
  serve::apply_memory_backstop(opts_.mem_limit_mb);
  execvp(scaldtv_path_.c_str(), argv.data());
  _exit(127);
}

serve::WorkerPoll ForkExecReference::poll(pid_t pid) {
  serve::WorkerPoll p;
  int status = 0;
  pid_t r = waitpid(pid, &status, WNOHANG);
  if (r == pid) {
    if (WIFSIGNALED(status)) {
      p.kind = serve::WorkerPoll::Kind::Signaled;
      p.value = WTERMSIG(status);
    } else {
      p.kind = serve::WorkerPoll::Kind::Exited;
      p.value = WIFEXITED(status) ? WEXITSTATUS(status) : 127;
    }
  } else if (r < 0 && errno == ECHILD) {
    // Should not happen (we only wait on our own pids), but do not spin on
    // a lost child forever: treat it like a SIGKILLed worker.
    p.kind = serve::WorkerPoll::Kind::Signaled;
    p.value = SIGKILL;
  }
  return p;
}

void ForkExecReference::kill_worker(pid_t pid) { kill(pid, SIGKILL); }

}  // namespace tv::check
