#include "probe.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.hpp"

namespace perfbench {

namespace {

/// The reference job: the same fixed work every time, about 50 ms on an
/// idle 2.1 GHz Xeon core.
double reference_job() {
  auto t0 = Clock::now();
  Rng rng(1);
  std::vector<std::string> names;
  for (int i = 0; i < 60000; ++i) {
    names.push_back("SIG" + std::to_string(rng.below(1000000)) + " .S" + std::to_string(i % 97));
  }
  std::unordered_map<std::string, int> index;
  for (const std::string& n : names) ++index[n];
  std::sort(names.begin(), names.end());
  std::vector<std::uint32_t> next(1 << 21);
  for (std::uint32_t i = 0; i < next.size(); ++i) next[i] = i;
  rng.shuffle(next);
  std::uint32_t at = 0;
  std::uint64_t sum = 0;
  for (int i = 0; i < 400000; ++i) sum += at = next[at];
  const double secs = seconds_since(t0);
  // The results are used, so the compiler keeps the work.
  return sum + index.size() + names.front().size() > 0 ? secs : -secs;
}

bool write_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool read_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

}  // namespace

SpeedProbe::SpeedProbe() {
  int req[2], rep[2];
  if (pipe2(req, O_CLOEXEC) != 0) throw std::runtime_error("speed probe: pipe failed");
  if (pipe2(rep, O_CLOEXEC) != 0) {
    close(req[0]);
    close(req[1]);
    throw std::runtime_error("speed probe: pipe failed");
  }
  std::fflush(nullptr);
  pid_ = fork();
  if (pid_ == 0) {
    close(req[1]);
    close(rep[0]);
    int cpu;
    while (read_all(req[0], &cpu, sizeof cpu)) {
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof set, &set);
      const double secs = reference_job();
      if (!write_all(rep[1], &secs, sizeof secs)) break;
    }
    _exit(0);
  }
  close(req[0]);
  close(rep[1]);
  request_ = req[1];
  reply_ = rep[0];
  if (pid_ < 0) {
    close(request_);
    close(reply_);
    throw std::runtime_error("speed probe: fork failed");
  }
}

SpeedProbe::~SpeedProbe() {
  close(request_);
  close(reply_);
  // Worker processes forked later may hold the pipe open, so the child
  // might never read end-of-file: stop it outright.
  kill(pid_, SIGKILL);
  int status;
  while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double SpeedProbe::run() {
  const int cpu = sched_getcpu();
  double secs = 0;
  if (!write_all(request_, &cpu, sizeof cpu) || !read_all(reply_, &secs, sizeof secs) || secs <= 0) {
    throw std::runtime_error("speed probe: the reference job did not answer");
  }
  return secs;
}

}  // namespace perfbench
