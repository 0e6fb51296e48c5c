#include "serve/warm_pool.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "core/compiled.hpp"
#include "core/fixpoint.hpp"
#include "core/incremental.hpp"
#include "core/verifier.hpp"
#include "diag/render.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/stdlib.hpp"
#include "util/crash.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace tv::serve {

namespace {

/// Reads one newline-terminated line from `fd` into `line` (newline
/// stripped), buffering extra bytes in `buf`. False on EOF or error.
bool read_line(int fd, std::string& buf, std::string& line) {
  for (;;) {
    std::size_t nl = buf.find('\n');
    if (nl != std::string::npos) {
      line.assign(buf, 0, nl);
      buf.erase(0, nl + 1);
      return true;
    }
    char chunk[512];
    ssize_t n = read(fd, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
  }
}

bool write_all(int fd, const std::string& s) {
  std::size_t off = 0;
  while (off < s.size()) {
    ssize_t n = write(fd, s.data() + off, s.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// One resident worker as the parent sees it.
struct WarmWorker {
  pid_t pid = -1;
  int cmd_fd = -1;   // parent writes run commands
  int resp_fd = -1;  // parent reads done lines (nonblocking)
  std::string key;   // which pool it belongs to
  std::string resp_buf;
  std::uint64_t last_used = 0;  // LRU stamp, set when the worker goes idle
};

class WarmPoolBackend : public WorkerBackend {
 public:
  explicit WarmPoolBackend(const SupervisorOptions& opts) : opts_(opts) {
    // A worker can die between our liveness probe and the command write;
    // the write must fail with EPIPE (a transient launch failure), not
    // kill the daemon.
    signal(SIGPIPE, SIG_IGN);
  }

  ~WarmPoolBackend() override {
    for (auto& [pid, w] : running_) destroy(w);
    for (auto& [key, pool] : idle_) {
      for (WarmWorker& w : pool) destroy(w);
    }
  }

  pid_t launch(const JobSpec& job, int attempt) override {
    const std::string* spec = effective_fault_spec(job, opts_, attempt);
    std::string key = pool_key(job, spec);
    WarmWorker w;
    auto it = idle_.find(key);
    if (it != idle_.end()) {
      std::vector<WarmWorker>& pool = it->second;
      while (!pool.empty() && w.pid < 0) {
        WarmWorker cand = std::move(pool.back());
        pool.pop_back();
        int status = 0;
        if (waitpid(cand.pid, &status, WNOHANG) == 0) {
          w = std::move(cand);  // still alive: reuse it warm
        } else {
          close_fds(cand);  // died while idle (already reaped): discard
        }
      }
    }
    if (w.pid < 0 && !spawn(job, key, w)) return -1;

    std::string cmd = "run " + format_double(job.time_limit) + ' ' +
                      std::to_string(job.jobs) + ' ' +
                      (spec && !spec->empty() ? *spec : std::string("-")) + ' ' +
                      json::quote(job.reverify) + '\n';
    w.resp_buf.clear();
    if (!write_all(w.cmd_fd, cmd)) {
      destroy(w);
      return -1;
    }
    pid_t pid = w.pid;
    running_.emplace(pid, std::move(w));
    return pid;
  }

  WorkerPoll poll(pid_t pid) override {
    WorkerPoll p;
    auto it = running_.find(pid);
    if (it == running_.end()) {
      p.kind = WorkerPoll::Kind::Signaled;
      p.value = SIGKILL;
      return p;
    }
    WarmWorker& w = it->second;

    // Drain whatever the worker has written so far.
    for (;;) {
      char chunk[256];
      ssize_t n = read(w.resp_fd, chunk, sizeof chunk);
      if (n > 0) {
        w.resp_buf.append(chunk, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // no data yet (EAGAIN), EOF, or error: fall through
    }

    std::size_t nl = w.resp_buf.find('\n');
    if (nl != std::string::npos) {
      std::string line = w.resp_buf.substr(0, nl);
      int code = -1;
      WarmWorker done = std::move(w);
      running_.erase(it);
      if (std::sscanf(line.c_str(), "done %d", &code) == 1 && code >= 0) {
        p.kind = WorkerPoll::Kind::Exited;
        p.value = code;
        done.resp_buf.clear();
        // "nodur": the worker wanted to persist its fixpoint sidecar but
        // the filesystem refused -- the verdict stands, serving continues
        // without durability, and the manifest gets to see the count.
        if (line.find(" nodur") != std::string::npos) ++durability_degraded_;
        if (code == 0 || code == 1 || code == 3) {
          if (opts_.mem_limit_mb > 0 &&
              worker_rss_bytes(done.pid) > opts_.mem_limit_mb * (1l << 20)) {
            // Between-jobs soft check: the job finished with a verdict, so
            // it is NOT a mem-limit breach -- but pooling a resident whose
            // RSS already exceeds the per-job budget would start the next
            // job over budget. Retire it; the next job gets a fresh process.
            destroy(done);
          } else {
            // A verdict: the worker is healthy, keep it warm.
            done.last_used = ++tick_;
            idle_[done.key].push_back(std::move(done));
            enforce_resident_cap();
          }
        } else {
          // Transient failure or input error: the worker's state is
          // suspect, so the next attempt gets a fresh process.
          destroy(done);
        }
        return p;
      }
      // Protocol violation: drop the worker and report a lost attempt.
      destroy(done);
      p.kind = WorkerPoll::Kind::Signaled;
      p.value = SIGKILL;
      return p;
    }

    int status = 0;
    pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == 0) return p;  // still running
    // The worker died without answering (crash, watchdog SIGKILL, or a
    // clean exit that skipped the protocol -- equally useless to us).
    WarmWorker dead = std::move(w);
    running_.erase(it);
    close_fds(dead);
    dead.pid = -1;
    p.kind = WorkerPoll::Kind::Signaled;
    p.value = (r == pid && WIFSIGNALED(status)) ? WTERMSIG(status) : SIGKILL;
    return p;
  }

  void kill_worker(pid_t pid) override {
    if (running_.find(pid) != running_.end()) kill(pid, SIGKILL);
  }

  std::size_t evictions() const override { return evictions_; }

  std::size_t durability_degraded() const override { return durability_degraded_; }

 private:
  /// Retires least-recently-used idle residents until the pool fits
  /// opts_.max_resident (0 = unlimited). Running workers never count
  /// against the cap -- they are mid-job and cannot be retired; the cap
  /// bounds what is kept alive *between* jobs. An evicted design's next
  /// worker warm-starts from the `.tvf` sidecar its first baseline wrote.
  void enforce_resident_cap() {
    if (opts_.max_resident == 0) return;
    for (;;) {
      std::size_t total = 0;
      for (const auto& [key, pool] : idle_) total += pool.size();
      if (total <= opts_.max_resident) return;
      std::vector<WarmWorker>* lru_pool = nullptr;
      std::size_t lru_at = 0;
      std::uint64_t lru_stamp = UINT64_MAX;
      for (auto& [key, pool] : idle_) {
        for (std::size_t i = 0; i < pool.size(); ++i) {
          if (pool[i].last_used < lru_stamp) {
            lru_stamp = pool[i].last_used;
            lru_pool = &pool;
            lru_at = i;
          }
        }
      }
      if (lru_pool == nullptr) return;  // unreachable: total > 0
      WarmWorker victim = std::move((*lru_pool)[lru_at]);
      lru_pool->erase(lru_pool->begin() + static_cast<std::ptrdiff_t>(lru_at));
      destroy(victim);
      ++evictions_;
    }
  }
  // Idle workers are interchangeable only between jobs that would drive an
  // identical process: same design, same front-end mode, and -- for chaos
  // testing -- the same effective fault spec. Keying on the fault spec keeps
  // load-time fault sites (io.read) honest: a faulted job never inherits a
  // worker whose front end already ran clean, so injected faults fire
  // exactly as they do in a freshly exec'd scaldtv. Production jobs carry
  // no fault spec and share freely.
  static std::string pool_key(const JobSpec& job, const std::string* fault) {
    std::string key = job.design;
    key += job.compiled ? "|compiled" : "|source";
    key += job.stdlib ? "+stdlib" : "";
    if (fault != nullptr && !fault->empty()) key += "|fault=" + *fault;
    return key;
  }

  bool spawn(const JobSpec& job, const std::string& key, WarmWorker& w) {
    int cmd_pipe[2] = {-1, -1};
    int resp_pipe[2] = {-1, -1};
    if (pipe(cmd_pipe) != 0) return false;
    if (pipe(resp_pipe) != 0) {
      close(cmd_pipe[0]);
      close(cmd_pipe[1]);
      return false;
    }
    pid_t pid = fork();
    if (pid < 0) {
      close(cmd_pipe[0]);
      close(cmd_pipe[1]);
      close(resp_pipe[0]);
      close(resp_pipe[1]);
      return false;
    }
    if (pid == 0) {
      // Child: becomes a resident worker; never returns. Stdout goes to
      // /dev/null (the manifest is the daemon's output), stderr passes
      // through for crash reports, and a memory budget arms the
      // RLIMIT_DATA backstop under the supervisor's RSS watchdog.
      close(cmd_pipe[1]);
      close(resp_pipe[0]);
      signal(SIGTERM, SIG_DFL);
      signal(SIGINT, SIG_DFL);
      signal(SIGPIPE, SIG_DFL);
      int devnull = open("/dev/null", O_WRONLY);
      if (devnull >= 0) {
        dup2(devnull, STDOUT_FILENO);
        if (devnull > STDERR_FILENO) close(devnull);
      }
      apply_memory_backstop(opts_.mem_limit_mb);
      _exit(warm_worker_main(job.design, job.stdlib, job.compiled,
                             opts_.max_resident > 0, cmd_pipe[0], resp_pipe[1]));
    }
    close(cmd_pipe[0]);
    close(resp_pipe[1]);
    int flags = fcntl(resp_pipe[0], F_GETFL, 0);
    fcntl(resp_pipe[0], F_SETFL, flags | O_NONBLOCK);
    w.pid = pid;
    w.cmd_fd = cmd_pipe[1];
    w.resp_fd = resp_pipe[0];
    w.key = key;
    return true;
  }

  static void close_fds(WarmWorker& w) {
    if (w.cmd_fd >= 0) close(w.cmd_fd);
    if (w.resp_fd >= 0) close(w.resp_fd);
    w.cmd_fd = w.resp_fd = -1;
  }

  static void destroy(WarmWorker& w) {
    close_fds(w);
    if (w.pid >= 0) {
      kill(w.pid, SIGKILL);
      int status = 0;
      waitpid(w.pid, &status, 0);
      w.pid = -1;
    }
  }

  const SupervisorOptions& opts_;
  std::unordered_map<pid_t, WarmWorker> running_;
  std::unordered_map<std::string, std::vector<WarmWorker>> idle_;
  std::uint64_t tick_ = 0;        // monotonic use counter for LRU stamps
  std::size_t evictions_ = 0;     // residents retired by the cap
  std::size_t durability_degraded_ = 0;  // "nodur" responses seen
};

// Response fd for the allocation-exhaustion handler. A resident worker is
// single-threaded and installs the handler once, before serving commands.
int g_oom_resp_fd = -1;

[[noreturn]] void oom_new_handler() {
  // Only async-signal-safe calls: the heap is gone, so no streams, no
  // strings, no unwinding. Answer the protocol, then leave with the clean
  // transient code so the supervisor retries instead of logging a mystery.
  static const char msg[] =
      "scaldtvd-worker: transient failure: out of memory (new handler)\n";
  ssize_t ignored = write(STDERR_FILENO, msg, sizeof msg - 1);
  if (g_oom_resp_fd >= 0) {
    static const char done[] = "done 5\n";
    ignored = write(g_oom_resp_fd, done, sizeof done - 1);
  }
  (void)ignored;
  _exit(5);
}

}  // namespace

std::unique_ptr<WorkerBackend> make_warm_pool_backend(const SupervisorOptions& opts) {
  return std::make_unique<WarmPoolBackend>(opts);
}

void warm_worker_install_oom_handler(int resp_fd) {
  g_oom_resp_fd = resp_fd;
  std::set_new_handler(oom_new_handler);
}

int warm_worker_main(const std::string& design, bool stdlib, bool compiled,
                     bool snapshot, int cmd_fd, int resp_fd) {
  crash::install_handler();
  warm_worker_install_oom_handler(resp_fd);
  crash::set_context(design.c_str(), "warm worker idle");
  fault::configure("");  // never inherit the daemon's own fault plan

  std::optional<hdl::ElaboratedDesign> loaded;
  std::optional<CompiledDesign> seeds;  // pre-interned waveform arena
  std::unique_ptr<Verifier> verifier;
  std::uint64_t artifact_hash = 0;  // bound .tvc content hash; 0 = source
  bool restored = false;            // first run answers from the snapshot
  bool snapshot_written = false;    // write the sidecar at most once

  auto dump_diags = [](const diag::DiagnosticEngine& diags) {
    if (!diags.diagnostics().empty()) {
      std::fputs(diag::render_text(diags).c_str(), stderr);
    }
  };

  // Loads the design on first use. Returns 0 or the exit code scaldtv
  // would have produced for the same failure.
  auto ensure_loaded = [&]() -> int {
    if (loaded) return 0;
    diag::DiagnosticEngine diags;
    if (fault::should_fail("io.read")) {
      std::fprintf(stderr, "scaldtvd-worker: injected read failure on %s\n",
                   design.c_str());
      return 5;
    }
    if (compiled) {
      crash::set_context(design.c_str(), "load compiled design");
      std::optional<CompiledDesign> c = load_compiled_file(design, diags);
      if (!c) {
        dump_diags(diags);
        return 2;
      }
      seeds = std::move(c);
      artifact_hash = seeds->content_hash;
      hdl::ElaboratedDesign d;
      d.name = seeds->name;
      d.netlist = std::move(seeds->netlist);
      d.options = seeds->options;
      d.cases = std::move(seeds->cases);
      d.summary.macro_instances = seeds->summary.macro_instances;
      d.summary.primitives = seeds->summary.primitives;
      d.summary.unique_signals = seeds->summary.unique_signals;
      d.summary.total_bits = seeds->summary.total_bits;
      d.summary.prims_by_kind = seeds->summary.prims_by_kind;
      loaded = std::move(d);
    } else {
      std::ifstream in(design);
      if (!in) {
        std::fprintf(stderr, "scaldtvd-worker: cannot open %s\n", design.c_str());
        return 2;
      }
      std::stringstream buf;
      buf << in.rdbuf();
      crash::set_context(design.c_str(), "parse + macro expansion");
      if (stdlib) {
        loaded = hdl::elaborate_sources(
            {{"<stdlib>", hdl::std_chip_library()}, {design, buf.str()}}, diags);
      } else {
        diags.set_current_file(design);
        loaded = hdl::elaborate_source(buf.str(), diags);
      }
      if (!loaded) {
        dump_diags(diags);
        return 2;
      }
    }
    return 0;
  };

  // Forgets the resident design, verifier, and seed arena: the next run
  // command reloads from disk. The escape hatch whenever a reverify job
  // leaves (or may have left) the netlist off its artifact baseline.
  auto drop_resident = [&]() {
    verifier.reset();
    loaded.reset();
    seeds.reset();
    restored = false;
  };

  auto run_once = [&](double time_limit, unsigned jobs,
                      const std::string& reverify_path,
                      bool& durability_lost) -> int {
    // Snapshot participation under an injected fault plan: normally off
    // (evaluation-site faults must fire exactly as they do cold), but a
    // plan that *only* names io.write is the disk-pressure drill itself --
    // it cannot perturb evaluation, and skipping the sidecar write would
    // hide the very path being exercised.
    bool snapshot_ok = snapshot && (!fault::enabled() || fault::plan_only_site("io.write"));
    try {
      int rc = ensure_loaded();
      if (rc != 0) return rc;
      if (!verifier) {
        verifier = std::make_unique<Verifier>(loaded->netlist, loaded->options);
        if (seeds) {
          preintern_seeds(*seeds, verifier->evaluator().intern_context()->table);
        }
        if (snapshot_ok) {
          // Eviction recovery: a previous worker for this design may have
          // left its fixed point in the `.tvf` sidecar. Restoring it warms
          // the baseline without re-paying the cold verification; any
          // defect (missing, corrupt, or bound to a different design /
          // artifact / option set) silently falls back to the cold path.
          // Runs under an injected fault plan never restore: the plan's
          // evaluation-site faults must fire exactly as they do cold.
          crash::set_context(design.c_str(), "restore snapshot (warm)");
          diag::DiagnosticEngine sdiags;
          std::optional<FixpointState> st =
              load_fixpoint_file(fixpoint_sidecar_path(design), sdiags);
          restored = st && verifier->restore(*st, artifact_hash, sdiags);
        }
      }
      verifier->evaluator().set_time_limit(time_limit);
      verifier->evaluator().set_jobs(jobs == 0 ? 1 : jobs);
      crash::set_context(design.c_str(), "verification (warm)");
      VerifyResult result;
      if (restored) {
        // The snapshot round-trip is byte-exact (tvfuzz --matrix snapshot),
        // so the restored report answers this job; later runs on this
        // worker re-verify against the warm intern table as usual.
        result = verifier->baseline();
        restored = false;
      } else {
        result = verifier->verify(loaded->cases);
        if (snapshot_ok && !snapshot_written &&
            result.converged && !result.partial) {
          // First clean convergent baseline: persist it so the next worker
          // for this design (post-eviction) warm-starts. Write failure is
          // not an error -- the sidecar is an optimization only -- but it
          // IS a visible degradation: the verdict goes back with "nodur"
          // so the manifest's durability_degraded counter sees it.
          std::string werror;
          if (!write_fixpoint_file(*verifier, loaded->name, artifact_hash,
                                   fixpoint_sidecar_path(design), &werror)) {
            std::fprintf(stderr,
                         "scaldtvd-worker: serving without durability: %s\n",
                         werror.c_str());
            durability_lost = true;
          }
          snapshot_written = true;
        }
      }
      if (!reverify_path.empty()) {
        crash::set_context(reverify_path.c_str(), "reverify (warm)");
        std::ifstream din(reverify_path);
        if (!din) {
          std::fprintf(stderr, "scaldtvd-worker: cannot open %s\n",
                       reverify_path.c_str());
          return 2;
        }
        if (fault::should_fail("io.read")) {
          std::fprintf(stderr, "scaldtvd-worker: injected read failure on %s\n",
                       reverify_path.c_str());
          return 5;
        }
        std::stringstream dbuf;
        dbuf << din.rdbuf();
        NetlistDelta delta;
        std::string derror;
        if (!parse_delta_json(dbuf.str(), loaded->netlist, &delta, &derror)) {
          std::fprintf(stderr, "scaldtvd-worker: %s: %s\n", reverify_path.c_str(),
                       derror.c_str());
          return 2;
        }
        ReverifyStats st;
        try {
          result = verifier->reverify(delta, &st);
        } catch (...) {
          // The netlist may hold a half-applied world (an injected fault can
          // fire after the delta landed); never let a later job see it.
          drop_resident();
          throw;
        }
        // Return the resident netlist to its artifact baseline so the next
        // job on this worker verifies the unedited design.
        try {
          verifier->reverify(st.inverse);
        } catch (...) {
          drop_resident();
        }
      }
      crash::set_context(design.c_str(), "warm worker idle");
      return diag::exit_code(false, result.partial,
                             result.total_violations() != 0);
    } catch (const fault::InjectedFault& e) {
      std::fprintf(stderr, "scaldtvd-worker: transient failure: %s\n", e.what());
      return 5;
    } catch (const std::bad_alloc&) {
      std::fprintf(stderr, "scaldtvd-worker: transient failure: out of memory\n");
      return 5;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "scaldtvd-worker: %s\n", e.what());
      return 2;
    }
  };

  std::string buf, line;
  for (;;) {
    if (!read_line(cmd_fd, buf, line)) return 0;  // parent closed: retire
    std::istringstream is(line);
    std::string verb, tl_text, jobs_text, fault_text, rest;
    is >> verb >> tl_text >> jobs_text >> fault_text;
    std::getline(is, rest);  // the delta path, a JSON string
    json::Value reverify;
    if (verb != "run" || tl_text.empty() || jobs_text.empty() || fault_text.empty() ||
        !json::parse(rest, reverify, nullptr) || reverify.type != json::Value::Str) {
      return 1;  // protocol error: retire loudly (parent treats as lost)
    }
    double time_limit = std::strtod(tl_text.c_str(), nullptr);
    unsigned jobs = static_cast<unsigned>(std::strtoul(jobs_text.c_str(), nullptr, 10));
    // Reconfigure fault injection per run so @N counters behave exactly as
    // in a freshly exec'd worker.
    fault::configure(fault_text == "-" ? "" : fault_text);
    bool durability_lost = false;
    int code = run_once(time_limit, jobs, reverify.str, durability_lost);
    std::string resp = "done " + std::to_string(code);
    if (durability_lost) resp += " nodur";
    if (!write_all(resp_fd, resp + '\n')) return 0;
  }
}

}  // namespace tv::serve
