#include "serve/supervisor.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "serve/journal.hpp"
#include "serve/warm_pool.hpp"
#include "util/fault.hpp"

// The RLIMIT_DATA backstop is compiled out under ASan: its shadow mappings
// count toward RLIMIT_DATA on modern kernels and would kill every worker
// at startup. The supervisor-side statm watchdog stays on either way.
#if defined(__SANITIZE_ADDRESS__)
#define TV_ASAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TV_ASAN_BUILD 1
#endif
#endif

namespace tv::serve {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t fnv1a(const void* data, std::size_t len, std::uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

// Per-job bookkeeping while the batch runs.
struct Slot {
  enum class Phase { Pending, Delayed, Running, Terminal };
  const JobSpec* job = nullptr;
  Phase phase = Phase::Pending;
  JobRecord record;
  pid_t pid = -1;
  Clock::time_point kill_at{};   // watchdog (Running, when armed)
  bool watchdog = false;
  bool killed_by_watchdog = false;
  bool killed_by_memlimit = false;
  Clock::time_point retry_at{};  // backoff wake-up (Delayed)
};

// The poison-design breaker for one design key. `tripped` is sticky for
// the life of the batch (and, via the journal ledger, across resumes).
struct Breaker {
  int consec = 0;
  bool tripped = false;
};

// Design key for the quarantine breaker: FNV-1a over the design file's
// *content* (so two paths to the same bytes share one breaker, and a fixed
// design re-enters service under a new key) plus the front-end mode flags.
// Unreadable designs fall back to hashing the path -- they will fail as
// InputError anyway, and the key only has to be deterministic.
std::string quarantine_key(const JobSpec& job) {
  std::uint64_t h = 14695981039346656037ull;
  std::ifstream in(job.design, std::ios::binary);
  if (in) {
    char buf[1 << 16];
    while (in.read(buf, sizeof buf) || in.gcount() > 0) {
      h = fnv1a(buf, static_cast<std::size_t>(in.gcount()), h);
      if (!in) break;
    }
  } else {
    h = fnv1a(job.design.data(), job.design.size(), h);
  }
  unsigned char flags = static_cast<unsigned char>((job.compiled ? 1 : 0) |
                                                   (job.stdlib ? 2 : 0));
  h = fnv1a(&flags, sizeof flags, h);
  char out[17];
  std::snprintf(out, sizeof out, "%016llx", static_cast<unsigned long long>(h));
  return out;
}

}  // namespace

long worker_rss_bytes(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/statm", static_cast<int>(pid));
  std::FILE* f = std::fopen(path, "r");
  if (!f) return -1;
  long pages_total = 0, pages_resident = 0;
  int n = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
  std::fclose(f);
  if (n != 2) return -1;
  long page = sysconf(_SC_PAGESIZE);
  if (page <= 0) page = 4096;
  return pages_resident * page;
}

std::uint64_t memory_backstop_bytes(long mem_limit_mb) {
#if defined(TV_ASAN_BUILD)
  (void)mem_limit_mb;
  return 0;
#else
  if (mem_limit_mb <= 0) return 0;
  // RLIMIT_DATA counts reserved virtual memory, not resident pages, and
  // glibc's malloc arenas over-reserve by design -- so the limit gets
  // generous headroom (4x the budget + 256 MiB). It exists only to stop a
  // worker that outruns the watchdog's sampling cadence; the watchdog's
  // kill is what classifies the breach.
  return static_cast<std::uint64_t>(mem_limit_mb) * (1u << 20) * 4 + (256u << 20);
#endif
}

void apply_memory_backstop(long mem_limit_mb) {
  std::uint64_t bytes = memory_backstop_bytes(mem_limit_mb);
  if (bytes == 0) return;
  struct rlimit rl;
  rl.rlim_cur = rl.rlim_max = static_cast<rlim_t>(bytes);
  setrlimit(RLIMIT_DATA, &rl);
}

const std::string* effective_fault_spec(const JobSpec& job,
                                        const SupervisorOptions& opts,
                                        int attempt) {
  // The injected spec for this attempt: the job's own fault wins (gated on
  // fault_attempts so "attempt 1 dies, attempt 2 runs clean" is expressible),
  // else the daemon-wide chaos spec. Null otherwise so workers never inherit
  // the daemon's fault plan by accident.
  if (!job.fault.empty() &&
      (job.fault_attempts == 0 || attempt <= job.fault_attempts)) {
    return &job.fault;
  }
  if (!opts.fault_spec.empty()) return &opts.fault_spec;
  return nullptr;
}

std::uint64_t backoff_delay_ms(const SupervisorOptions& opts,
                               const std::string& job_id, int attempt) {
  std::uint64_t delay = opts.backoff_base_ms;
  for (int i = 1; i < attempt && delay < opts.backoff_max_ms; ++i) {
    // Overflow-safe doubling: once delay passes max/2 the next double would
    // exceed (or wrap past) the cap, so saturate at the cap directly.
    if (delay > opts.backoff_max_ms / 2) {
      delay = opts.backoff_max_ms;
      break;
    }
    delay *= 2;
  }
  if (delay > opts.backoff_max_ms) delay = opts.backoff_max_ms;
  std::uint64_t h = fnv1a(job_id.data(), job_id.size(), 14695981039346656037ull);
  h = fnv1a(&attempt, sizeof attempt, h);
  h = fnv1a(&opts.jitter_seed, sizeof opts.jitter_seed, h);
  std::uint64_t jitter = opts.backoff_base_ms ? h % opts.backoff_base_ms : 0;
  // backoff_max_ms caps the *total* delay: jitter fills the gap below the
  // cap but never pushes past it.
  if (delay + jitter < delay || delay + jitter > opts.backoff_max_ms) {
    return opts.backoff_max_ms;
  }
  return delay + jitter;
}

Manifest run_jobs(const std::vector<JobSpec>& jobs, const SupervisorOptions& opts,
                  WorkerBackend& backend) {
  std::vector<Slot> slots(jobs.size());
  std::size_t open_jobs = jobs.size();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    slots[i].job = &jobs[i];
    slots[i].record.id = jobs[i].id;
    slots[i].record.design = jobs[i].design;
    if (opts.resume) {
      // Resume: re-seed this slot from the replayed journal. Settlement is
      // re-derived from the outcome list with the same classification the
      // reap path below applies, so a job whose attempts already finished
      // lands in the manifest exactly as the uninterrupted run would have
      // put it -- without relaunching anything.
      auto it = opts.resume->jobs.find(jobs[i].id);
      if (it != opts.resume->jobs.end()) {
        slots[i].record.outcomes = it->second.outcomes;
        slots[i].record.attempts = static_cast<int>(it->second.outcomes.size());
        JobState settled;
        if (derive_settlement(slots[i].record.outcomes, opts.max_attempts,
                              opts.mem_retry, &settled)) {
          slots[i].phase = Slot::Phase::Terminal;
          slots[i].record.state = settled;
          --open_jobs;
          if (opts.verbose) {
            std::fprintf(stderr, "scaldtvd: job %s -> %s (replayed from journal)\n",
                         jobs[i].id.c_str(), job_state_name(settled));
          }
        } else if (it->second.settled &&
                   (it->second.state == JobState::Shed ||
                    it->second.state == JobState::Quarantined)) {
          // Shed/Quarantined jobs never ran, so they have no outcomes for
          // derive_settlement to classify -- their journaled settle records
          // ARE the durable decision, and a resumed batch honors them
          // instead of re-deciding.
          slots[i].phase = Slot::Phase::Terminal;
          slots[i].record.state = it->second.state;
          --open_jobs;
          if (opts.verbose) {
            std::fprintf(stderr, "scaldtvd: job %s -> %s (replayed from journal)\n",
                         jobs[i].id.c_str(), job_state_name(it->second.state));
          }
        }
      }
    }
  }

  // Quarantine bookkeeping (only paid for when the breaker is enabled):
  // one design key per slot, one breaker per key. On resume the breaker
  // state is re-derived by walking the replayed terminal states in input
  // order -- per-key serialization (below) makes that walk reproduce the
  // live run's "consecutive" counts exactly -- with the journal's ledger
  // records unioned in as a belt for trips whose settle cluster was torn.
  const bool quarantine_on = opts.quarantine_after > 0;
  std::vector<std::string> keys;
  std::unordered_map<std::string, Breaker> breakers;
  std::unordered_set<std::string> ledgered;
  if (quarantine_on) {
    keys.resize(jobs.size());
    std::unordered_map<std::string, std::string> by_design;  // path+mode -> key
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      std::string cache_id = jobs[i].design + (jobs[i].compiled ? "|c" : "|s") +
                             (jobs[i].stdlib ? "+l" : "");
      auto it = by_design.find(cache_id);
      if (it == by_design.end()) {
        it = by_design.emplace(cache_id, quarantine_key(jobs[i])).first;
      }
      keys[i] = it->second;
    }
    if (opts.resume) {
      for (const std::string& k : opts.resume->quarantined_keys) {
        breakers[k].tripped = true;
        ledgered.insert(k);
      }
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].phase != Slot::Phase::Terminal) continue;
        Breaker& b = breakers[keys[i]];
        switch (slots[i].record.state) {
          case JobState::Crashed:
          case JobState::ResourceExhausted:
            if (!b.tripped && ++b.consec >= opts.quarantine_after) b.tripped = true;
            break;
          case JobState::Done:
          case JobState::Violations:
          case JobState::InputError:
          case JobState::Degraded:
            b.consec = 0;
            break;
          default:  // Shed / Quarantined / Requeued leave the breaker alone
            break;
        }
      }
    }
  }

  unsigned running = 0;
  bool draining = false;

  // The seeded kill point for the kill/restart chaos tests: armed with
  // kill9, the daemon dies right after a journal append -- the exact
  // boundary the write-ahead discipline must make safe.
  auto chaos_point = [&] {
    if (opts.journal) (void)fault::should_fail("serve.kill9");
  };

  auto shutting_down = [&] { return opts.shutdown && *opts.shutdown != 0; };

  auto note = [&](const Slot& s, const char* what) {
    if (opts.verbose) {
      std::fprintf(stderr, "scaldtvd: job %s attempt %d: %s\n",
                   s.record.id.c_str(), s.record.attempts, what);
    }
  };

  auto settle = [&](Slot& s, JobState state) {
    s.phase = Slot::Phase::Terminal;
    s.record.state = state;
    --open_jobs;
    // Requeued is not terminal from the journal's point of view: a drained
    // job re-enters the queue on --resume, so journaling it as settled
    // would freeze the shutdown into the batch's durable state.
    if (opts.journal && state != JobState::Requeued) {
      opts.journal->record_settle(s.record.id, state);
      chaos_point();
    }
    if (opts.verbose) {
      std::fprintf(stderr, "scaldtvd: job %s -> %s after %d attempt(s)\n",
                   s.record.id.c_str(), job_state_name(state), s.record.attempts);
    }
    if (quarantine_on) {
      // Breaker transition. Per-key serialization makes "consecutive"
      // deterministic: same-key jobs settle in input order, so the count
      // a resumed batch re-derives matches the live one.
      Breaker& b = breakers[keys[static_cast<std::size_t>(&s - slots.data())]];
      switch (state) {
        case JobState::Crashed:
        case JobState::ResourceExhausted:
          if (!b.tripped && ++b.consec >= opts.quarantine_after) {
            b.tripped = true;
            const std::string& key = keys[static_cast<std::size_t>(&s - slots.data())];
            if (opts.journal && !ledgered.count(key)) {
              opts.journal->record_quarantine(key);
              ledgered.insert(key);
              chaos_point();
            }
            if (opts.verbose) {
              std::fprintf(stderr,
                           "scaldtvd: design key %s quarantined after %d "
                           "consecutive failures\n", key.c_str(), b.consec);
            }
          }
          break;
        case JobState::Done:
        case JobState::Violations:
        case JobState::InputError:
        case JobState::Degraded:
          b.consec = 0;
          break;
        default:  // Shed / Quarantined / Requeued leave the breaker alone
          break;
      }
    }
  };

  // A failed attempt either backs off for a retry or, with attempts
  // exhausted, settles the job as Crashed. Under drain there is no retry to
  // back off for: the job goes back to the queue as Requeued -- an attempt
  // the shutdown interrupted is the drain's fault, not the job's, so it
  // must not tip the job into Crashed.
  auto handle_transient = [&](Slot& s) {
    if (draining) {
      settle(s, JobState::Requeued);
      return;
    }
    if (s.record.attempts >= opts.max_attempts) {
      // Exhausted retries normally mean Crashed; when the final attempt
      // died to the memory watchdog (--mem-retry path) the budget, not a
      // crash, is the story -- mirror derive_settlement exactly.
      settle(s, (!s.record.outcomes.empty() && s.record.outcomes.back() == "mem-limit")
                    ? JobState::ResourceExhausted
                    : JobState::Crashed);
      return;
    }
    std::uint64_t delay = backoff_delay_ms(opts, s.record.id, s.record.attempts);
    s.phase = Slot::Phase::Delayed;
    s.retry_at = Clock::now() + std::chrono::milliseconds(delay);
  };

  // Appends the just-recorded outcome (record.outcomes.back()) to the
  // journal. Called at every point an attempt's result becomes known.
  auto journal_outcome = [&](Slot& s) {
    if (opts.journal) {
      opts.journal->record_outcome(s.record.id, s.record.attempts,
                                   s.record.outcomes.back());
      chaos_point();
    }
  };

  auto launch = [&](Slot& s) {
    ++s.record.attempts;
    // Write-ahead: the intent to launch is durable before any process
    // exists, so a daemon killed mid-launch re-runs the same attempt
    // number on resume instead of silently skipping it.
    if (opts.journal) {
      opts.journal->record_launch(s.record.id, s.record.attempts);
      chaos_point();
    }
    if (fault::should_fail("serve.spawn")) {
      s.record.outcomes.push_back("spawn-failed");
      journal_outcome(s);
      note(s, "injected spawn failure");
      handle_transient(s);
      return;
    }
    pid_t pid = backend.launch(*s.job, s.record.attempts);
    if (pid < 0) {
      s.record.outcomes.push_back("spawn-failed");
      journal_outcome(s);
      note(s, "fork failed");
      handle_transient(s);
      return;
    }
    s.phase = Slot::Phase::Running;
    s.pid = pid;
    s.killed_by_watchdog = false;
    s.killed_by_memlimit = false;
    double timeout = s.job->time_limit > 0
                         ? s.job->time_limit + opts.watchdog_slack
                         : opts.default_timeout;
    s.watchdog = timeout > 0;
    if (s.watchdog) {
      s.kill_at = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(timeout));
    }
    ++running;
    note(s, "launched");
  };

  auto reap = [&](Slot& s, const WorkerPoll& p) {
    s.pid = -1;
    --running;
    if (s.killed_by_memlimit) {
      // The memory watchdog's kill wins the classification no matter how
      // the worker actually died (it may have exited in the race window
      // between the RSS sample and the SIGKILL landing): once the budget
      // was observed breached, the deterministic outcome is "mem-limit".
      s.record.outcomes.push_back("mem-limit");
      journal_outcome(s);
      note(s, "memory budget breached");
      if (opts.mem_retry) {
        handle_transient(s);
      } else {
        settle(s, JobState::ResourceExhausted);
      }
      return;
    }
    if (p.kind == WorkerPoll::Kind::Signaled) {
      if (s.killed_by_watchdog) {
        s.record.outcomes.push_back("timeout");
        journal_outcome(s);
        note(s, "watchdog timeout");
      } else {
        s.record.outcomes.push_back("signal:" + std::to_string(p.value));
        journal_outcome(s);
        note(s, "died by signal");
      }
      handle_transient(s);
      return;
    }
    int code = p.value;
    s.record.outcomes.push_back("exit:" + std::to_string(code));
    journal_outcome(s);
    switch (code) {
      case 0: settle(s, JobState::Done); return;
      case 1: settle(s, JobState::Violations); return;
      case 3: settle(s, JobState::Degraded); return;
      case 5:
        note(s, "transient failure");
        handle_transient(s);
        return;
      // 2 (input error) and 127 (exec failure: bad scaldtv path) are
      // permanent -- retrying cannot fix a bad design or a missing binary.
      default: settle(s, JobState::InputError); return;
    }
  };

  // Bounded admission: with --max-queue N, only the first N jobs by input
  // order are admitted; the rest settle (and journal) as Shed before the
  // scheduler ever sees them. Input order -- not runtime scheduling --
  // decides, so two runs of the batch (or a crash + --resume) shed the
  // exact same jobs. Slots already terminal from replay keep their state.
  if (opts.max_queue > 0) {
    for (std::size_t i = static_cast<std::size_t>(opts.max_queue);
         i < slots.size() && open_jobs > 0; ++i) {
      if (slots[i].phase != Slot::Phase::Terminal) {
        settle(slots[i], JobState::Shed);
      }
    }
  }

  // With the breaker enabled, a slot may only launch once every earlier
  // same-key slot is terminal: per-key settle order becomes input order,
  // which is what makes "K consecutive failures" (and therefore the
  // quarantine decision) independent of worker scheduling.
  auto key_blocked = [&](std::size_t i) {
    if (!quarantine_on) return false;
    for (std::size_t j = 0; j < i; ++j) {
      if (keys[j] == keys[i] && slots[j].phase != Slot::Phase::Terminal) return true;
    }
    return false;
  };

  // Adaptive poll cadence: a fixed sleep per iteration caps throughput at
  // workers / sleep regardless of how fast jobs actually finish (with warm
  // workers a job can complete in under a millisecond). After a productive
  // iteration -- a reap or a launch -- poll again immediately; only when
  // nothing moves does the sleep escalate back to the 10 ms idle cadence.
  unsigned idle_ms = 0;
  while (open_jobs > 0) {
    if (shutting_down() && !draining) {
      draining = true;
      if (opts.verbose) {
        std::fprintf(stderr, "scaldtvd: shutdown requested; draining %u running "
                             "worker(s), requeueing the rest\n", running);
      }
    }
    if (opts.journal && !opts.journal->ok() && !draining) {
      // The write-ahead journal latched a failed append (disk full, device
      // gone). Running blind would silently void the durability contract,
      // so wind down exactly like a shutdown: running workers finish, the
      // rest requeue, and scaldtvd exits loudly -- the on-disk journal is
      // still a clean prefix that --resume can replay once space returns.
      draining = true;
      std::fprintf(stderr, "scaldtvd: %s; draining (batch stays resumable)\n",
                   opts.journal->error().c_str());
    }
    Clock::time_point now = Clock::now();
    std::size_t settled_before = open_jobs;
    unsigned launched_before = running;

    for (std::size_t i = 0; i < slots.size(); ++i) {
      Slot& s = slots[i];
      switch (s.phase) {
        case Slot::Phase::Running: {
          WorkerPoll p = backend.poll(s.pid);
          if (p.kind != WorkerPoll::Kind::Running) {
            reap(s, p);
          } else if (s.watchdog && !s.killed_by_watchdog && !s.killed_by_memlimit &&
                     now >= s.kill_at) {
            s.killed_by_watchdog = true;
            backend.kill_worker(s.pid);
          } else if (opts.mem_limit_mb > 0 && !s.killed_by_memlimit &&
                     !s.killed_by_watchdog) {
            long rss = worker_rss_bytes(s.pid);
            if (rss > opts.mem_limit_mb * (1l << 20)) {
              s.killed_by_memlimit = true;
              backend.kill_worker(s.pid);
            }
          }
          break;
        }
        case Slot::Phase::Delayed:
          if (draining) {
            settle(s, JobState::Requeued);
          } else if (now >= s.retry_at && running < opts.workers && !key_blocked(i)) {
            launch(s);
          }
          break;
        case Slot::Phase::Pending:
          if (draining) {
            settle(s, JobState::Requeued);
          } else if (quarantine_on && s.record.attempts == 0 &&
                     breakers[keys[i]].tripped) {
            // Fast-fail: the design's breaker is tripped and this job has
            // never run, so it is spared its max_attempts * timeout burn.
            // Jobs with prior attempts (resume) keep their retry budget.
            settle(s, JobState::Quarantined);
          } else if (running < opts.workers && !key_blocked(i)) {
            launch(s);
          }
          break;
        case Slot::Phase::Terminal:
          break;
      }
      if (open_jobs == 0) break;
    }

    bool progressed = open_jobs < settled_before || running != launched_before;
    if (progressed) {
      idle_ms = 0;
    } else if (open_jobs > 0) {
      idle_ms = idle_ms == 0 ? 1 : std::min(idle_ms * 2, 10u);
      std::this_thread::sleep_for(std::chrono::milliseconds(idle_ms));
    }
  }

  Manifest m;
  m.jobs.reserve(slots.size());
  for (Slot& s : slots) m.jobs.push_back(std::move(s.record));
  m.evictions = backend.evictions();
  m.durability_degraded = backend.durability_degraded();
  return m;
}

Manifest run_jobs(const std::vector<JobSpec>& jobs, const SupervisorOptions& opts) {
  std::unique_ptr<WorkerBackend> backend = make_warm_pool_backend(opts);
  return run_jobs(jobs, opts, *backend);
}

}  // namespace tv::serve
