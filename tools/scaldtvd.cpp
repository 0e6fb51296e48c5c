// scaldtvd -- batch/daemon front end for the SCALD Timing Verifier.
//
// Runs a queue of verification jobs on a pool of crash-isolated resident
// worker processes (serve/warm_pool.hpp: one per design, forked from the
// daemon, design loaded once) and writes a byte-stable JSON run manifest.
// Jobs come from newline-JSON job files (one object per line; see
// docs/serving.md) given on the command line, and/or from a watched
// directory of *.jobs files in --watch mode.
//
// Usage:
//   scaldtvd [options] <jobs-file>...
//     --watch DIR        poll DIR for *.jobs files; each file is one batch,
//                        renamed to *.jobs.done (or *.jobs.failed) after its
//                        manifest is written next to it as *.manifest.json
//     --workers N        max jobs in flight (default 1)
//     --max-attempts N   worker launches per job before it is declared
//                        crashed (default 3)
//     --backoff-ms N     first retry delay (default 100)
//     --backoff-max-ms N retry delay cap (default 5000)
//     --job-timeout S    watchdog for jobs without a time_limit, and the
//                        slack added on top of a job's time_limit budget
//                        before the watchdog SIGKILLs it (default 2.0 slack,
//                        no default watchdog)
//     --manifest FILE    write the run manifest here (default stdout)
//     --journal FILE     write-ahead job journal (docs/recovery.md): every
//                        launch/outcome/settle transition is appended and
//                        fsync'd before the batch proceeds, so a killed
//                        daemon can be restarted with --resume. Command-line
//                        batches only (not --watch)
//     --resume           replay FILE (from --journal) before running: jobs
//                        whose journaled attempts already settle them are
//                        carried into the manifest without relaunching, the
//                        rest re-enter the queue where they left off. The
//                        resumed manifest is byte-identical to the one an
//                        uninterrupted run would have written. A missing
//                        journal file is a fresh start, so "--journal J
//                        --resume" is idempotent across any number of kills
//     --fault SPEC       daemon-level fault plan: applied to scaldtvd's own
//                        io.read/serve.spawn sites AND injected into every
//                        worker that has no job-level fault of its own
//     --seed N           keys the deterministic retry jitter (default 0)
//     --max-resident N   bound the worker pool: keep at most N idle resident
//                        workers, retiring the least-recently-used past the
//                        cap (the manifest's "evictions" field counts the
//                        retirements). Capped workers persist each design's
//                        fixpoint snapshot (<design>.tvf), so a re-spawned
//                        worker warm-starts from the sidecar instead of
//                        re-verifying cold
//     --mem-limit-mb N   per-job memory budget (docs/serving.md): an RSS
//                        watchdog samples /proc/<pid>/statm and SIGKILLs a
//                        worker past N MiB; the breach settles the job as
//                        "resource-exhausted" (exit 6), never an anonymous
//                        crash. Workers also run under an RLIMIT_DATA
//                        backstop of 4N + 256 MiB
//     --mem-retry        treat mem-limit breaches as transient: retry up to
//                        --max-attempts, settling resource-exhausted only if
//                        the final attempt still breaches
//     --max-queue N      bounded admission: only the first N jobs (input
//                        order) are admitted; the rest settle as "shed"
//                        (exit 7) without running
//     --quarantine-after K
//                        poison-design breaker: after K consecutive
//                        crashed/resource-exhausted settlements of one
//                        design (keyed by artifact content hash + front-end
//                        mode), fast-fail its remaining jobs as
//                        "quarantined" (exit 8). Jobs sharing a design are
//                        serialized so "consecutive" is deterministic
//     --no-quarantine    force the breaker off (overrides --quarantine-after)
//     -v                 per-attempt progress on stderr
//
// Exit status: worst terminal job state across all batches --
//   0 all clean, 1 violations, 2 input errors (bad job file or design),
//   3 degraded, 4 at least one job crashed after all retries,
//   6 resource-exhausted, 7 shed, 8 quarantined
//   (precedence 2 > 4 > 6 > 8 > 7 > 3 > 1 > 0).
// Requeued jobs (graceful shutdown) do not affect the exit status.
//
// SIGTERM/SIGINT trigger a graceful shutdown: running workers drain (their
// watchdogs stay armed), pending and backing-off jobs are recorded as
// "requeued" in the manifest, and the daemon exits.
#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "serve/job.hpp"
#include "serve/journal.hpp"
#include "serve/manifest.hpp"
#include "serve/supervisor.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"

namespace {

volatile std::sig_atomic_t g_shutdown = 0;

void on_signal(int) { g_shutdown = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: scaldtvd [--watch DIR] [--workers N] [--max-attempts N] "
               "[--backoff-ms N] [--backoff-max-ms N] [--job-timeout S] "
               "[--manifest FILE] [--journal FILE] [--resume] "
               "[--fault SPEC] [--seed N] [--max-resident N] "
               "[--mem-limit-mb N] [--mem-retry] [--max-queue N] "
               "[--quarantine-after K] [--no-quarantine] [-v] "
               "<jobs-file>...\n");
  return 2;
}

bool write_manifest(const tv::serve::Manifest& m, const char* path) {
  if (!path) {
    std::fputs(m.to_json().c_str(), stdout);
    return true;
  }
  std::string error;
  if (!tv::util::atomic_write_file(path, m.to_json(), &error)) {
    std::fprintf(stderr, "scaldtvd: cannot write %s (%s)\n", path, error.c_str());
    return false;
  }
  return true;
}

bool has_suffix(const std::string& s, const char* suffix) {
  std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/// One pass over the watch directory: returns the sorted list of ready
/// *.jobs files (sorted so pickup order is deterministic).
std::vector<std::string> scan_watch_dir(const std::string& dir) {
  std::vector<std::string> found;
  DIR* d = opendir(dir.c_str());
  if (!d) return found;
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    if (has_suffix(name, ".jobs")) found.push_back(dir + "/" + name);
  }
  closedir(d);
  std::sort(found.begin(), found.end());
  return found;
}

}  // namespace

int main(int argc, char** argv) {
  tv::fault::configure_from_env();

  tv::serve::SupervisorOptions opts;
  opts.shutdown = &g_shutdown;
  const char* watch_dir = nullptr;
  const char* manifest_path = nullptr;
  const char* journal_path = nullptr;
  bool resume = false;
  bool no_quarantine = false;
  std::vector<std::string> job_files;
  for (int i = 1; i < argc; ++i) {
    auto long_num = [&](const char* flag, long lo, long& out) {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return false;
      char* end = nullptr;
      out = std::strtol(argv[++i], &end, 10);
      if (!end || *end != '\0' || out < lo) out = lo - 1;
      return true;
    };
    long n = 0;
    if (std::strcmp(argv[i], "--watch") == 0 && i + 1 < argc) {
      watch_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--manifest") == 0 && i + 1 < argc) {
      manifest_path = argv[++i];
    } else if (std::strcmp(argv[i], "--journal") == 0 && i + 1 < argc) {
      journal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--fault") == 0 && i + 1 < argc) {
      std::string error;
      opts.fault_spec = argv[++i];
      if (!tv::fault::configure(opts.fault_spec, &error)) {
        std::fprintf(stderr, "scaldtvd: %s\n", error.c_str());
        return usage();
      }
    } else if (long_num("--workers", 1, n)) {
      if (n < 1) return usage();
      opts.workers = static_cast<unsigned>(n);
    } else if (long_num("--max-attempts", 1, n)) {
      if (n < 1) return usage();
      opts.max_attempts = static_cast<int>(n);
    } else if (long_num("--backoff-ms", 0, n)) {
      if (n < 0) return usage();
      opts.backoff_base_ms = static_cast<std::uint64_t>(n);
    } else if (long_num("--backoff-max-ms", 0, n)) {
      if (n < 0) return usage();
      opts.backoff_max_ms = static_cast<std::uint64_t>(n);
    } else if (long_num("--seed", 0, n)) {
      if (n < 0) return usage();
      opts.jitter_seed = static_cast<std::uint64_t>(n);
    } else if (std::strcmp(argv[i], "--job-timeout") == 0 && i + 1 < argc) {
      char* end = nullptr;
      double v = std::strtod(argv[++i], &end);
      if (!end || *end != '\0' || v <= 0) return usage();
      opts.default_timeout = v;
      opts.watchdog_slack = v;
    } else if (long_num("--max-resident", 1, n)) {
      if (n < 1) return usage();
      opts.max_resident = static_cast<std::size_t>(n);
    } else if (long_num("--mem-limit-mb", 1, n)) {
      if (n < 1) return usage();
      opts.mem_limit_mb = n;
    } else if (std::strcmp(argv[i], "--mem-retry") == 0) {
      opts.mem_retry = true;
    } else if (long_num("--max-queue", 1, n)) {
      if (n < 1) return usage();
      opts.max_queue = n;
    } else if (long_num("--quarantine-after", 1, n)) {
      if (n < 1) return usage();
      if (!no_quarantine) opts.quarantine_after = static_cast<int>(n);
    } else if (std::strcmp(argv[i], "--no-quarantine") == 0) {
      no_quarantine = true;
      opts.quarantine_after = 0;
    } else if (std::strcmp(argv[i], "-v") == 0 || std::strcmp(argv[i], "--verbose") == 0) {
      opts.verbose = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else {
      job_files.push_back(argv[i]);
    }
  }
  if (job_files.empty() && !watch_dir) return usage();
  if (resume && !journal_path) {
    std::fprintf(stderr, "scaldtvd: --resume requires --journal FILE\n");
    return usage();
  }
  if (journal_path && (watch_dir || job_files.empty())) {
    std::fprintf(stderr, "scaldtvd: --journal applies to command-line batches only\n");
    return usage();
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  // A dying worker closing its pipe end must not kill the daemon.
  std::signal(SIGPIPE, SIG_IGN);

  int worst = 0;
  auto fold = [&](int code) {
    // Worst-wins precedence: 2 > 4 > 6 > 8 > 7 > 3 > 1 > 0.
    static const int rank[] = {0, 2, 8, 3, 7, 1, 6, 4, 5};
    auto r = [](int c) { return (c >= 0 && c <= 8) ? rank[c] : 8; };
    if (r(code) > r(worst)) worst = code;
  };

  // Command-line batches first: all named job files load up front so a bad
  // file fails the run before any worker launches.
  if (!job_files.empty()) {
    std::vector<tv::serve::JobSpec> jobs;
    for (const std::string& file : job_files) {
      std::string error;
      auto batch = tv::serve::parse_job_file(file, &error);
      if (!batch) {
        std::fprintf(stderr, "scaldtvd: %s\n", error.c_str());
        return 2;
      }
      for (auto& j : *batch) jobs.push_back(std::move(j));
    }
    std::unique_ptr<tv::serve::Journal> journal;
    tv::serve::JournalReplay replay;
    tv::serve::BatchPolicy policy;
    policy.mem_limit_mb = opts.mem_limit_mb;
    policy.mem_retry = opts.mem_retry;
    policy.max_queue = opts.max_queue;
    policy.quarantine_after = opts.quarantine_after;
    if (journal_path) {
      std::string jerror;
      bool journal_exists = access(journal_path, F_OK) == 0;
      if (resume && journal_exists) {
        // A journal file with no newline at all -- empty, or one torn
        // header line -- is the only artifact of a crash during the very
        // first append. Nothing durable was recorded, so it is a fresh
        // start, which keeps "--journal J --resume" idempotent even when
        // the first kill lands inside the header write.
        std::ifstream jin(journal_path, std::ios::binary);
        std::stringstream jbuf;
        jbuf << jin.rdbuf();
        journal_exists = jbuf.str().find('\n') != std::string::npos;
      }
      if (resume && journal_exists) {
        auto replayed = tv::serve::replay_journal(journal_path, &jerror);
        if (!replayed) {
          std::fprintf(stderr, "scaldtvd: %s\n", jerror.c_str());
          return 2;
        }
        // The journal must describe *this* batch: replaying one batch's
        // attempts into a different job list (or under a different retry /
        // overload policy) would fabricate results.
        if (replayed->digest != tv::serve::jobs_digest(jobs) ||
            replayed->num_jobs != jobs.size() ||
            replayed->seed != opts.jitter_seed ||
            replayed->max_attempts != opts.max_attempts ||
            replayed->policy.mem_limit_mb != policy.mem_limit_mb ||
            replayed->policy.mem_retry != policy.mem_retry ||
            replayed->policy.max_queue != policy.max_queue ||
            replayed->policy.quarantine_after != policy.quarantine_after) {
          std::fprintf(stderr,
                       "scaldtvd: %s was written for a different batch or "
                       "retry configuration; refusing to resume\n", journal_path);
          return 2;
        }
        replay = std::move(*replayed);
        opts.resume = &replay;
        journal = tv::serve::Journal::reopen(journal_path, &jerror);
      } else {
        journal = tv::serve::Journal::create(journal_path, jobs, opts.jitter_seed,
                                             opts.max_attempts, policy, &jerror);
      }
      if (!journal) {
        std::fprintf(stderr, "scaldtvd: %s\n", jerror.c_str());
        return 2;
      }
      opts.journal = journal.get();
    }
    tv::serve::Manifest m = tv::serve::run_jobs(jobs, opts);
    if (journal && !journal->ok()) {
      // The batch itself finished, but its durable record is broken: a
      // later --resume would replay a lie. Loud failure beats that.
      std::fprintf(stderr, "scaldtvd: %s\n", journal->error().c_str());
      fold(2);
    }
    if (!write_manifest(m, manifest_path)) return 2;
    fold(m.exit_code());
  }

  // Watch mode: poll for *.jobs batches until shutdown. Each batch gets its
  // own manifest written next to it; the batch file is renamed so it is
  // never picked up twice (rename is atomic on the same filesystem).
  while (watch_dir && !g_shutdown) {
    for (const std::string& file : scan_watch_dir(watch_dir)) {
      if (g_shutdown) break;
      std::string error;
      auto batch = tv::serve::parse_job_file(file, &error);
      std::string base = file.substr(0, file.size() - std::strlen(".jobs"));
      if (!batch) {
        std::fprintf(stderr, "scaldtvd: %s\n", error.c_str());
        std::rename(file.c_str(), (file + ".failed").c_str());
        fold(2);
        continue;
      }
      tv::serve::Manifest m = tv::serve::run_jobs(*batch, opts);
      std::string werror;
      if (!tv::util::atomic_write_file(base + ".manifest.json", m.to_json(), &werror)) {
        std::fprintf(stderr, "scaldtvd: cannot write %s.manifest.json (%s)\n",
                     base.c_str(), werror.c_str());
      }
      std::rename(file.c_str(), (file + ".done").c_str());
      fold(m.exit_code());
      if (opts.verbose) {
        std::fprintf(stderr, "scaldtvd: batch %s done (exit %d)\n", file.c_str(),
                     m.exit_code());
      }
    }
    if (!g_shutdown) usleep(200 * 1000);
  }

  return worst;
}
