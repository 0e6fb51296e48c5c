#include "check/serve_chaos.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <random>
#include <sstream>
#include <vector>

#include "check/fork_exec_reference.hpp"
#include "check/parser_fuzz.hpp"
#include "serve/job.hpp"
#include "serve/supervisor.hpp"
#include "util/json.hpp"

namespace tv::check {

namespace {

struct PlannedJob {
  std::string id;
  std::string design_file;
  std::string fault;       // empty = clean
  int fault_attempts = 0;  // 0 = every attempt
  bool transient = false;  // fault fires on attempt 1 only: must recover
  bool permanent = false;  // fault fires on every attempt: must crash
};

struct ManifestRecord {
  std::string id;
  std::string state;
  int attempts = 0;
};

/// Pulls the job records back out of a manifest; an unreadable manifest
/// yields no records.
std::vector<ManifestRecord> scan_manifest(const std::string& text) {
  std::vector<ManifestRecord> out;
  json::Value root;
  const json::Value* jobs = json::parse(text, root, nullptr) ? root.get("jobs") : nullptr;
  if (!jobs) return out;
  for (const json::Value& job : jobs->arr) {
    ManifestRecord r;
    if (const json::Value* id = job.get("id")) r.id = id->str;
    if (const json::Value* state = job.get("state")) r.state = state->str;
    if (const json::Value* attempts = job.get("attempts")) {
      r.attempts = static_cast<int>(attempts->as_int64().value_or(0));
    }
    out.push_back(std::move(r));
  }
  return out;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Launches the daemon, delivers SIGTERM after `sigterm_after_ms`, and
/// returns its exit code (-1 on signal death or a wedged shutdown).
int run_daemon_with_sigterm(const std::vector<std::string>& args,
                            int sigterm_after_ms, bool verbose) {
  pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    if (!verbose) {
      if (FILE* devnull = std::fopen("/dev/null", "w")) {
        dup2(fileno(devnull), STDERR_FILENO);
      }
    }
    execv(argv[0], argv.data());
    _exit(127);
  }
  usleep(static_cast<useconds_t>(sigterm_after_ms) * 1000);
  kill(pid, SIGTERM);
  // The drain should finish within a watchdog period; give it 30s before
  // declaring the shutdown wedged.
  for (int waited_ms = 0; waited_ms < 30000; waited_ms += 20) {
    int status = 0;
    pid_t r = waitpid(pid, &status, WNOHANG);
    if (r == pid) return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    usleep(20 * 1000);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  return -1;
}

/// Supervisor options shaped like `scaldtvd --workers W --max-attempts 3
/// --backoff-ms 10 --backoff-max-ms 50 --job-timeout T --seed S`.
serve::SupervisorOptions chaos_supervisor(unsigned workers, double job_timeout,
                                          std::uint64_t seed) {
  serve::SupervisorOptions so;
  so.workers = workers;
  so.max_attempts = 3;
  so.backoff_base_ms = 10;
  so.backoff_max_ms = 50;
  so.default_timeout = job_timeout;  // --job-timeout sets both
  so.watchdog_slack = job_timeout;
  so.jitter_seed = seed % 1000000;
  return so;
}

/// The scaldtvd flags that configure its supervisor exactly as `so`. The
/// scenarios that diff the daemon against the fork/exec reference derive
/// both runs from one SupervisorOptions, so the two cannot drift apart.
std::string daemon_flags(const serve::SupervisorOptions& so) {
  char timeout[32];
  std::snprintf(timeout, sizeof timeout, "%g", so.default_timeout);
  std::string f = "--workers " + std::to_string(so.workers) +
                  " --max-attempts " + std::to_string(so.max_attempts) +
                  " --backoff-ms " + std::to_string(so.backoff_base_ms) +
                  " --backoff-max-ms " + std::to_string(so.backoff_max_ms) +
                  " --job-timeout " + timeout + " --seed " + std::to_string(so.jitter_seed);
  if (so.mem_limit_mb > 0) f += " --mem-limit-mb " + std::to_string(so.mem_limit_mb);
  if (so.mem_retry) f += " --mem-retry";
  return f;
}

/// The manifest the fork/exec reference writes for `jobs_path` under `so`,
/// run in this process on opts.scaldtv_path workers ("" when the file does
/// not parse). Worker stderr is silenced unless opts.verbose, matching the
/// daemon runs' 2>/dev/null.
std::string reference_manifest(const std::string& jobs_path, const ServeChaosOptions& opts,
                               const serve::SupervisorOptions& so) {
  std::optional<std::vector<serve::JobSpec>> jobs = serve::parse_job_file(jobs_path, nullptr);
  if (!jobs) return "";
  int saved_stderr = -1;
  if (!opts.verbose) {
    std::fflush(stderr);
    saved_stderr = dup(STDERR_FILENO);
    int devnull = open("/dev/null", O_WRONLY);
    if (devnull >= 0) {
      dup2(devnull, STDERR_FILENO);
      close(devnull);
    }
  }
  ForkExecReference reference(opts.scaldtv_path, so);
  std::string manifest = serve::run_jobs(*jobs, so, reference).to_json();
  if (saved_stderr >= 0) {
    dup2(saved_stderr, STDERR_FILENO);
    close(saved_stderr);
  }
  return manifest;
}

}  // namespace

std::optional<ServeChaosFailure> check_serve_chaos(const ServeChaosOptions& opts) {
  auto fail = [](std::string kind, std::string detail) {
    return ServeChaosFailure{std::move(kind), std::move(detail)};
  };
  if (opts.scaldtvd_path.empty()) {
    return fail("bad-config", "--serve-chaos needs the scaldtvd path (TV_SCALDTVD)");
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/serve-chaos-XXXXXX";
  std::vector<char> dirbuf(dir.begin(), dir.end());
  dirbuf.push_back('\0');
  if (!mkdtemp(dirbuf.data())) return fail("bad-config", "mkdtemp failed");
  dir.assign(dirbuf.data());

  // Plan the batch: ~40% of jobs faulted. Transient faults (read failure,
  // mid-eval abort, mid-eval hang, failed intern) fire on attempt 1 only,
  // so the job must recover with attempts >= 2; one job aborts on every
  // attempt and must exhaust its retries into state "crashed".
  std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ull + 17);
  // Every spec fires at hit 1: the generated designs are small (one to a
  // few primitives), so higher hit counts may never be reached and an
  // unfired fault would make the attempts>=2 assertion vacuously fail.
  const char* transient_faults[] = {
      "io.read@1:fail",
      "evaluator.eval@1:abort",
      "evaluator.eval@1:hang",
      "wave_table.intern@1:fail",
  };
  std::vector<PlannedJob> plan;
  std::vector<std::string> cleanup;
  int hangs = 0;
  for (int i = 0; i < opts.jobs; ++i) {
    PlannedJob j;
    char id[32];
    std::snprintf(id, sizeof id, "job-%03d", i);
    j.id = id;
    j.design_file = dir + "/design_" + std::to_string(i) + ".shdl";
    std::ofstream out(j.design_file);
    out << seed_design(static_cast<std::size_t>(rng() % seed_design_count()));
    out.close();
    cleanup.push_back(j.design_file);
    if (i == 0) {
      // The guaranteed permanent crasher: aborts on every attempt.
      j.fault = "evaluator.eval@1:abort";
      j.permanent = true;
    } else if (rng() % 100 < 40) {
      std::size_t pick = rng() % std::size(transient_faults);
      // Hung workers cost a full watchdog period per attempt; cap them so
      // the smoke run stays fast.
      if (pick == 2 && ++hangs > 2) pick = 1;
      j.fault = transient_faults[pick];
      j.fault_attempts = 1;
      j.transient = true;
    }
    plan.push_back(std::move(j));
  }

  std::string jobs_path = dir + "/batch.jobs";
  {
    std::ofstream out(jobs_path);
    for (const PlannedJob& j : plan) {
      out << "{\"id\": \"" << j.id << "\", \"design\": \"" << j.design_file << "\"";
      if (!j.fault.empty()) {
        out << ", \"fault\": \"" << j.fault << "\", \"fault_attempts\": "
            << j.fault_attempts;
      }
      out << "}\n";
    }
  }
  cleanup.push_back(jobs_path);

  // Two identical runs: the second exists purely to check byte-stability of
  // the manifest (same batch + same seed must replay identically).
  std::string manifests[2];
  for (int run = 0; run < 2; ++run) {
    std::string manifest_path = dir + "/run" + std::to_string(run) + ".manifest.json";
    std::string cmd = "'" + opts.scaldtvd_path +
                      "' --workers 4 --max-attempts 3 --backoff-ms 10 "
                      "--backoff-max-ms 50 --job-timeout 1 --seed " +
                      std::to_string(opts.seed % 1000000) + " --manifest '" +
                      manifest_path + "' '" + jobs_path + "'";
    if (!opts.verbose) cmd += " 2>/dev/null";
    int status = std::system(cmd.c_str());
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    // Exactly one job (job-000) crashes permanently, so the daemon must
    // report the crashed-after-retries code.
    if (code != 4) {
      return fail("bad-exit-code", "expected daemon exit 4 (crashed job), got " +
                                       std::to_string(code) + "; work dir kept at " + dir);
    }
    manifests[run] = read_file(manifest_path);
    cleanup.push_back(manifest_path);
  }
  if (manifests[0] != manifests[1]) {
    return fail("manifest-unstable",
                "two identical runs produced different manifests; work dir kept at " + dir);
  }

  std::vector<ManifestRecord> records = scan_manifest(manifests[0]);
  if (records.size() != plan.size()) {
    return fail("job-lost", "planned " + std::to_string(plan.size()) + " jobs, manifest has " +
                                std::to_string(records.size()) + "; work dir kept at " + dir);
  }
  for (const PlannedJob& j : plan) {
    const ManifestRecord* rec = nullptr;
    int copies = 0;
    for (const ManifestRecord& r : records) {
      if (r.id == j.id) {
        rec = &r;
        ++copies;
      }
    }
    if (copies != 1) {
      return fail(copies ? "job-duplicated" : "job-lost",
                  "job " + j.id + " appears " + std::to_string(copies) +
                      " time(s) in the manifest; work dir kept at " + dir);
    }
    if (rec->state == "requeued" || rec->state == "unknown") {
      return fail("job-not-terminal", "job " + j.id + " ended in non-terminal state \"" +
                                          rec->state + "\"; work dir kept at " + dir);
    }
    if (j.permanent && rec->state != "crashed") {
      return fail("crash-not-detected",
                  "permanently-aborting job " + j.id + " ended \"" + rec->state +
                      "\" instead of \"crashed\"; work dir kept at " + dir);
    }
    if (j.permanent && rec->attempts != 3) {
      return fail("retry-invisible", "crashed job " + j.id + " shows " +
                                         std::to_string(rec->attempts) +
                                         " attempts, expected 3; work dir kept at " + dir);
    }
    if (j.transient) {
      if (rec->state == "crashed") {
        return fail("retry-failed", "attempt-1-only fault on job " + j.id +
                                        " still crashed the job; work dir kept at " + dir);
      }
      if (rec->attempts < 2) {
        return fail("retry-invisible",
                    "job " + j.id + " recovered but the manifest shows only " +
                        std::to_string(rec->attempts) +
                        " attempt(s); work dir kept at " + dir);
      }
    }
    if (!j.permanent && !j.transient &&
        rec->state != "done" && rec->state != "violations") {
      return fail("clean-job-failed", "unfaulted job " + j.id + " ended \"" + rec->state +
                                          "\"; work dir kept at " + dir);
    }
  }

  for (const std::string& f : cleanup) std::remove(f.c_str());
  rmdir(dir.c_str());
  return std::nullopt;
}

std::optional<ServeChaosFailure> check_reverify_chaos(const ServeChaosOptions& opts) {
  auto fail = [](std::string kind, std::string detail) {
    return ServeChaosFailure{std::move(kind), std::move(detail)};
  };
  if (opts.scaldtvd_path.empty() || opts.scaldtv_path.empty()) {
    return fail("bad-config", "reverify chaos needs scaldtvd and scaldtv paths "
                              "(TV_SCALDTVD / TV_SCALDTV)");
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/serve-reverify-XXXXXX";
  std::vector<char> dirbuf(dir.begin(), dir.end());
  dirbuf.push_back('\0');
  if (!mkdtemp(dirbuf.data())) return fail("bad-config", "mkdtemp failed");
  dir.assign(dirbuf.data());

  // One shared design: every job hits the same warm-pool key, so a faulted
  // reverify attempt shares its resident worker with the clean jobs around
  // it -- exactly the corruption surface this scenario probes.
  std::string design_file = dir + "/design.shdl";
  {
    std::ofstream out(design_file);
    out << seed_design(0);  // TINY: prims reg#0, setup_hold#1; signals D/CK/Q
  }
  std::vector<std::string> cleanup{design_file};

  // Three edit scripts against TINY, one per delta family the worker path
  // exercises (parameter, wire, checker-parameter).
  const struct { const char* name; const char* json; } deltas[] = {
      {"delay.json", "{\"prims\": [{\"prim\": \"reg#0\", \"dmin\": 1.5, \"dmax\": 5.0}]}\n"},
      {"wire.json", "{\"wires\": [{\"signal\": \"Q\", \"dmin\": 0.0, \"dmax\": 1.0}]}\n"},
      {"chk.json", "{\"prims\": [{\"prim\": \"setup_hold#1\", \"setup\": 3.0, \"hold\": 1.5}]}\n"},
  };
  std::vector<std::string> delta_paths;
  for (const auto& d : deltas) {
    std::string path = dir + "/" + d.name;
    std::ofstream out(path);
    out << d.json;
    delta_paths.push_back(path);
    cleanup.push_back(path);
  }

  // The batch: job 0 aborts inside apply_delta on every attempt (must
  // crash); jobs 1-2 abort once at the two incremental fault sites (must
  // recover, attempts >= 2); the rest alternate clean reverifies over the
  // delta families with plain verifies of the same design.
  struct RJob {
    std::string id;
    int delta = -1;            // index into delta_paths, -1 = plain verify
    std::string fault;
    int fault_attempts = 0;
    bool transient = false;
    bool permanent = false;
  };
  std::vector<RJob> plan;
  for (int i = 0; i < 8; ++i) {
    RJob j;
    char id[32];
    std::snprintf(id, sizeof id, "rev-%03d", i);
    j.id = id;
    if (i == 0) {
      j.delta = 0;
      j.fault = "incremental.apply@1:abort";
      j.permanent = true;
    } else if (i == 1) {
      j.delta = 1;
      j.fault = "incremental.apply@1:abort";
      j.fault_attempts = 1;
      j.transient = true;
    } else if (i == 2) {
      j.delta = 2;
      j.fault = "incremental.cone@1:abort";
      j.fault_attempts = 1;
      j.transient = true;
    } else {
      j.delta = (i % 2) ? (i / 2) % 3 : -1;
    }
    plan.push_back(std::move(j));
  }

  std::string jobs_path = dir + "/reverify.jobs";
  {
    std::ofstream out(jobs_path);
    for (const RJob& j : plan) {
      out << "{\"id\": \"" << j.id << "\", \"design\": \"" << design_file << "\"";
      if (j.delta >= 0) out << ", \"reverify\": \"" << delta_paths[j.delta] << "\"";
      if (!j.fault.empty()) {
        out << ", \"fault\": \"" << j.fault << "\", \"fault_attempts\": "
            << j.fault_attempts;
      }
      out << "}\n";
    }
  }
  cleanup.push_back(jobs_path);

  // Two daemon runs for byte-stability, then the fork/exec reference under
  // the same options: the warm pool's resident fixpoint (restored by the
  // inverse delta after each reverify, or dropped when restoration fails)
  // must never change a byte of the manifest.
  serve::SupervisorOptions so = chaos_supervisor(2, 1, opts.seed);
  std::string manifests[2];
  for (int run = 0; run < 2; ++run) {
    std::string manifest_path = dir + "/run" + std::to_string(run) + ".manifest.json";
    std::string cmd = "'" + opts.scaldtvd_path + "' " + daemon_flags(so) +
                      " --manifest '" + manifest_path + "' '" + jobs_path + "'";
    if (!opts.verbose) cmd += " 2>/dev/null";
    int status = std::system(cmd.c_str());
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code != 4) {
      return fail("bad-exit-code", "expected daemon exit 4 (crashed reverify job), got " +
                                       std::to_string(code) + "; work dir kept at " + dir);
    }
    manifests[run] = read_file(manifest_path);
    cleanup.push_back(manifest_path);
  }
  if (manifests[0] != manifests[1]) {
    return fail("manifest-unstable",
                "two identical reverify runs produced different manifests; "
                "work dir kept at " + dir);
  }

  std::vector<ManifestRecord> records = scan_manifest(manifests[0]);
  if (records.size() != plan.size()) {
    return fail("job-lost", "planned " + std::to_string(plan.size()) +
                                " jobs, manifest has " + std::to_string(records.size()) +
                                "; work dir kept at " + dir);
  }
  for (const RJob& j : plan) {
    const ManifestRecord* rec = nullptr;
    for (const ManifestRecord& r : records) {
      if (r.id == j.id) rec = &r;
    }
    if (!rec) {
      return fail("job-lost", "job " + j.id + " missing from the manifest; work dir kept at " +
                                  dir);
    }
    if (j.permanent && (rec->state != "crashed" || rec->attempts != 3)) {
      return fail("crash-not-detected",
                  "permanently-aborting reverify job " + j.id + " ended \"" + rec->state +
                      "\" after " + std::to_string(rec->attempts) +
                      " attempt(s), expected crashed/3; work dir kept at " + dir);
    }
    if (j.transient) {
      if (rec->state == "crashed") {
        return fail("retry-failed", "attempt-1-only fault on " + j.id +
                                        " still crashed the job; work dir kept at " + dir);
      }
      if (rec->attempts < 2) {
        return fail("retry-invisible", "job " + j.id + " recovered but shows only " +
                                           std::to_string(rec->attempts) +
                                           " attempt(s); work dir kept at " + dir);
      }
    }
    if (!j.permanent && !j.transient &&
        rec->state != "done" && rec->state != "violations") {
      return fail("clean-job-failed", "unfaulted job " + j.id + " ended \"" + rec->state +
                                          "\"; work dir kept at " + dir);
    }
  }
  if (reference_manifest(jobs_path, opts, so) != manifests[0]) {
    return fail("backend-divergence",
                "warm and fork/exec reference manifests differ on the reverify batch; "
                "work dir kept at " + dir);
  }

  for (const std::string& f : cleanup) std::remove(f.c_str());
  rmdir(dir.c_str());
  return std::nullopt;
}

std::optional<ServeChaosFailure> check_kill_restart(const ServeChaosOptions& opts) {
  auto fail = [](std::string kind, std::string detail) {
    return ServeChaosFailure{std::move(kind), std::move(detail)};
  };
  if (opts.scaldtvd_path.empty()) {
    return fail("bad-config", "kill-restart needs the scaldtvd path (TV_SCALDTVD)");
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/serve-kill-XXXXXX";
  std::vector<char> dirbuf(dir.begin(), dir.end());
  dirbuf.push_back('\0');
  if (!mkdtemp(dirbuf.data())) return fail("bad-config", "mkdtemp failed");
  dir.assign(dirbuf.data());

  // A small batch with observable retry structure: two clean jobs, one that
  // aborts on attempt 1 only (its retry doubles the journal traffic for
  // that job), one whose read fails on attempt 1. Seeded designs keep the
  // batch content varied across chaos seeds.
  std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ull + 29);
  std::vector<std::string> cleanup;
  std::string jobs_path = dir + "/batch.jobs";
  {
    std::ofstream jobs_out(jobs_path);
    for (int i = 0; i < 4; ++i) {
      std::string design_file = dir + "/design_" + std::to_string(i) + ".shdl";
      std::ofstream out(design_file);
      out << seed_design(static_cast<std::size_t>(rng() % seed_design_count()));
      out.close();
      cleanup.push_back(design_file);
      jobs_out << "{\"id\": \"kr-" << i << "\", \"design\": \"" << design_file << "\"";
      if (i == 1) {
        jobs_out << ", \"fault\": \"evaluator.eval@1:abort\", \"fault_attempts\": 1";
      } else if (i == 2) {
        jobs_out << ", \"fault\": \"io.read@1:fail\", \"fault_attempts\": 1";
      }
      jobs_out << "}\n";
    }
  }
  cleanup.push_back(jobs_path);

  std::string seed_arg = std::to_string(opts.seed % 1000000);
  auto daemon_cmd = [&](const std::string& journal, const std::string& manifest,
                        const std::string& fault, bool resume) {
    std::string cmd = "'" + opts.scaldtvd_path +
                      "' --workers 2 --max-attempts 3 --backoff-ms 10 "
                      "--backoff-max-ms 50 --job-timeout 2 --seed " + seed_arg +
                      " --journal '" + journal + "' --manifest '" + manifest + "' ";
    if (!fault.empty()) cmd += "--fault '" + fault + "' ";
    if (resume) cmd += "--resume ";
    cmd += "'" + jobs_path + "'";
    if (!opts.verbose) cmd += " 2>/dev/null";
    return cmd;
  };

  // Reference: the same batch, journaled, uninterrupted. Its journal's line
  // count is the number of durable transitions -- each one is a kill point.
  std::string ref_journal = dir + "/ref.journal";
  std::string ref_manifest = dir + "/ref.manifest.json";
  cleanup.push_back(ref_journal);
  cleanup.push_back(ref_manifest);
  std::system(daemon_cmd(ref_journal, ref_manifest, "", false).c_str());
  std::string reference = read_file(ref_manifest);
  if (reference.empty()) {
    return fail("bad-config", "reference run wrote no manifest; work dir kept at " + dir);
  }
  std::string ref_journal_text = read_file(ref_journal);
  int transitions = 0;
  for (char c : ref_journal_text) transitions += c == '\n';
  --transitions;  // header line is written before any transition
  if (transitions < 8) {
    return fail("bad-config", "reference journal shows only " +
                                  std::to_string(transitions) +
                                  " transitions; work dir kept at " + dir);
  }

  std::string kill_journal = dir + "/kill.journal";
  std::string kill_manifest = dir + "/kill.manifest.json";
  cleanup.push_back(kill_journal);
  cleanup.push_back(kill_manifest);
  for (int n = 1; n <= transitions; ++n) {
    std::remove(kill_journal.c_str());
    std::remove(kill_manifest.c_str());
    std::string fault = "serve.kill9@" + std::to_string(n) + ":kill9";
    // First run dies at transition n (SIGKILL, nothing flushed beyond the
    // journal). Restart with --resume until the manifest appears; the
    // journal must make one restart enough, but allow a few in case the
    // kill landed before the first append.
    std::system(daemon_cmd(kill_journal, kill_manifest, fault, false).c_str());
    int restarts = 0;
    while (read_file(kill_manifest).empty() && restarts < 5) {
      ++restarts;
      std::system(daemon_cmd(kill_journal, kill_manifest, "", true).c_str());
    }
    std::string resumed = read_file(kill_manifest);
    if (resumed.empty()) {
      return fail("resume-wedged", "kill point " + std::to_string(n) + ": batch still "
                                       "unfinished after 5 restarts; work dir kept at " + dir);
    }
    if (resumed != reference) {
      return fail("resume-divergence",
                  "kill point " + std::to_string(n) + ": resumed manifest differs from "
                      "the uninterrupted run's; work dir kept at " + dir);
    }
  }

  for (const std::string& f : cleanup) std::remove(f.c_str());
  rmdir(dir.c_str());
  return std::nullopt;
}

std::optional<ServeChaosFailure> check_drain_requeue(const ServeChaosOptions& opts) {
  auto fail = [](std::string kind, std::string detail) {
    return ServeChaosFailure{std::move(kind), std::move(detail)};
  };
  if (opts.scaldtvd_path.empty()) {
    return fail("bad-config", "drain-requeue needs the scaldtvd path (TV_SCALDTVD)");
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/serve-drain-XXXXXX";
  std::vector<char> dirbuf(dir.begin(), dir.end());
  dirbuf.push_back('\0');
  if (!mkdtemp(dirbuf.data())) return fail("bad-config", "mkdtemp failed");
  dir.assign(dirbuf.data());

  std::string design_file = dir + "/design.shdl";
  {
    std::ofstream out(design_file);
    out << seed_design(0);
  }
  std::vector<std::string> cleanup{design_file};

  // Two shutdown timings, each against a job that can never succeed:
  //   hang:    SIGTERM lands while the only attempt hangs under the
  //            watchdog. max-attempts is 1, so a supervisor that still
  //            treats the timeout as a normal transient failure would tip
  //            the job into "crashed" -- but the attempt was interrupted by
  //            the drain, so it must settle "requeued" with the one
  //            attempt on record.
  //   backoff: SIGTERM lands while the job sits in a long retry backoff
  //            after its first attempt aborted; it must settle "requeued"
  //            with exactly that one attempt, not burn a second launch.
  struct Scenario {
    const char* name;
    const char* fault;
    const char* max_attempts;
    const char* backoff_ms;
    const char* job_timeout;
    int sigterm_after_ms;
  };
  const Scenario scenarios[] = {
      {"hang", "evaluator.eval@1:hang", "1", "10", "1", 300},
      {"backoff", "evaluator.eval@1:abort", "3", "4000", "5", 700},
  };

  for (const Scenario& sc : scenarios) {
    std::string jobs_path = dir + "/" + sc.name + ".jobs";
    {
      std::ofstream out(jobs_path);
      out << "{\"id\": \"drain-" << sc.name << "\", \"design\": \"" << design_file
          << "\", \"fault\": \"" << sc.fault << "\"}\n";
    }
    cleanup.push_back(jobs_path);
    std::string manifest_path = dir + "/" + sc.name + ".manifest.json";
    cleanup.push_back(manifest_path);

    std::vector<std::string> args = {
        opts.scaldtvd_path,
        "--workers", "1", "--max-attempts", sc.max_attempts,
        "--backoff-ms", sc.backoff_ms, "--backoff-max-ms", sc.backoff_ms,
        "--job-timeout", sc.job_timeout, "--seed", "1",
        "--manifest", manifest_path, jobs_path};
    int code = run_daemon_with_sigterm(args, sc.sigterm_after_ms, opts.verbose);
    // Requeued jobs must not affect the exit status: 4 here means the
    // drain burned the interrupted attempt and declared the job crashed.
    if (code != 0) {
      return fail("drain-exit-code",
                  std::string("drain-") + sc.name + ": expected daemon exit 0, got " +
                      std::to_string(code) + "; work dir kept at " + dir);
    }
    std::vector<ManifestRecord> records = scan_manifest(read_file(manifest_path));
    if (records.size() != 1) {
      return fail("job-lost", std::string("drain-") + sc.name + ": manifest has " +
                                  std::to_string(records.size()) +
                                  " records, expected 1; work dir kept at " + dir);
    }
    if (records[0].state != "requeued") {
      return fail("drain-not-requeued",
                  std::string("drain-") + sc.name + ": job ended \"" + records[0].state +
                      "\" instead of \"requeued\"; work dir kept at " + dir);
    }
    if (records[0].attempts != 1) {
      return fail("drain-attempt-burned",
                  std::string("drain-") + sc.name + ": requeued job shows " +
                      std::to_string(records[0].attempts) +
                      " attempt(s), expected exactly 1; work dir kept at " + dir);
    }
  }

  for (const std::string& f : cleanup) std::remove(f.c_str());
  rmdir(dir.c_str());
  return std::nullopt;
}

std::optional<ServeChaosFailure> check_mem_breach(const ServeChaosOptions& opts) {
  auto fail = [](std::string kind, std::string detail) {
    return ServeChaosFailure{std::move(kind), std::move(detail)};
  };
  if (opts.scaldtvd_path.empty() || opts.scaldtv_path.empty()) {
    return fail("bad-config", "mem-breach needs scaldtvd and scaldtv paths "
                              "(TV_SCALDTVD / TV_SCALDTV)");
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/serve-mem-XXXXXX";
  std::vector<char> dirbuf(dir.begin(), dir.end());
  dirbuf.push_back('\0');
  if (!mkdtemp(dirbuf.data())) return fail("bad-config", "mkdtemp failed");
  dir.assign(dirbuf.data());

  // One hog that leaks allocations until the RSS watchdog fires, three
  // clean neighbors that must come through untouched. The bloat action
  // grows ~2 MiB/ms, so a 384 MiB budget breaches in well under a second;
  // --job-timeout stays the backstop, not the classifier.
  std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ull + 41);
  std::vector<std::string> cleanup;
  std::string jobs_path = dir + "/mem.jobs";
  {
    std::ofstream jobs_out(jobs_path);
    for (int i = 0; i < 4; ++i) {
      std::string design_file = dir + "/design_" + std::to_string(i) + ".shdl";
      std::ofstream out(design_file);
      out << seed_design(static_cast<std::size_t>(rng() % seed_design_count()));
      out.close();
      cleanup.push_back(design_file);
      jobs_out << "{\"id\": \"" << (i == 0 ? "hog" : "mem-" + std::to_string(i))
               << "\", \"design\": \"" << design_file << "\"";
      if (i == 0) jobs_out << ", \"fault\": \"evaluator.eval@1:bloat\"";
      jobs_out << "}\n";
    }
  }
  cleanup.push_back(jobs_path);

  serve::SupervisorOptions so = chaos_supervisor(2, 30, opts.seed);
  so.mem_limit_mb = 384;
  std::string manifest_path = dir + "/mem.manifest.json";
  cleanup.push_back(manifest_path);
  {
    std::string cmd = "'" + opts.scaldtvd_path + "' " + daemon_flags(so) +
                      " --manifest '" + manifest_path + "' '" + jobs_path + "'";
    if (!opts.verbose) cmd += " 2>/dev/null";
    int status = std::system(cmd.c_str());
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    if (code != 6) {
      return fail("bad-exit-code", "expected daemon exit 6 (resource-exhausted), got " +
                                       std::to_string(code) + "; work dir kept at " + dir);
    }
  }
  std::string manifest = read_file(manifest_path);
  std::vector<ManifestRecord> records = scan_manifest(manifest);
  if (records.size() != 4) {
    return fail("job-lost", "manifest has " + std::to_string(records.size()) +
                                " records, expected 4; work dir kept at " + dir);
  }
  for (const ManifestRecord& r : records) {
    if (r.id == "hog") {
      if (r.state != "resource-exhausted") {
        return fail("breach-misclassified",
                    "memory hog ended \"" + r.state +
                        "\" instead of \"resource-exhausted\"; work dir kept at " + dir);
      }
      if (r.attempts != 1) {
        return fail("breach-retried",
                    "budget breach burned " + std::to_string(r.attempts) +
                        " attempts without --mem-retry, expected 1; work dir kept at " + dir);
      }
    } else if (r.state != "done" && r.state != "violations") {
      return fail("clean-job-failed", "unfaulted job " + r.id + " ended \"" + r.state +
                                          "\"; work dir kept at " + dir);
    }
  }
  if (reference_manifest(jobs_path, opts, so) != manifest) {
    return fail("backend-divergence",
                "warm and fork/exec reference manifests differ under a memory budget; "
                "work dir kept at " + dir);
  }

  // The retry policy: the same breach confined to attempt 1 plus --mem-retry
  // must recover, with the mem-limit attempt visible in the count.
  std::string retry_jobs = dir + "/mem-retry.jobs";
  {
    std::ofstream out(retry_jobs);
    out << "{\"id\": \"hog-retry\", \"design\": \"" << dir
        << "/design_0.shdl\", \"fault\": \"evaluator.eval@1:bloat\", "
           "\"fault_attempts\": 1}\n";
  }
  cleanup.push_back(retry_jobs);
  std::string retry_manifest = dir + "/mem-retry.manifest.json";
  cleanup.push_back(retry_manifest);
  {
    so.workers = 1;
    so.mem_retry = true;
    std::string cmd = "'" + opts.scaldtvd_path + "' " + daemon_flags(so) +
                      " --manifest '" + retry_manifest + "' '" + retry_jobs + "'";
    if (!opts.verbose) cmd += " 2>/dev/null";
    std::system(cmd.c_str());
  }
  std::vector<ManifestRecord> retry_records = scan_manifest(read_file(retry_manifest));
  if (retry_records.size() != 1 || retry_records[0].state == "resource-exhausted" ||
      retry_records[0].state == "crashed") {
    return fail("mem-retry-ignored",
                "attempt-1-only breach under --mem-retry ended \"" +
                    (retry_records.empty() ? std::string("<missing>")
                                           : retry_records[0].state) +
                    "\"; work dir kept at " + dir);
  }
  if (retry_records[0].attempts < 2) {
    return fail("retry-invisible",
                "hog-retry recovered but shows only " +
                    std::to_string(retry_records[0].attempts) +
                    " attempt(s); work dir kept at " + dir);
  }

  for (const std::string& f : cleanup) std::remove(f.c_str());
  rmdir(dir.c_str());
  return std::nullopt;
}

std::optional<ServeChaosFailure> check_shed(const ServeChaosOptions& opts) {
  auto fail = [](std::string kind, std::string detail) {
    return ServeChaosFailure{std::move(kind), std::move(detail)};
  };
  if (opts.scaldtvd_path.empty()) {
    return fail("bad-config", "shed needs the scaldtvd path (TV_SCALDTVD)");
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/serve-shed-XXXXXX";
  std::vector<char> dirbuf(dir.begin(), dir.end());
  dirbuf.push_back('\0');
  if (!mkdtemp(dirbuf.data())) return fail("bad-config", "mkdtemp failed");
  dir.assign(dirbuf.data());

  // Eight clean jobs against a five-slot admission cap: the first five run,
  // the last three are shed at batch start by input position -- never by
  // arrival timing, so the split must be byte-stable across runs.
  constexpr int kJobs = 8;
  constexpr int kMaxQueue = 5;
  std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ull + 53);
  std::vector<std::string> cleanup;
  std::string jobs_path = dir + "/shed.jobs";
  {
    std::ofstream jobs_out(jobs_path);
    for (int i = 0; i < kJobs; ++i) {
      std::string design_file = dir + "/design_" + std::to_string(i) + ".shdl";
      std::ofstream out(design_file);
      out << seed_design(static_cast<std::size_t>(rng() % seed_design_count()));
      out.close();
      cleanup.push_back(design_file);
      jobs_out << "{\"id\": \"shed-" << i << "\", \"design\": \"" << design_file
               << "\"}\n";
    }
  }
  cleanup.push_back(jobs_path);

  std::string manifests[2];
  for (int run = 0; run < 2; ++run) {
    std::string manifest_path = dir + "/run" + std::to_string(run) + ".manifest.json";
    std::string cmd = "'" + opts.scaldtvd_path +
                      "' --workers 2 --max-attempts 3 --backoff-ms 10 "
                      "--backoff-max-ms 50 --job-timeout 2 --max-queue " +
                      std::to_string(kMaxQueue) + " --seed " +
                      std::to_string(opts.seed % 1000000) + " --manifest '" +
                      manifest_path + "' '" + jobs_path + "'";
    if (!opts.verbose) cmd += " 2>/dev/null";
    int status = std::system(cmd.c_str());
    int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    // Shed (7) outranks the verdict codes in the fold: a batch that dropped
    // work must say so even when every admitted job came back clean.
    if (code != 7) {
      return fail("bad-exit-code", "run " + std::to_string(run) +
                                       ": expected daemon exit 7 (shed), got " +
                                       std::to_string(code) + "; work dir kept at " + dir);
    }
    manifests[run] = read_file(manifest_path);
    cleanup.push_back(manifest_path);
  }
  if (manifests[0] != manifests[1]) {
    return fail("manifest-unstable",
                "two identical capped runs produced different manifests; "
                "work dir kept at " + dir);
  }

  std::vector<ManifestRecord> records = scan_manifest(manifests[0]);
  if (records.size() != kJobs) {
    return fail("job-lost", "manifest has " + std::to_string(records.size()) +
                                " records, expected " + std::to_string(kJobs) +
                                "; work dir kept at " + dir);
  }
  for (int i = 0; i < kJobs; ++i) {
    const ManifestRecord* rec = nullptr;
    for (const ManifestRecord& r : records) {
      if (r.id == "shed-" + std::to_string(i)) rec = &r;
    }
    if (!rec) {
      return fail("job-lost", "job shed-" + std::to_string(i) +
                                  " missing from the manifest; work dir kept at " + dir);
    }
    if (i < kMaxQueue) {
      if (rec->state != "done" && rec->state != "violations") {
        return fail("admitted-job-failed",
                    "admitted job shed-" + std::to_string(i) + " ended \"" + rec->state +
                        "\"; work dir kept at " + dir);
      }
    } else {
      if (rec->state != "shed") {
        return fail("shed-misclassified",
                    "job shed-" + std::to_string(i) + " past the cap ended \"" +
                        rec->state + "\" instead of \"shed\"; work dir kept at " + dir);
      }
      if (rec->attempts != 0) {
        return fail("shed-attempt-burned",
                    "shed job shed-" + std::to_string(i) + " shows " +
                        std::to_string(rec->attempts) +
                        " attempt(s), expected 0; work dir kept at " + dir);
      }
    }
  }

  for (const std::string& f : cleanup) std::remove(f.c_str());
  rmdir(dir.c_str());
  return std::nullopt;
}

std::optional<ServeChaosFailure> check_quarantine_resume(const ServeChaosOptions& opts) {
  auto fail = [](std::string kind, std::string detail) {
    return ServeChaosFailure{std::move(kind), std::move(detail)};
  };
  if (opts.scaldtvd_path.empty()) {
    return fail("bad-config", "quarantine-resume needs the scaldtvd path (TV_SCALDTVD)");
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/serve-quar-XXXXXX";
  std::vector<char> dirbuf(dir.begin(), dir.end());
  dirbuf.push_back('\0');
  if (!mkdtemp(dirbuf.data())) return fail("bad-config", "mkdtemp failed");
  dir.assign(dirbuf.data());

  // Two designs with distinct content: the breaker keys on the design's
  // bytes, so "poison" must only spread to jobs that share design A.
  std::size_t other = 1;
  while (other < seed_design_count() && seed_design(other) == seed_design(0)) ++other;
  if (other >= seed_design_count()) {
    return fail("bad-config", "no second distinct seed design available");
  }
  std::string design_a = dir + "/poison.shdl";
  std::string design_b = dir + "/healthy.shdl";
  {
    std::ofstream a(design_a);
    a << seed_design(0);
    std::ofstream b(design_b);
    b << seed_design(other);
  }
  std::vector<std::string> cleanup{design_a, design_b};

  // qa-0 and qa-1 crash on every attempt and trip the K=2 breaker; qa-2 and
  // qa-3 are clean jobs on the poisoned design that must be fast-failed
  // "quarantined" with no attempt burned; qb-0 shares nothing and must be
  // untouched; over-0 sits past the admission cap and must shed -- so one
  // journal carries crash, quarantine, verdict, and shed settlements plus
  // the quarantine ledger record for the kill sweep below to replay.
  std::string jobs_path = dir + "/quarantine.jobs";
  {
    std::ofstream out(jobs_path);
    out << "{\"id\": \"qa-0\", \"design\": \"" << design_a
        << "\", \"fault\": \"evaluator.eval@1:abort\"}\n"
        << "{\"id\": \"qa-1\", \"design\": \"" << design_a
        << "\", \"fault\": \"evaluator.eval@1:abort\"}\n"
        << "{\"id\": \"qa-2\", \"design\": \"" << design_a << "\"}\n"
        << "{\"id\": \"qb-0\", \"design\": \"" << design_b << "\"}\n"
        << "{\"id\": \"qa-3\", \"design\": \"" << design_a << "\"}\n"
        << "{\"id\": \"over-0\", \"design\": \"" << design_b << "\"}\n";
  }
  cleanup.push_back(jobs_path);

  std::string seed_arg = std::to_string(opts.seed % 1000000);
  auto daemon_cmd = [&](const std::string& journal, const std::string& manifest,
                        const std::string& fault, bool resume) {
    // Resume validation covers the overload policy: every invocation,
    // resumed or not, must carry the same --quarantine-after / --max-queue.
    std::string cmd = "'" + opts.scaldtvd_path +
                      "' --workers 2 --max-attempts 3 --backoff-ms 10 "
                      "--backoff-max-ms 50 --job-timeout 2 --quarantine-after 2 "
                      "--max-queue 5 --seed " + seed_arg +
                      " --journal '" + journal + "' --manifest '" + manifest + "' ";
    if (!fault.empty()) cmd += "--fault '" + fault + "' ";
    if (resume) cmd += "--resume ";
    cmd += "'" + jobs_path + "'";
    if (!opts.verbose) cmd += " 2>/dev/null";
    return cmd;
  };

  std::string ref_journal = dir + "/ref.journal";
  std::string ref_manifest = dir + "/ref.manifest.json";
  cleanup.push_back(ref_journal);
  cleanup.push_back(ref_manifest);
  int status = std::system(daemon_cmd(ref_journal, ref_manifest, "", false).c_str());
  int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  // Crashed (4) outranks resource/overload states in the fold.
  if (code != 4) {
    return fail("bad-exit-code", "reference run: expected daemon exit 4, got " +
                                     std::to_string(code) + "; work dir kept at " + dir);
  }
  std::string reference = read_file(ref_manifest);
  std::vector<ManifestRecord> records = scan_manifest(reference);
  if (records.size() != 6) {
    return fail("job-lost", "manifest has " + std::to_string(records.size()) +
                                " records, expected 6; work dir kept at " + dir);
  }
  for (const ManifestRecord& r : records) {
    if (r.id == "qa-0" || r.id == "qa-1") {
      if (r.state != "crashed" || r.attempts != 3) {
        return fail("crash-not-detected",
                    "poison job " + r.id + " ended \"" + r.state + "\" after " +
                        std::to_string(r.attempts) +
                        " attempt(s), expected crashed/3; work dir kept at " + dir);
      }
    } else if (r.id == "qa-2" || r.id == "qa-3") {
      if (r.state != "quarantined") {
        return fail("quarantine-missed",
                    "job " + r.id + " on the poisoned design ended \"" + r.state +
                        "\" instead of \"quarantined\"; work dir kept at " + dir);
      }
      if (r.attempts != 0) {
        return fail("quarantine-attempt-burned",
                    "quarantined job " + r.id + " shows " + std::to_string(r.attempts) +
                        " attempt(s), expected 0; work dir kept at " + dir);
      }
    } else if (r.id == "qb-0") {
      if (r.state != "done" && r.state != "violations") {
        return fail("quarantine-overreach",
                    "job qb-0 on the healthy design ended \"" + r.state +
                        "\"; work dir kept at " + dir);
      }
    } else if (r.id == "over-0") {
      if (r.state != "shed" || r.attempts != 0) {
        return fail("shed-misclassified",
                    "job over-0 past the cap ended \"" + r.state + "\"/" +
                        std::to_string(r.attempts) +
                        ", expected shed/0; work dir kept at " + dir);
      }
    }
  }

  // The kill sweep: SIGKILL at every durable transition, resume, and demand
  // byte-identity -- quarantine and shed settlements must replay exactly
  // like verdicts, and the ledger must re-trip the breaker on resume.
  std::string ref_journal_text = read_file(ref_journal);
  int transitions = 0;
  for (char c : ref_journal_text) transitions += c == '\n';
  --transitions;  // header line is written before any transition
  if (transitions < 10) {
    return fail("bad-config", "reference journal shows only " +
                                  std::to_string(transitions) +
                                  " transitions; work dir kept at " + dir);
  }
  std::string kill_journal = dir + "/kill.journal";
  std::string kill_manifest = dir + "/kill.manifest.json";
  cleanup.push_back(kill_journal);
  cleanup.push_back(kill_manifest);
  for (int n = 1; n <= transitions; ++n) {
    std::remove(kill_journal.c_str());
    std::remove(kill_manifest.c_str());
    std::string fault = "serve.kill9@" + std::to_string(n) + ":kill9";
    std::system(daemon_cmd(kill_journal, kill_manifest, fault, false).c_str());
    int restarts = 0;
    while (read_file(kill_manifest).empty() && restarts < 5) {
      ++restarts;
      std::system(daemon_cmd(kill_journal, kill_manifest, "", true).c_str());
    }
    std::string resumed = read_file(kill_manifest);
    if (resumed.empty()) {
      return fail("resume-wedged", "kill point " + std::to_string(n) + ": batch still "
                                       "unfinished after 5 restarts; work dir kept at " + dir);
    }
    if (resumed != reference) {
      return fail("resume-divergence",
                  "kill point " + std::to_string(n) + ": resumed manifest differs from "
                      "the uninterrupted run's; work dir kept at " + dir);
    }
  }

  for (const std::string& f : cleanup) std::remove(f.c_str());
  rmdir(dir.c_str());
  return std::nullopt;
}

std::optional<ServeChaosFailure> check_write_fail(const ServeChaosOptions& opts) {
  auto fail = [](std::string kind, std::string detail) {
    return ServeChaosFailure{std::move(kind), std::move(detail)};
  };
  if (opts.scaldtvd_path.empty()) {
    return fail("bad-config", "write-fail needs the scaldtvd path (TV_SCALDTVD)");
  }

  const char* tmp = std::getenv("TMPDIR");
  std::string dir = std::string(tmp ? tmp : "/tmp") + "/serve-enospc-XXXXXX";
  std::vector<char> dirbuf(dir.begin(), dir.end());
  dirbuf.push_back('\0');
  if (!mkdtemp(dirbuf.data())) return fail("bad-config", "mkdtemp failed");
  dir.assign(dirbuf.data());

  // The kill-restart batch shape: retries multiply the journal traffic, so
  // the sweep covers appends from every record family.
  std::mt19937_64 rng(opts.seed * 0x9E3779B97F4A7C15ull + 67);
  std::vector<std::string> cleanup;
  std::string jobs_path = dir + "/batch.jobs";
  {
    std::ofstream jobs_out(jobs_path);
    for (int i = 0; i < 4; ++i) {
      std::string design_file = dir + "/design_" + std::to_string(i) + ".shdl";
      std::ofstream out(design_file);
      out << seed_design(static_cast<std::size_t>(rng() % seed_design_count()));
      out.close();
      cleanup.push_back(design_file);
      jobs_out << "{\"id\": \"wf-" << i << "\", \"design\": \"" << design_file << "\"";
      if (i == 1) {
        jobs_out << ", \"fault\": \"evaluator.eval@1:abort\", \"fault_attempts\": 1";
      } else if (i == 2) {
        jobs_out << ", \"fault\": \"io.read@1:fail\", \"fault_attempts\": 1";
      }
      jobs_out << "}\n";
    }
  }
  cleanup.push_back(jobs_path);

  std::string seed_arg = std::to_string(opts.seed % 1000000);
  auto daemon_cmd = [&](const std::string& journal, const std::string& manifest,
                        const std::string& fault, bool resume) {
    std::string cmd = "'" + opts.scaldtvd_path +
                      "' --workers 2 --max-attempts 3 --backoff-ms 10 "
                      "--backoff-max-ms 50 --job-timeout 2 --seed " + seed_arg +
                      " --journal '" + journal + "' --manifest '" + manifest + "' ";
    if (!fault.empty()) cmd += "--fault '" + fault + "' ";
    if (resume) cmd += "--resume ";
    cmd += "'" + jobs_path + "'";
    if (!opts.verbose) cmd += " 2>/dev/null";
    return cmd;
  };

  // Reference: uninterrupted and journaled. The daemon performs one durable
  // write per journal line (the header and every append) plus one for the
  // final manifest -- each is an injection point for the ENOSPC sweep.
  std::string ref_journal = dir + "/ref.journal";
  std::string ref_manifest = dir + "/ref.manifest.json";
  cleanup.push_back(ref_journal);
  cleanup.push_back(ref_manifest);
  std::system(daemon_cmd(ref_journal, ref_manifest, "", false).c_str());
  std::string reference = read_file(ref_manifest);
  if (reference.empty()) {
    return fail("bad-config", "reference run wrote no manifest; work dir kept at " + dir);
  }
  std::string ref_journal_text = read_file(ref_journal);
  int writes = 0;
  for (char c : ref_journal_text) writes += c == '\n';
  ++writes;  // the manifest's atomic_write_file is the final durable write
  if (writes < 10) {
    return fail("bad-config", "reference run shows only " + std::to_string(writes) +
                                  " durable writes; work dir kept at " + dir);
  }

  std::string kill_journal = dir + "/enospc.journal";
  std::string kill_manifest = dir + "/enospc.manifest.json";
  cleanup.push_back(kill_journal);
  cleanup.push_back(kill_manifest);
  for (int n = 1; n <= writes; ++n) {
    std::remove(kill_journal.c_str());
    std::remove(kill_manifest.c_str());
    std::string fault = "io.write@" + std::to_string(n) + ":fail";
    // Whichever durable write fails -- the journal header (the daemon
    // refuses to start), a mid-run append (the daemon drains, requeues, and
    // still writes a manifest), or the manifest itself -- the exit must be
    // loud (2) and the journal on disk a clean replayable prefix.
    int st = std::system(daemon_cmd(kill_journal, kill_manifest, fault, false).c_str());
    int code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
    if (code != 2) {
      return fail("write-fail-silent",
                  "durable write " + std::to_string(n) + " failed but the daemon exited " +
                      std::to_string(code) + ", expected 2; work dir kept at " + dir);
    }
    int restarts = 0;
    while (read_file(kill_manifest) != reference && restarts < 5) {
      ++restarts;
      std::system(daemon_cmd(kill_journal, kill_manifest, "", true).c_str());
    }
    if (read_file(kill_manifest) != reference) {
      return fail("resume-divergence",
                  "durable write " + std::to_string(n) + ": manifest never converged to "
                      "the uninterrupted run's after 5 resumes; work dir kept at " + dir);
    }
  }

  for (const std::string& f : cleanup) std::remove(f.c_str());
  rmdir(dir.c_str());
  return std::nullopt;
}

}  // namespace tv::check
