// Tests for the scaldtvd serving layer (src/serve): the newline-JSON job
// parser, the byte-stable run manifest, the deterministic retry backoff,
// the supervisor's terminal-state, retry, watchdog, and graceful-shutdown
// contracts on the warm worker pool, and -- driving the real scaldtv binary
// through the fork/exec reference (src/check) -- the warm pool's byte
// identity with it.
#include "serve/job.hpp"
#include "serve/manifest.hpp"
#include "serve/supervisor.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <thread>

#include "check/fork_exec_reference.hpp"
#include "core/compiled.hpp"
#include "example_designs.hpp"
#include "serve/warm_pool.hpp"
#include "util/fault.hpp"

namespace tv::serve {
namespace {

// ---------------------------------------------------------------- job lines

TEST(JobParse, FullLine) {
  std::string error;
  auto job = parse_job_line(
      R"({"id": "j1", "design": "a.shdl", "stdlib": true, "time_limit": 2.5, )"
      R"("jobs": 4, "fault": "io.read@1:fail", "fault_attempts": 1})",
      &error);
  ASSERT_TRUE(job) << error;
  EXPECT_EQ(job->id, "j1");
  EXPECT_EQ(job->design, "a.shdl");
  EXPECT_TRUE(job->stdlib);
  EXPECT_DOUBLE_EQ(job->time_limit, 2.5);
  EXPECT_EQ(job->jobs, 4u);
  EXPECT_EQ(job->fault, "io.read@1:fail");
  EXPECT_EQ(job->fault_attempts, 1);
}

TEST(JobParse, DefaultsAndMinimalLine) {
  auto job = parse_job_line(R"({"id": "j", "design": "d.shdl"})", nullptr);
  ASSERT_TRUE(job);
  EXPECT_FALSE(job->stdlib);
  EXPECT_EQ(job->time_limit, 0);
  EXPECT_EQ(job->jobs, 0u);
  EXPECT_TRUE(job->fault.empty());
  EXPECT_EQ(job->fault_attempts, 0);
}

TEST(JobParse, RejectsBadLines) {
  const char* bad[] = {
      "",                                            // not an object
      R"({"design": "d.shdl"})",                     // missing id
      R"({"id": "j"})",                              // missing design
      R"({"id": "j", "design": "d", "x": 1})",       // unknown key
      R"({"id": "j", "design": "d"} trailing)",      // trailing junk
      R"({"id": "j", "design": "d", "jobs": -1})",   // negative count
      R"({"id": "j", "design": "d", "stdlib": 7})",  // non-bool stdlib
      R"({"id": "j", "design": "d", "fault": "nonsense"})",  // bad fault shape
      R"({"id": "j", "design": "d", "fault": "io.read@1:explode"})",
      R"({"id": "j", "design": "d", "fault": "io.read@x:fail"})",  // bad hit count
      R"({"id": "j", "design": "d", "fault": "io.read@0:fail"})",  // 1-based
  };
  for (const char* line : bad) {
    std::string error;
    EXPECT_FALSE(parse_job_line(line, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(JobParse, FileSkipsCommentsAndRejectsDuplicates) {
  std::string path = ::testing::TempDir() + "serve_jobs_test.jobs";
  {
    std::ofstream out(path);
    out << "# comment\n\n"
        << R"({"id": "a", "design": "d1.shdl"})" << "\n"
        << R"({"id": "b", "design": "d2.shdl"})" << "\n";
  }
  std::string error;
  auto jobs = parse_job_file(path, &error);
  ASSERT_TRUE(jobs) << error;
  EXPECT_EQ(jobs->size(), 2u);

  {
    std::ofstream out(path);
    out << R"({"id": "a", "design": "d1.shdl"})" << "\n"
        << R"({"id": "a", "design": "d2.shdl"})" << "\n";
  }
  EXPECT_FALSE(parse_job_file(path, &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);
  EXPECT_NE(error.find("line 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JobParse, WorkerArgsReflectTheSpec) {
  JobSpec j;
  j.id = "x";
  j.design = "d.shdl";
  EXPECT_EQ(check::worker_args(j), (std::vector<std::string>{"d.shdl"}));
  j.stdlib = true;
  j.time_limit = 0.25;
  j.jobs = 2;
  EXPECT_EQ(check::worker_args(j),
            (std::vector<std::string>{"--stdlib", "--time-limit", "0.25", "--jobs", "2",
                                      "d.shdl"}));
}

TEST(JobParse, CompiledDesignsFlowThroughToTheWorker) {
  auto job = parse_job_line(
      R"({"id": "c", "design": "d.tvc", "compiled": true})", nullptr);
  ASSERT_TRUE(job);
  EXPECT_TRUE(job->compiled);
  EXPECT_EQ(check::worker_args(*job), (std::vector<std::string>{"--compiled", "d.tvc"}));

  std::string error;
  EXPECT_FALSE(
      parse_job_line(R"({"id": "c", "design": "d", "compiled": 1})", &error));
  EXPECT_NE(error.find("compiled"), std::string::npos);
}

// ----------------------------------------------------------------- manifest

TEST(Manifest, JsonIsSortedFixedOrderAndStable) {
  Manifest m;
  m.jobs.push_back({"zeta", "z.shdl", JobState::Done, 1, {"exit:0"}});
  m.jobs.push_back({"alpha", "a.shdl", JobState::Crashed, 3,
                    {"signal:6", "signal:6", "signal:6"}});
  std::string json = m.to_json();
  // Sorted by id regardless of insertion order.
  EXPECT_LT(json.find("\"alpha\""), json.find("\"zeta\""));
  // Byte-stable: serializing twice is identical.
  EXPECT_EQ(json, m.to_json());
  // No timestamps or durations anywhere in the format.
  EXPECT_EQ(json.find("time"), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\": [\"signal:6\", \"signal:6\", \"signal:6\"]"),
            std::string::npos);
}

TEST(Manifest, ExitCodePrecedenceWorstWins) {
  Manifest m;
  m.jobs.push_back({"a", "a", JobState::Done, 1, {}});
  EXPECT_EQ(m.exit_code(), 0);
  m.jobs.push_back({"b", "b", JobState::Violations, 1, {}});
  EXPECT_EQ(m.exit_code(), 1);
  m.jobs.push_back({"c", "c", JobState::Degraded, 1, {}});
  EXPECT_EQ(m.exit_code(), 3);
  m.jobs.push_back({"d", "d", JobState::Crashed, 3, {}});
  EXPECT_EQ(m.exit_code(), 4);
  m.jobs.push_back({"e", "e", JobState::InputError, 1, {}});
  EXPECT_EQ(m.exit_code(), 2);
  // Requeued jobs never affect the exit code: shutdown is not failure.
  Manifest r;
  r.jobs.push_back({"a", "a", JobState::Requeued, 0, {}});
  EXPECT_EQ(r.exit_code(), 0);
}

TEST(Manifest, OverloadStatesHaveNamesCodesAndPrecedence) {
  EXPECT_STREQ(job_state_name(JobState::ResourceExhausted), "resource-exhausted");
  EXPECT_STREQ(job_state_name(JobState::Shed), "shed");
  EXPECT_STREQ(job_state_name(JobState::Quarantined), "quarantined");
  EXPECT_EQ(job_state_exit_code(JobState::ResourceExhausted), 6);
  EXPECT_EQ(job_state_exit_code(JobState::Shed), 7);
  EXPECT_EQ(job_state_exit_code(JobState::Quarantined), 8);
  // Overall precedence: 2 > 4 > 6 > 8 > 7 > 3 > 1 > 0. Shed outranks every
  // ordinary verdict (work was refused), quarantined outranks shed (work
  // was refused because earlier work kept dying), a real breach or crash
  // outranks both.
  Manifest m;
  m.jobs.push_back({"a", "a", JobState::Violations, 1, {}});
  m.jobs.push_back({"b", "b", JobState::Degraded, 1, {}});
  EXPECT_EQ(m.exit_code(), 3);
  m.jobs.push_back({"c", "c", JobState::Shed, 0, {}});
  EXPECT_EQ(m.exit_code(), 7);
  m.jobs.push_back({"d", "d", JobState::Quarantined, 0, {}});
  EXPECT_EQ(m.exit_code(), 8);
  m.jobs.push_back({"e", "e", JobState::ResourceExhausted, 1, {"mem-limit"}});
  EXPECT_EQ(m.exit_code(), 6);
  m.jobs.push_back({"f", "f", JobState::Crashed, 3, {}});
  EXPECT_EQ(m.exit_code(), 4);
  m.jobs.push_back({"g", "g", JobState::InputError, 1, {}});
  EXPECT_EQ(m.exit_code(), 2);
}

TEST(Manifest, CountsAndDurabilityDegradedAreSerialized) {
  Manifest m;
  m.jobs.push_back({"a", "a", JobState::ResourceExhausted, 1, {"mem-limit"}});
  m.jobs.push_back({"b", "b", JobState::Shed, 0, {}});
  m.jobs.push_back({"c", "c", JobState::Quarantined, 0, {}});
  m.durability_degraded = 2;
  std::string json = m.to_json();
  EXPECT_NE(json.find("\"resource-exhausted\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"shed\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"quarantined\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"durability_degraded\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"outcomes\": [\"mem-limit\"]"), std::string::npos);
}

// ------------------------------------------------------------------ backoff

TEST(Backoff, DeterministicAndExponentialWithCap) {
  SupervisorOptions opts;
  opts.backoff_base_ms = 100;
  opts.backoff_max_ms = 500;
  opts.jitter_seed = 7;
  // Same (job, attempt, seed) -> same delay, every time.
  EXPECT_EQ(backoff_delay_ms(opts, "job-1", 1), backoff_delay_ms(opts, "job-1", 1));
  // Different jobs and attempts jitter differently (with these inputs).
  EXPECT_NE(backoff_delay_ms(opts, "job-1", 1), backoff_delay_ms(opts, "job-2", 1));
  // Exponential base under the cap, jitter bounded by base.
  for (int attempt = 1; attempt <= 6; ++attempt) {
    std::uint64_t d = backoff_delay_ms(opts, "job-1", attempt);
    std::uint64_t base = std::min<std::uint64_t>(100ull << (attempt - 1), 500);
    EXPECT_GE(d, base) << attempt;
    EXPECT_LT(d, base + 100) << attempt;
  }
  SupervisorOptions other = opts;
  other.jitter_seed = 8;
  EXPECT_NE(backoff_delay_ms(opts, "job-1", 1), backoff_delay_ms(other, "job-1", 1));
}

TEST(Backoff, TotalDelayNeverExceedsTheCap) {
  // Regression: jitter used to be added *after* the cap was applied, so any
  // attempt whose exponential base reached backoff_max_ms could sleep up to
  // base-1 ms past the configured ceiling. The cap bounds the total.
  SupervisorOptions opts;
  opts.backoff_base_ms = 100;
  opts.backoff_max_ms = 500;
  for (std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{7}, std::uint64_t{0xdeadbeef}}) {
    opts.jitter_seed = seed;
    for (int attempt = 1; attempt <= 64; ++attempt) {
      for (const char* id : {"a", "job-1", "a-much-longer-job-identifier"}) {
        EXPECT_LE(backoff_delay_ms(opts, id, attempt), opts.backoff_max_ms)
            << id << " attempt " << attempt << " seed " << seed;
      }
    }
  }
}

TEST(Backoff, SurvivesAdversarialBaseAndHugeAttempts) {
  // Base above the cap: the cap still wins, jitter included.
  SupervisorOptions opts;
  opts.backoff_base_ms = 900;
  opts.backoff_max_ms = 500;
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(backoff_delay_ms(opts, "j", attempt), 500u) << attempt;
  }

  // Overflow hardening: doubling a near-2^63 base across a deep attempt
  // count must saturate at the cap, never wrap around to a tiny delay.
  opts.backoff_base_ms = (~std::uint64_t{0} / 2) + 3;
  opts.backoff_max_ms = ~std::uint64_t{0};
  std::uint64_t d = backoff_delay_ms(opts, "j", 64);
  EXPECT_GE(d, opts.backoff_base_ms);
  EXPECT_LE(d, opts.backoff_max_ms);

  // Degenerate cap: a zero ceiling means no delay at all.
  opts.backoff_base_ms = 100;
  opts.backoff_max_ms = 0;
  EXPECT_EQ(backoff_delay_ms(opts, "j", 5), 0u);
}

// ---------------------------------------------- supervisor (warm worker pool)

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::reset(); }
  void TearDown() override { fault::reset(); }

  SupervisorOptions fast_opts() {
    SupervisorOptions opts;
    opts.workers = 2;
    opts.max_attempts = 3;
    opts.backoff_base_ms = 10;
    opts.backoff_max_ms = 50;
    opts.default_timeout = 5;
    return opts;
  }

  // A memory budget of `headroom_mb` above this process's own resident
  // footprint. Warm workers are forks of this process, so their RSS starts
  // where it stands -- far above a fixed budget in a sanitizer build that
  // has already run many tests in one binary.
  long budget_mb(long headroom_mb) {
    return worker_rss_bytes(getpid()) / (1l << 20) + headroom_mb;
  }

  JobSpec job(const std::string& id, const std::string& design) {
    JobSpec j;
    j.id = id;
    j.design = std::string(TV_REPO_ROOT) + design;
    return j;
  }

  const JobRecord* find(const Manifest& m, const std::string& id) {
    for (const JobRecord& r : m.jobs) {
      if (r.id == id) return &r;
    }
    return nullptr;
  }
};

TEST_F(SupervisorTest, TerminalStatesMapWorkerExitCodes) {
  JobSpec clean = job("clean", "/designs/stdlib_pipeline.shdl");
  clean.stdlib = true;
  JobSpec viol = job("viol", "/designs/regfile_example.shdl");
  JobSpec bad = job("bad", "/designs/no_such_design.shdl");
  JobSpec degraded = job("degraded", "/designs/stdlib_pipeline.shdl");
  degraded.stdlib = true;
  degraded.time_limit = 1e-9;  // instantly-expired budget -> partial, exit 3

  Manifest m = run_jobs({clean, viol, bad, degraded}, fast_opts());
  ASSERT_EQ(m.jobs.size(), 4u);
  EXPECT_EQ(find(m, "clean")->state, JobState::Done);
  EXPECT_EQ(find(m, "viol")->state, JobState::Violations);
  EXPECT_EQ(find(m, "bad")->state, JobState::InputError);
  EXPECT_EQ(find(m, "bad")->attempts, 1);  // permanent: no retry
  EXPECT_EQ(find(m, "degraded")->state, JobState::Degraded);
  EXPECT_EQ(m.exit_code(), 2);
}

TEST_F(SupervisorTest, TransientFaultRetriesThenSucceeds) {
  JobSpec j = job("flaky", "/designs/regfile_example.shdl");
  j.fault = "io.read@1:fail";
  j.fault_attempts = 1;  // attempt 1 fails, attempt 2 runs clean
  Manifest m = run_jobs({j}, fast_opts());
  const JobRecord* r = find(m, "flaky");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::Violations);
  EXPECT_EQ(r->attempts, 2);
  ASSERT_EQ(r->outcomes.size(), 2u);
  EXPECT_EQ(r->outcomes[0], "exit:5");
  EXPECT_EQ(r->outcomes[1], "exit:1");
}

TEST_F(SupervisorTest, CrashEveryAttemptExhaustsRetries) {
  JobSpec j = job("crasher", "/designs/regfile_example.shdl");
  j.fault = "evaluator.eval@1:abort";  // every attempt dies by SIGABRT
  Manifest m = run_jobs({j}, fast_opts());
  const JobRecord* r = find(m, "crasher");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::Crashed);
  EXPECT_EQ(job_state_exit_code(r->state), 4);
  EXPECT_EQ(r->attempts, 3);
  ASSERT_EQ(r->outcomes.size(), 3u);
  for (const std::string& o : r->outcomes) EXPECT_EQ(o, "signal:" + std::to_string(SIGABRT));
  EXPECT_EQ(m.exit_code(), 4);
}

TEST_F(SupervisorTest, WatchdogKillsHungWorkerAndRetries) {
  JobSpec j = job("hung", "/designs/regfile_example.shdl");
  j.fault = "evaluator.eval@1:hang";
  j.fault_attempts = 1;
  SupervisorOptions opts = fast_opts();
  opts.default_timeout = 0.5;  // hang is detected within half a second
  Manifest m = run_jobs({j}, opts);
  const JobRecord* r = find(m, "hung");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::Violations);
  EXPECT_EQ(r->attempts, 2);
  ASSERT_EQ(r->outcomes.size(), 2u);
  EXPECT_EQ(r->outcomes[0], "timeout");
  EXPECT_EQ(r->outcomes[1], "exit:1");
}

TEST_F(SupervisorTest, InjectedSpawnFailureRetries) {
  // serve.spawn is a daemon-side site: the launch itself fails once, then
  // the retry goes through.
  ASSERT_TRUE(fault::configure("serve.spawn@1:fail"));
  JobSpec j = job("spawny", "/designs/regfile_example.shdl");
  Manifest m = run_jobs({j}, fast_opts());
  const JobRecord* r = find(m, "spawny");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::Violations);
  EXPECT_EQ(r->attempts, 2);
  ASSERT_EQ(r->outcomes.size(), 2u);
  EXPECT_EQ(r->outcomes[0], "spawn-failed");
}

TEST_F(SupervisorTest, ShutdownRequeuesPendingJobs) {
  volatile std::sig_atomic_t shutdown = 1;  // requested before the run starts
  SupervisorOptions opts = fast_opts();
  opts.shutdown = &shutdown;
  Manifest m = run_jobs({job("p1", "/designs/regfile_example.shdl"),
                         job("p2", "/designs/regfile_example.shdl")},
                        opts);
  ASSERT_EQ(m.jobs.size(), 2u);
  for (const JobRecord& r : m.jobs) {
    EXPECT_EQ(r.state, JobState::Requeued);
    EXPECT_EQ(r.attempts, 0);
  }
  EXPECT_EQ(m.exit_code(), 0);
}

TEST_F(SupervisorTest, ShutdownDrainsRunningWorkersWithWatchdogArmed) {
  // One hung worker is running when shutdown arrives: the supervisor must
  // not exit until the watchdog reaps it, and the job lands Requeued (not
  // lost) with its timeout attempt on record.
  volatile std::sig_atomic_t shutdown = 0;
  SupervisorOptions opts = fast_opts();
  opts.workers = 1;
  opts.default_timeout = 0.5;
  opts.shutdown = &shutdown;
  JobSpec hung = job("hung", "/designs/regfile_example.shdl");
  hung.fault = "evaluator.eval@1:hang";  // every attempt hangs
  JobSpec pending = job("pending", "/designs/regfile_example.shdl");
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    shutdown = 1;
  });
  Manifest m = run_jobs({hung, pending}, opts);
  trigger.join();
  const JobRecord* h = find(m, "hung");
  ASSERT_TRUE(h);
  EXPECT_EQ(h->state, JobState::Requeued);
  EXPECT_EQ(h->attempts, 1);
  ASSERT_EQ(h->outcomes.size(), 1u);
  EXPECT_EQ(h->outcomes[0], "timeout");
  const JobRecord* p = find(m, "pending");
  ASSERT_TRUE(p);
  EXPECT_EQ(p->state, JobState::Requeued);
  EXPECT_EQ(p->attempts, 0);
}

TEST_F(SupervisorTest, ManifestIsByteStableAcrossIdenticalRuns) {
  JobSpec flaky = job("flaky", "/designs/regfile_example.shdl");
  flaky.fault = "io.read@1:fail";
  flaky.fault_attempts = 1;
  JobSpec clean = job("clean", "/designs/stdlib_pipeline.shdl");
  clean.stdlib = true;
  JobSpec crasher = job("crasher", "/designs/regfile_example.shdl");
  crasher.fault = "evaluator.eval@1:abort";
  std::vector<JobSpec> batch{flaky, clean, crasher};
  std::string first = run_jobs(batch, fast_opts()).to_json();
  std::string second = run_jobs(batch, fast_opts()).to_json();
  EXPECT_EQ(first, second);
}

// ------------------------------------------- drain-vs-retry regressions

TEST_F(SupervisorTest, DrainDuringFinalAttemptRequeuesInsteadOfCrashing) {
  // Regression: a worker reaped by the drain watchdog on the job's *last*
  // allowed attempt used to fall through to the retries-exhausted branch
  // and settle "crashed" (exit 4). Draining wins: the job is requeued with
  // the interrupted attempt on record but not held against it.
  volatile std::sig_atomic_t shutdown = 0;
  SupervisorOptions opts = fast_opts();
  opts.workers = 1;
  opts.max_attempts = 1;
  opts.default_timeout = 0.5;
  opts.shutdown = &shutdown;
  JobSpec hung = job("hung", "/designs/regfile_example.shdl");
  hung.fault = "evaluator.eval@1:hang";
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    shutdown = 1;
  });
  Manifest m = run_jobs({hung}, opts);
  trigger.join();
  const JobRecord* r = find(m, "hung");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::Requeued);
  EXPECT_EQ(r->attempts, 1);
  ASSERT_EQ(r->outcomes.size(), 1u);
  EXPECT_EQ(r->outcomes[0], "timeout");
  EXPECT_EQ(m.exit_code(), 0);
}

TEST_F(SupervisorTest, DrainDuringRetryBackoffRequeuesWithoutBurningAnAttempt) {
  // Shutdown lands while the job sits in its retry-backoff window: the
  // pending retry is abandoned, the manifest records "requeued" (never
  // "crashed"), and only the attempt that actually ran is counted.
  volatile std::sig_atomic_t shutdown = 0;
  SupervisorOptions opts = fast_opts();
  opts.workers = 1;
  opts.backoff_base_ms = 2000;
  opts.backoff_max_ms = 2000;
  opts.shutdown = &shutdown;
  JobSpec j = job("flappy", "/designs/regfile_example.shdl");
  j.fault = "evaluator.eval@1:abort";  // attempt 1 crashes -> backoff
  std::thread trigger([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    shutdown = 1;
  });
  Manifest m = run_jobs({j}, opts);
  trigger.join();
  const JobRecord* r = find(m, "flappy");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::Requeued);
  EXPECT_EQ(r->attempts, 1);
  ASSERT_EQ(r->outcomes.size(), 1u);
  EXPECT_EQ(r->outcomes[0], "signal:" + std::to_string(SIGABRT));
  EXPECT_EQ(m.exit_code(), 0);
}

// ------------------------------------------ overload policy (mem/shed/poison)

TEST_F(SupervisorTest, MemoryBudgetBreachSettlesResourceExhausted) {
  // The bloat fault leaks touched pages until the supervisor's RSS watchdog
  // (sampling /proc/<pid>/statm) crosses the budget and SIGKILLs the worker.
  // Default policy: one breach is terminal -- a job that blows its budget
  // once will blow it on every retry, so retrying just burns the node.
  JobSpec j = job("hog", "/designs/regfile_example.shdl");
  j.fault = "evaluator.eval@1:bloat";
  SupervisorOptions opts = fast_opts();
  opts.mem_limit_mb = budget_mb(192);
  opts.default_timeout = 30;  // the memory watchdog must fire, not the clock
  Manifest m = run_jobs({j}, opts);
  const JobRecord* r = find(m, "hog");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::ResourceExhausted);
  EXPECT_EQ(r->attempts, 1);
  ASSERT_EQ(r->outcomes.size(), 1u);
  EXPECT_EQ(r->outcomes[0], "mem-limit");
  EXPECT_EQ(m.exit_code(), 6);
}

TEST_F(SupervisorTest, MemRetryGivesBreachedJobsAnotherAttempt) {
  JobSpec j = job("hog", "/designs/regfile_example.shdl");
  j.fault = "evaluator.eval@1:bloat";
  j.fault_attempts = 1;  // attempt 1 bloats, attempt 2 runs clean
  SupervisorOptions opts = fast_opts();
  opts.mem_limit_mb = budget_mb(192);
  opts.mem_retry = true;
  opts.default_timeout = 30;
  Manifest m = run_jobs({j}, opts);
  const JobRecord* r = find(m, "hog");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::Violations);
  EXPECT_EQ(r->attempts, 2);
  ASSERT_EQ(r->outcomes.size(), 2u);
  EXPECT_EQ(r->outcomes[0], "mem-limit");
  EXPECT_EQ(r->outcomes[1], "exit:1");
}

TEST_F(SupervisorTest, AdmissionCapShedsBeyondMaxQueueDeterministically) {
  // Bounded admission: jobs past the cap are refused up front (by input
  // index, so the decision is reproducible), settle "shed" with zero
  // attempts, and are journaled/reported explicitly rather than silently
  // dropped.
  std::vector<JobSpec> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(job("j" + std::to_string(i), "/designs/regfile_example.shdl"));
  }
  SupervisorOptions opts = fast_opts();
  opts.max_queue = 3;
  Manifest m = run_jobs(batch, opts);
  ASSERT_EQ(m.jobs.size(), 5u);
  for (int i = 0; i < 3; ++i) {
    const JobRecord* r = find(m, "j" + std::to_string(i));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->state, JobState::Violations) << r->id;
    EXPECT_EQ(r->attempts, 1) << r->id;
  }
  for (int i = 3; i < 5; ++i) {
    const JobRecord* r = find(m, "j" + std::to_string(i));
    ASSERT_TRUE(r);
    EXPECT_EQ(r->state, JobState::Shed) << r->id;
    EXPECT_EQ(r->attempts, 0) << r->id;
    EXPECT_TRUE(r->outcomes.empty()) << r->id;
  }
  EXPECT_EQ(m.exit_code(), 7);  // shed work outranks a mere violation verdict
  EXPECT_EQ(m.to_json(), run_jobs(batch, opts).to_json());
}

TEST_F(SupervisorTest, PoisonDesignTripsTheBreakerAndQuarantines) {
  // Two consecutive crashed settlements against one design trip its breaker
  // (K=2); the third job sharing the design fast-fails "quarantined" without
  // ever launching a worker, while an unrelated design is untouched.
  JobSpec c1 = job("c1", "/designs/regfile_example.shdl");
  c1.fault = "evaluator.eval@1:abort";  // every attempt dies
  JobSpec c2 = c1;
  c2.id = "c2";
  JobSpec victim = job("c3", "/designs/regfile_example.shdl");
  JobSpec other = job("other", "/designs/stdlib_pipeline.shdl");
  other.stdlib = true;
  SupervisorOptions opts = fast_opts();
  opts.quarantine_after = 2;
  Manifest m = run_jobs({c1, c2, victim, other}, opts);
  EXPECT_EQ(find(m, "c1")->state, JobState::Crashed);
  EXPECT_EQ(find(m, "c2")->state, JobState::Crashed);
  const JobRecord* q = find(m, "c3");
  ASSERT_TRUE(q);
  EXPECT_EQ(q->state, JobState::Quarantined);
  EXPECT_EQ(q->attempts, 0);
  EXPECT_TRUE(q->outcomes.empty());
  EXPECT_EQ(find(m, "other")->state, JobState::Done);
  EXPECT_EQ(m.exit_code(), 4);  // the real crashes outrank the quarantine
}

TEST_F(SupervisorTest, AVerdictResetsTheBreaker) {
  // crash, verdict, crash against one design: never two *consecutive*
  // failures, so with K=2 nothing is quarantined.
  JobSpec c1 = job("c1", "/designs/regfile_example.shdl");
  c1.fault = "evaluator.eval@1:abort";
  JobSpec ok1 = job("ok1", "/designs/regfile_example.shdl");
  JobSpec c2 = c1;
  c2.id = "c2";
  JobSpec tail = job("tail", "/designs/regfile_example.shdl");
  SupervisorOptions opts = fast_opts();
  opts.quarantine_after = 2;
  Manifest m = run_jobs({c1, ok1, c2, tail}, opts);
  EXPECT_EQ(find(m, "c1")->state, JobState::Crashed);
  EXPECT_EQ(find(m, "ok1")->state, JobState::Violations);
  EXPECT_EQ(find(m, "c2")->state, JobState::Crashed);
  EXPECT_EQ(find(m, "tail")->state, JobState::Violations);
  EXPECT_EQ(find(m, "tail")->attempts, 1);
}

// Forwards to a warm pool and reads each worker's RLIMIT_DATA from
// /proc/<pid>/limits once it has answered: a worker that has replied is
// past its fork-time setup and still alive in the idle pool.
class LimitProbeBackend : public WorkerBackend {
 public:
  explicit LimitProbeBackend(const SupervisorOptions& opts)
      : inner_(make_warm_pool_backend(opts)) {}
  pid_t launch(const JobSpec& job, int attempt) override {
    return inner_->launch(job, attempt);
  }
  WorkerPoll poll(pid_t pid) override {
    WorkerPoll p = inner_->poll(pid);
    if (p.kind == WorkerPoll::Kind::Exited) {
      std::ifstream in("/proc/" + std::to_string(pid) + "/limits");
      std::string line;
      while (std::getline(in, line)) {
        if (line.rfind("Max data size", 0) == 0) data_limits.push_back(line);
      }
    }
    return p;
  }
  void kill_worker(pid_t pid) override { inner_->kill_worker(pid); }

  std::vector<std::string> data_limits;  // one "Max data size" row per answer

 private:
  std::unique_ptr<WorkerBackend> inner_;
};

TEST_F(SupervisorTest, WarmWorkersRunUnderTheMemoryBackstop) {
  // The kernel-side backstop under the RSS watchdog: a warm worker forked
  // under a memory budget carries RLIMIT_DATA = 4x budget + 256 MiB.
  if (memory_backstop_bytes(64) == 0) GTEST_SKIP() << "backstop is off in ASan builds";
  EXPECT_EQ(memory_backstop_bytes(0), 0u);
  EXPECT_EQ(memory_backstop_bytes(64), (64ull << 22) + (256ull << 20));
  SupervisorOptions opts = fast_opts();
  opts.mem_limit_mb = budget_mb(64);
  LimitProbeBackend probe(opts);
  Manifest m = run_jobs({job("j", "/designs/regfile_example.shdl")}, opts, probe);
  ASSERT_EQ(m.jobs.size(), 1u);
  EXPECT_EQ(m.jobs[0].state, JobState::Violations);
  ASSERT_EQ(probe.data_limits.size(), 1u);
  std::string bytes = std::to_string(memory_backstop_bytes(opts.mem_limit_mb));
  std::istringstream row(probe.data_limits[0].substr(std::strlen("Max data size")));
  std::string soft, hard;
  row >> soft >> hard;
  EXPECT_EQ(soft, bytes) << probe.data_limits[0];
  EXPECT_EQ(hard, bytes) << probe.data_limits[0];
}

// ------------------------------- warm pool vs the fork/exec reference oracle

#ifdef TV_SCALDTV_PATH

class WarmSupervisorTest : public SupervisorTest {
 protected:
  // The manifest the stateless fork/exec reference writes for `batch`.
  std::string reference(const std::vector<JobSpec>& batch, const SupervisorOptions& opts) {
    check::ForkExecReference ref(TV_SCALDTV_PATH, opts);
    return run_jobs(batch, opts, ref).to_json();
  }
};

TEST_F(WarmSupervisorTest, ManifestMatchesForkExecByteForByte) {
  // The warm pool is an execution strategy, not a semantic change: the same
  // mixed batch (clean, violating, input-error, transient-then-clean) must
  // produce a manifest byte-identical to the fork/exec reference's.
  JobSpec clean = job("clean", "/designs/stdlib_pipeline.shdl");
  clean.stdlib = true;
  JobSpec viol = job("viol", "/designs/regfile_example.shdl");
  JobSpec bad = job("bad", "/designs/no_such_design.shdl");
  JobSpec flaky = job("flaky", "/designs/regfile_example.shdl");
  flaky.fault = "io.read@1:fail";
  flaky.fault_attempts = 1;
  std::vector<JobSpec> batch{clean, viol, bad, flaky};
  EXPECT_EQ(run_jobs(batch, fast_opts()).to_json(), reference(batch, fast_opts()));
}

TEST_F(WarmSupervisorTest, WorkerIsReusedAcrossJobsOfOneDesign) {
  // Five jobs against the same design on one worker slot: each must report
  // the identical verdict even though one resident process serves them all
  // (stale per-run state -- armed deadlines, case results -- must not leak
  // from job to job).
  std::vector<JobSpec> batch;
  for (int i = 0; i < 5; ++i) {
    batch.push_back(job("j" + std::to_string(i), "/designs/regfile_example.shdl"));
  }
  SupervisorOptions opts = fast_opts();
  opts.workers = 1;
  Manifest m = run_jobs(batch, opts);
  ASSERT_EQ(m.jobs.size(), 5u);
  for (const JobRecord& r : m.jobs) {
    EXPECT_EQ(r.state, JobState::Violations) << r.id;
    EXPECT_EQ(r.attempts, 1) << r.id;
  }
}

TEST_F(WarmSupervisorTest, ServesCompiledArtifacts) {
  // A compiled-artifact job on the warm path: the resident worker loads the
  // artifact once and reproduces the source-path verdict (quickstart's one
  // deliberate set-up violation).
  examples::ExampleDesign d = examples::quickstart();
  CompiledDesign design = compile_design(d.name, *d.netlist, d.options,
                                         d.cases, CompiledSummary{});
  std::string path = ::testing::TempDir() + "serve_warm_quickstart.tvc";
  std::string error;
  ASSERT_TRUE(write_compiled_file(design, path, &error)) << error;

  JobSpec c1;
  c1.id = "c1";
  c1.design = path;
  c1.compiled = true;
  JobSpec c2 = c1;
  c2.id = "c2";
  SupervisorOptions opts = fast_opts();
  opts.workers = 1;  // the second job reuses the warm artifact worker
  Manifest warm = run_jobs({c1, c2}, opts);
  ASSERT_EQ(warm.jobs.size(), 2u);
  for (const JobRecord& r : warm.jobs) {
    EXPECT_EQ(r.state, JobState::Violations) << r.id;
    EXPECT_EQ(r.attempts, 1) << r.id;
  }
  // And byte-identical to the fork/exec scaldtv --compiled path.
  EXPECT_EQ(warm.to_json(), reference({c1, c2}, opts));
  std::remove(path.c_str());
}

TEST_F(WarmSupervisorTest, CompiledStreamMatchesForkExecByteForByte) {
  // The compile-then-serve deployment: one scaldtvc artifact, a 50-job
  // stream on 4 workers. The warm manifest must be byte-stable and
  // byte-identical to the fork/exec reference's.
  std::string path = ::testing::TempDir() + "serve_stream_regfile.tvc";
  std::string cmd = std::string("'") + TV_SCALDTVC_PATH + "' -o '" + path + "' '" +
                    TV_REPO_ROOT + "/designs/regfile_example.shdl' >/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0) << cmd;
  std::vector<JobSpec> batch;
  for (int i = 0; i < 50; ++i) {
    JobSpec j;
    char id[16];
    std::snprintf(id, sizeof id, "s%02d", i);
    j.id = id;
    j.design = path;
    j.compiled = true;
    batch.push_back(std::move(j));
  }
  SupervisorOptions opts = fast_opts();
  opts.workers = 4;
  opts.default_timeout = 30;
  Manifest warm = run_jobs(batch, opts);
  EXPECT_EQ(warm.count(JobState::Violations), 50u);
  EXPECT_EQ(warm.to_json(), run_jobs(batch, opts).to_json());
  EXPECT_EQ(warm.to_json(), reference(batch, opts));
  std::remove(path.c_str());
}

TEST_F(WarmSupervisorTest, MemoryBreachManifestMatchesForkExecByteForByte) {
  // A budget breach is a policy decision, not a backend detail: the same
  // mixed batch (one hog, one clean job) must settle identically -- byte
  // for byte -- whether the worker was warm or fork/exec'd.
  JobSpec hog = job("hog", "/designs/regfile_example.shdl");
  hog.fault = "evaluator.eval@1:bloat";
  JobSpec clean = job("clean", "/designs/stdlib_pipeline.shdl");
  clean.stdlib = true;
  std::vector<JobSpec> batch{hog, clean};
  SupervisorOptions opts = fast_opts();
  opts.mem_limit_mb = budget_mb(192);
  opts.default_timeout = 30;
  Manifest wm = run_jobs(batch, opts);
  const JobRecord* r = find(wm, "hog");
  ASSERT_TRUE(r);
  EXPECT_EQ(r->state, JobState::ResourceExhausted);
  ASSERT_EQ(r->outcomes.size(), 1u);
  EXPECT_EQ(r->outcomes[0], "mem-limit");
  EXPECT_EQ(wm.to_json(), reference(batch, opts));
}

#endif  // TV_SCALDTV_PATH

// ------------------------------------------------ warm worker OOM handling

TEST(WarmWorkerOom, NewHandlerAnswersDoneFiveAndExitsCleanly) {
  // Allocation exhaustion inside a resident worker must surface as the
  // clean transient protocol answer ("done 5" -- retry on a fresh process),
  // never as a half-written response line. Simulate what operator new does
  // when it gives up: invoke the installed new-handler directly.
  int fds[2];
  ASSERT_EQ(pipe(fds), 0);
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    close(fds[0]);
    warm_worker_install_oom_handler(fds[1]);
    std::get_new_handler()();
    _exit(99);  // unreachable: the handler never returns
  }
  close(fds[1]);
  std::string got;
  char buf[32];
  ssize_t n;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) got.append(buf, static_cast<std::size_t>(n));
  close(fds[0]);
  EXPECT_EQ(got, "done 5\n");
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 5);
}

}  // namespace
}  // namespace tv::serve
