// serve_stream: a warm-pool job stream through run_jobs, journal on. Set-up
// compiles several seeded S-1 sections to .tvc files, writes one delta file
// per design and warms the pool with one pass of the stream. One operation
// queues the whole stream (a quarter of it reverify jobs) and runs it to the
// end with workers = min(4, nproc - 1), leaving a core for the supervisor.
#include <stdlib.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "core/compiled.hpp"
#include "core/incremental.hpp"
#include "inputs.hpp"
#include "serve/journal.hpp"
#include "serve/supervisor.hpp"
#include "serve/warm_pool.hpp"
#include "util/atomic_file.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace serve = tv::serve;

constexpr int kSectionStages[] = {2, 4, 6, 8, 10, 12};
constexpr int kDesigns = sizeof kSectionStages / sizeof kSectionStages[0];
constexpr int kJobsPerStream = 360;
constexpr int kCasesPerDesign = 4;

/// Forwards to the warm pool and times every attempt: when its launch
/// began and returned, when its exit was observed, and how often it was
/// polled in between.
class TimingBackend : public serve::WorkerBackend {
 public:
  struct Attempt {
    const serve::JobSpec* job = nullptr;
    pid_t pid = -1;
    Clock::time_point launch_start, launched, exited;
    long polls = 0;
    bool done = false;
  };

  explicit TimingBackend(serve::WorkerBackend& inner) : inner_(inner) {}

  void start_stream(Tracer* t) {
    attempts_.clear();
    running_.clear();
    tracer_ = t;
    stream_start_ = Clock::now();
  }

  pid_t launch(const serve::JobSpec& job, int attempt) override {
    Attempt a;
    a.job = &job;
    a.launch_start = Clock::now();
    pid_t pid;
    {
      Span s(tracer_, "serve.launch");
      pid = inner_.launch(job, attempt);
    }
    a.launched = Clock::now();
    a.pid = pid;
    if (pid >= 0) {
      running_[pid] = attempts_.size();
    } else {
      a.exited = a.launched;
      a.done = true;
    }
    attempts_.push_back(a);
    return pid;
  }

  serve::WorkerPoll poll(pid_t pid) override {
    serve::WorkerPoll p = inner_.poll(pid);
    auto it = running_.find(pid);
    if (it != running_.end()) {
      Attempt& a = attempts_[it->second];
      ++a.polls;
      if (p.kind != serve::WorkerPoll::Kind::Running) {
        a.exited = Clock::now();
        a.done = true;
        running_.erase(it);
      }
    }
    return p;
  }

  void kill_worker(pid_t pid) override { inner_.kill_worker(pid); }
  std::size_t evictions() const override { return inner_.evictions(); }
  std::size_t durability_degraded() const override { return inner_.durability_degraded(); }

  const std::vector<Attempt>& attempts() const { return attempts_; }
  Clock::time_point stream_start() const { return stream_start_; }

 private:
  serve::WorkerBackend& inner_;
  Tracer* tracer_ = nullptr;
  Clock::time_point stream_start_;
  std::vector<Attempt> attempts_;
  std::unordered_map<pid_t, std::size_t> running_;
};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Memory only `pid` holds, in bytes (private pages from smaps_rollup), or
/// -1 when unreadable. A forked worker's RSS also counts every supervisor
/// page it inherited, which depends on when it was forked.
long private_bytes(pid_t pid) {
  std::FILE* f = std::fopen(("/proc/" + std::to_string(pid) + "/smaps_rollup").c_str(), "r");
  if (!f) return -1;
  long total_kb = 0;
  char line[256];
  while (std::fgets(line, sizeof line, f)) {
    long kb = 0;
    if (std::sscanf(line, "Private_Clean: %ld kB", &kb) == 1 ||
        std::sscanf(line, "Private_Dirty: %ld kB", &kb) == 1) {
      total_kb += kb;
    }
  }
  std::fclose(f);
  return total_kb * 1024;
}

serve::JobState state_of(int verdict) {
  switch (verdict) {
    case 0: return serve::JobState::Done;
    case 1: return serve::JobState::Violations;
    case 3: return serve::JobState::Degraded;
    default: return serve::JobState::InputError;
  }
}

struct Setup {
  std::string dir;
  std::vector<std::string> files;  // removed, with `dir`, on destruction
  std::vector<serve::JobSpec> jobs;
  std::vector<serve::JobState> expected;  // per job
  std::size_t prims = 0, tvc_bytes = 0, reverify_jobs = 0;
  serve::SupervisorOptions opts;
  std::unique_ptr<serve::WorkerBackend> pool;
  std::unique_ptr<TimingBackend> timing;
  std::string manifest;  // the warm-up stream's manifest

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() {
    timing.reset();
    pool.reset();  // kills and reaps every resident worker
    for (const std::string& f : files) std::remove(f.c_str());
    if (!dir.empty()) {
      std::remove(journal_path().c_str());
      rmdir(dir.c_str());
    }
  }

  std::string journal_path() const { return dir + "/stream.journal"; }

  /// Runs the whole stream once; the journal lives for the stream.
  serve::Manifest run_stream(std::unique_ptr<serve::Journal>& journal, Tracer* t) {
    Span s(t, "serve.stream");
    std::string error;
    journal = serve::Journal::create(journal_path(), jobs, opts.jitter_seed, opts.max_attempts,
                                     serve::BatchPolicy{}, &error);
    if (!journal) throw std::runtime_error("cannot create the journal: " + error);
    opts.journal = journal.get();
    timing->start_stream(t);
    serve::Manifest m = serve::run_jobs(jobs, opts, *timing);
    opts.journal = nullptr;
    return m;
  }

  /// "" when every job settled as expected and the journal kept up.
  std::string check(const serve::Manifest& m, const serve::Journal& journal) const {
    if (!journal.ok()) return "journal failed: " + journal.error();
    if (m.jobs.size() != jobs.size()) return "manifest lost jobs";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (m.jobs[i].state != expected[i]) {
        return "job " + jobs[i].id + " settled " + serve::job_state_name(m.jobs[i].state) +
               ", expected " + serve::job_state_name(expected[i]);
      }
    }
    return "";
  }
};

/// A delta file slowing stage `stage`'s result gate in `nl` by a few tenths
/// of a nanosecond, as scaldtv --reverify reads it. Every design gets the
/// same kind of edit, so reverify jobs cost alike from seed to seed.
std::string delta_json(const tv::Netlist& nl, int stage, Rng& rng) {
  const tv::SignalId out = nl.find("S" + std::to_string(stage) + " RESULT<0:35>");
  const tv::Primitive& p = nl.prim(nl.signal(out).driver);
  char times[96];
  std::snprintf(times, sizeof times, "\"dmin\": %.3f, \"dmax\": %.3f", tv::to_ns(p.dmin),
                tv::to_ns(p.dmax) + rng.uniform(0.1, 0.5));
  return "{\"prims\": [{\"prim\": " + json_string(p.name) + ", " + times + "}]}\n";
}

std::unique_ptr<Setup> set_up(const Options& o, unsigned workers, Tracer* t) {
  auto st = std::make_unique<Setup>();
  std::string tmpl = o.workdir + "/serve-XXXXXX";
  if (!mkdtemp(tmpl.data())) throw std::runtime_error("cannot create a temp directory");
  st->dir = tmpl;
  Rng rng(o.seed);
  std::vector<int> sizes(std::begin(kSectionStages), std::end(kSectionStages));
  rng.shuffle(sizes);

  std::vector<int> verdict_plain(kDesigns), verdict_reverify(kDesigns);
  std::vector<std::string> tvc(kDesigns), delta(kDesigns);
  for (int i = 0; i < kDesigns; ++i) {
    const int stages = sizes[static_cast<std::size_t>(i)];
    const int first = static_cast<int>(rng.below(60));
    tv::hdl::ElaboratedDesign d = parse_and_elaborate(s1_section_source(first, stages), t);
    std::vector<tv::CaseSpec> cases;
    for (int c = 0; c < kCasesPerDesign; ++c) {
      cases.push_back(control_case(d.netlist, first + static_cast<int>(rng.below(stages)),
                                   static_cast<int>(rng.below(kControlsPerStage)), c % 2));
    }
    tv::CompiledDesign cd = tv::compile_design(d.name, d.netlist, d.options, cases, {});
    tvc[i] = st->dir + "/design" + std::to_string(i) + ".tvc";
    delta[i] = st->dir + "/design" + std::to_string(i) + ".delta.json";
    std::string error;
    const std::string delta_text = delta_json(d.netlist, first + stages / 2, rng);
    if (!tv::write_compiled_file(cd, tvc[i], &error) ||
        !tv::util::atomic_write_file(delta[i], delta_text, &error)) {
      throw std::runtime_error(error);
    }
    st->files.push_back(tvc[i]);
    st->files.push_back(delta[i]);
    struct stat sb{};
    stat(tvc[i].c_str(), &sb);
    st->tvc_bytes += static_cast<std::size_t>(sb.st_size);
    st->prims += d.netlist.num_prims();

    // Expected verdicts, from an in-process run of the same inputs.
    tv::Verifier v(d.netlist, d.options);
    verdict_plain[i] = verdict(v.verify(cases));
    tv::NetlistDelta nd;
    if (!tv::parse_delta_json(delta_text, d.netlist, &nd, &error)) {
      throw std::runtime_error("generated delta does not parse: " + error);
    }
    verdict_reverify[i] = verdict(v.reverify(nd));
  }

  // The stream: designs round-robin in seeded order; a seeded quarter of
  // each design's jobs are reverify jobs.
  constexpr int kRounds = kJobsPerStream / kDesigns;
  std::vector<std::vector<char>> reverify(kDesigns, std::vector<char>(kRounds, 0));
  for (std::vector<char>& r : reverify) {
    std::fill(r.begin(), r.begin() + kRounds / 4, 1);
    rng.shuffle(r);
  }
  std::vector<int> order(kDesigns);
  for (int i = 0; i < kJobsPerStream; ++i) {
    if (i % kDesigns == 0) {
      for (int k = 0; k < kDesigns; ++k) order[static_cast<std::size_t>(k)] = k;
      rng.shuffle(order);
    }
    const int di = order[static_cast<std::size_t>(i % kDesigns)];
    const bool reverify_job =
        reverify[static_cast<std::size_t>(di)][static_cast<std::size_t>(i / kDesigns)];
    char id[16];
    std::snprintf(id, sizeof id, "j%04d", i);
    serve::JobSpec job;
    job.id = id;
    job.design = tvc[di];
    job.compiled = true;
    if (reverify_job) job.reverify = delta[di];
    st->expected.push_back(
        state_of(job.reverify.empty() ? verdict_plain[di] : verdict_reverify[di]));
    st->jobs.push_back(std::move(job));
  }
  st->reverify_jobs = kDesigns * (kRounds / 4);

  st->opts.warm = true;
  st->opts.workers = workers;
  st->opts.default_timeout = 60;
  st->opts.jitter_seed = o.seed;
  st->pool = serve::make_warm_pool_backend(st->opts);
  st->timing = std::make_unique<TimingBackend>(*st->pool);
  std::unique_ptr<serve::Journal> journal;
  serve::Manifest m = st->run_stream(journal, nullptr);
  std::string why = st->check(m, *journal);
  if (!why.empty()) throw std::runtime_error("warm-up stream: " + why);
  st->manifest = m.to_json();
  return st;
}

/// Median time of one journal append, replaying `m`'s launch / outcome /
/// settle records through a fresh journal in the same directory.
double journal_append_s(const Setup& st, const serve::Manifest& m) {
  const std::string path = st.dir + "/replay.journal";
  std::string error;
  auto journal = serve::Journal::create(path, st.jobs, st.opts.jitter_seed, st.opts.max_attempts,
                                        serve::BatchPolicy{}, &error);
  if (!journal) throw std::runtime_error("cannot create the journal: " + error);
  std::vector<double> appends;
  auto timed = [&](auto&& append) {
    auto t0 = Clock::now();
    append();
    appends.push_back(seconds_since(t0));
  };
  for (const serve::JobRecord& r : m.jobs) {
    for (int a = 1; a <= r.attempts; ++a) {
      timed([&] { journal->record_launch(r.id, a); });
      const std::string& outcome = r.outcomes[static_cast<std::size_t>(a - 1)];
      timed([&] { journal->record_outcome(r.id, a, outcome); });
    }
    timed([&] { journal->record_settle(r.id, r.state); });
  }
  journal.reset();
  std::remove(path.c_str());
  return median(std::move(appends));
}

}  // namespace

Outcome run_serve_stream(const Options& o, Tracer& tracer) {
  Outcome out;
  const unsigned workers = std::max(1u, std::min(4u, nproc() - 1));
  std::vector<double> setup_times;
  auto st = repeat_setup(o, tracer, setup_times,
                         [&](Tracer* t) { return set_up(o, workers, t); });

  // Every untraced attempt's latency: operation, wall seconds.
  std::vector<std::pair<long, double>> raw;
  long op_index = 0;
  std::vector<double> queue_wait, launch, attempt, polls, attempts_per_stream;
  // Peak sampled RSS and private memory per resident worker, and which
  // design it serves.
  std::unordered_map<pid_t, long> worker_rss, worker_private;
  std::unordered_map<pid_t, const std::string*> worker_design;
  serve::Manifest last;
  auto op = [&](Tracer* t) {
    std::unique_ptr<serve::Journal> journal;
    auto t0 = Clock::now();
    serve::Manifest m = st->run_stream(journal, t);
    const double secs = seconds_since(t0);
    out.attempted += static_cast<long>(m.jobs.size());
    std::string why = st->check(m, *journal);
    if (why.empty() && m.to_json() != st->manifest) {
      why = "manifest differs from the warm-up stream";
    }
    if (!why.empty()) out.fail(why);

    const TimingBackend& tb = *st->timing;
    for (const TimingBackend::Attempt& a : tb.attempts()) {
      if (!t) {
        raw.emplace_back(op_index, seconds_since(a.launch_start, a.exited));
      } else {
        queue_wait.push_back(seconds_since(tb.stream_start(), a.launch_start));
        launch.push_back(seconds_since(a.launch_start, a.launched));
        attempt.push_back(seconds_since(a.launched, a.exited));
        polls.push_back(static_cast<double>(a.polls));
      }
      if (a.pid >= 0) {
        long& peak = worker_rss[a.pid];
        peak = std::max(peak, serve::worker_rss_bytes(a.pid));
        long& own = worker_private[a.pid];
        own = std::max(own, private_bytes(a.pid));
        worker_design[a.pid] = &a.job->design;
      }
    }
    if (t) attempts_per_stream.push_back(static_cast<double>(tb.attempts().size()));
    ++op_index;
    last = std::move(m);
    return secs;
  };
  LoopTimes lt = timed_loop(o, tracer, op);

  std::vector<double> samples;
  for (const auto& [i, secs] : raw) samples.push_back(secs * lt.scale[static_cast<std::size_t>(i)]);
  report_latency(out, {"job_p50_s", "job_tail_s", "jobs_per_s"}, samples, "untraced attempts",
                 kJobsPerStream * rate(lt.untraced), setup_times, lt);
  // How many idle residents a design keeps depends on scheduling; the
  // memory the pool needs is one resident per design.
  std::map<std::string, double> design_mb;
  double worker_max_mb = 0;
  for (const auto& [pid, rss] : worker_rss) {
    worker_max_mb = std::max(worker_max_mb, static_cast<double>(rss) / (1 << 20));
    double& d = design_mb[*worker_design[pid]];
    d = std::max(d, static_cast<double>(std::max(worker_private[pid], 0L)) / (1 << 20));
  }
  double workers_mb = 0;
  for (const auto& [design, mb] : design_mb) workers_mb += mb;
  out.set("peak_rss_mb", peak_rss_mb() + workers_mb, "MB");
  out.note("peak_rss_mb counts the supervisor's peak plus, for each of %zu designs, the "
           "private memory of its largest resident: %.1f MB (%zu residents seen)",
           design_mb.size(), workers_mb, worker_rss.size());
  out.note("inputs: %d compiled S-1 sections (2-12 stages, %zu primitives, %zu bytes of "
           ".tvc), %d jobs per stream, %zu of them reverify jobs, %u workers, journal on",
           kDesigns, st->prims, st->tvc_bytes, kJobsPerStream, st->reverify_jobs, workers);
  if (o.trace) {
    out.set("serve.queue_wait_s", median(queue_wait), "s");
    out.set("serve.launch_s", median(launch), "s");
    out.set("serve.attempt_s", median(attempt), "s");
    out.set("serve.polls_per_attempt", median(polls), "count");
    const double attempts = median(attempts_per_stream);
    out.set("serve.attempts", attempts, "count");
    out.set("serve.retries", attempts - kJobsPerStream, "count");
    out.set("serve.journal_append_s", journal_append_s(*st, last), "s");
    out.set("serve.worker_rss_mb", worker_max_mb, "MB");
    report_trace(out, tracer, lt);
  }
  return out;
}

}  // namespace perfbench
