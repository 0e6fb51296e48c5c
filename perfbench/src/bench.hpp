// Shared pieces of the benchmark driver: options, the seeded generator,
// the result record every workload fills, and the timed-loop helpers.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "probe.hpp"
#include "trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds from `t0` to `t1` (by default, to now).
inline double seconds_since(Clock::time_point t0, Clock::time_point t1 = Clock::now()) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// splitmix64: the same seed names the same inputs on every platform and
/// standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;  // scratch directory inside the checkout
  SpeedProbe* probe = nullptr;
};

struct Metric {
  double value = 0;
  const char* unit = "";
};

/// What one workload run reports.
struct Outcome {
  long attempted = 0;
  long failed = 0;  // operations that failed a correctness gate
  std::vector<std::string> failures;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // printed as "# ..." header lines

  /// One operation failed its correctness gate.
  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  void set(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
  template <class... Args>
  void note(const char* fmt, Args... args) {
    char buf[512];
    std::snprintf(buf, sizeof buf, fmt, args...);
    notes.emplace_back(buf);
  }
};

double median(std::vector<double> xs);

/// p90, or the highest percentile below it with at least ten samples
/// beyond it. Higher percentiles of a run's raw repetitions measure the
/// shared host's stalls more than the program.
struct Tail {
  double value = 0;
  int percentile = 100;  // 100 = fewer than 11 samples: the maximum
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_of(std::vector<double> xs);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// Set-up repetitions per run: at least kSetupReps, and more while they
/// have taken less than kSetupSeconds in all. Set-up time is their median.
inline constexpr int kSetupReps = 5;
inline constexpr double kSetupSeconds = 1.5;

/// Runs `setup(tracer_or_null)` repeatedly, timing each (probe-scaled, see
/// probe.hpp), and returns the last repetition's state. Each repetition is
/// its own set-up operation (-1, -2, ...) for the tracer.
template <class Setup>
auto repeat_setup(const Options& o, Tracer& tracer, std::vector<double>& times, Setup&& setup) {
  decltype(setup(nullptr)) state;
  auto start = Clock::now();
  double before = o.probe->run();
  for (int rep = 1; rep <= kSetupReps || seconds_since(start) < kSetupSeconds; ++rep) {
    state.reset();  // one set-up resident at a time
    tracer.set_op(-rep);
    auto t0 = Clock::now();
    state = setup(o.trace ? &tracer : nullptr);
    const double secs = seconds_since(t0);
    const double after = o.probe->run();
    times.push_back(secs * probe_scale(before, after));
    before = after;
  }
  tracer.set_op(0);
  return state;
}

/// Operation times of a timed loop, probe-scaled. A traced run interleaves
/// untraced and traced operations in the order u t t u, u t t u, ..., so
/// trace.overhead compares like with like and neither side always runs
/// second.
struct LoopTimes {
  std::vector<double> untraced;
  std::vector<double> traced;
  std::vector<double> scale;   // operation index -> its probe scale
  std::vector<double> probes;  // every probe's seconds
  double elapsed = 0;
};

/// Calls `op(tracer_or_null)` until `o.seconds` have passed, stopping only
/// after a whole number of `granule` operations. `op` returns the seconds
/// its timed part took (correctness checks after it excluded). The probe
/// runs before the first granule and after each one; a granule's
/// operations are scaled by the probes on either side of it.
template <class Op>
LoopTimes timed_loop(const Options& o, Tracer& tracer, Op&& op, long granule = 1) {
  LoopTimes lt;
  std::vector<std::pair<bool, double>> ops;  // traced?, wall seconds
  auto t0 = Clock::now();
  lt.probes.push_back(o.probe->run());
  int traced_ops = 0;
  for (long i = 0; i % granule != 0 || seconds_since(t0) < o.seconds; ++i) {
    const bool traced = o.trace && (i % 4 == 1 || i % 4 == 2);
    if (traced) tracer.set_op(++traced_ops);
    double secs = op(traced ? &tracer : nullptr);
    if (traced) {
      tracer.op_wall(traced_ops, secs);
      tracer.set_op(0);
    }
    ops.emplace_back(traced, secs);
    if ((i + 1) % granule == 0) {
      lt.probes.push_back(o.probe->run());
      lt.scale.resize(ops.size(), probe_scale(lt.probes.rbegin()[1], lt.probes.back()));
    }
  }
  lt.elapsed = seconds_since(t0);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    (ops[i].first ? lt.traced : lt.untraced).push_back(ops[i].second * lt.scale[i]);
  }
  return lt;
}

/// The best (fastest) of each distinct operation's timed repetitions.
std::vector<double> best_of(const std::vector<std::vector<double>>& reps);

/// What report_latency prints under the workload's own names.
struct LatencyNames {
  const char* p50;
  const char* tail;
  const char* throughput;
};

/// The end-to-end latency metrics and set-up time, all probe-scaled:
/// latency_p50_s and latency_tail_s are the median and tail of `samples`,
/// every untraced `what` as it ran.
void report_latency(Outcome& out, const LatencyNames& names, const std::vector<double>& samples,
                    const char* what, double throughput_per_s,
                    const std::vector<double>& setup_times, const LoopTimes& lt);

/// Operations per second of a closed loop that spent `secs` on them.
double rate(const std::vector<double>& secs);

/// trace.coverage, and trace.overhead: the fastest traced operation over the
/// fastest untraced one, minus 1.
void report_trace(Outcome& out, const Tracer& tracer, const LoopTimes& lt);

}  // namespace perfbench
