// tv_perfbench: the verifier's end-to-end benchmark driver (README.md).
//
//   tv_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                [--workdir DIR] [--revision TEXT]
//
// Prints "# " header lines (environment, input sizes, every end-to-end
// metric under the workload's own name), then, as the last line, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set.
#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"latency_p50_s", "s"},
    {"latency_tail_s", "s"},
    {"throughput_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"hdl.parse_s", "s"},
    {"hdl.elaborate_s", "s"},
    {"hdl.source_kb", "kB"},
    {"core.verifier_init_s", "s"},
    {"core.base_fixpoint_s", "s"},
    {"core.check_s", "s"},
    {"core.report_s", "s"},
    {"core.events", "count"},
    {"core.evals", "count"},
    {"core.violations", "count"},
    {"compiled.load_s", "s"},
    {"compiled.bytes", "B"},
    {"batch.cone_s", "s"},
    {"batch.schedule_s", "s"},
    {"batch.blocks", "count"},
    {"batch.block_p50_s", "s"},
    {"batch.block_max_s", "s"},
    {"batch.check_s", "s"},
    {"batch.lane_evals", "count"},
    {"batch.lane_skips", "count"},
    {"batch.skip_ratio", "ratio"},
    {"batch.disturbed_signals", "count"},
    {"incr.reverify_s", "s"},
    {"incr.fallbacks", "count"},
    {"incr.dirty_prims", "count"},
    {"incr.touched_signals", "count"},
    {"incr.cases_reevaluated", "count"},
    {"incr.cases_spliced", "count"},
    {"incr.splice_ratio", "ratio"},
    {"incr.events", "count"},
    {"incr.evals", "count"},
    {"fixpoint.serialize_s", "s"},
    {"fixpoint.load_s", "s"},
    {"fixpoint.restore_s", "s"},
    {"fixpoint.bytes", "B"},
    {"serve.queue_wait_s", "s"},
    {"serve.launch_s", "s"},
    {"serve.attempt_s", "s"},
    {"serve.polls_per_attempt", "count"},
    {"serve.attempts", "count"},
    {"serve.retries", "count"},
    {"serve.journal_append_s", "s"},
    {"serve.worker_rss_mb", "MB"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

int usage() {
  std::fprintf(stderr,
               "usage: tv_perfbench --workload cold_source|case_sweep|edit_loop|serve_stream "
               "--seed N --seconds S --trace 0|1 [--workdir DIR] [--revision TEXT]\n");
  return 2;
}

/// Why this build's timings are not representative, or "" when they are.
std::string build_warning() {
  std::string why;
#if !defined(__OPTIMIZE__)
  why += " unoptimized (-O0)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  why += " sanitizer";
#endif
  if (std::strstr(TV_BENCH_CXX_FLAGS, "-fsanitize")) why += " -fsanitize in flags";
  return why;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

bool make_dirs(const std::string& path) {
  for (std::size_t at = 1; at <= path.size(); ++at) {
    if (at != path.size() && path[at] != '/') continue;
    std::string prefix = path.substr(0, at);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

/// Per-layer metrics the workload did not set itself come from the trace:
/// a time "<span>_s" is the span's self time, anything else a counter.
void fill_layers(Outcome& out, const Tracer& tracer) {
  Tracer::SpanStats blocks = tracer.span_stats("batch.block");
  auto set_default = [&](const char* name, double value, const char* unit) {
    if (!out.metrics.count(name)) out.set(name, value, unit);
  };
  set_default("batch.blocks", blocks.per_op, "count");
  set_default("batch.block_p50_s", blocks.p50, "s");
  set_default("batch.block_max_s", blocks.max, "s");
  for (const MetricDef& m : kPerLayer) {
    if (out.metrics.count(m.name)) continue;
    std::string name = m.name;
    if (std::strcmp(m.unit, "s") == 0) {
      std::string span = name.substr(0, name.size() - 2);
      out.set(name, tracer.self_time(span.c_str()), m.unit);
    } else if (std::strcmp(m.unit, "count") == 0) {
      out.set(name, tracer.counter(m.name), m.unit);
    }
  }
  auto ratio = [&](const char* name, const char* part, const char* other) {
    double a = out.metrics[part].value, b = out.metrics[other].value;
    set_default(name, a + b > 0 ? a / (a + b) : 0, "ratio");
  };
  ratio("batch.skip_ratio", "batch.lane_skips", "batch.lane_evals");
  ratio("incr.splice_ratio", "incr.cases_spliced", "incr.cases_reevaluated");
  for (const MetricDef& m : kPerLayer) set_default(m.name, 0, m.unit);
}

int run(int argc, char** argv) {
  Options o;
  std::string revision = "unknown";
  o.workdir = ".bench_build/work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const char* val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      have_seed = end && *end == '\0';
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(val, &end);
      have_seconds = end && *end == '\0' && o.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(val, "0") == 0 || std::strcmp(val, "1") == 0;
      o.trace = std::strcmp(val, "1") == 0;
    } else if (arg == "--workdir") {
      o.workdir = val;
    } else if (arg == "--revision") {
      revision = val;
    } else {
      return usage();
    }
  }
  Outcome (*workload)(const Options&, Tracer&) = nullptr;
  if (o.workload == "cold_source") workload = run_cold_source;
  if (o.workload == "case_sweep") workload = run_case_sweep;
  if (o.workload == "edit_loop") workload = run_edit_loop;
  if (o.workload == "serve_stream") workload = run_serve_stream;
  if (!workload || !have_seed || !have_seconds || !have_trace) return usage();
  if (!make_dirs(o.workdir)) {
    std::fprintf(stderr, "tv_perfbench: cannot create %s\n", o.workdir.c_str());
    return 1;
  }

  SpeedProbe probe;  // forked before any thread or worker starts
  o.probe = &probe;
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  std::printf("# env nproc=%u hardware_concurrency=%u case_jobs=%u build_type=%s "
              "compiler=\"%s\" flags=\"%s\" revision=%s\n",
              nproc(), std::thread::hardware_concurrency(), case_jobs(), TV_BENCH_BUILD_TYPE,
              compiler(), TV_BENCH_CXX_FLAGS, revision.c_str());
  const std::string warning = build_warning();
  if (!warning.empty()) {
    std::printf("# WARNING: NOT AN OPTIMIZED BUILD (%s ); timings are not representative\n",
                warning.c_str() + 1);
    std::fprintf(stderr, "tv_perfbench: WARNING: NOT AN OPTIMIZED BUILD (%s )\n",
                 warning.c_str() + 1);
  }
  std::fflush(stdout);

  Tracer tracer;
  Outcome out = workload(o, tracer);
  for (const std::string& n : out.notes) std::printf("# %s\n", n.c_str());
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "tv_perfbench: FAILED: %s\n", f.c_str());
  }
  std::printf("# error_rate = %.6g (%ld failed of %ld attempted)\n",
              out.attempted ? static_cast<double>(out.failed) / out.attempted : 0.0, out.failed,
              out.attempted);
  if (o.trace) {
    fill_layers(out, tracer);
    std::string path = o.workdir + "/trace-" + o.workload + "-" + std::to_string(o.seed) + ".json";
    std::string error;
    if (tracer.write_json(path, &error)) {
      std::printf("# spans written to %s\n", path.c_str());
    } else {
      std::fprintf(stderr, "tv_perfbench: %s\n", error.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += out.failed == 0 && out.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const MetricDef& m) {
    auto it = out.metrics.find(m.name);
    double v = it == out.metrics.end() ? 0.0 : it->second.value;
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    json += buf;
    first = false;
  };
  if (o.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) {
      if (!out.metrics.count(m.name)) {
        std::fprintf(stderr, "tv_perfbench: workload did not report %s\n", m.name);
        return 1;
      }
      emit(m);
    }
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace

unsigned nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

unsigned case_jobs() {
  unsigned n = nproc();
  return n < 4 ? n : 4;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tv_perfbench: %s\n", e.what());
    return 1;
  }
}
