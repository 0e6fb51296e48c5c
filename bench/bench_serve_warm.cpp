// Warm-pool serving throughput (docs/serving.md): the same compiled-design
// job stream pushed through the supervisor on two worker backends --
//
//   * fork/exec -- the reference oracle from src/check
//     (check/fork_exec_reference.hpp): every job pays a fresh process
//     spawn, artifact load, and intern-table warm-up;
//   * warm      -- scaldtvd's resident pool: one worker per design loads
//     the artifact once and serves every following job with its wave
//     table and evaluation memo already hot.
//
// The design is compiled once (scaldtvc's library path) into a temp
// artifact, mirroring the intended compile-then-serve deployment. Both
// backends load the artifact through load_compiled_file's mmap path
// (read() fallback on filesystems without mmap), so the fork/exec column
// prices a page-cache-shared artifact map per attempt rather than a full
// buffered read -- the remaining warm speedup is the resident process and
// intern table, not I/O. Emits a single JSON document on stdout: wall
// seconds and jobs/sec per backend, the warm/fork-exec speedup, and
// whether the two manifests were byte-identical (they must be -- the
// backend is an execution strategy, not a semantic change).
//
//   $ ./bench_serve_warm            # full stream (EXPERIMENTS.md numbers)
//   $ ./bench_serve_warm --quick    # small stream for the CI smoke job
//
// Exit status: 0 when the manifests agree byte-for-byte, 1 otherwise. The
// CI floor on the speedup itself is asserted from the JSON, not here.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "check/fork_exec_reference.hpp"
#include "core/compiled.hpp"
#include "example_designs.hpp"
#include "serve/supervisor.hpp"

namespace {

using namespace tv;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  // Compile once: the regfile pipeline (the thesis' worked example) frozen
  // into a serve-ready artifact.
  examples::ExampleDesign ex = examples::regfile_pipeline();
  CompiledDesign design = compile_design(ex.name, *ex.netlist, ex.options,
                                         ex.cases, CompiledSummary{});
  std::string artifact = "/tmp/bench_serve_warm_regfile.tvc";
  std::string error;
  if (!write_compiled_file(design, artifact, &error)) {
    std::fprintf(stderr, "cannot write %s: %s\n", artifact.c_str(), error.c_str());
    return 1;
  }

  const int stream = quick ? 20 : 50;
  const int repeats = quick ? 2 : 3;
  std::vector<serve::JobSpec> jobs;
  for (int i = 0; i < stream; ++i) {
    serve::JobSpec j;
    j.id = "job-" + std::string(i < 10 ? "0" : "") + std::to_string(i);
    j.design = artifact;
    j.compiled = true;
    jobs.push_back(std::move(j));
  }

  unsigned hw = std::thread::hardware_concurrency();
  unsigned workers = std::clamp(hw, 2u, 4u);
  serve::SupervisorOptions opts;
  opts.workers = workers;
  opts.default_timeout = 30;

  struct Row {
    double secs = 1e100;
    std::string manifest;
  };
  Row cold, warm;
  for (int rep = 0; rep < repeats; ++rep) {
    {
      check::ForkExecReference reference(TV_SCALDTV_PATH, opts);
      auto t0 = Clock::now();
      serve::Manifest m = serve::run_jobs(jobs, opts, reference);
      cold.secs = std::min(cold.secs, seconds_since(t0));
      cold.manifest = m.to_json();
    }
    {
      auto t0 = Clock::now();
      serve::Manifest m = serve::run_jobs(jobs, opts);
      warm.secs = std::min(warm.secs, seconds_since(t0));
      warm.manifest = m.to_json();
    }
  }
  std::remove(artifact.c_str());

  bool identical = cold.manifest == warm.manifest;
  const double n = stream;
  std::printf("{\n");
  std::printf("  \"bench\": \"serve_warm\",\n");
  std::printf("  \"quick\": %s,\n", quick ? "true" : "false");
  std::printf("  \"design\": \"%s\",\n", ex.name.c_str());
  std::printf("  \"jobs_in_stream\": %d,\n", stream);
  std::printf("  \"artifact_load\": \"mmap (read fallback)\",\n");
  std::printf("  \"workers\": %u,\n", workers);
  std::printf("  \"hardware_concurrency\": %u,\n", hw);
  std::printf("  \"build_type\": \"%s\",\n", TV_BENCH_BUILD_TYPE);
  std::printf("  \"results\": [\n");
  std::printf("    {\"backend\": \"fork-exec\", \"seconds\": %.6f, \"jobs_per_sec\": %.1f},\n",
              cold.secs, n / cold.secs);
  std::printf("    {\"backend\": \"warm\", \"seconds\": %.6f, \"jobs_per_sec\": %.1f, "
              "\"speedup_vs_fork_exec\": %.2f}\n",
              warm.secs, n / warm.secs, cold.secs / warm.secs);
  std::printf("  ],\n");
  std::printf("  \"identical_manifests\": %s\n", identical ? "true" : "false");
  std::printf("}\n");
  return identical ? 0 : 1;
}
