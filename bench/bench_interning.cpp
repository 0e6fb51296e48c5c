// Interning + memoization benchmark: whole-run timings, the memo hit rates
// backing the CI cache-stats floor, and the unique-waveform sharing numbers
// against the Table 3-3 storage claim.
//
//   $ ./bench_interning            # human-readable report
//   $ ./bench_interning --json     # machine-readable (CI cache-stats job)
//
// Scenarios:
//   * regfile  -- the thesis' Fig 2-5 register-file pipeline, verified
//                 twice on one Verifier (a re-verification is served almost
//                 entirely from the memo; its hit rate is the CI floor).
//   * s1/N     -- the synthetic S-1 pipeline at N stages: repeated
//                 identical stage macros are where cross-primitive memo
//                 sharing pays off within a single cold run.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>

#include "bench_util.hpp"
#include "core/storage_stats.hpp"
#include "core/verifier.hpp"
#include "example_designs.hpp"
#include "gen/s1_design.hpp"

using namespace tv;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct RunTiming {
  double cold_ms = 0;      // first verify() on a fresh Verifier
  double reverify_ms = 0;  // second verify() on the same Verifier
  InternStats stats;
};

template <class BuildFn>
RunTiming run_twice(BuildFn&& build_design) {
  auto d = build_design();
  Verifier v(*d.netlist, d.options);
  auto t0 = Clock::now();
  v.verify(d.cases);
  RunTiming m;
  m.cold_ms = ms_since(t0);
  t0 = Clock::now();
  v.verify(d.cases);
  m.reverify_ms = ms_since(t0);
  m.stats = collect_intern_stats(*v.evaluator().intern_context());
  return m;
}

struct S1Design {
  std::shared_ptr<Netlist> netlist;
  VerifierOptions options;
  std::vector<CaseSpec> cases;
};

S1Design build_s1(int stages) {
  gen::S1Params p;
  p.stages = stages;
  p.clock_tree_bufs = 0;
  hdl::ElaboratedDesign d = gen::build_s1_design(p);
  S1Design out;
  out.netlist = std::make_shared<Netlist>(std::move(d.netlist));
  out.options = d.options;
  out.cases = std::move(d.cases);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;

  // Best-of-3 timings to keep the JSON stable under scheduler noise; the
  // counters are deterministic.
  auto best = [](auto&& build_design) {
    RunTiming best_m = run_twice(build_design);
    for (int i = 0; i < 2; ++i) {
      RunTiming m = run_twice(build_design);
      best_m.cold_ms = std::min(best_m.cold_ms, m.cold_ms);
      best_m.reverify_ms = std::min(best_m.reverify_ms, m.reverify_ms);
    }
    return best_m;
  };

  RunTiming reg = best([] { return examples::regfile_pipeline(); });

  struct S1Row {
    int stages;
    RunTiming run;
    StorageBreakdown storage;
  };
  std::vector<S1Row> s1_rows;
  for (int stages : {16, 48, 96}) {
    S1Row row;
    row.stages = stages;
    row.run = best([&] { return build_s1(stages); });
    {
      // Storage snapshot from a verified design (unique-waveform figures).
      auto d = build_s1(stages);
      Verifier v(*d.netlist, d.options);
      v.verify(d.cases);
      row.storage = compute_storage(*d.netlist);
    }
    s1_rows.push_back(std::move(row));
  }

  if (json) {
    std::printf("{\n");
    std::printf("  \"bench\": \"interning\",\n");
    std::printf("  \"regfile\": {\"memo_hits\": %zu, \"memo_misses\": %zu, "
                "\"hit_rate\": %.4f, \"unique_waveforms\": %zu, "
                "\"cold_ms\": %.3f, \"reverify_ms\": %.3f},\n",
                reg.stats.memo_hits, reg.stats.memo_misses, reg.stats.memo_hit_rate(),
                reg.stats.unique_waveforms, reg.cold_ms, reg.reverify_ms);
    std::printf("  \"s1\": [");
    for (std::size_t i = 0; i < s1_rows.size(); ++i) {
      const S1Row& r = s1_rows[i];
      std::printf("%s\n    {\"stages\": %d, \"cold_ms\": %.3f, \"reverify_ms\": %.3f, "
                  "\"memo_hits\": %zu, \"memo_misses\": %zu, \"hit_rate\": %.4f, "
                  "\"unique_waveforms\": %zu, \"signals\": %zu, "
                  "\"signals_per_unique_waveform\": %.2f}",
                  i ? "," : "", r.stages, r.run.cold_ms, r.run.reverify_ms,
                  r.run.stats.memo_hits, r.run.stats.memo_misses,
                  r.run.stats.memo_hit_rate(), r.run.stats.unique_waveforms,
                  static_cast<std::size_t>(r.storage.unique_waveforms
                                               ? r.storage.unique_waveforms *
                                                     r.storage.signals_per_unique_waveform
                                               : 0),
                  r.storage.signals_per_unique_waveform);
    }
    std::printf("\n  ]\n}\n");
    return 0;
  }

  std::printf("Waveform interning + evaluation memo-cache\n\n");
  std::printf("regfile pipeline (Fig 2-5):\n");
  std::printf("  cold verify:      %.3f ms\n", reg.cold_ms);
  std::printf("  re-verify:        %.3f ms\n", reg.reverify_ms);
  std::printf("  memo:             %zu hits / %zu misses (%.1f%% hit rate)\n",
              reg.stats.memo_hits, reg.stats.memo_misses, 100.0 * reg.stats.memo_hit_rate());
  std::printf("  unique waveforms: %zu (%zu intern lookups)\n\n", reg.stats.unique_waveforms,
              reg.stats.intern_lookups);

  std::printf("synthetic S-1 pipeline (identical stage macros):\n");
  std::printf("  %7s %12s %12s %10s %9s\n", "stages", "cold", "reverify", "hit rate",
              "uniq wf");
  for (const S1Row& r : s1_rows) {
    std::printf("  %7d %10.2fms %10.2fms %9.1f%% %9zu\n", r.stages, r.run.cold_ms,
                r.run.reverify_ms, 100.0 * r.run.stats.memo_hit_rate(),
                r.run.stats.unique_waveforms);
  }
  std::printf("\n  sharing (Table 3-3 claim: value lists are massively shared):\n");
  for (const S1Row& r : s1_rows) {
    std::printf("    %3d stages: %zu unique waveforms across %.0f signals "
                "(%.1f signals per waveform)\n",
                r.stages, r.storage.unique_waveforms,
                r.storage.unique_waveforms * r.storage.signals_per_unique_waveform,
                r.storage.signals_per_unique_waveform);
  }
  return 0;
}
