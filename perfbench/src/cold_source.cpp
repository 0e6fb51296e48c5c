// cold_source: scaldtv's cold path on one thread. One operation parses the
// S-1 generator's SHDL at 384 stages, elaborates it, verifies it and renders
// the report. The seed slows a few decode gates so the report carries
// violations.
#include <memory>

#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kStages = 384;
constexpr int kSlowedGates = 3;

/// One operation's products, destroyed after its timing ends.
struct ColdRun {
  std::unique_ptr<tv::hdl::ElaboratedDesign> design;
  std::unique_ptr<tv::Verifier> verifier;
  tv::VerifyResult result;
  std::string report;
};

ColdRun plain(const std::string& src) {
  ColdRun run;
  run.design = std::make_unique<tv::hdl::ElaboratedDesign>(parse_and_elaborate(src, nullptr));
  run.verifier = std::make_unique<tv::Verifier>(run.design->netlist, run.design->options);
  run.result = run.verifier->verify();
  run.report = render_report(run.design->name, run.design->netlist, run.result);
  return run;
}

/// The traced operation: verify() taken apart into its phases, each called
/// directly and wrapped in a span.
ColdRun decomposed(const std::string& src, Tracer* t) {
  ColdRun run;
  run.design = std::make_unique<tv::hdl::ElaboratedDesign>(parse_and_elaborate(src, t));
  tv::Netlist& nl = run.design->netlist;
  {
    Span s(t, "core.verifier_init");
    run.verifier = std::make_unique<tv::Verifier>(nl, run.design->options);
  }
  run.result = base_run(run.verifier->evaluator(), t);
  Span s(t, "core.report");
  run.report = render_report(run.design->name, nl, run.result);
  return run;
}

}  // namespace

Outcome run_cold_source(const Options& o, Tracer& tracer) {
  Outcome out;
  std::vector<double> setup_times;
  auto src = repeat_setup(o, tracer, setup_times, [&](Tracer*) {
    Rng rng(o.seed);
    return std::make_unique<std::string>(s1_source(kStages, &rng, kSlowedGates));
  });

  std::string ref_report;
  std::uint64_t ref_print = 0;
  double first_peak_mb = 0;
  auto op = [&](Tracer* t) {
    auto t0 = Clock::now();
    ColdRun run = t ? decomposed(*src, t) : plain(*src);
    const double secs = seconds_since(t0);
    ++out.attempted;
    const tv::VerifyResult& r = run.result;
    if (t) {
      t->count("core.events", static_cast<double>(r.base_events));
      t->count("core.evals", static_cast<double>(r.base_evals));
      t->count("core.violations", static_cast<double>(r.total_violations()));
    }
    if (ref_report.empty()) {
      ref_report = run.report;
      ref_print = fingerprint(r);
      first_peak_mb = peak_rss_mb();
      out.note("inputs: %d stages, %zu bytes of SHDL, %zu primitives, %zu signals, "
               "%d slowed decode gates, %zu violations",
               kStages, src->size(), run.design->netlist.num_prims(),
               run.design->netlist.num_signals(), kSlowedGates, r.violations.size());
    }
    if (!r.converged || r.partial) {
      out.fail("cold run did not converge or was partial");
    } else if (run.report != ref_report || fingerprint(r) != ref_print) {
      out.fail(t ? "decomposed run differs from verify()" : "report differs from first run");
    }
    return secs;
  };
  LoopTimes lt = timed_loop(o, tracer, op);

  report_latency(out, {"cold_run_s", "cold_run_tail_s", "cold_runs_per_s"}, lt.untraced,
                 "untraced cold runs", rate(lt.untraced), setup_times, lt);
  // A scaldtv run is a process of its own, so its peak is the peak after
  // set-up and one cold run. Later runs in the same process start from a
  // heap the earlier ones fragmented, and the process peak after them
  // moved by 10 % from run to run.
  out.set("peak_rss_mb", first_peak_mb, "MB");
  out.note("peak_rss_mb = %.1f MB after set-up and the first cold run (%.1f MB after all %ld)",
           first_peak_mb, peak_rss_mb(), out.attempted);
  out.set("hdl.source_kb", static_cast<double>(src->size()) / 1024.0, "kB");
  if (o.trace) report_trace(out, tracer, lt);
  return out;
}

}  // namespace perfbench
