// case_sweep: the sec. 2.7 case sweep on a compiled design. Set-up compiles
// the S-1 design at 192 stages to a .tvc once; one operation loads it and
// verifies every case with jobs = min(nproc, 4). The case list pins every
// decode control to 0 and to 1, plus seeded two- and three-pin combinations.
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "core/batch_eval.hpp"
#include "core/compiled.hpp"
#include "core/cone.hpp"
#include "inputs.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr int kStages = 192;
constexpr int kSlowedGates = 3;
constexpr int kCombos = 256;

std::vector<tv::CaseSpec> sweep_cases(const tv::Netlist& nl, Rng& rng) {
  std::vector<tv::CaseSpec> cases;
  for (int s = 0; s < kStages; ++s) {
    for (int j = 0; j < kControlsPerStage; ++j) {
      cases.push_back(control_case(nl, s, j, false));
      cases.push_back(control_case(nl, s, j, true));
    }
  }
  for (int k = 0; k < kCombos; ++k) {
    int s = static_cast<int>(rng.below(kStages));
    std::vector<int> ctls(kControlsPerStage);
    for (int j = 0; j < kControlsPerStage; ++j) ctls[static_cast<std::size_t>(j)] = j;
    rng.shuffle(ctls);
    const int pins = 2 + static_cast<int>(rng.below(2));
    tv::CaseSpec c;
    c.name = "S" + std::to_string(s);
    for (int p = 0; p < pins; ++p) {
      tv::CaseSpec one = control_case(nl, s, ctls[static_cast<std::size_t>(p)], rng.below(2));
      c.name += "." + one.name.substr(one.name.find('.') + 1);
      c.pins.push_back(one.pins.front());
    }
    cases.push_back(std::move(c));
  }
  return cases;
}

struct Setup {
  std::string path;
  std::size_t bytes = 0;
  std::size_t cases = 0;
  std::size_t prims = 0;
};

/// One loaded design and its result, destroyed after timing ends. The
/// verifier refers to the design's netlist, so a run stays where it is.
struct SweepRun {
  std::optional<tv::CompiledDesign> design;
  std::unique_ptr<tv::Verifier> verifier;
  tv::VerifyResult result;

  SweepRun() = default;
  SweepRun(const SweepRun&) = delete;
  SweepRun& operator=(const SweepRun&) = delete;
};

bool load(SweepRun& run, const std::string& path, unsigned jobs, Tracer* t) {
  {
    Span s(t, "compiled.load");
    tv::diag::DiagnosticEngine diags;
    run.design = tv::load_compiled_file(path, diags);
  }
  if (!run.design) return false;
  Span s(t, "core.verifier_init");
  tv::VerifierOptions opts = run.design->options;
  opts.jobs = jobs;
  run.verifier = std::make_unique<tv::Verifier>(run.design->netlist, opts);
  tv::preintern_seeds(*run.design, run.verifier->evaluator().intern_context()->table);
  return true;
}

/// The traced operation on one thread: the base run and the batch sweep
/// verify() performs, each phase called directly. Returns "" or why the
/// decomposition could not follow verify()'s batch path.
std::string decomposed(SweepRun& run, Tracer* t) {
  tv::Evaluator& ev = run.verifier->evaluator();
  const tv::Netlist& nl = ev.netlist();
  const tv::VerifierOptions& opts = ev.options();
  const std::vector<tv::CaseSpec>& cases = run.design->cases;
  run.result = base_run(ev, t);
  tv::VerifyResult& r = run.result;
  tv::InternContext* ctx = ev.intern_context().get();
  if (!ctx || r.partial || !r.converged || !opts.batch_eval) {
    return "base run not eligible for the batch sweep";
  }

  std::vector<std::shared_ptr<const tv::Cone>> cones;
  {
    Span s(t, "batch.cone");
    tv::ConeIndex index(nl);
    cones.reserve(cases.size());
    for (const tv::CaseSpec& c : cases) {
      std::vector<tv::SignalId> pins;
      for (const auto& [sig, val] : c.pins) pins.push_back(sig);
      cones.push_back(index.cone_of(std::move(pins)));
    }
  }
  tv::BatchSchedule sched;
  {
    Span s(t, "batch.schedule");
    sched = tv::build_batch_schedule(nl);
  }
  const std::size_t lanes =
      std::clamp<std::size_t>(opts.batch_lanes ? opts.batch_lanes : 64, 1, 4096);
  r.cases.resize(cases.size());
  std::vector<std::vector<tv::Degradation>> case_degs(cases.size());
  double lane_evals = 0, lane_skips = 0, disturbed = 0;
  for (std::size_t first = 0; first < cases.size(); first += lanes) {
    const std::size_t count = std::min(lanes, cases.size() - first);
    std::vector<tv::EvalSnapshot> snaps;
    tv::BatchBlockResult br;
    {
      Span s(t, "batch.block");
      snaps.reserve(count);
      for (std::size_t l = 0; l < count; ++l) {
        snaps.emplace_back(nl, cones[first + l], ctx, &ev.wave_refs());
      }
      br = tv::run_case_block(nl, opts, sched, *ctx, ev.wave_refs(), cases, first, count, cones,
                              snaps);
    }
    if (!br.completed) return "a lane block did not complete";
    Span s(t, "batch.check");
    std::vector<const tv::EvalSnapshot*> snap_ptrs(count);
    std::vector<const tv::Cone*> cone_ptrs(count);
    std::vector<char> conv(count);
    for (std::size_t l = 0; l < count; ++l) {
      snap_ptrs[l] = &snaps[l];
      cone_ptrs[l] = cones[first + l].get();
      conv[l] = static_cast<char>(r.converged && br.lanes[l].converged);
    }
    std::vector<std::vector<tv::Violation>> lane_violations =
        tv::run_checks_batch(opts, snap_ptrs, cone_ptrs, conv, ev.wave_refs(), r.violations);
    for (std::size_t l = 0; l < count; ++l) {
      tv::BatchLaneStats& ls = br.lanes[l];
      tv::VerifyResult::CaseResult& cr = r.cases[first + l];
      cr.name = cases[first + l].name;
      cr.events = snaps[l].disturbed_signals();
      cr.converged = static_cast<bool>(conv[l]);
      cr.degraded = ls.degraded;
      case_degs[first + l] = std::move(ls.degradations);
      cr.violations = std::move(lane_violations[l]);
      tv::sort_violations(cr.violations);
      lane_evals += static_cast<double>(ls.evals);
      lane_skips += static_cast<double>(ls.lane_skips);
      disturbed += static_cast<double>(cr.events);
    }
  }
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (r.cases[i].degraded) r.partial = true;
    for (tv::Degradation& d : case_degs[i]) r.degradations.push_back(std::move(d));
  }
  t->count("batch.lane_evals", lane_evals);
  t->count("batch.lane_skips", lane_skips);
  t->count("batch.disturbed_signals", disturbed);
  return "";
}

}  // namespace

Outcome run_case_sweep(const Options& o, Tracer& tracer) {
  Outcome out;
  const std::string path = o.workdir + "/case_sweep-" + std::to_string(getpid()) + ".tvc";
  std::vector<double> setup_times;
  auto setup = repeat_setup(o, tracer, setup_times, [&](Tracer* t) {
    auto st = std::make_unique<Setup>();
    Rng rng(o.seed);
    tv::hdl::ElaboratedDesign d = parse_and_elaborate(s1_source(kStages, &rng, kSlowedGates), t);
    std::vector<tv::CaseSpec> cases = sweep_cases(d.netlist, rng);
    tv::CompiledSummary summary;
    summary.macro_instances = d.summary.macro_instances;
    summary.primitives = d.summary.primitives;
    summary.unique_signals = d.summary.unique_signals;
    summary.total_bits = d.summary.total_bits;
    summary.prims_by_kind = d.summary.prims_by_kind;
    tv::CompiledDesign cd =
        tv::compile_design(d.name, d.netlist, d.options, cases, std::move(summary));
    std::string error;
    if (!tv::write_compiled_file(cd, path, &error)) throw std::runtime_error(error);
    struct stat sb{};
    stat(path.c_str(), &sb);
    st->path = path;
    st->bytes = static_cast<std::size_t>(sb.st_size);
    st->cases = cases.size();
    st->prims = d.netlist.num_prims();
    return st;
  });

  // The reference result, untimed: the per-case worklist, the oracle the
  // batch sweep must match byte for byte.
  std::uint64_t ref_print = 0;
  {
    tv::diag::DiagnosticEngine diags;
    std::optional<tv::CompiledDesign> d = tv::load_compiled_file(setup->path, diags);
    if (!d) throw std::runtime_error("cannot load the compiled design");
    tv::VerifierOptions opts = d->options;
    opts.batch_eval = false;
    opts.jobs = case_jobs();
    tv::Verifier v(d->netlist, opts);
    const tv::VerifyResult r = v.verify(d->cases);
    ref_print = fingerprint(r);
    out.note("inputs: %d stages, %zu primitives, %zu cases (%d pin combinations), "
             "%zu-byte .tvc, %zu violations",
             kStages, setup->prims, setup->cases, kCombos, setup->bytes, r.total_violations());
  }

  // Untraced operations use the configured worker count; a traced run
  // compares its one-thread decomposition with one-thread verify() calls.
  const unsigned jobs = o.trace ? 1 : case_jobs();
  out.note("jobs = %u", jobs);
  auto op = [&](Tracer* t) {
    auto t0 = Clock::now();
    SweepRun run;
    std::string why;
    if (!load(run, setup->path, jobs, t)) {
      why = "cannot load the compiled design";
    } else if (t) {
      why = decomposed(run, t);
    } else {
      run.result = run.verifier->verify(run.design->cases);
    }
    const double secs = seconds_since(t0);
    ++out.attempted;
    const tv::VerifyResult& r = run.result;
    if (t && why.empty()) {
      t->count("core.events", static_cast<double>(r.base_events));
      t->count("core.evals", static_cast<double>(r.base_evals));
      t->count("core.violations", static_cast<double>(r.total_violations()));
    }
    if (!why.empty()) {
      out.fail(why);
    } else if (!r.converged || r.partial) {
      out.fail("sweep did not converge or was partial");
    } else if (fingerprint(r) != ref_print) {
      out.fail(t ? "decomposed sweep differs from the per-case reference"
                 : "sweep differs from the per-case reference");
    }
    return secs;
  };
  LoopTimes lt = timed_loop(o, tracer, op);
  std::remove(setup->path.c_str());

  report_latency(out, {"sweep_s", "sweep_tail_s", "sweeps_per_s"}, lt.untraced,
                 "untraced sweeps", rate(lt.untraced), setup_times, lt);
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set("compiled.bytes", static_cast<double>(setup->bytes), "B");
  if (o.trace) report_trace(out, tracer, lt);
  return out;
}

}  // namespace perfbench
