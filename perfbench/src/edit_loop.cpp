// edit_loop: the designer's edit loop on a resident fixpoint. Set-up
// cold-verifies the 32-stage S-1 design with 64 cases, writes a .tvf
// snapshot and restores a fresh Verifier from it. One operation sends one
// seeded NetlistDelta through reverify and then its inverse.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/fixpoint.hpp"
#include "core/incremental.hpp"
#include "inputs.hpp"
#include "util/atomic_file.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

// Small enough that a run times every call of the script thirty times or
// more, so each call's fastest wall time can be set against a cold
// verify() (reverify_over_cold_frac). One control per stage is pinned to 0
// and to 1.
constexpr int kStages = 32;

enum Family { kGateDecode, kGateData, kWire, kAssertion, kPin, kCaseMap, kFamilies };
constexpr const char* kFamilyNames[kFamilies] = {"gate-delay(decode)", "gate-delay(datapath)",
                                                 "wire-delay", "assertion-rename",
                                                 "pin-retarget", "case-map"};
/// Deltas per family in one script; the seed picks their targets and order.
constexpr int kPerFamily[kFamilies] = {16, 12, 8, 8, 24, 8};

struct Edit {
  Family family;
  tv::NetlistDelta delta;
};

/// Datapath edit targets in the baseline design, by pipeline stage: the
/// gates outside the control-decode logic whose outputs have consumers.
struct Datapath {
  std::vector<std::vector<tv::PrimId>> gates;

  explicit Datapath(const tv::Netlist& nl) : gates(kStages) {
    for (tv::PrimId pid = 0; pid < nl.num_prims(); ++pid) {
      const tv::Primitive& p = nl.prim(pid);
      if (tv::prim_is_checker(p.kind) || p.output == tv::kNoSignal) continue;
      const tv::Signal& out = nl.signal(p.output);
      int s = -1, used = 0;
      if (std::sscanf(out.full_name.c_str(), "S%d %n", &s, &used) != 1 || used == 0 ||
          s < 0 || s >= kStages || out.fanout.empty()) {
        continue;
      }
      if (out.full_name.find(" CH") == std::string::npos &&
          out.full_name.find(" CDEC") == std::string::npos) {
        gates[static_cast<std::size_t>(s)].push_back(pid);
      }
    }
  }
};

/// The net at decode level `level` (0-2: the chain's gates A, B, C; 3: its
/// decoded output) of chain `j` in stage `s`.
tv::SignalId decode_net(const tv::Netlist& nl, int s, int j, int level) {
  static constexpr const char* kLevel[] = {" A", " B", " C"};
  const std::string st = "S" + std::to_string(s);
  return nl.find(level < 3 ? st + " CH" + std::to_string(j) + kLevel[level]
                           : st + " CDEC" + std::to_string(j));
}

template <class T>
const T& pick(const std::vector<T>& v, Rng& rng) {
  return v[rng.below(v.size())];
}

/// The `k`-th of `n` deltas of family `f` against the baseline design, on
/// decode chain `j`, in the middle stage of the k-th of n equal slices of
/// the pipeline. `k` also rotates the decode level, datapath gate, net kind
/// and assertion edited. Where an edit lands decides how many cases it
/// re-evaluates, so that is the same for every seed; the seed picks the
/// delays, the pin and case-map targets and the script's order.
tv::NetlistDelta make_delta(const tv::Netlist& nl, const Datapath& datapath,
                            const std::vector<tv::CaseSpec>& cases, Family f, int k, int n,
                            int j, Rng& rng) {
  const int s = (2 * k + 1) * kStages / (2 * n);
  const std::vector<tv::PrimId>& gates = datapath.gates[static_cast<std::size_t>(s)];
  const tv::PrimId datapath_gate = gates[static_cast<std::size_t>(k) * 7 % gates.size()];
  tv::NetlistDelta delta;
  switch (f) {
    case kGateDecode:
    case kGateData: {
      tv::NetlistDelta::PrimEdit e;
      e.prim = f == kGateDecode ? nl.signal(decode_net(nl, s, j, k % 4)).driver : datapath_gate;
      const tv::Primitive& p = nl.prim(e.prim);
      e.delay = std::make_pair(p.dmin, p.dmax + tv::from_ns(rng.uniform(0.2, 3.0)));
      delta.prims.push_back(e);
      break;
    }
    case kWire: {
      tv::NetlistDelta::WireEdit e;
      e.sig = k % 2 ? nl.prim(datapath_gate).output : decode_net(nl, s, j, k / 2 % 4);
      e.wire = tv::WireDelay{0, tv::from_ns(rng.uniform(0.5, 3.0))};
      delta.wires.push_back(e);
      break;
    }
    case kAssertion: {
      static constexpr double kRanges[][2] = {{4.0, 8.0}, {3.5, 8.5}, {4.5, 8.5}, {4.0, 9.0}};
      const auto& range = kRanges[k % 4];
      tv::Assertion a;
      a.kind = tv::Assertion::Kind::Stable;
      a.ranges.push_back({range[0], range[1], std::nullopt});
      tv::NetlistDelta::AssertionEdit e;
      e.sig = nl.find(control_name(s, j));
      e.assertion = a;
      e.base_name = "S" + std::to_string(s) + " CTL" + std::to_string(j);
      e.full_name = e.base_name + " " + tv::assertion_to_text(a);
      delta.assertions.push_back(e);
      break;
    }
    case kPin: {
      // First-level decode gates read two controls; pointing one input at
      // a third control of the same stage cannot close a loop.
      const std::string gate_out = "S" + std::to_string(s) + " CH" + std::to_string(j) + " A";
      tv::NetlistDelta::PinEdit e;
      e.prim = nl.signal(nl.find(gate_out)).driver;
      e.input = rng.below(2);
      const int other =
          (j + 3 + static_cast<int>(rng.below(kControlsPerStage - 3))) % kControlsPerStage;
      e.sig = nl.find(control_name(s, other));
      delta.pins.push_back(e);
      break;
    }
    case kCaseMap: {
      tv::NetlistDelta::CaseEdit e;
      e.name = pick(cases, rng).name;
      tv::CaseSpec spec = control_case(nl, s, j, rng.below(2) == 1);
      spec.name = e.name;
      e.spec = spec;
      delta.cases.push_back(e);
      break;
    }
    case kFamilies:
      throw std::logic_error("unknown edit family");
  }
  return delta;
}

struct Setup {
  tv::hdl::ElaboratedDesign design;  // pristine baseline netlist + options
  std::vector<tv::CaseSpec> cases;
  tv::Netlist live;                  // the restored verifier's netlist
  std::unique_ptr<tv::Verifier> verifier;
  std::vector<Edit> script;
  std::string baseline_state;        // render_state of the restored baseline
  std::size_t snapshot_bytes = 0;

  Setup() = default;  // `verifier` refers to `live`: a Setup stays where it is
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
};

std::unique_ptr<Setup> set_up(const Options& o, const std::string& tvf, Tracer* t) {
  auto st = std::make_unique<Setup>();
  Rng rng(o.seed);
  st->design = parse_and_elaborate(s1_source(kStages), t);
  const tv::Netlist& base = st->design.netlist;
  // Stage s pins control s mod 11, so the cases cover the whole pipeline
  // and every decode chain. Which cases an edit re-evaluates depends on
  // them, so they are the same for every seed.
  for (int s = 0; s < kStages; ++s) {
    for (bool one : {false, true}) {
      st->cases.push_back(control_case(base, s, s % kControlsPerStage, one));
    }
  }

  tv::Netlist nl = base;
  tv::Verifier v(nl, st->design.options);
  v.verify(st->cases);
  std::string blob;
  {
    Span s(t, "fixpoint.serialize");
    blob = tv::serialize_fixpoint(v, st->design.name, 0);
  }
  std::string error;
  if (!tv::util::atomic_write_file(tvf, blob, &error)) throw std::runtime_error(error);
  st->snapshot_bytes = blob.size();
  tv::diag::DiagnosticEngine diags;
  std::optional<tv::FixpointState> state;
  {
    Span s(t, "fixpoint.load");
    state = tv::load_fixpoint_file(tvf, diags);
  }
  if (!state) throw std::runtime_error("cannot load the snapshot just written");
  st->live = base;
  {
    Span s(t, "fixpoint.restore");
    st->verifier = std::make_unique<tv::Verifier>(st->live, st->design.options);
    if (!st->verifier->restore(*state, 0, diags)) {
      throw std::runtime_error("the snapshot does not restore onto its own design");
    }
  }
  st->baseline_state = render_state(st->live, st->verifier->baseline());

  const Datapath datapath(base);
  for (int f = 0; f < kFamilies; ++f) {
    // Decode chains differ widely in what they feed, so the k-th delta of
    // every family edits chain k mod 11, whatever the seed: the costliest
    // edits, late in the pipeline on far-reaching chains, recur in every
    // script and the tail stays put.
    for (int k = 0; k < kPerFamily[f]; ++k) {
      st->script.push_back({static_cast<Family>(f),
                            make_delta(base, datapath, st->cases, static_cast<Family>(f), k,
                                       kPerFamily[f], k % kControlsPerStage, rng)});
    }
  }
  rng.shuffle(st->script);
  return st;
}

}  // namespace

Outcome run_edit_loop(const Options& o, Tracer& tracer) {
  Outcome out;
  const std::string tvf = o.workdir + "/edit_loop-" + std::to_string(getpid()) + ".tvf";
  std::vector<double> setup_times;
  auto st = repeat_setup(o, tracer, setup_times,
                         [&](Tracer* t) { return set_up(o, tvf, t); });
  std::remove(tvf.c_str());
  tv::Verifier& v = *st->verifier;
  const tv::VerifyResult& base_report = v.baseline();

  // Untimed correctness pass: every delta's report must equal a cold
  // verify() of the edited design, and its inverse must restore the
  // baseline. The effort counters of this one pass are the incr.* counts.
  double fallbacks = 0, dirty = 0, touched = 0, reevaluated = 0, spliced = 0, events = 0,
         evals = 0;
  int all_spliced = 0, some_reevaluated = 0;
  auto account = [&](const tv::ReverifyStats& s) {
    fallbacks += s.incremental ? 0 : 1;
    dirty += static_cast<double>(s.dirty_prims.size());
    touched += static_cast<double>(s.touched_signals);
    reevaluated += static_cast<double>(s.cases_reevaluated);
    spliced += static_cast<double>(s.cases_spliced);
    events += static_cast<double>(s.events);
    evals += static_cast<double>(s.evals);
  };
  for (std::size_t k = 0; k < st->script.size(); ++k) {
    const Edit& e = st->script[k];
    ++out.attempted;
    try {
      tv::ReverifyStats fwd;
      tv::VerifyResult r = v.reverify(e.delta, &fwd);
      account(fwd);
      if (fwd.cases_reevaluated == 0) {
        ++all_spliced;
      } else {
        ++some_reevaluated;
      }
      tv::Netlist cold_nl = st->design.netlist;
      std::vector<tv::CaseSpec> cold_cases = st->cases;
      tv::apply_delta(cold_nl, cold_cases, e.delta);
      if (!cold_nl.finalized()) cold_nl.finalize();
      tv::Verifier cold(cold_nl, st->design.options);
      if (render_state(st->live, r) != render_state(cold_nl, cold.verify(cold_cases))) {
        out.fail("delta " + std::to_string(k) + " (" + kFamilyNames[e.family] +
                 "): reverify differs from a cold verify of the edited design");
      }
      ++out.attempted;
      tv::ReverifyStats inv;
      tv::VerifyResult back = v.reverify(fwd.inverse, &inv);
      account(inv);
      if (render_state(st->live, back) != st->baseline_state) {
        out.fail("delta " + std::to_string(k) + ": the inverse did not restore the baseline");
      }
    } catch (const std::exception& ex) {
      out.fail("delta " + std::to_string(k) + ": " + ex.what());
    }
  }

  // Timed loop over whole passes of the script: every call is timed once
  // per pass. A traced run sends each delta twice, once untraced and once
  // traced, so trace.overhead compares the same edits. calls[2k] holds
  // delta k's untraced wall times, calls[2k + 1] its inverse's.
  std::vector<std::vector<double>> calls(2 * st->script.size());
  std::vector<std::pair<long, double>> raw;  // every untraced call: operation, wall seconds
  std::vector<double> cold_runs;
  const long pass = static_cast<long>(st->script.size()) * (o.trace ? 2 : 1);
  long op_index = 0;
  auto op = [&](Tracer* t) {
    const std::size_t k =
        static_cast<std::size_t>(o.trace ? op_index / 2 : op_index) % st->script.size();
    ++op_index;
    const Edit& e = st->script[k];
    double secs = 0;
    try {
      tv::ReverifyStats fwd;
      auto t0 = Clock::now();
      {
        Span s(t, "incr.reverify");
        v.reverify(e.delta, &fwd);
      }
      const double t_fwd = seconds_since(t0);
      auto t1 = Clock::now();
      tv::VerifyResult back;
      {
        Span s(t, "incr.reverify");
        back = v.reverify(fwd.inverse);
      }
      const double t_inv = seconds_since(t1);
      secs = t_fwd + t_inv;
      out.attempted += 2;
      if (!t) {
        calls[2 * k].push_back(t_fwd);
        calls[2 * k + 1].push_back(t_inv);
        raw.insert(raw.end(), {{op_index - 1, t_fwd}, {op_index - 1, t_inv}});
      }
      if (back.violations.size() != base_report.violations.size() ||
          back.total_violations() != base_report.total_violations() ||
          back.cases.size() != base_report.cases.size()) {
        out.fail("delta " + std::to_string(k) + ": the inverse did not restore the baseline");
      }
      if (op_index % pass == 0) {
        // Once per pass, outside the timed part: the whole resident state
        // (waveforms, violations and every case block) against the
        // baseline, and one cold verify() timed the way the calls are, so
        // both meet the machine at the same moments.
        if (render_state(st->live, back) != st->baseline_state) {
          out.fail("pass ending at delta " + std::to_string(k) +
                   ": the resident state drifted from the baseline");
        }
        tv::Netlist nl = st->design.netlist;
        auto t2 = Clock::now();
        tv::Verifier cold(nl, st->design.options);
        cold.verify(st->cases);
        cold_runs.push_back(seconds_since(t2));
      }
    } catch (const std::exception& ex) {
      out.fail("delta " + std::to_string(k) + ": " + ex.what());
    }
    return secs;
  };
  LoopTimes lt = timed_loop(o, tracer, op, pass);

  std::vector<double> samples;
  for (const auto& [i, secs] : raw) samples.push_back(secs * lt.scale[static_cast<std::size_t>(i)]);
  report_latency(out, {"reverify_p50_s", "reverify_tail_s", "reverifies_per_s"}, samples,
                 "untraced reverify calls", rate(samples), setup_times, lt);
  // Each call's fastest wall time against the fastest cold verify(), both
  // unscaled: they met the machine at the same moments.
  const std::vector<double> best = best_of(calls);
  const double cold_s = best_of({cold_runs}).front();
  auto slower = [&](const std::vector<double>& xs) {
    return std::count_if(xs.begin(), xs.end(), [&](double x) { return x > cold_s; });
  };
  out.note("reverify_over_cold_frac = %.4f (%ld of %zu reverify calls slower than a cold "
           "verify() of %.6f s, the fastest of %zu, one per pass)",
           static_cast<double>(slower(best)) / static_cast<double>(best.size()),
           static_cast<long>(slower(best)), best.size(), cold_s, cold_runs.size());
  for (int f = 0; f < kFamilies; ++f) {
    std::vector<double> xs;
    for (std::size_t k = 0; k < st->script.size(); ++k) {
      if (st->script[k].family == f) xs.insert(xs.end(), {best[2 * k], best[2 * k + 1]});
    }
    out.note("  %-22s median %.6f s, %2ld of %2zu calls slower than cold", kFamilyNames[f],
             median(xs), static_cast<long>(slower(xs)), xs.size());
  }
  out.note("inputs: %d stages, %zu primitives, %zu cases, %zu-delta script (%d splice every "
           "case, %d re-evaluate cases), %zu-byte .tvf",
           kStages, st->design.netlist.num_prims(), st->cases.size(), st->script.size(),
           all_spliced, some_reevaluated, st->snapshot_bytes);
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  if (o.trace) {
    out.set("incr.reverify_s", tracer.span_stats("incr.reverify").p50, "s");
    out.set("incr.fallbacks", fallbacks, "count");
    out.set("incr.dirty_prims", dirty, "count");
    out.set("incr.touched_signals", touched, "count");
    out.set("incr.cases_reevaluated", reevaluated, "count");
    out.set("incr.cases_spliced", spliced, "count");
    out.set("incr.events", events, "count");
    out.set("incr.evals", evals, "count");
    out.set("fixpoint.bytes", static_cast<double>(st->snapshot_bytes), "B");
    report_trace(out, tracer, lt);
  }
  return out;
}

}  // namespace perfbench
