#include "check/incr_diff.hpp"

#include <sstream>

#include "core/compiled.hpp"
#include "core/verifier.hpp"
#include "diag/diagnostic.hpp"

namespace tv::check {

namespace {

/// Everything observable about one verification, except the cumulative
/// evaluation-effort counters (the one sanctioned asymmetry) and the
/// free-text degradation messages (identity is scoped to non-degrading
/// runs; the partial/degraded *flags* are still compared).
std::string render_identity(const Netlist& nl, const VerifyResult& r) {
  std::ostringstream os;
  os << "converged=" << r.converged << " partial=" << r.partial << '\n';
  os << timing_summary(nl);
  os << violations_report(r.violations);
  for (const auto& c : r.cases) {
    os << "case " << c.name << " events=" << c.events << " converged=" << c.converged
       << " degraded=" << c.degraded << '\n'
       << violations_report(c.violations);
  }
  os << "xref:";
  for (SignalId id : r.cross_reference) os << ' ' << id;
  os << '\n';
  return os.str();
}

void add_prim_param_edit(Rng& rng, const Netlist& nl, NetlistDelta& delta) {
  PrimId pid = static_cast<PrimId>(rng.range(0, static_cast<int>(nl.num_prims()) - 1));
  const Primitive& p = nl.prim(pid);
  NetlistDelta::PrimEdit e;
  e.prim = pid;
  switch (p.kind) {
    case PrimKind::SetupHoldChk:
    case PrimKind::SetupRiseHoldFallChk:
      e.setup_hold = {from_ns(rng.range(0, 6)), from_ns(rng.range(-2, 3))};
      break;
    case PrimKind::MinPulseWidthChk: {
      Time hi = from_ns(rng.range(0, 8));
      e.min_pulse = {hi, rng.chance(50) ? hi : from_ns(rng.range(0, 8))};
      break;
    }
    default: {
      if (rng.chance(70)) {
        Time lo = from_ns(rng.range(0, 6));
        e.delay = {lo, lo + from_ns(rng.range(0, 4))};
      }
      if (rng.chance(25)) {
        if (p.rise_fall && rng.chance(50)) {
          e.clear_rise_fall = true;
        } else {
          e.set_rise_fall = true;
          Time rl = from_ns(rng.range(0, 4));
          Time fl = from_ns(rng.range(0, 4));
          e.rise_fall = {rl, rl + from_ns(rng.range(0, 3)), fl,
                         fl + from_ns(rng.range(0, 3))};
        }
      }
      break;
    }
  }
  delta.prims.push_back(std::move(e));
}

void add_pin_edit(Rng& rng, const Netlist& nl, NetlistDelta& delta) {
  PrimId pid = static_cast<PrimId>(rng.range(0, static_cast<int>(nl.num_prims()) - 1));
  const Primitive& p = nl.prim(pid);
  NetlistDelta::PinEdit e;
  e.prim = pid;
  e.input = static_cast<std::size_t>(
      rng.range(0, static_cast<int>(p.inputs.size()) - 1));
  // Any signal is a legal target -- including the primitive's own output,
  // which closes a loop and must force the cold fallback.
  e.sig = static_cast<SignalId>(rng.range(0, static_cast<int>(nl.num_signals()) - 1));
  e.invert = rng.chance(20);
  e.directives = p.inputs[e.input].directives;  // keep the evaluation string
  delta.pins.push_back(std::move(e));
}

void add_wire_edit(Rng& rng, const Netlist& nl, NetlistDelta& delta) {
  NetlistDelta::WireEdit e;
  e.sig = static_cast<SignalId>(rng.range(0, static_cast<int>(nl.num_signals()) - 1));
  if (rng.chance(65)) {
    Time lo = from_ns(rng.range(0, 3));
    e.wire = WireDelay{lo, lo + from_ns(rng.range(0, 4))};
  }
  delta.wires.push_back(std::move(e));
}

bool add_assertion_edit(Rng& rng, const Netlist& nl, NetlistDelta& delta) {
  SignalId sig =
      static_cast<SignalId>(rng.range(0, static_cast<int>(nl.num_signals()) - 1));
  const Signal& s = nl.signal(sig);
  Assertion a;
  int pick = rng.range(0, s.driver == kNoPrim ? 3 : 1);
  switch (pick) {
    case 0:
      a.kind = Assertion::Kind::None;
      break;
    case 1: {
      a.kind = Assertion::Kind::Stable;
      double begin = rng.range(0, 6);
      a.ranges.push_back({begin, begin + rng.range(1, 5), std::nullopt});
      break;
    }
    default: {
      // Clock assertions are only legal on undriven signals.
      a.kind = pick == 2 ? Assertion::Kind::PrecisionClock : Assertion::Kind::Clock;
      double begin = rng.range(0, 8);
      a.ranges.push_back({begin, begin + rng.range(1, 6), std::nullopt});
      a.active_low = rng.chance(20);
      if (rng.chance(30)) a.skew_ns = {-static_cast<double>(rng.range(0, 2)), rng.range(0, 2)};
      break;
    }
  }
  std::string text = assertion_to_text(a);
  std::string full = text.empty() ? s.base_name : s.base_name + " " + text;
  // The rename must not collide with another signal (apply_delta would
  // reject the whole delta); skip the edit instead.
  SignalId taken = nl.find(full);
  if (taken != kNoSignal && taken != sig) return false;
  delta.assertions.push_back({sig, std::move(a), s.base_name, std::move(full)});
  return true;
}

void add_case_edit(Rng& rng, const Netlist& nl, const std::vector<CaseSpec>& cases,
                   NetlistDelta& delta) {
  NetlistDelta::CaseEdit e;
  if (!cases.empty() && rng.chance(55)) {
    const CaseSpec& victim = cases[static_cast<std::size_t>(
        rng.range(0, static_cast<int>(cases.size()) - 1))];
    e.name = victim.name;
    if (rng.chance(40)) {
      delta.cases.push_back(std::move(e));  // removal
      return;
    }
    CaseSpec spec = victim;
    if (!spec.pins.empty()) {
      Value& val = spec.pins[static_cast<std::size_t>(
                                 rng.range(0, static_cast<int>(spec.pins.size()) - 1))]
                       .second;
      val = val == Value::Zero ? Value::One : Value::Zero;
    }
    e.spec = std::move(spec);
    delta.cases.push_back(std::move(e));
    return;
  }
  // Add a fresh case pinning 1-2 undriven signals.
  std::vector<SignalId> undriven;
  for (SignalId s = 0; s < nl.num_signals(); ++s) {
    if (nl.signal(s).driver == kNoPrim) undriven.push_back(s);
  }
  if (undriven.empty()) return;
  CaseSpec spec;
  spec.name = "fz" + std::to_string(rng.range(0, 9999));
  for (const CaseSpec& c : cases) {
    if (c.name == spec.name) return;  // keep add/replace semantics unambiguous
  }
  int pins = rng.range(1, 2);
  for (int i = 0; i < pins; ++i) {
    SignalId s = undriven[static_cast<std::size_t>(
        rng.range(0, static_cast<int>(undriven.size()) - 1))];
    spec.pins.emplace_back(s, rng.chance(50) ? Value::One : Value::Zero);
  }
  e.name = spec.name;
  e.spec = std::move(spec);
  if (rng.chance(30) && !cases.empty()) {
    e.at = static_cast<std::size_t>(rng.range(0, static_cast<int>(cases.size())));
  }
  delta.cases.push_back(std::move(e));
}

}  // namespace

NetlistDelta random_delta(Rng& rng, const Netlist& nl,
                          const std::vector<CaseSpec>& cases) {
  NetlistDelta delta;
  if (nl.num_prims() == 0 || nl.num_signals() == 0) return delta;
  int edits = rng.range(1, 3);
  bool used_assertion = false, used_case = false;
  for (int i = 0; i < edits; ++i) {
    switch (rng.range(0, 4)) {
      case 0: add_prim_param_edit(rng, nl, delta); break;
      case 1: add_pin_edit(rng, nl, delta); break;
      case 2: add_wire_edit(rng, nl, delta); break;
      case 3:
        // At most one rename per delta: the generator's collision check
        // cannot see names claimed by a sibling edit.
        if (!used_assertion) used_assertion = add_assertion_edit(rng, nl, delta);
        break;
      default:
        if (!used_case) {
          add_case_edit(rng, nl, cases, delta);
          used_case = true;
        }
        break;
    }
  }
  return delta;
}

std::optional<Failure> check_incr_equivalence(const CircuitSpec& spec,
                                              const IncrDiffOptions& opts) {
  std::uint64_t edit_seed =
      opts.edit_seed ? opts.edit_seed
                     : spec.seed * 0x9E3779B97F4A7C15ULL + 0x6C62272E07BB0142ULL;

  // When exercising the --compiled front end, serialize the circuit once;
  // both worlds then load from the same artifact bytes so their id spaces
  // and pre-interned seed arenas match a real .tvc run.
  std::string artifact;
  if (opts.compiled) {
    BuiltCircuit bc = build(spec);
    CompiledSummary summary;
    summary.primitives = bc.nl.num_prims();
    summary.unique_signals = bc.nl.num_signals();
    CompiledDesign d = compile_design("FUZZ", bc.nl, bc.opts, bc.cases, summary);
    artifact = serialize_compiled(d);
  }

  // Materializes a pristine world: netlist + options + cases, front end per
  // opts.compiled. Returns false on a load failure (harness bug).
  std::optional<CompiledDesign> loaded;  // keeps the compiled netlist alive
  std::optional<BuiltCircuit> built;
  auto fresh_world = [&](Netlist*& nl, VerifierOptions& vopts,
                         std::vector<CaseSpec>& cases,
                         const CompiledDesign** seeds) -> bool {
    if (opts.compiled) {
      diag::DiagnosticEngine diags;
      loaded = load_compiled(artifact, "<memory>", diags);
      if (!loaded) return false;
      nl = &loaded->netlist;
      vopts = loaded->options;
      cases = loaded->cases;
      if (seeds) *seeds = &*loaded;
    } else {
      built.emplace(build(spec));
      nl = &built->nl;
      vopts = built->opts;
      cases = built->cases;
      if (seeds) *seeds = nullptr;
    }
    return true;
  };

  // World A: one long-lived Verifier, edits applied via reverify.
  std::optional<CompiledDesign> loaded_a;
  std::optional<BuiltCircuit> built_a;
  Netlist* nl_a = nullptr;
  VerifierOptions vopts_a;
  std::vector<CaseSpec> cases_a;
  const CompiledDesign* seeds_a = nullptr;
  if (!fresh_world(nl_a, vopts_a, cases_a, &seeds_a)) {
    return Failure{"incr-harness", "seed " + std::to_string(spec.seed) +
                                       ": compiled artifact failed to load"};
  }
  loaded_a = std::move(loaded);
  built_a = std::move(built);
  if (opts.compiled) {
    nl_a = &loaded_a->netlist;
    seeds_a = &*loaded_a;
  } else {
    nl_a = &built_a->nl;
  }
  Verifier va(*nl_a, vopts_a);
  if (seeds_a && va.evaluator().intern_context()) {
    preintern_seeds(*seeds_a, va.evaluator().intern_context()->table);
  }
  va.verify(cases_a);

  std::vector<NetlistDelta> script;
  Rng rng(edit_seed);
  for (int step = 1; step <= opts.steps; ++step) {
    NetlistDelta delta = random_delta(rng, *nl_a, va.baseline_cases());
    script.push_back(delta);

    VerifyResult r_incr;
    ReverifyStats st;
    try {
      r_incr = va.reverify(delta, &st);
    } catch (const std::exception& e) {
      return Failure{"incr-apply-throw",
                     "seed " + std::to_string(spec.seed) + " edit_seed " +
                         std::to_string(edit_seed) + " step " +
                         std::to_string(step) +
                         ": reverify threw on a generated delta: " + e.what()};
    }
    std::string ident_incr = render_identity(*nl_a, r_incr);

    // Cold world: pristine build, the whole delta prefix applied at once,
    // then a from-scratch verify.
    Netlist* nl_b = nullptr;
    VerifierOptions vopts_b;
    std::vector<CaseSpec> cases_b;
    const CompiledDesign* seeds_b = nullptr;
    if (!fresh_world(nl_b, vopts_b, cases_b, &seeds_b)) {
      return Failure{"incr-harness", "seed " + std::to_string(spec.seed) +
                                         ": compiled artifact failed to reload"};
    }
    try {
      for (const NetlistDelta& d : script) apply_delta(*nl_b, cases_b, d);
    } catch (const std::exception& e) {
      return Failure{"incr-apply-throw",
                     "seed " + std::to_string(spec.seed) + " edit_seed " +
                         std::to_string(edit_seed) + " step " +
                         std::to_string(step) +
                         ": cold apply_delta threw on a replayed delta: " + e.what()};
    }
    if (!nl_b->finalized()) nl_b->finalize();
    // Odd seeds run the cold world on the per-case reference engine, so
    // reverify's sweep re-runs are diffed against both case engines.
    if (spec.seed % 2 == 1) vopts_b.batch_eval = false;
    Verifier vb(*nl_b, vopts_b);
    if (seeds_b && vb.evaluator().intern_context()) {
      preintern_seeds(*seeds_b, vb.evaluator().intern_context()->table);
    }
    VerifyResult r_cold = vb.verify(cases_b);
    std::string ident_cold = render_identity(*nl_b, r_cold);

    if (ident_incr != ident_cold) {
      std::ostringstream os;
      os << "seed " << spec.seed << " edit_seed " << edit_seed << " step " << step
         << " (" << (st.incremental ? "incremental" : "fell back: " + st.fallback_reason)
         << ", " << st.cases_reevaluated << " case(s) re-run, " << st.cases_spliced
         << " spliced): reports diverge\n--- incremental ---\n"
         << ident_incr << "--- cold ---\n"
         << ident_cold;
      return Failure{"incr-diff", os.str()};
    }
  }
  return std::nullopt;
}

}  // namespace tv::check
