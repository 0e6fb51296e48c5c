#include "check/pipeline_diff.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/batch_eval.hpp"
#include "core/compiled.hpp"
#include "core/cone.hpp"
#include "core/export.hpp"
#include "core/fixpoint.hpp"
#include "diag/diagnostic.hpp"
#include "diag/render.hpp"

namespace tv::check {

namespace {

// ------------------------------------------------------ random edit scripts

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

// ------------------------------------------------------------ one path run

std::string diag_text(const diag::DiagnosticEngine& diags) {
  std::string text = diag::render_text(diags);
  return text.empty() ? "(no diagnostic)" : text;
}

/// One materialized design -- a source build or a load of the artifact
/// bytes -- with a path's options. Held by pointer: a Verifier keeps a
/// reference to its netlist.
struct World {
  std::optional<BuiltCircuit> built;
  std::optional<CompiledDesign> loaded;
  VerifierOptions opts;
  std::vector<CaseSpec> cases;

  Netlist& nl() { return built ? built->nl : loaded->netlist; }
  std::uint64_t artifact_hash() const { return loaded ? loaded->content_hash : 0; }

  /// A verifier over this world, with a compiled design's seed arena
  /// pre-interned as `scaldtv --compiled` does.
  std::unique_ptr<Verifier> verifier() {
    auto v = std::make_unique<Verifier>(nl(), opts);
    if (loaded) {
      preintern_seeds(*loaded, v->evaluator().intern_context()->table);
    }
    return v;
  }
};

/// One path (plus an optional guard) walking an edit script step by step.
class PathRun {
 public:
  PathRun(const CircuitSpec& spec, const Path& path, const Guard& guard,
          std::uint64_t edit_seed)
      : spec_(spec), path_(path), guard_(guard), edit_seed_(edit_seed) {}

  /// Brings the run to step script.size() (0 = the baseline): a live
  /// verifier reverifies the newest delta, any other path verifies -- or
  /// restores -- a fresh world with the whole prefix applied.
  std::optional<Failure> advance(const std::vector<NetlistDelta>& script) {
    step_ = script.size();
    if (verifier_ && path_.incremental) {
      stats_ = {};
      try {
        result_ = verifier_->reverify(script.back(), &stats_);
      } catch (const std::exception& e) {
        return fail("pipeline-throw",
                    std::string("reverify threw on a generated delta: ") + e.what());
      }
      return std::nullopt;
    }
    verifier_.reset();
    if (auto f = fresh(script, world_)) return f;
    verifier_ = world_->verifier();
    std::unique_ptr<World> twin;
    std::unique_ptr<Verifier> writer;
    try {
      if (!path_.restored) {
        result_ = verifier_->verify(world_->cases);
        return std::nullopt;
      }
      // The cold twin writes the snapshot this path restores.
      if (auto f = fresh(script, twin)) return f;
      writer = twin->verifier();
      writer->verify(twin->cases);
    } catch (const std::exception& e) {
      return fail("pipeline-throw", std::string("verify threw: ") + e.what());
    }
    std::string snap = writer->snapshot("FUZZ", twin->artifact_hash());
    if (writer->snapshot("FUZZ", twin->artifact_hash()) != snap) {
      return fail("pipeline-unstable",
                  "serializing the same baseline twice produced different snapshot bytes");
    }
    diag::DiagnosticEngine diags;
    std::optional<FixpointState> state = load_fixpoint(snap, "<memory>", diags);
    if (!state) {
      return fail("pipeline-reject",
                  "a just-written snapshot failed to load:\n" + diag_text(diags));
    }
    if (!verifier_->restore(*state, world_->artifact_hash(), diags)) {
      return fail("pipeline-reject",
                  "restore into a fresh verifier refused:\n" + diag_text(diags));
    }
    result_ = verifier_->baseline();
    return std::nullopt;
  }

  Netlist& netlist() { return world_->nl(); }
  const Verifier& verifier() const { return *verifier_; }
  const VerifyResult& result() const { return result_; }
  const std::vector<CaseSpec>& cases() const { return verifier_->baseline_cases(); }
  Time period() const { return world_->opts.period; }
  bool went_incremental() const { return stats_.incremental; }
  std::string snapshot() const {
    return verifier_->snapshot("FUZZ", world_->artifact_hash());
  }

  /// "seed S edit_seed E step K" -- where a failure happened.
  std::string where() const {
    return "seed " + std::to_string(spec_.seed) + " edit_seed " +
           std::to_string(edit_seed_) + " step " + std::to_string(step_);
  }

  /// The path, plus how the last reverify went on a live verifier.
  std::string label() const {
    std::string s = describe(path_);
    if (path_.incremental && step_ > 0) {
      s += stats_.incremental ? " (incremental, " : " (fell back: " + stats_.fallback_reason + ", ";
      s += std::to_string(stats_.cases_reevaluated) + " case(s) re-run, " +
           std::to_string(stats_.cases_spliced) + " spliced)";
    }
    return s;
  }

 private:
  Failure fail(const char* kind, const std::string& what) const {
    return Failure{kind, where() + " " + describe(path_) + ": " + what};
  }

  /// A pristine world on this path's front end and options, with `script`
  /// applied wholesale.
  std::optional<Failure> fresh(const std::vector<NetlistDelta>& script,
                               std::unique_ptr<World>& w) {
    w = std::make_unique<World>();
    if (path_.compiled) {
      if (artifact_.empty()) {
        BuiltCircuit bc = build(spec_);
        CompiledSummary summary;
        summary.primitives = bc.nl.num_prims();
        summary.unique_signals = bc.nl.num_signals();
        CompiledDesign d = compile_design("FUZZ", bc.nl, bc.opts, bc.cases, summary);
        artifact_ = serialize_compiled(d);
        if (serialize_compiled(d) != artifact_) {
          return fail("pipeline-unstable",
                      "serializing the same design twice produced different artifact bytes");
        }
      }
      diag::DiagnosticEngine diags;
      w->loaded = load_compiled(artifact_, "<memory>", diags);
      if (!w->loaded) {
        return fail("pipeline-reject",
                    "a just-written artifact failed to load:\n" + diag_text(diags));
      }
      w->opts = w->loaded->options;
      w->cases = w->loaded->cases;
    } else {
      w->built.emplace(build(spec_));
      w->opts = w->built->opts;
      w->cases = w->built->cases;
    }
    w->opts.batch_eval = path_.batch_eval;
    if (guard_.max_segments_per_signal) {
      w->opts.max_segments_per_signal = guard_.max_segments_per_signal;
    }
    if (guard_.max_waveforms_per_shard) {
      w->opts.max_waveforms_per_shard = guard_.max_waveforms_per_shard;
    }
    if (guard_.time_limit_seconds > 0) w->opts.time_limit_seconds = guard_.time_limit_seconds;
    try {
      for (const NetlistDelta& d : script) apply_delta(w->nl(), w->cases, d);
    } catch (const std::exception& e) {
      return fail("pipeline-throw",
                  std::string("apply_delta threw on a replayed delta: ") + e.what());
    }
    if (!w->nl().finalized()) w->nl().finalize();
    return std::nullopt;
  }

  const CircuitSpec& spec_;
  Path path_;
  Guard guard_;
  std::uint64_t edit_seed_;
  std::size_t step_ = 0;
  std::string artifact_;  // the .tvc bytes, once a compiled path built them
  std::unique_ptr<World> world_;
  std::unique_ptr<Verifier> verifier_;  // declared after world_: dies first
  VerifyResult result_;
  ReverifyStats stats_;
};

/// The first checker finding of `clean` whose (checker, signal) pair is
/// absent from `degraded`, or nullptr. The convergence verdict names no
/// checker and is not a key.
const Violation* hidden_violation(const std::vector<Violation>& clean,
                                  const std::vector<Violation>& degraded) {
  std::set<std::pair<PrimId, SignalId>> seen;
  for (const Violation& v : degraded) seen.emplace(v.prim, v.signal);
  for (const Violation& v : clean) {
    if (v.prim != kNoPrim && !seen.count({v.prim, v.signal})) return &v;
  }
  return nullptr;
}

// ---------------------------------------------------------------- memo audit

/// A fresh evaluate_primitive of the inputs `key` describes: the key's kind
/// and delays, each input prepared from a pin with the key's inversion and
/// resolved directive string, on a signal with the key's wire delay.
PrimEvalResult evaluate_key(const MemoKeyFields& key, const WaveformTable& table,
                            const VerifierOptions& opts) {
  Primitive p;
  p.kind = static_cast<PrimKind>(key.kind);
  p.dmin = key.dmin;
  p.dmax = key.dmax;
  if (key.has_rise_fall) {
    const auto& rf = key.rise_fall;
    p.rise_fall = RiseFallDelay{rf[0], rf[1], rf[2], rf[3]};
  }
  std::vector<PreparedInput> ins;
  for (const MemoPin& mp : key.pins) {
    Pin pin{kNoSignal, mp.invert, mp.dirs};
    Signal s;
    s.wire_delay = WireDelay{mp.wire_min, mp.wire_max};
    ins.push_back(prepare_input(pin, s, table.get(mp.wave), std::string(), opts));
    p.inputs.push_back(std::move(pin));
  }
  PrimEvalResult r = evaluate_primitive(p, ins, opts.period);
  r.wave.canonicalize();
  return r;
}

std::string describe_key(const MemoKeyFields& key) {
  std::ostringstream os;
  os << prim_kind_name(static_cast<PrimKind>(key.kind)) << " delay " << to_ns(key.dmin)
     << "-" << to_ns(key.dmax) << (key.has_rise_fall ? " rise/fall" : "");
  for (const MemoPin& mp : key.pins) {
    os << "\n    pin" << (mp.invert ? " inverted" : "") << " wire " << to_ns(mp.wire_min)
       << "-" << to_ns(mp.wire_max) << " dirs \"" << mp.dirs << "\"";
  }
  return os.str();
}

std::string describe_output(const Waveform& w, const std::string& eval_str) {
  return w.to_string() + " \"" + eval_str + "\"";
}

/// The four axes, in Path's declaration order: the field, and how
/// describe() names its true and false options.
struct Axis {
  const char* field;
  bool Path::*member;
  const char* on;
  const char* off;
};
constexpr Axis kAxes[] = {
    {"compiled", &Path::compiled, "tvc", "source"},
    {"batch_eval", &Path::batch_eval, "sweep", "per-case"},
    {"restored", &Path::restored, "restored", "cold"},
    {"incremental", &Path::incremental, "reverify", "cold-edits"},
};
constexpr int kPathCount = 1 << std::size(kAxes);

/// Path number `bits` of the kPathCount: bit i sets axis i.
Path path_from_bits(int bits) {
  Path p;
  for (std::size_t i = 0; i < std::size(kAxes); ++i) p.*kAxes[i].member = (bits >> i) & 1;
  return p;
}

std::string to_cpp(const Path& p) {
  std::string out = "tv::check::Path{";
  for (const Axis& a : kAxes) {
    if (out.back() != '{') out += ", ";
    out += std::string(".") + a.field + " = " + (p.*a.member ? "true" : "false");
  }
  return out + "}";
}

std::string to_cpp(const PipelineOptions& o) {
  return "tv::check::PipelineOptions{.edit_seed = " + std::to_string(o.edit_seed) +
         "ULL, .steps = " + std::to_string(o.steps) + "}";
}

}  // namespace

std::uint64_t default_edit_seed(std::uint64_t circuit_seed) {
  return circuit_seed * 0x9E3779B97F4A7C15ULL + 0x6C62272E07BB0142ULL;
}

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

std::string canonical_render(const Netlist& nl, const VerifyResult& r, Time period,
                             bool effort) {
  std::ostringstream os;
  os << "converged=" << r.converged << " partial=" << r.partial;
  if (effort) os << " base_events=" << r.base_events << " base_evals=" << r.base_evals;
  os << '\n' << timing_summary(nl) << violations_report(r.violations);
  for (const auto& c : r.cases) {
    os << "case " << c.name << " events=" << c.events << " converged=" << c.converged
       << " degraded=" << c.degraded << '\n'
       << violations_report(c.violations);
  }
  os << "xref:";
  for (SignalId id : r.cross_reference) os << ' ' << id;
  os << '\n';
  if (effort) os << export_json(nl, r, period);
  return os.str();
}

std::optional<Failure> check_pipeline_equivalence(const CircuitSpec& spec, const Path& a,
                                                   const Path& b,
                                                   const PipelineOptions& opts) {
  const std::uint64_t edit_seed = opts.edit_seed ? opts.edit_seed : default_edit_seed(spec.seed);
  PathRun ra(spec, a, Guard{}, edit_seed), rb(spec, b, Guard{}, edit_seed);
  const bool effort = a.incremental == b.incremental;
  const bool live_twins = a.incremental && b.incremental && a.compiled == b.compiled;
  std::vector<NetlistDelta> script;
  Rng rng(edit_seed);
  for (int step = 0; step <= opts.steps; ++step) {
    if (step > 0) script.push_back(random_delta(rng, ra.netlist(), ra.cases()));
    if (auto f = ra.advance(script)) return f;
    if (auto f = rb.advance(script)) return f;
    std::string render_a = canonical_render(ra.netlist(), ra.result(), ra.period(), effort);
    std::string render_b = canonical_render(rb.netlist(), rb.result(), rb.period(), effort);
    if (render_a != render_b) {
      return Failure{"pipeline-diff", ra.where() + ": reports diverge\n--- A " + ra.label() +
                                          " ---\n" + render_a + "--- B " + rb.label() +
                                          " ---\n" + render_b};
    }
    if (live_twins && ((step > 0 && ra.went_incremental() != rb.went_incremental()) ||
                       ra.snapshot() != rb.snapshot())) {
      return Failure{"pipeline-state-diff",
                     ra.where() + ": the two live verifiers report identically but " +
                         "re-serialize to different snapshot bytes or disagree on "
                         "falling back\n  A " + ra.label() + "\n  B " + rb.label()};
    }
  }
  return std::nullopt;
}

std::optional<Failure> check_degradation_conservatism(const CircuitSpec& spec,
                                                      const Path& path, const Guard& guard,
                                                      const PipelineOptions& opts) {
  const std::uint64_t edit_seed = opts.edit_seed ? opts.edit_seed : default_edit_seed(spec.seed);
  PathRun clean(spec, path, Guard{}, edit_seed), degraded(spec, path, guard, edit_seed);
  std::vector<NetlistDelta> script;
  Rng rng(edit_seed);
  for (int step = 0; step <= opts.steps; ++step) {
    if (step > 0) script.push_back(random_delta(rng, clean.netlist(), clean.cases()));
    if (auto f = clean.advance(script)) return f;
    if (auto f = degraded.advance(script)) return f;
    const VerifyResult& c = clean.result();
    const VerifyResult& d = degraded.result();
    const std::string where = degraded.where() + " " + describe(path) + " under " +
                              describe(guard);

    bool degradation = !d.degradations.empty();
    for (const auto& cr : d.cases) degradation = degradation || cr.degraded;
    if (degradation && !d.partial) {
      return Failure{"degrade-not-partial",
                     where + ": a degradation was recorded but the result is not partial"};
    }
    // Checks skipped past the deadline (TV-W204) may hide a violation.
    if (std::any_of(d.degradations.begin(), d.degradations.end(), [](const Degradation& g) {
          return std::strcmp(g.code, diag::kWarnCheckDeadline) == 0;
        })) {
      continue;
    }
    auto hides = [&](const std::string& scope, const std::vector<Violation>& want,
                     const std::vector<Violation>& got) -> std::optional<Failure> {
      const Violation* v = hidden_violation(want, got);
      if (!v) return std::nullopt;
      return Failure{"degrade-hides-violation",
                     where + ": " + scope + " violation hidden by the degraded run\n" +
                         v->message + "--- degraded " + scope + " report ---\n" +
                         violations_report(got) + "--- degraded timing summary ---\n" +
                         timing_summary(degraded.netlist())};
    };
    if (auto f = hides("base", c.violations, d.violations)) return f;
    if (c.cases.size() != d.cases.size()) {
      return Failure{"degrade-hides-violation", where + ": the degraded run lost a case"};
    }
    for (std::size_t i = 0; i < c.cases.size(); ++i) {
      if (auto f = hides("case " + c.cases[i].name, c.cases[i].violations,
                         d.cases[i].violations)) {
        return f;
      }
    }
  }
  return std::nullopt;
}

std::optional<Failure> audit_memo(const Verifier& v, const VerifyResult& r) {
  const Evaluator& ev = v.evaluator();
  const InternContext& ctx = *ev.intern_context();
  std::optional<Failure> stale;
  ctx.memo.for_each([&](const MemoKeyFields& key, const MemoResult& stored) {
    if (stale) return;
    PrimEvalResult fresh = evaluate_key(key, ctx.table, ev.options());
    const Waveform& cached = ctx.table.get(stored.wave);
    if (fresh.wave.equivalent(cached) && fresh.eval_str == stored.eval_str) return;
    stale = Failure{"memo-stale-entry",
                    "the memo entry for " + describe_key(key) + "\n  holds   " +
                        describe_output(cached, stored.eval_str) + "\n  but a fresh " +
                        "evaluation gives " + describe_output(fresh.wave, fresh.eval_str)};
  });
  if (stale || !r.converged || r.partial) return stale;
  const Netlist& nl = ev.netlist();
  for (PrimId pid = 0; pid < nl.num_prims(); ++pid) {
    const Primitive& p = nl.prim(pid);
    if (prim_is_checker(p.kind) || p.output == kNoSignal) continue;
    std::vector<PreparedInput> ins;
    for (const Pin& pin : p.inputs) ins.push_back(ev.prepare(pin));
    PrimEvalResult fresh = evaluate_primitive(p, ins, ev.options().period);
    fresh.wave.canonicalize();
    const Signal& out = nl.signal(p.output);
    if (fresh.wave.equivalent(out.wave) && fresh.eval_str == out.eval_str) continue;
    return Failure{"fixpoint-inconsistent",
                   "primitive \"" + p.name + "\" drives \"" + out.full_name + "\" with " +
                       describe_output(out.wave, out.eval_str) + " in a converged " +
                       "fixpoint, but re-evaluating its inputs gives " +
                       describe_output(fresh.wave, fresh.eval_str)};
  }
  return std::nullopt;
}

std::optional<Failure> audit_batch_containment(const Verifier& v, const VerifyResult& r,
                                               const std::vector<CaseSpec>& cases) {
  const Evaluator& ev = v.evaluator();
  const VerifierOptions& opts = ev.options();
  if (cases.empty() || !r.converged || r.partial || opts.deadline.armed() ||
      opts.time_limit_seconds > 0 || opts.max_evals_per_prim == 0) {
    return std::nullopt;  // the sweep would not run
  }
  const Netlist& nl = ev.netlist();
  InternContext& ctx = *ev.intern_context();
  std::vector<EvalSnapshot> snaps;
  snaps.reserve(cases.size());
  for (std::size_t l = 0; l < cases.size(); ++l) {
    snaps.emplace_back(nl, nullptr, &ctx, &ev.wave_refs());
  }
  BatchBlockResult br;
  try {
    br = run_case_block(nl, opts, build_batch_schedule(nl), ctx, ev.wave_refs(), cases, 0,
                        cases.size(), {}, snaps);
  } catch (const std::logic_error& e) {
    return Failure{"batch-outside-cone", std::string("the sweep's reach proof: ") + e.what()};
  }
  if (!br.completed) return std::nullopt;  // the table filled: no snapshot to audit
  ConeIndex index(nl);
  for (std::size_t l = 0; l < cases.size(); ++l) {
    std::vector<SignalId> pins;
    for (const auto& pin : cases[l].pins) pins.push_back(pin.first);
    std::shared_ptr<const Cone> cone = index.cone_of(std::move(pins));
    for (SignalId sig : snaps[l].written()) {
      if (cone->contains_signal(sig)) continue;
      return Failure{"batch-outside-cone", "case \"" + cases[l].name + "\"'s batch lane wrote \"" +
                                               nl.signal(sig).full_name +
                                               "\", outside the case's cone"};
    }
  }
  return std::nullopt;
}

std::optional<Failure> check_memo_audit(const CircuitSpec& spec, const Path& path,
                                        const PipelineOptions& opts) {
  const std::uint64_t edit_seed = opts.edit_seed ? opts.edit_seed : default_edit_seed(spec.seed);
  PathRun run(spec, path, Guard{}, edit_seed);
  std::vector<NetlistDelta> script;
  Rng rng(edit_seed);
  for (int step = 0; step <= opts.steps; ++step) {
    if (step > 0) script.push_back(random_delta(rng, run.netlist(), run.cases()));
    if (auto f = run.advance(script)) return f;
    std::optional<Failure> f = audit_memo(run.verifier(), run.result());
    if (!f) f = audit_batch_containment(run.verifier(), run.result(), run.cases());
    if (f) {
      f->detail = run.where() + " " + run.label() + ": " + f->detail;
      return f;
    }
  }
  return std::nullopt;
}

std::vector<MatrixPair> matrix_pairs(std::uint64_t seed) {
  std::vector<MatrixPair> pairs = {
      {"batch", {}, {.batch_eval = false}},
      {"compile", {}, {.compiled = true}},
  };
  for (bool compiled : {false, true}) {
    // Odd seeds diff reverify's sweep re-runs against the per-case reference.
    pairs.push_back({"incr",
                     {.compiled = compiled, .incremental = true},
                     {.compiled = compiled, .batch_eval = seed % 2 == 0}});
    pairs.push_back({"snapshot",
                     {.compiled = compiled, .incremental = true},
                     {.compiled = compiled, .restored = true, .incremental = true}});
  }
  Rng rng(seed ^ 0x5DEECE66DULL);
  for (int i = 0; i < 2; ++i) {
    int x = rng.range(0, kPathCount - 1), y = rng.range(0, kPathCount - 2);
    if (y >= x) ++y;  // distinct from x, uniform over the others
    pairs.push_back({"random", path_from_bits(x), path_from_bits(y)});
  }
  return pairs;
}

Path random_path(std::uint64_t seed) {
  return path_from_bits(Rng(seed ^ 0x3C6EF372ULL).range(1, kPathCount - 1));
}

Guard random_guard(std::uint64_t seed) {
  switch (Rng(seed ^ 0xB5297A4DULL).range(0, 5)) {
    case 0: return {.max_segments_per_signal = 1};
    case 1: return {.max_segments_per_signal = 2};
    case 2: return {.max_segments_per_signal = 4};
    case 3: return {.max_waveforms_per_shard = 1};
    case 4: return {.max_waveforms_per_shard = 4};
    default: return {.time_limit_seconds = 1e-12};
  }
}

std::string describe(const Path& p) {
  std::string out = "{";
  for (const Axis& a : kAxes) {
    if (out.back() != '{') out += ", ";
    out += p.*a.member ? a.on : a.off;
  }
  return out + "}";
}

std::string describe(const Guard& g) {
  std::ostringstream os;
  if (g.max_segments_per_signal) os << "max_segments_per_signal=" << g.max_segments_per_signal;
  if (g.max_waveforms_per_shard) os << "max_waveforms_per_shard=" << g.max_waveforms_per_shard;
  if (g.time_limit_seconds > 0) os << "time_limit_seconds=" << g.time_limit_seconds;
  std::string s = os.str();
  return s.empty() ? "no guard" : s;
}

std::string pipeline_call(const Path& a, const Path& b, const PipelineOptions& opts) {
  return "tv::check::check_pipeline_equivalence(s, " + to_cpp(a) + ", " + to_cpp(b) +
         ", " + to_cpp(opts) + ")";
}

std::string degradation_call(const Path& path, const Guard& guard,
                             const PipelineOptions& opts) {
  std::ostringstream g;
  g << "tv::check::Guard{.max_segments_per_signal = " << guard.max_segments_per_signal
    << ", .max_waveforms_per_shard = " << guard.max_waveforms_per_shard
    << ", .time_limit_seconds = " << guard.time_limit_seconds << "}";
  return "tv::check::check_degradation_conservatism(s, " + to_cpp(path) + ", " + g.str() +
         ", " + to_cpp(opts) + ")";
}

std::string memo_audit_call(const Path& path, const PipelineOptions& opts) {
  return "tv::check::check_memo_audit(s, " + to_cpp(path) + ", " + to_cpp(opts) + ")";
}

}  // namespace tv::check
