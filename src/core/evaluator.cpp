#include "core/evaluator.hpp"

#include <bit>
#include <optional>
#include <unordered_map>

#include "core/propagate.hpp"
#include "core/scc.hpp"
#include "util/fault.hpp"

namespace tv {

namespace {

/// The assertion a signal's seed materializes, or null when it seeds a
/// constant: a stable assertion on a *generated* signal is a check, not a
/// seed (sec. 2.5.2) -- evaluation will overwrite it and the checker will
/// compare, so it seeds UNKNOWN and the driver's value wins
/// deterministically.
const Assertion* seeding_assertion(const Signal& s) {
  if (s.assertion.kind == Assertion::Kind::None) return nullptr;
  if (s.assertion.kind == Assertion::Kind::Stable && s.driver != kNoPrim) return nullptr;
  return &s.assertion;
}

/// The constant seed of a signal without a seeding assertion. "Undefined
/// signals with no assertions are taken to be always stable, to prevent
/// them from giving rise to numerous spurious timing errors" (sec. 2.5);
/// they appear on the cross-reference listing instead. Generated signals
/// start UNKNOWN.
Value constant_seed(const Signal& s) {
  return s.driver == kNoPrim ? Value::Stable : Value::Unknown;
}

struct AssertionHash {
  std::size_t operator()(const Assertion& a) const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ull; };
    auto mix_double = [&mix](double d) { mix(std::bit_cast<std::uint64_t>(d)); };
    mix(static_cast<std::uint64_t>(a.kind));
    mix(a.active_low);
    for (const Assertion::Range& r : a.ranges) {
      mix_double(r.begin);
      mix_double(r.end);
      mix_double(r.width_ns.value_or(-1.0));
    }
    if (a.skew_ns) {
      mix_double(a.skew_ns->first);
      mix_double(a.skew_ns->second);
    }
    return static_cast<std::size_t>(h);
  }
};

}  // namespace

Waveform seed_waveform(const Signal& s, const VerifierOptions& opts) {
  if (const Assertion* a = seeding_assertion(s)) {
    return assertion_waveform(*a, opts.period, opts.units, opts.assertion_defaults);
  }
  return Waveform(opts.period, constant_seed(s));
}

PreparedInput prepare_input(const Pin& pin, const Signal& s, const Waveform& wave,
                            const std::string& eval_str, const VerifierOptions& opts) {
  PreparedInput in;
  // The pin's own "&" string takes precedence; otherwise the directive
  // string propagated along the signal (EVAL STR PTR) applies.
  const std::string& dirs = !pin.directives.empty() ? pin.directives : eval_str;
  if (!dirs.empty()) {
    in.has_directive_string = true;
    in.directive = dirs[0];
    in.tail = dirs.substr(1);
  }
  in.wave = pin.invert ? wave.map(value_not) : wave;
  bool zero_wire = in.directive == 'W' || in.directive == 'Z' || in.directive == 'H';
  if (!zero_wire) {
    WireDelay wd = s.wire_delay.value_or(opts.default_wire);
    if (wd.dmin != 0 || wd.dmax != 0) in.wave = in.wave.delayed(wd.dmin, wd.dmax);
  }
  return in;
}

/// Every signal and primitive is its own slot; writes land in Signal::wave
/// and eval_str and, during propagate_incremental, list the signal for
/// touched_signals(). Each base evaluation is a fault-injection point.
struct Evaluator::Store {
  Evaluator& ev;

  const Netlist& netlist() const { return ev.nl_; }
  const Waveform& wave(SignalId id) const { return ev.nl_.signal(id).wave; }
  const std::string& eval_str(SignalId id) const { return ev.nl_.signal(id).eval_str; }
  WaveformRef wave_ref(SignalId id) const { return ev.wave_ref(id); }
  static std::int32_t prim_slot(PrimId pid) { return static_cast<std::int32_t>(pid); }
  static std::int32_t signal_slot(SignalId id) { return static_cast<std::int32_t>(id); }
  static bool adjusts(SignalId) { return false; }
  static void adjust(SignalId, Waveform&) {}
  void write(SignalId id, WaveformRef ref, Waveform w, std::string eval_str) {
    Signal& s = ev.nl_.signal(id);
    ev.wave_refs_[id] = ref;
    if (ref == kNoWaveform) {
      s.wave = std::move(w);
    } else {
      s.wave = ev.intern_->table.get(ref);
    }
    s.eval_str = std::move(eval_str);
    if (ev.track_touched_ && !ev.touched_mark_[id]) {
      ev.touched_mark_[id] = 1;
      ev.touched_.push_back(id);
    }
  }
  static void on_pop() { fault::check("evaluator.eval"); }
};

Propagator<Evaluator::Store> Evaluator::engine() {
  return Propagator<Store>(Store{*this}, opts_, *intern_, state_);
}

Evaluator::Evaluator(Netlist& nl, VerifierOptions opts)
    : nl_(nl),
      opts_(opts),
      intern_(std::make_shared<InternContext>(opts_.max_waveforms_per_shard)) {
  if (!nl.finalized()) nl.finalize();
  state_.reset(nl.num_prims(), nl.num_signals());
  wave_refs_.assign(nl.num_signals(), kNoWaveform);
}

void Evaluator::initialize() {
  state_.reset(nl_.num_prims(), nl_.num_signals());
  wave_refs_.assign(nl_.num_signals(), kNoWaveform);
  Propagator<Store> e = engine();
  // Seeds repeat -- the UNKNOWN and STABLE constants and a few distinct
  // assertions -- so each is materialized and interned by the first
  // signal it seeds and written as a ref thereafter. A seed the full
  // table refused goes through put() every time, as it always did.
  std::optional<WaveformRef> constants[2];
  std::unordered_map<Assertion, std::optional<WaveformRef>, AssertionHash> asserted;
  for (SignalId id = 0; id < nl_.num_signals(); ++id) {
    const Signal& s = nl_.signal(id);
    const Assertion* a = seeding_assertion(s);
    std::optional<WaveformRef>& ref =
        a ? asserted[*a] : constants[constant_seed(s) == Value::Stable];
    if (ref && *ref != kNoWaveform) {
      e.put_ref(id, *ref, std::string());
    } else {
      e.put(id, seed_waveform(s, opts_), std::string());
      ref = wave_refs_[id];
    }
  }
  for (PrimId pid = 0; pid < nl_.num_prims(); ++pid) e.enqueue(pid);
}

void Evaluator::restore_fixpoint(const std::vector<Waveform>& waves,
                                 const std::vector<std::string>& eval_strs,
                                 bool converged, bool degraded,
                                 std::vector<Degradation> degradations) {
  // Mirror of initialize()'s reset, with the snapshot's settled state in
  // place of seeding: after this the evaluator is indistinguishable (to
  // reverify and the checkers) from one that just ran propagate() to this
  // fixpoint -- empty worklist, fresh oscillation budget. Snapshot
  // waveforms are canonical on disk; put() canonicalizes anyway, so a
  // restored ref always compares equal to the same waveform recomputed
  // in-process (the identity contract's foundation).
  state_.reset(nl_.num_prims(), nl_.num_signals());
  state_.converged = converged;
  state_.degraded = degraded;
  state_.degradations = std::move(degradations);
  track_touched_ = false;
  touched_.clear();
  touched_mark_.clear();
  wave_refs_.assign(nl_.num_signals(), kNoWaveform);
  Propagator<Store> e = engine();
  for (SignalId id = 0; id < nl_.num_signals(); ++id) e.put(id, waves[id], eval_strs[id]);
}

PreparedInput Evaluator::prepare(const Pin& pin) const {
  const Signal& s = nl_.signal(pin.sig);
  return prepare_input(pin, s, s.wave, s.eval_str, opts_);
}

std::vector<std::vector<std::string>> Evaluator::feedback_cycles() const {
  // The oscillation guard (core/propagate.hpp) drives eval_count up to the cap
  // exactly for the primitives that kept oscillating: SCC over that induced
  // subgraph localizes the unclocked feedback paths. The criterion is >=
  // rather than >: once the first loop member trips the guard it stops
  // producing events, so its ring-mates stall at exactly the cap -- they are
  // part of the cycle all the same. Singleton components without a self-loop
  // are dropped below, so a lone prim that legitimately evaluated cap times
  // never produces a false cycle.
  std::vector<char> hot(nl_.num_prims(), 0);
  bool any = false;
  for (PrimId pid = 0; pid < nl_.num_prims(); ++pid) {
    if (pid < state_.eval_count.size() && state_.eval_count[pid] >= opts_.max_evals_per_prim) {
      hot[pid] = 1;
      any = true;
    }
  }
  if (!any) return {};
  std::vector<std::vector<std::uint32_t>> adj(nl_.num_prims());
  for (PrimId pid = 0; pid < nl_.num_prims(); ++pid) {
    if (!hot[pid]) continue;
    const Primitive& p = nl_.prim(pid);
    if (p.output == kNoSignal) continue;
    for (PrimId consumer : nl_.signal(p.output).fanout) {
      if (consumer < hot.size() && hot[consumer]) adj[pid].push_back(consumer);
    }
  }
  std::vector<std::vector<std::string>> cycles;
  for (const auto& comp : strongly_connected_components(adj)) {
    if (!hot[comp[0]]) continue;
    std::vector<std::uint32_t> cycle = cycle_through_component(adj, comp);
    if (cycle.empty()) continue;
    std::vector<std::string> names;
    names.reserve(cycle.size());
    for (std::uint32_t pid : cycle) {
      names.push_back(nl_.signal(nl_.prim(pid).output).full_name);
    }
    cycles.push_back(std::move(names));
  }
  return cycles;
}

std::size_t Evaluator::propagate() { return engine().run(); }

std::size_t Evaluator::propagate_incremental(const std::vector<SignalId>& reseed,
                                             const std::vector<PrimId>& reeval) {
  // Fresh oscillation budget over state an edit may have grown, reseed or
  // requeue the edited elements, run the engine.
  if (wave_refs_.size() < nl_.num_signals()) wave_refs_.resize(nl_.num_signals(), kNoWaveform);
  state_.rearm(nl_.num_prims(), nl_.num_signals());
  track_touched_ = true;
  touched_.clear();
  touched_mark_.assign(nl_.num_signals(), 0);
  Propagator<Store> e = engine();
  for (SignalId sig : reseed) e.reseed(sig);
  for (PrimId pid : reeval) e.enqueue(pid);
  std::size_t n = e.run();
  track_touched_ = false;
  return n;
}

}  // namespace tv
