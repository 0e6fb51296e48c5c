#include "core/evaluator.hpp"

#include "core/propagate.hpp"
#include "core/scc.hpp"
#include "util/fault.hpp"

namespace tv {

Waveform seed_waveform(const Signal& s, const VerifierOptions& opts) {
  if (s.assertion.kind != Assertion::Kind::None) {
    if (s.assertion.kind == Assertion::Kind::Stable && s.driver != kNoPrim) {
      // A stable assertion on a *generated* signal is a check, not a seed
      // (sec. 2.5.2): evaluation will overwrite this and the checker will
      // compare. Seed UNKNOWN so the driver's value wins deterministically.
      return Waveform(opts.period, Value::Unknown);
    }
    return assertion_waveform(s.assertion, opts.period, opts.units,
                              opts.assertion_defaults);
  }
  if (s.driver == kNoPrim) {
    // "Undefined signals with no assertions are taken to be always stable,
    // to prevent them from giving rise to numerous spurious timing errors"
    // (sec. 2.5); they appear on the cross-reference listing instead.
    return Waveform(opts.period, Value::Stable);
  }
  return Waveform(opts.period, Value::Unknown);
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
  for (SignalId id = 0; id < nl_.num_signals(); ++id) {
    e.put(id, seed_waveform(nl_.signal(id), opts_), std::string());
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
