#include "core/evaluator.hpp"

#include <chrono>

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

Evaluator::Evaluator(Netlist& nl, VerifierOptions opts)
    : nl_(nl),
      opts_(opts),
      intern_(std::make_shared<InternContext>(opts_.max_waveforms_per_shard)) {
  if (!nl.finalized()) nl.finalize();
  in_worklist_.assign(nl.num_prims(), 0);
  eval_count_.assign(nl.num_prims(), 0);
  wave_refs_.assign(nl.num_signals(), kNoWaveform);
}

void Evaluator::record_degradation(const char* code, std::string message) {
  degraded_ = true;
  degradations_.push_back(Degradation{code, std::move(message)});
}

void Evaluator::cap_segments(SignalId id, Waveform& w) {
  if (opts_.max_segments_per_signal == 0) return;
  if (w.segments().size() <= opts_.max_segments_per_signal) return;
  if (seg_degraded_.size() < nl_.num_signals()) seg_degraded_.resize(nl_.num_signals(), 0);
  if (!seg_degraded_[id]) {
    seg_degraded_[id] = 1;
    record_degradation(diag::kWarnSegmentCap,
                       "signal \"" + nl_.signal(id).full_name + "\" exceeded " +
                           std::to_string(opts_.max_segments_per_signal) +
                           " waveform segments; degraded to UNKNOWN");
  }
  w = Waveform(opts_.period, Value::Unknown);
  w.canonicalize();
}

WaveformRef Evaluator::intern_wave(SignalId id, const Waveform& w) {
  if (wave_refs_.size() < nl_.num_signals()) wave_refs_.resize(nl_.num_signals(), kNoWaveform);
  WaveformRef ref = intern_->table.intern(w);
  if (ref == kNoWaveform && !table_full_reported_) {
    // Table full: the caller keeps the uninterned copy. build_memo_key sees
    // the kNoWaveform ref and turns the memo off for consumers of the signal.
    table_full_reported_ = true;
    record_degradation(diag::kWarnTableFull,
                       "waveform table full; interning disabled for signal \"" +
                           nl_.signal(id).full_name + "\" and later waveforms");
  }
  return ref;
}

void Evaluator::put_wave(SignalId id, WaveformRef ref, Waveform w) {
  wave_refs_[id] = ref;
  if (ref == kNoWaveform) {
    nl_.signal(id).wave = std::move(w);
  } else {
    nl_.signal(id).wave = intern_->table.get(ref);
  }
}

void Evaluator::store_wave(SignalId id, Waveform w) {
  WaveformRef ref = intern_wave(id, w);
  put_wave(id, ref, std::move(w));
}

void Evaluator::seed_signal(SignalId id) {
  Signal& s = nl_.signal(id);
  Waveform w = seed_waveform(s, opts_);
  w.canonicalize();
  store_wave(id, std::move(w));
  s.eval_str.clear();
}

void Evaluator::initialize() {
  events_ = 0;
  evals_ = 0;
  converged_ = true;
  degraded_ = false;
  table_full_reported_ = false;
  seg_degraded_.assign(nl_.num_signals(), 0);
  degradations_.clear();
  worklist_.clear();
  in_worklist_.assign(nl_.num_prims(), 0);
  eval_count_.assign(nl_.num_prims(), 0);
  wave_refs_.assign(nl_.num_signals(), kNoWaveform);
  for (SignalId id = 0; id < nl_.num_signals(); ++id) seed_signal(id);
  for (PrimId pid = 0; pid < nl_.num_prims(); ++pid) {
    if (!prim_is_checker(nl_.prim(pid).kind)) enqueue(pid);
  }
}

void Evaluator::restore_fixpoint(const std::vector<Waveform>& waves,
                                 const std::vector<std::string>& eval_strs,
                                 bool converged, bool degraded,
                                 std::vector<Degradation> degradations) {
  // Mirror of initialize()'s reset, with the snapshot's settled state in
  // place of seeding: after this the evaluator is indistinguishable (to
  // reverify and the checkers) from one that just ran propagate() to this
  // fixpoint -- empty worklist, fresh oscillation budget.
  events_ = 0;
  evals_ = 0;
  converged_ = converged;
  degraded_ = degraded;
  degradations_ = std::move(degradations);
  table_full_reported_ = false;
  seg_degraded_.assign(nl_.num_signals(), 0);
  worklist_.clear();
  in_worklist_.assign(nl_.num_prims(), 0);
  eval_count_.assign(nl_.num_prims(), 0);
  track_touched_ = false;
  touched_.clear();
  touched_mark_.clear();
  wave_refs_.assign(nl_.num_signals(), kNoWaveform);
  for (SignalId id = 0; id < nl_.num_signals(); ++id) {
    Signal& s = nl_.signal(id);
    // Snapshot waveforms are canonical on disk; canonicalize defensively so
    // a restored ref always compares equal to the same waveform recomputed
    // in-process (the identity contract's foundation).
    Waveform w = waves[id];
    w.canonicalize();
    s.eval_str = eval_strs[id];
    store_wave(id, std::move(w));
  }
}

void Evaluator::enqueue(PrimId pid) {
  if (in_worklist_[pid]) return;
  in_worklist_[pid] = 1;
  worklist_.push_back(pid);
}

void Evaluator::enqueue_fanout(SignalId id) {
  for (PrimId pid : nl_.signal(id).fanout) {
    if (!prim_is_checker(nl_.prim(pid).kind)) enqueue(pid);
  }
}

PreparedInput Evaluator::prepare(const Pin& pin) const {
  const Signal& s = nl_.signal(pin.sig);
  return prepare_input(pin, s, s.wave, s.eval_str, opts_);
}

bool Evaluator::build_memo_key(const Primitive& p, MemoKey& key) const {
  return tv::build_memo_key(
      p, nl_, opts_, [this](SignalId id) { return wave_ref(id); },
      [this](SignalId id) -> const std::string& { return nl_.signal(id).eval_str; },
      key);
}

void Evaluator::assign(SignalId id, Waveform w, std::string eval_str, bool& changed) {
  Signal& s = nl_.signal(id);
  // Canonical form: the convergence test is a ref compare, and a deep
  // compare (the same predicate) only for an uninterned copy.
  w.canonicalize();
  cap_segments(id, w);
  WaveformRef ref = intern_wave(id, w);
  changed = (ref == kNoWaveform ? !(w == s.wave) : ref != wave_refs_[id]) ||
            eval_str != s.eval_str;
  if (changed) {
    put_wave(id, ref, std::move(w));
    s.eval_str = std::move(eval_str);
  }
}

std::size_t Evaluator::run_worklist() {
  std::size_t events_before = events_;
  // One deadline for the whole verify() run when the Verifier armed it;
  // a bare propagate() outside verify() arms its own from the budget.
  Deadline deadline = opts_.deadline;
  if (!deadline.armed() && opts_.time_limit_seconds > 0) {
    deadline = Deadline::after_seconds(opts_.time_limit_seconds);
  }
  const bool timed = deadline.armed();
  while (!worklist_.empty()) {
    // The deadline check covers the first pop too: a limit that already
    // passed degrades everything still queued rather than evaluating once.
    // One steady_clock read per pop is noise next to a primitive evaluation,
    // and any coarser stride would let small designs run out the worklist
    // between checks and never trip the limit.
    if (timed && deadline.expired()) {
      degrade_remaining();
      break;
    }
    fault::check("evaluator.eval");
    PrimId pid = worklist_.front();
    worklist_.pop_front();
    in_worklist_[pid] = 0;
    const Primitive& p = nl_.prim(pid);

    if (++eval_count_[pid] > opts_.max_evals_per_prim) {
      // Oscillation guard: synchronous designs converge quickly; blowing
      // through the cap means an unclocked feedback path.
      converged_ = false;
      continue;
    }
    ++evals_;

    bool changed = false;
    MemoKey key;
    bool keyed = build_memo_key(p, key);
    if (keyed) {
      if (std::optional<MemoResult> hit = intern_->memo.lookup(key)) {
        assign(p.output, intern_->table.get(hit->wave), hit->eval_str, changed);
        if (changed) {
          ++events_;
          note_touched(p.output);
          enqueue_fanout(p.output);
        }
        continue;
      }
    }
    std::vector<PreparedInput> ins;
    ins.reserve(p.inputs.size());
    for (const Pin& pin : p.inputs) ins.push_back(prepare(pin));
    PrimEvalResult r = evaluate_primitive(p, ins, opts_.period);
    if (keyed) {
      WaveformRef out = intern_->table.intern(r.wave);
      if (out != kNoWaveform) intern_->memo.store(key, MemoResult{out, r.eval_str});
    }
    assign(p.output, std::move(r.wave), std::move(r.eval_str), changed);
    if (changed) {
      ++events_;
      note_touched(p.output);
      enqueue_fanout(p.output);
    }
  }
  return events_ - events_before;
}

void Evaluator::degrade_remaining() {
  // Fanout closure of everything still queued: those cones were not fully
  // evaluated, so their signals become UNKNOWN -- the most pessimistic
  // value, preserving conservatism (sec. 2.3: UNKNOWN can only add
  // violations downstream, never mask one).
  Waveform unknown(opts_.period, Value::Unknown);
  unknown.canonicalize();
  std::vector<char> visited(nl_.num_prims(), 0);
  std::deque<PrimId> queue;
  for (PrimId pid : worklist_) {
    if (!visited[pid]) {
      visited[pid] = 1;
      queue.push_back(pid);
    }
  }
  worklist_.clear();
  in_worklist_.assign(nl_.num_prims(), 0);
  std::size_t degraded_signals = 0;
  while (!queue.empty()) {
    PrimId pid = queue.front();
    queue.pop_front();
    const Primitive& p = nl_.prim(pid);
    if (prim_is_checker(p.kind) || p.output == kNoSignal) continue;
    Signal& s = nl_.signal(p.output);
    if (!(s.wave == unknown)) {
      store_wave(p.output, unknown);
      note_touched(p.output);
      ++degraded_signals;
    }
    for (PrimId consumer : s.fanout) {
      if (consumer < visited.size() && !visited[consumer]) {
        visited[consumer] = 1;
        queue.push_back(consumer);
      }
    }
  }
  record_degradation(diag::kWarnTimeLimit,
                     "time limit of " + std::to_string(opts_.time_limit_seconds) +
                         "s exceeded; " + std::to_string(degraded_signals) +
                         " signal(s) degraded to UNKNOWN");
}

std::vector<std::vector<std::string>> Evaluator::feedback_cycles() const {
  // The oscillation guard (run_worklist) drives eval_count_ up to the cap
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
    if (pid < eval_count_.size() && eval_count_[pid] >= opts_.max_evals_per_prim) {
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

std::size_t Evaluator::propagate() { return run_worklist(); }

void Evaluator::note_touched(SignalId id) {
  if (!track_touched_) return;
  if (touched_mark_.size() < nl_.num_signals()) touched_mark_.resize(nl_.num_signals(), 0);
  if (!touched_mark_[id]) {
    touched_mark_[id] = 1;
    touched_.push_back(id);
  }
}

std::size_t Evaluator::propagate_incremental(const std::vector<SignalId>& reseed,
                                             const std::vector<PrimId>& reeval) {
  // Fresh oscillation budget, defensively resized flat maps (an edit may
  // have created signals), reseed-or-requeue the edited signals, run the
  // shared worklist.
  eval_count_.assign(nl_.num_prims(), 0);
  if (in_worklist_.size() < nl_.num_prims()) in_worklist_.resize(nl_.num_prims(), 0);
  if (seg_degraded_.size() < nl_.num_signals()) seg_degraded_.resize(nl_.num_signals(), 0);
  if (wave_refs_.size() < nl_.num_signals()) wave_refs_.resize(nl_.num_signals(), kNoWaveform);
  track_touched_ = true;
  touched_.clear();
  touched_mark_.assign(nl_.num_signals(), 0);
  for (SignalId sig : reseed) {
    const Signal& s = nl_.signal(sig);
    Waveform before = s.wave;
    std::string str_before = s.eval_str;
    if (s.driver != kNoPrim) {
      enqueue(s.driver);  // the driver's recomputed output wins over the seed
    } else {
      seed_signal(sig);
    }
    if (!(nl_.signal(sig).wave == before) || nl_.signal(sig).eval_str != str_before) {
      ++events_;
      note_touched(sig);
      enqueue_fanout(sig);
    }
  }
  for (PrimId pid : reeval) {
    if (!prim_is_checker(nl_.prim(pid).kind)) enqueue(pid);
  }
  std::size_t n = run_worklist();
  track_touched_ = false;
  return n;
}

}  // namespace tv
