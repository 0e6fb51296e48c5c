// The event-driven propagation engine (thesis sec. 2.9).
//
// Every output change is an *event* that enqueues the primitives on the
// output's call list; the loop runs until nothing changes. The base fixpoint
// (Evaluator::propagate), its incremental updates after netlist edits
// (Evaluator::propagate_incremental) and the per-case reference of sec. 2.7
// (run_case_on_snapshot) are all this one loop. They differ only in the
// state store it reads and writes:
//
//   const Netlist& netlist() const;
//   const Waveform& wave(SignalId) const;        // current value
//   const std::string& eval_str(SignalId) const;
//   WaveformRef wave_ref(SignalId) const;        // kNoWaveform if uninterned
//   std::int32_t prim_slot(PrimId) const;        // dense slot, -1 outside
//   std::int32_t signal_slot(SignalId) const;
//   bool adjusts(SignalId) const;                // adjust() may change it
//   void adjust(SignalId, Waveform&) const;      // per-write hook (case map)
//   void write(SignalId, WaveformRef, Waveform, std::string);
//   void on_pop();                               // per-evaluation hook
//
// `write` stores the table's copy of the ref, or the waveform itself when
// the ref is kNoWaveform (the table is full). An evaluation whose result
// is interned -- every memo hit -- commits the ref itself: the change test
// and the write never touch a waveform unless the store adjusts the signal
// or the segment cap trips. Run state -- worklist,
// oscillation counts, effort counters, degradations -- lives in a
// PropagationState the caller owns, sized to the store's slots.
#pragma once

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/evaluator.hpp"

namespace tv {

/// The TV-W201 record for a signal whose computed waveform exceeded `cap`
/// segments. The batch sweep (core/batch_eval.cpp) records it too.
inline Degradation segment_cap_degradation(const Signal& s, std::size_t cap) {
  return Degradation{diag::kWarnSegmentCap, "signal \"" + s.full_name + "\" exceeded " +
                                                std::to_string(cap) +
                                                " waveform segments; degraded to UNKNOWN"};
}

template <class Store>
class Propagator {
 public:
  Propagator(Store store, const VerifierOptions& opts, InternContext& ctx,
             PropagationState& st)
      : store_(std::move(store)), nl_(store_.netlist()), opts_(opts), ctx_(ctx), st_(st) {}

  /// Queues an evaluating primitive unless it is queued or outside the store.
  void enqueue(PrimId pid) {
    std::int32_t slot = store_.prim_slot(pid);
    if (slot < 0 || st_.queued[slot] || prim_is_checker(nl_.prim(pid).kind)) return;
    st_.queued[slot] = 1;
    st_.worklist.push_back(pid);
  }

  /// Writes a waveform that is not an event (a seed, a restored value, a
  /// time-limit degradation): canonicalize, intern, write.
  void put(SignalId id, Waveform w, std::string eval_str) {
    w.canonicalize();
    WaveformRef ref = intern(id, w);
    store_.write(id, ref, std::move(w), std::move(eval_str));
  }

  /// put() of a waveform interned already as `ref` (not kNoWaveform).
  void put_ref(SignalId id, WaveformRef ref, std::string eval_str) {
    store_.write(id, ref, Waveform(), std::move(eval_str));
  }

  /// A signal whose seed changed (an edited assertion, a case pin): a
  /// driven signal's driver recomputes; an undriven one takes its new seed
  /// through the commit step. Seeds are not computed waveforms, so the
  /// segment cap does not apply.
  void reseed(SignalId id) {
    const Signal& s = nl_.signal(id);
    if (s.driver != kNoPrim) {
      enqueue(s.driver);
    } else {
      commit(id, seed_waveform(s, opts_), std::string(), false);
    }
  }

  /// Runs the worklist to the fixpoint; returns the events it processed.
  /// Under an armed deadline (the verify()-wide one, else one armed here
  /// from time_limit_seconds) expiry degrades everything still reachable
  /// from the worklist to UNKNOWN and ends the run.
  std::size_t run() {
    const std::size_t events_before = st_.events;
    Deadline deadline = opts_.deadline;
    if (!deadline.armed() && opts_.time_limit_seconds > 0) {
      deadline = Deadline::after_seconds(opts_.time_limit_seconds);
    }
    const bool timed = deadline.armed();
    while (!st_.worklist.empty()) {
      // Polled before every pop, the first included: a limit that already
      // passed degrades everything queued rather than evaluating once, and
      // a coarser stride would let small designs finish between polls.
      if (timed && deadline.expired()) {
        degrade_remaining();
        break;
      }
      store_.on_pop();
      PrimId pid = st_.worklist.front();
      st_.worklist.pop_front();
      const std::int32_t slot = store_.prim_slot(pid);
      st_.queued[slot] = 0;
      if (++st_.eval_count[slot] > opts_.max_evals_per_prim) {
        // Oscillation guard: synchronous designs converge quickly; blowing
        // through the cap means an unclocked feedback path.
        st_.converged = false;
        continue;
      }
      ++st_.evals;
      evaluate(nl_.prim(pid));
    }
    return st_.events - events_before;
  }

 private:
  void enqueue_fanout(SignalId id) {
    for (PrimId pid : nl_.signal(id).fanout) enqueue(pid);
  }

  void evaluate(const Primitive& p) {
    const bool keyed = build_memo_key(
        p, nl_, opts_, [this](SignalId id) { return store_.wave_ref(id); },
        [this](SignalId id) -> const std::string& { return store_.eval_str(id); }, key_);
    if (keyed) {
      if (std::optional<MemoResult> hit = ctx_.memo.lookup(key_)) {
        commit_ref(p.output, hit->wave, std::move(hit->eval_str));
        return;
      }
    }
    std::vector<PreparedInput> ins;
    ins.reserve(p.inputs.size());
    for (const Pin& pin : p.inputs) {
      ins.push_back(prepare_input(pin, nl_.signal(pin.sig), store_.wave(pin.sig),
                                  store_.eval_str(pin.sig), opts_));
    }
    PrimEvalResult r = evaluate_primitive(p, ins, opts_.period);
    if (keyed) {
      WaveformRef out = ctx_.table.intern(r.wave);
      if (out != kNoWaveform) {
        ctx_.memo.store(key_, MemoResult{out, r.eval_str});
        commit_ref(p.output, out, std::move(r.eval_str));
        return;
      }
    }
    commit(p.output, std::move(r.wave), std::move(r.eval_str), true);
  }

  /// The commit step for a computed result already interned as `ref`: the
  /// change test compares refs and eval strings, and a change writes the
  /// ref alone. A signal the store adjusts, or a waveform over the segment
  /// cap, takes the full commit instead.
  void commit_ref(SignalId id, WaveformRef ref, std::string eval_str) {
    if (store_.adjusts(id) || over_cap(ctx_.table.get(ref))) {
      commit(id, ctx_.table.get(ref), std::move(eval_str), true);
      return;
    }
    if (ref == store_.wave_ref(id) && eval_str == store_.eval_str(id)) return;
    put_ref(id, ref, std::move(eval_str));
    ++st_.events;
    enqueue_fanout(id);
  }

  /// The commit step: store hook, canonical form, segment cap (computed
  /// waveforms only), intern, change test, and on a change the write, one
  /// event and the fanout. The change test is a ref compare, and
  /// Waveform::equivalent (the same predicate) for an uninterned copy.
  void commit(SignalId id, Waveform w, std::string eval_str, bool computed) {
    store_.adjust(id, w);
    w.canonicalize();
    if (computed) cap_segments(id, w);
    WaveformRef ref = intern(id, w);
    bool changed = ref == kNoWaveform ? !w.equivalent(store_.wave(id)) : ref != store_.wave_ref(id);
    if (!changed && eval_str == store_.eval_str(id)) return;
    store_.write(id, ref, std::move(w), std::move(eval_str));
    ++st_.events;
    enqueue_fanout(id);
  }

  /// Segment cap (VerifierOptions::max_segments_per_signal): an oversized
  /// waveform becomes all-UNKNOWN, recorded once per signal.
  bool over_cap(const Waveform& w) const {
    return opts_.max_segments_per_signal != 0 &&
           w.segments().size() > opts_.max_segments_per_signal;
  }
  void cap_segments(SignalId id, Waveform& w) {
    if (!over_cap(w)) return;
    std::int32_t slot = store_.signal_slot(id);
    if (slot >= 0 && !st_.seg_capped[slot]) {
      st_.seg_capped[slot] = 1;
      st_.record(segment_cap_degradation(nl_.signal(id), opts_.max_segments_per_signal));
    }
    w = Waveform(opts_.period, Value::Unknown);
    w.canonicalize();
  }

  /// Interns canonical `w`. On a full table the caller keeps the uninterned
  /// copy -- build_memo_key then sees kNoWaveform and turns the memo off for
  /// its consumers -- and TV-W203 is recorded once per state.
  WaveformRef intern(SignalId id, const Waveform& w) {
    WaveformRef ref = ctx_.table.intern(w);
    if (ref == kNoWaveform && !st_.table_full_reported) {
      st_.table_full_reported = true;
      st_.record(Degradation{diag::kWarnTableFull,
                             "waveform table full; interning disabled for signal \"" +
                                 nl_.signal(id).full_name + "\" and later waveforms"});
    }
    return ref;
  }

  /// Time-limit trip: the fanout closure of everything still queued was not
  /// fully evaluated, so its signals become UNKNOWN -- the most pessimistic
  /// value, preserving conservatism (sec. 2.3: UNKNOWN can only add
  /// violations downstream, never mask one) -- and the worklist drains.
  void degrade_remaining() {
    Waveform unknown(opts_.period, Value::Unknown);
    unknown.canonicalize();
    std::vector<char> visited(st_.queued.size(), 0);
    std::deque<PrimId> queue;
    auto visit = [&](PrimId pid) {
      std::int32_t slot = store_.prim_slot(pid);
      if (slot >= 0 && !visited[slot]) {
        visited[slot] = 1;
        queue.push_back(pid);
      }
    };
    for (PrimId pid : st_.worklist) visit(pid);
    st_.worklist.clear();
    std::fill(st_.queued.begin(), st_.queued.end(), 0);
    std::size_t degraded_signals = 0;
    while (!queue.empty()) {
      const Primitive& p = nl_.prim(queue.front());
      queue.pop_front();
      if (prim_is_checker(p.kind) || p.output == kNoSignal) continue;
      if (!store_.wave(p.output).equivalent(unknown)) {
        put(p.output, unknown, store_.eval_str(p.output));
        ++degraded_signals;
      }
      for (PrimId consumer : nl_.signal(p.output).fanout) visit(consumer);
    }
    st_.record(Degradation{diag::kWarnTimeLimit,
                           "time limit of " + std::to_string(opts_.time_limit_seconds) +
                               "s exceeded; " + std::to_string(degraded_signals) +
                               " signal(s) degraded to UNKNOWN"});
  }

  Store store_;
  const Netlist& nl_;
  const VerifierOptions& opts_;
  InternContext& ctx_;
  PropagationState& st_;
  MemoKey key_;  // reused by every evaluation of this run
};

}  // namespace tv
