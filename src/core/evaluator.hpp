// Event-driven circuit evaluation (thesis sec. 2.9).
//
// Step 1 initializes every signal: assertion waveforms are materialized,
// undefined signals without assertions become always-STABLE (and are listed
// on a cross-reference for the designer), everything else starts UNKNOWN.
// Step 2 repeatedly evaluates primitives whose inputs changed -- each output
// change is an *event* that enqueues the output's call list -- until all
// signals stop changing. The Evaluator holds that base fixpoint on the
// shared netlist and updates it after netlist edits (core/incremental.hpp).
// Step 2 is the propagation engine of core/propagate.hpp, which the per-case
// reference of sec. 2.7 (core/snapshot.hpp) runs too, on a cone-scoped
// overlay of this fixpoint; the lockstep sweep of core/batch_eval.hpp is the
// other case engine. The shared netlist never holds a case.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>
#include <vector>

#include "core/netlist.hpp"
#include "core/primitives.hpp"
#include "core/wave_table.hpp"

namespace tv {

struct VerifierOptions {
  Time period = from_ns(50.0);
  ClockUnits units = ClockUnits::from_ns_per_unit(6.25);
  /// Default interconnection delay used when a signal carries no override
  /// (sec. 2.5.3; the Mark IIA rules used 0.0/2.0 ns).
  WireDelay default_wire{0, from_ns(2.0)};
  AssertionDefaults assertion_defaults;
  /// Oscillation guard: a primitive evaluated more than this many times in
  /// one fixpoint is reported as non-convergent (combinational loops).
  std::size_t max_evals_per_prim = 64;
  /// Worker threads for case analysis (Verifier::verify): each case runs on
  /// a cone-scoped copy-on-write snapshot of the baseline fixpoint, so cases
  /// are independent and results are identical for every job count.
  /// 0 = one thread per hardware core.
  unsigned jobs = 1;
  /// Structure-of-arrays batch case evaluation (core/batch_eval.hpp): case
  /// instances advance in lockstep lanes through one topological sweep of
  /// the design instead of one event-driven pass per case. Reports are
  /// byte-identical to the per-case path (the golden suite and tvfuzz
  /// --matrix batch exploit the toggle); the engine silently defers to the
  /// per-case path when a wall-clock budget is armed or the base fixpoint
  /// is degraded or non-convergent.
  bool batch_eval = true;
  /// Lane-block size for batch case evaluation: cases are grouped into
  /// blocks of this many lanes and `jobs` workers split blocks. Results are
  /// identical for every value; 64 is the bench-chosen default (see
  /// bench_batch_eval and docs/batch_eval.md). Clamped to [1, 4096].
  unsigned batch_lanes = 64;
  /// Resource guard: a computed waveform with more than this many segments
  /// degrades its signal to all-UNKNOWN (conservative: UNKNOWN is the most
  /// pessimistic value) instead of growing without bound. 0 = unlimited.
  std::size_t max_segments_per_signal = 1 << 16;
  /// Resource guard: wall-clock budget for one fixpoint run in seconds.
  /// When exceeded, every signal still reachable from the dirty worklist is
  /// degraded to UNKNOWN and the run completes. 0 = unlimited.
  double time_limit_seconds = 0;
  /// The armed deadline shared by every phase of one Verifier::verify run:
  /// the base fixpoint, the constraint checker, and every case snapshot all
  /// poll this same point in time, so N cases cannot stretch the
  /// time_limit_seconds budget N-fold. verify() arms it from
  /// time_limit_seconds when unarmed; a phase run outside verify() (direct
  /// Evaluator::propagate) falls back to arming its own.
  Deadline deadline{};
  /// Resource guard: cap on unique waveforms per intern-table shard
  /// (16 shards). 0 = the table's built-in maximum (~2M per shard). Small
  /// values force the TV-W203 table-full degradation path; production runs
  /// leave this at 0.
  std::uint32_t max_waveforms_per_shard = 0;
};

/// One resource-guard degradation event: which guard fired and what it did.
/// `code` is the TV-W2xx diagnostic code (diag/diagnostic.hpp).
struct Degradation {
  const char* code = "";
  std::string message;
};

/// Run state of the propagation engine (core/propagate.hpp) over one
/// store's dense primitive and signal slots. The Evaluator keeps one across
/// its base and incremental runs; each per-case run makes its own.
struct PropagationState {
  std::deque<PrimId> worklist;
  std::vector<char> queued;               // prim slot: in the worklist
  std::vector<std::size_t> eval_count;    // prim slot: oscillation guard
  std::vector<char> seg_capped;           // signal slot: TV-W201 recorded
  bool table_full_reported = false;       // TV-W203 recorded
  std::size_t events = 0;
  std::size_t evals = 0;
  bool converged = true;
  bool degraded = false;
  std::vector<Degradation> degradations;

  /// The state before a first run: empty worklist, zero counters, no
  /// degradations.
  void reset(std::size_t prims, std::size_t signals) {
    worklist.clear();
    queued.assign(prims, 0);
    eval_count.assign(prims, 0);
    seg_capped.assign(signals, 0);
    table_full_reported = false;
    events = 0;
    evals = 0;
    converged = true;
    degraded = false;
    degradations.clear();
  }
  /// A fresh oscillation budget for another run over state that may have
  /// grown (edits add signals); counters and degradations carry over.
  void rearm(std::size_t prims, std::size_t signals) {
    eval_count.assign(prims, 0);
    queued.resize(std::max(queued.size(), prims), 0);
    seg_capped.resize(std::max(seg_capped.size(), signals), 0);
  }
  void record(Degradation d) {
    degraded = true;
    degradations.push_back(std::move(d));
  }
};

/// One case for case analysis (sec. 2.7.1): each named signal has its
/// STABLE values mapped to the given 0/1 value.
struct CaseSpec {
  std::string name;
  std::vector<std::pair<SignalId, Value>> pins;
};

/// The waveform a signal is seeded with before any evaluation (sec. 2.9
/// step 1), case mapping *not* applied: the materialized assertion, an
/// always-STABLE constant for undefined unasserted signals, UNKNOWN
/// otherwise. Shared by the Evaluator and the case-snapshot engine.
Waveform seed_waveform(const Signal& s, const VerifierOptions& opts);

/// Prepares one input connection from an explicit driving waveform and
/// evaluation string (which may come from the shared netlist or from a
/// case snapshot overlay): complement applied, interconnection delay
/// applied (zeroed under a W/Z/H directive), directive letter resolved from
/// the pin's own "&" string or from the signal's propagated string.
PreparedInput prepare_input(const Pin& pin, const Signal& s, const Waveform& wave,
                            const std::string& eval_str, const VerifierOptions& opts);

/// Appends one input's memo-key component: its driving waveform `wave`,
/// the pin's inversion, the signal's wire delay, and the resolved directive
/// string (the pin's own, else the driving signal's `eval_str`).
inline void add_memo_pin(MemoKey& key, WaveformRef wave, const Pin& pin, const Signal& s,
                         const VerifierOptions& opts, const std::string& eval_str) {
  const WireDelay wd = s.wire_delay.value_or(opts.default_wire);
  key.add_pin(wave, pin.invert, wd.dmin, wd.dmax,
              !pin.directives.empty() ? pin.directives : eval_str);
}

/// Builds the memo-cache key for one primitive evaluation. `ref_of(sig)`
/// yields the interned ref of the signal's current waveform (kNoWaveform if
/// it has none -- the call then returns false and the caller must evaluate
/// uncached); `str_of(sig)` yields its current evaluation string. The key
/// captures everything evaluate_primitive and prepare_input consume beyond
/// the fixed per-run options: kind, delay parameters, and per-pin (waveform
/// ref, inversion, wire delay, resolved directive string). The batch sweep
/// builds its per-lane keys from the same MemoKey::start and add_memo_pin,
/// so both engines populate one cache.
template <class RefOf, class StrOf>
bool build_memo_key(const Primitive& p, const Netlist& nl,
                    const VerifierOptions& opts, RefOf&& ref_of, StrOf&& str_of,
                    MemoKey& key) {
  key.start(p);
  for (const Pin& pin : p.inputs) {
    WaveformRef r = ref_of(pin.sig);
    if (r == kNoWaveform) return false;
    add_memo_pin(key, r, pin, nl.signal(pin.sig), opts, str_of(pin.sig));
  }
  return true;
}

template <class Store>
class Propagator;  // core/propagate.hpp

class Evaluator {
 public:
  Evaluator(Netlist& nl, VerifierOptions opts);

  /// Seeds all signal waveforms and marks every primitive for evaluation
  /// (sec. 2.9 step 1). Resets event counters.
  void initialize();

  /// Runs evaluation to the fixpoint. Returns the number of events (output
  /// value changes) processed. Sets converged() false if the oscillation
  /// guard tripped.
  std::size_t propagate();

  /// Incremental re-propagation for netlist deltas (core/incremental.hpp),
  /// run against the current fixpoint: reseeds the listed signals (their
  /// seed function changed -- assertion edits), enqueues the listed
  /// primitives (parameter edits, consumers of wire-delay edits), and runs
  /// the event-driven worklist to the new fixpoint. Propagation stops
  /// wherever recomputed outputs equal their previous values, so a small
  /// edit touches only its true downstream support. Signals whose waveform
  /// or evaluation string changed along the way are recorded for
  /// touched_signals(). Returns events processed.
  std::size_t propagate_incremental(const std::vector<SignalId>& reseed,
                                    const std::vector<PrimId>& reeval);

  /// Signals changed by the last propagate_incremental run (unordered, no
  /// duplicates). Over-approximates "differs from the prior fixpoint": a
  /// signal that changed and changed back stays listed, which is safe for
  /// check-cone construction.
  const std::vector<SignalId>& touched_signals() const { return touched_; }

  /// Rebuilds the post-run fixpoint state from a restored snapshot
  /// (core/fixpoint.hpp) without evaluating anything: writes each signal's
  /// settled waveform and evaluation string back, re-interns every
  /// waveform so refs and the memo behave exactly as after a real run,
  /// and resets the worklist/oscillation state the way a completed
  /// propagate() leaves it. Effort counters restart at zero (reverify
  /// accounts in deltas, re-based on the restored report's cumulative
  /// counters). `waves`/`eval_strs` must be sized to the netlist.
  void restore_fixpoint(const std::vector<Waveform>& waves,
                        const std::vector<std::string>& eval_strs, bool converged,
                        bool degraded, std::vector<Degradation> degradations);

  const Waveform& wave(SignalId id) const { return nl_.signal(id).wave; }
  /// Interned ref of the signal's current waveform; kNoWaveform when the
  /// table was full (TV-W203) or the signal was created after the last
  /// initialize().
  WaveformRef wave_ref(SignalId id) const {
    return id < wave_refs_.size() ? wave_refs_[id] : kNoWaveform;
  }
  /// The shared interning state (arena + memo); never null. Case snapshots
  /// borrow it, so it must outlive them -- the Evaluator keeps it alive for
  /// its own lifetime.
  const std::shared_ptr<InternContext>& intern_context() const { return intern_; }
  const std::vector<WaveformRef>& wave_refs() const { return wave_refs_; }
  bool converged() const { return state_.converged; }
  /// True when any resource guard (segment cap, time limit, full waveform
  /// table) degraded part of the result to UNKNOWN. Degraded results stay
  /// conservative -- UNKNOWN can only add violations, never hide one.
  bool degraded() const { return state_.degraded; }
  const std::vector<Degradation>& degradations() const { return state_.degradations; }
  /// After a non-convergent run: the actual unclocked feedback cycles, as
  /// ordered lists of driven signal names (A -> B -> ... -> A, the closing
  /// edge implied). Computed by SCC over the primitives whose oscillation
  /// guard tripped. Empty when converged.
  std::vector<std::vector<std::string>> feedback_cycles() const;
  std::size_t events_processed() const { return state_.events; }
  std::size_t evals_performed() const { return state_.evals; }
  const VerifierOptions& options() const { return opts_; }
  /// Arms the shared wall-clock deadline every phase of the run polls
  /// (called by Verifier::verify before the base fixpoint starts).
  void arm_deadline(const Deadline& d) { opts_.deadline = d; }
  /// Per-job runtime knobs a warm worker adjusts between verify() calls on
  /// one long-lived Verifier (design-level options are fixed at
  /// construction). Setting a time limit also disarms any leftover
  /// deadline so the next run gets a fresh budget.
  void set_time_limit(double seconds) {
    opts_.time_limit_seconds = seconds;
    opts_.deadline = Deadline{};
  }
  void set_jobs(unsigned jobs) { opts_.jobs = jobs; }
  Netlist& netlist() { return nl_; }
  const Netlist& netlist() const { return nl_; }

  /// Prepares one input connection for evaluation or checking: complement
  /// applied, interconnection delay applied (zeroed under a W/Z/H
  /// directive), directive letter resolved from the pin's own "&" string or
  /// from the driving signal's propagated evaluation string.
  PreparedInput prepare(const Pin& pin) const;

 private:
  struct Store;  // the engine's view of the shared netlist (evaluator.cpp)
  /// The propagation engine over the shared netlist and state_.
  Propagator<Store> engine();

  Netlist& nl_;
  VerifierOptions opts_;
  std::shared_ptr<InternContext> intern_;
  std::vector<WaveformRef> wave_refs_;  // per-signal interned wave
  PropagationState state_;
  bool track_touched_ = false;       // propagate_incremental tracking active
  std::vector<char> touched_mark_;   // per-signal: already in touched_
  std::vector<SignalId> touched_;
};

}  // namespace tv
