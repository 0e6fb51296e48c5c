// Cone-scoped copy-on-write case evaluation (thesis secs. 2.7, 2.9).
//
// Verifier::verify used to run every case against the one shared netlist,
// mutating Signal::wave in place and undoing the damage afterwards. The
// thesis' own observation -- a case only disturbs the fanout cone of its
// pinned signals -- makes cases independent: an EvalSnapshot overlays just
// the cone's waveforms over the baseline fixpoint, reads fall through to the
// shared (immutable) baseline, and writes copy-on-write into a small
// overlay of interned refs. Nothing shared is ever touched, so cases evaluate
// concurrently and "clear case" is simply dropping the snapshot.
//
// The EvalView is the read side: checkers and reports address waveforms by
// SignalId through the view, which resolves to the overlay inside the cone
// and to the baseline everywhere else.
#pragma once

#include <memory>

#include "core/cone.hpp"
#include "core/evaluator.hpp"
#include "util/intern_index.hpp"

namespace tv {

/// Per-case overlay over the baseline fixpoint. A per-case run's snapshot
/// is scoped to its case's cone and refuses writes outside it; a batch
/// lane's holds no cone, because the sweep proves each lane's writes lie
/// in its cone itself (core/batch_eval.hpp). The netlist holds the
/// baseline waves and must not be mutated while any snapshot on it is
/// alive (reads are lock-free const access).
///
/// The overlay holds refs, not waveforms: a written signal keeps its
/// interned WaveformRef and evaluation string, and wave() resolves the ref
/// through the shared table, whose entries never move. Only an uninterned
/// write (the table filled, TV-W203) keeps an owned Waveform copy. Entries
/// exist for written signals alone, found through a small open-addressing
/// index, so building and dropping a snapshot costs nothing per unwritten
/// cone signal.
class EvalSnapshot {
 public:
  /// `ctx` is the evaluator's shared arena + memo (shard-locked, so
  /// concurrent case workers may intern through it) and `base_refs` the
  /// baseline's per-signal refs. Interned storage is never mutated -- the
  /// snapshot only writes its own overlay entries -- so copy-on-write
  /// semantics are preserved. Both pointers must outlive the snapshot.
  /// `cone` may be null: a batch lane's snapshot is filled by the sweep,
  /// which checks containment on its own.
  EvalSnapshot(const Netlist& nl, std::shared_ptr<const Cone> cone,
               InternContext* ctx, const std::vector<WaveformRef>* base_refs);

  const Netlist& netlist() const { return nl_; }
  /// The case's cone. Valid only for a snapshot built with one (the
  /// per-case path), never for a batch lane's.
  const Cone& cone() const { return *cone_; }
  InternContext* intern_context() const { return intern_; }

  /// Overlay value once written, baseline otherwise. An interned value's
  /// reference lives as long as the table; an owned copy's only until the
  /// next write to this snapshot.
  const Waveform& wave(SignalId id) const {
    const Entry* e = find(id);
    if (!e) return nl_.signal(id).wave;
    return e->ref != kNoWaveform ? intern_->table.get(e->ref) : e->owned;
  }
  /// Valid until the next write to this snapshot.
  const std::string& eval_str(SignalId id) const {
    const Entry* e = find(id);
    return e ? e->eval_str : nl_.signal(id).eval_str;
  }

  /// Interned ref of the signal's current waveform: the overlay's ref once
  /// written, else the baseline ref. kNoWaveform for an uninterned copy
  /// (the table filled, TV-W203).
  WaveformRef wave_ref(SignalId id) const {
    if (const Entry* e = find(id)) return e->ref;
    if (base_refs_ && id < base_refs_->size()) return (*base_refs_)[id];
    return kNoWaveform;
  }

  /// Writes a signal's overlay entry (copy-on-write: the baseline is
  /// never modified): `ref`, or the owned copy `w` when `ref` is
  /// kNoWaveform (the table filled). With a cone, the signal must be
  /// inside it (std::logic_error otherwise).
  void set_ref(SignalId id, WaveformRef ref, std::string eval_str, Waveform w = {});

  /// The signals written so far, each once, in first-write order.
  const std::vector<SignalId>& written() const { return written_; }

  /// Number of cone signals whose final (waveform, evaluation string)
  /// differ from the baseline fixpoint -- the signals this case disturbs.
  /// A pure function of the final state, so the per-case worklist and the
  /// batch sweep (core/batch_eval.hpp) report identical counts; this is
  /// what VerifyResult::CaseResult::events carries.
  std::size_t disturbed_signals() const;

 private:
  struct Entry {
    WaveformRef ref = kNoWaveform;
    std::string eval_str;
    Waveform owned;  // set only when ref == kNoWaveform
  };

  /// Entry number of `id` (kAbsent when unwritten) and where it goes.
  InternIndex::Probe probe(SignalId id) const {
    return index_.probe(
        static_cast<std::uint32_t>((static_cast<std::uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> 32),
        [&](std::uint32_t e) { return written_[e] == id; });
  }
  const Entry* find(SignalId id) const {
    if (written_.empty()) return nullptr;
    const std::uint32_t e = probe(id).id;
    return e != InternIndex::kAbsent ? &entries_[e] : nullptr;
  }

  const Netlist& nl_;
  std::shared_ptr<const Cone> cone_;
  InternContext* intern_ = nullptr;               // shared, shard-locked
  const std::vector<WaveformRef>* base_refs_ = nullptr;
  std::vector<SignalId> written_;      // entry i's signal
  std::vector<Entry> entries_;
  InternIndex index_;                  // signal -> entry number
};

/// Read-only view of an evaluation state for checking and reporting: the
/// baseline fixpoint, optionally overlaid by one case snapshot.
class EvalView {
 public:
  /// Baseline view (no case active).
  EvalView(const Netlist& nl, const VerifierOptions& opts, bool converged)
      : nl_(nl), opts_(opts), converged_(converged) {}
  /// Case view: reads resolve through the snapshot overlay.
  EvalView(const EvalSnapshot& snap, const VerifierOptions& opts, bool converged)
      : nl_(snap.netlist()), opts_(opts), converged_(converged), snap_(&snap) {}

  const Netlist& netlist() const { return nl_; }
  const VerifierOptions& options() const { return opts_; }
  bool converged() const { return converged_; }

  const Waveform& wave(SignalId id) const {
    return snap_ ? snap_->wave(id) : nl_.signal(id).wave;
  }
  const std::string& eval_str(SignalId id) const {
    return snap_ ? snap_->eval_str(id) : nl_.signal(id).eval_str;
  }
  PreparedInput prepare(const Pin& pin) const {
    return prepare_input(pin, nl_.signal(pin.sig), wave(pin.sig), eval_str(pin.sig), opts_);
  }

 private:
  const Netlist& nl_;
  const VerifierOptions& opts_;
  bool converged_ = true;
  const EvalSnapshot* snap_ = nullptr;
};

/// Cost and convergence of one snapshot case run.
struct CaseRunStats {
  std::size_t events = 0;  // incremental cost of this case (sec. 2.7)
  std::size_t evals = 0;
  bool converged = true;
  /// Resource guards (segment cap, time limit, full table) degraded part of
  /// this case's cone to UNKNOWN; see VerifierOptions. Conservative.
  bool degraded = false;
  std::vector<Degradation> degradations;
};

/// Evaluates one case inside the snapshot: reseeds the pinned signals with
/// their STABLE values mapped, then runs the propagation engine
/// (core/propagate.hpp) to the fixpoint entirely within the cone. Worklist
/// membership and oscillation counts are snapshot-local (dense cone slots),
/// so concurrent case runs share nothing but the immutable baseline (and
/// the shard-locked intern context). Pin values must be 0/1.
CaseRunStats run_case_on_snapshot(EvalSnapshot& snap, const CaseSpec& c,
                                  const VerifierOptions& opts);

}  // namespace tv
