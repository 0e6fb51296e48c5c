#include "core/snapshot.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <stdexcept>

#include "util/fault.hpp"

namespace tv {

EvalSnapshot::EvalSnapshot(const Netlist& nl, std::shared_ptr<const Cone> cone,
                           InternContext* ctx,
                           const std::vector<WaveformRef>* base_refs)
    : nl_(nl), cone_(std::move(cone)), intern_(ctx), base_refs_(base_refs) {
  waves_.resize(cone_->signals.size());
  eval_strs_.resize(cone_->signals.size());
  refs_.assign(cone_->signals.size(), kNoWaveform);
  written_.assign(cone_->signals.size(), 0);
}

void EvalSnapshot::set(SignalId id, Waveform w, std::string eval_str) {
  w.canonicalize();
  // Table full: the slot keeps the uninterned copy; wave_ref() then reports
  // kNoWaveform and the memo path turns itself off.
  WaveformRef ref = intern_->table.intern(w);
  set_ref(id, ref, std::move(eval_str), std::move(w));
}

std::size_t EvalSnapshot::disturbed_signals() const {
  std::size_t n = 0;
  for (std::size_t slot = 0; slot < cone_->signals.size(); ++slot) {
    if (!written_[slot]) continue;  // unwritten slots hold the baseline
    SignalId id = cone_->signals[slot];
    const Signal& s = nl_.signal(id);
    if (eval_strs_[slot] != s.eval_str) {
      ++n;
      continue;
    }
    WaveformRef base =
        base_refs_ && id < base_refs_->size() ? (*base_refs_)[id] : kNoWaveform;
    if (refs_[slot] != kNoWaveform && base != kNoWaveform) {
      if (refs_[slot] != base) ++n;  // interned: divergence is a ref compare
    } else if (!waves_[slot].equivalent(s.wave)) {
      ++n;
    }
  }
  return n;
}

void EvalSnapshot::set_ref(SignalId id, WaveformRef ref, std::string eval_str, Waveform w) {
  std::int32_t slot = cone_->signal_slot[id];
  if (slot < 0) throw std::logic_error("EvalSnapshot::set outside the cone");
  if (ref == kNoWaveform) {
    waves_[slot] = std::move(w);
  } else {
    waves_[slot] = intern_->table.get(ref);
  }
  eval_strs_[slot] = std::move(eval_str);
  refs_[slot] = ref;
  written_[slot] = 1;
}

namespace {

// The snapshot-local analogue of Evaluator::run_worklist: same seeding and
// event-driven propagation, state held in dense cone-slot arrays.
class CaseRunner {
 public:
  CaseRunner(EvalSnapshot& snap, const VerifierOptions& opts)
      : snap_(snap),
        nl_(snap.netlist()),
        cone_(snap.cone()),
        opts_(opts),
        in_worklist_(cone_.prims.size(), 0),
        eval_count_(cone_.prims.size(), 0),
        case_map_(cone_.signals.size(), -1),
        seg_degraded_(cone_.signals.size(), 0) {}

  CaseRunStats run(const CaseSpec& c) {
    fault::check("snapshot.case");
    for (const auto& [sig, val] : c.pins) {
      if (val != Value::Zero && val != Value::One) {
        throw std::invalid_argument("case values must be 0 or 1");
      }
      std::int32_t slot = cone_.signal_slot[sig];
      if (slot < 0) throw std::logic_error("case pins a signal outside the snapshot cone");
      case_map_[slot] = static_cast<std::int8_t>(val);
    }
    for (const auto& [sig, val] : c.pins) {
      (void)val;
      const Signal& s = nl_.signal(sig);
      const Waveform& before = snap_.wave(sig);
      if (s.driver != kNoPrim) {
        enqueue(s.driver);  // driver recomputes; assign() applies the mapping
      } else {
        Waveform seeded = apply_case_map(sig, seed_waveform(s, opts_));
        seeded.canonicalize();
        if (!seeded.equivalent(before)) {
          snap_.set(sig, std::move(seeded), std::string());
          ++stats_.events;
          enqueue_fanout(sig);
        }
        continue;
      }
      if (!(snap_.wave(sig) == before)) {
        ++stats_.events;
        enqueue_fanout(sig);
      }
    }
    run_worklist();
    return stats_;
  }

 private:
  void record_degradation(const char* code, std::string message) {
    stats_.degraded = true;
    stats_.degradations.push_back(Degradation{code, std::move(message)});
  }

  /// Segment cap (VerifierOptions::max_segments_per_signal), snapshot-local.
  void cap_segments(SignalId id, Waveform& w) {
    if (opts_.max_segments_per_signal == 0) return;
    if (w.segments().size() <= opts_.max_segments_per_signal) return;
    std::int32_t slot = cone_.signal_slot[id];
    if (slot >= 0 && !seg_degraded_[slot]) {
      seg_degraded_[slot] = 1;
      record_degradation(diag::kWarnSegmentCap,
                         "signal \"" + nl_.signal(id).full_name + "\" exceeded " +
                             std::to_string(opts_.max_segments_per_signal) +
                             " waveform segments; degraded to UNKNOWN");
    }
    w = Waveform(opts_.period, Value::Unknown);
    w.canonicalize();
  }

  /// Applies the case map, canonicalizes, and writes the output if it
  /// changed -- the change test is a ref compare, and the equivalent() deep
  /// compare (the same predicate) only for an uninterned copy.
  void commit(SignalId out, Waveform w, std::string eval_str) {
    w = apply_case_map(out, std::move(w));
    w.canonicalize();
    cap_segments(out, w);
    WaveformRef ref = snap_.intern_context()->table.intern(w);
    if (ref == kNoWaveform && !table_full_reported_) {
      table_full_reported_ = true;
      record_degradation(diag::kWarnTableFull,
                         "waveform table full; interning disabled for signal \"" +
                             nl_.signal(out).full_name + "\" and later waveforms");
    }
    bool changed = ref == kNoWaveform ? !w.equivalent(snap_.wave(out))
                                      : ref != snap_.wave_ref(out);
    if (changed || eval_str != snap_.eval_str(out)) {
      snap_.set_ref(out, ref, std::move(eval_str), std::move(w));
      ++stats_.events;
      enqueue_fanout(out);
    }
  }

  Waveform apply_case_map(SignalId id, Waveform w) const {
    std::int32_t slot = cone_.signal_slot[id];
    if (slot < 0 || case_map_[slot] < 0) return w;
    return w.replaced(Value::Stable, static_cast<Value>(case_map_[slot]));
  }

  void enqueue(PrimId pid) {
    std::int32_t slot = cone_.prim_slot[pid];
    if (slot < 0 || in_worklist_[slot]) return;
    in_worklist_[slot] = 1;
    worklist_.push_back(pid);
  }

  void enqueue_fanout(SignalId id) {
    for (PrimId pid : nl_.signal(id).fanout) {
      if (!prim_is_checker(nl_.prim(pid).kind)) enqueue(pid);
    }
  }

  /// Time-limit trip: everything still reachable from the queued cone work
  /// degrades to UNKNOWN (conservative), then the run completes.
  void degrade_remaining() {
    Waveform unknown(opts_.period, Value::Unknown);
    unknown.canonicalize();
    std::vector<char> visited(cone_.prims.size(), 0);
    std::deque<PrimId> queue;
    for (PrimId pid : worklist_) {
      std::int32_t slot = cone_.prim_slot[pid];
      if (slot >= 0 && !visited[slot]) {
        visited[slot] = 1;
        queue.push_back(pid);
      }
    }
    worklist_.clear();
    std::fill(in_worklist_.begin(), in_worklist_.end(), 0);
    std::size_t degraded_signals = 0;
    while (!queue.empty()) {
      PrimId pid = queue.front();
      queue.pop_front();
      const Primitive& p = nl_.prim(pid);
      if (prim_is_checker(p.kind) || p.output == kNoSignal) continue;
      if (!snap_.wave(p.output).equivalent(unknown)) {
        snap_.set(p.output, unknown, std::string(snap_.eval_str(p.output)));
        ++degraded_signals;
      }
      for (PrimId consumer : nl_.signal(p.output).fanout) {
        std::int32_t slot = cone_.prim_slot[consumer];
        if (slot >= 0 && !visited[slot]) {
          visited[slot] = 1;
          queue.push_back(consumer);
        }
      }
    }
    record_degradation(diag::kWarnTimeLimit,
                       "time limit of " + std::to_string(opts_.time_limit_seconds) +
                           "s exceeded; " + std::to_string(degraded_signals) +
                           " signal(s) degraded to UNKNOWN");
  }

  void run_worklist() {
    // The verify()-wide deadline when armed (cases share one budget with
    // the base run and the checker); a standalone snapshot run arms its own.
    Deadline deadline = opts_.deadline;
    if (!deadline.armed() && opts_.time_limit_seconds > 0) {
      deadline = Deadline::after_seconds(opts_.time_limit_seconds);
    }
    const bool timed = deadline.armed();
    while (!worklist_.empty()) {
      if (timed && deadline.expired()) {
        degrade_remaining();
        break;
      }
      PrimId pid = worklist_.front();
      worklist_.pop_front();
      const std::int32_t slot = cone_.prim_slot[pid];
      in_worklist_[slot] = 0;
      const Primitive& p = nl_.prim(pid);

      if (++eval_count_[slot] > opts_.max_evals_per_prim) {
        stats_.converged = false;
        continue;
      }
      ++stats_.evals;

      InternContext* ctx = snap_.intern_context();
      MemoKey key;
      bool keyed = build_memo_key(
          p, nl_, opts_, [this](SignalId id) { return snap_.wave_ref(id); },
          [this](SignalId id) -> const std::string& { return snap_.eval_str(id); }, key);
      if (keyed) {
        if (std::optional<MemoResult> hit = ctx->memo.lookup(key)) {
          commit(p.output, ctx->table.get(hit->wave), hit->eval_str);
          continue;
        }
      }
      std::vector<PreparedInput> ins;
      ins.reserve(p.inputs.size());
      for (const Pin& pin : p.inputs) {
        ins.push_back(prepare_input(pin, nl_.signal(pin.sig), snap_.wave(pin.sig),
                                    snap_.eval_str(pin.sig), opts_));
      }
      PrimEvalResult r = evaluate_primitive(p, ins, opts_.period);
      if (keyed) {
        WaveformRef out = ctx->table.intern(r.wave);
        if (out != kNoWaveform) ctx->memo.store(key, MemoResult{out, r.eval_str});
      }
      commit(p.output, std::move(r.wave), std::move(r.eval_str));
    }
  }

  EvalSnapshot& snap_;
  const Netlist& nl_;
  const Cone& cone_;
  const VerifierOptions& opts_;
  std::deque<PrimId> worklist_;
  std::vector<char> in_worklist_;           // per-snapshot, cone-slot indexed
  std::vector<std::size_t> eval_count_;     // per-snapshot oscillation guard
  std::vector<std::int8_t> case_map_;       // cone-slot indexed, -1 unmapped
  std::vector<char> seg_degraded_;          // cone-slot: segment cap fired
  bool table_full_reported_ = false;
  CaseRunStats stats_;
};

}  // namespace

CaseRunStats run_case_on_snapshot(EvalSnapshot& snap, const CaseSpec& c,
                                  const VerifierOptions& opts) {
  return CaseRunner(snap, opts).run(c);
}

}  // namespace tv
