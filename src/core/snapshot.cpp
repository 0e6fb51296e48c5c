#include "core/snapshot.hpp"

#include <stdexcept>

#include "core/propagate.hpp"
#include "util/fault.hpp"

namespace tv {

EvalSnapshot::EvalSnapshot(const Netlist& nl, std::shared_ptr<const Cone> cone,
                           InternContext* ctx,
                           const std::vector<WaveformRef>* base_refs)
    : nl_(nl), cone_(std::move(cone)), intern_(ctx), base_refs_(base_refs) {}

std::size_t EvalSnapshot::disturbed_signals() const {
  std::size_t n = 0;
  for (std::size_t i = 0; i < written_.size(); ++i) {
    const SignalId id = written_[i];
    const Entry& e = entries_[i];
    const Signal& s = nl_.signal(id);
    if (e.eval_str != s.eval_str) {
      ++n;
      continue;
    }
    WaveformRef base =
        base_refs_ && id < base_refs_->size() ? (*base_refs_)[id] : kNoWaveform;
    if (e.ref != kNoWaveform && base != kNoWaveform) {
      if (e.ref != base) ++n;  // interned: divergence is a ref compare
    } else if (!wave(id).equivalent(s.wave)) {
      ++n;
    }
  }
  return n;
}

void EvalSnapshot::set_ref(SignalId id, WaveformRef ref, std::string eval_str, Waveform w) {
  if (cone_ && !cone_->contains_signal(id)) {
    throw std::logic_error("EvalSnapshot::set_ref outside the cone");
  }
  const InternIndex::Probe p = probe(id);
  Entry* e = nullptr;
  if (p.id != InternIndex::kAbsent) {
    e = &entries_[p.id];
  } else {
    index_.insert(p, written_.size());
    written_.push_back(id);
    e = &entries_.emplace_back();
  }
  e->ref = ref;
  e->owned = ref == kNoWaveform ? std::move(w) : Waveform();
  e->eval_str = std::move(eval_str);
}

namespace {

/// The engine's view of one case: reads and writes go through the
/// snapshot's cone slots, and every write first maps the STABLE values of
/// the case's pinned signals (sec. 2.7.1).
class CaseStore {
 public:
  explicit CaseStore(EvalSnapshot& snap)
      : snap_(snap), cone_(snap.cone()), case_map_(cone_.signals.size(), -1) {}

  /// Pins `sig` to `val` (0 or 1); the signal must be inside the cone.
  void pin(SignalId sig, Value val) {
    if (val != Value::Zero && val != Value::One) {
      throw std::invalid_argument("case values must be 0 or 1");
    }
    std::int32_t slot = cone_.signal_slot[sig];
    if (slot < 0) throw std::logic_error("case pins a signal outside the snapshot cone");
    case_map_[slot] = static_cast<std::int8_t>(val);
  }

  const Netlist& netlist() const { return snap_.netlist(); }
  const Waveform& wave(SignalId id) const { return snap_.wave(id); }
  const std::string& eval_str(SignalId id) const { return snap_.eval_str(id); }
  WaveformRef wave_ref(SignalId id) const { return snap_.wave_ref(id); }
  std::int32_t prim_slot(PrimId pid) const { return cone_.prim_slot[pid]; }
  std::int32_t signal_slot(SignalId id) const { return cone_.signal_slot[id]; }
  bool adjusts(SignalId id) const {
    std::int32_t slot = cone_.signal_slot[id];
    return slot >= 0 && case_map_[slot] >= 0;
  }
  void adjust(SignalId id, Waveform& w) const {
    if (adjusts(id)) {
      w = w.replaced(Value::Stable, static_cast<Value>(case_map_[cone_.signal_slot[id]]));
    }
  }
  void write(SignalId id, WaveformRef ref, Waveform w, std::string eval_str) {
    snap_.set_ref(id, ref, std::move(eval_str), std::move(w));
  }
  static void on_pop() {}

 private:
  EvalSnapshot& snap_;
  const Cone& cone_;
  std::vector<std::int8_t> case_map_;  // cone-slot indexed, -1 unmapped
};

}  // namespace

CaseRunStats run_case_on_snapshot(EvalSnapshot& snap, const CaseSpec& c,
                                  const VerifierOptions& opts) {
  fault::check("snapshot.case");
  CaseStore store(snap);
  for (const auto& [sig, val] : c.pins) store.pin(sig, val);
  PropagationState st;
  st.reset(snap.cone().prims.size(), snap.cone().signals.size());
  Propagator<CaseStore> engine(std::move(store), opts, *snap.intern_context(), st);
  for (const auto& pin : c.pins) engine.reseed(pin.first);
  engine.run();
  return CaseRunStats{st.events, st.evals, st.converged, st.degraded,
                      std::move(st.degradations)};
}

}  // namespace tv
