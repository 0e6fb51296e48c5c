// One case at a time through the snapshot case engine (thesis sec. 2.7),
// for tests that inspect a case's waveforms and effort counters rather than
// its report: verify() settles the baseline fixpoint, then each run()
// evaluates one case with run_case_on_snapshot on a fresh cone-scoped
// overlay of that baseline -- the per-case path Verifier::verify takes. The
// netlist keeps holding the baseline throughout.
#pragma once

#include <memory>
#include <vector>

#include "core/cone.hpp"
#include "core/snapshot.hpp"
#include "core/verifier.hpp"

namespace tv {

class CaseHarness {
 public:
  CaseHarness(Netlist& nl, const VerifierOptions& opts) : verifier_(nl, opts) {
    base_ = verifier_.verify();
  }

  /// Evaluates `c` on its own snapshot of the baseline. The cone index is
  /// built per run, so a case may pin a signal created after the baseline
  /// (the netlist must be re-finalized first).
  CaseRunStats run(const CaseSpec& c) {
    const Evaluator& ev = verifier_.evaluator();
    std::vector<SignalId> pins;
    for (const auto& [sig, val] : c.pins) pins.push_back(sig);
    ConeIndex index(ev.netlist());
    snap_ = std::make_unique<EvalSnapshot>(ev.netlist(), index.cone_of(std::move(pins)),
                                           ev.intern_context().get(), &ev.wave_refs());
    return run_case_on_snapshot(*snap_, c, ev.options());
  }

  /// The last case's view of the signal (the baseline before any run()).
  const Waveform& wave(SignalId id) const {
    return snap_ ? snap_->wave(id) : verifier_.evaluator().wave(id);
  }
  const EvalSnapshot& snapshot() const { return *snap_; }
  const VerifyResult& baseline() const { return base_; }

 private:
  Verifier verifier_;
  VerifyResult base_;
  std::unique_ptr<EvalSnapshot> snap_;
};

}  // namespace tv
