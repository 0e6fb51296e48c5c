// Top-level Timing Verifier API (thesis chapter II).
//
// Typical use:
//
//   tv::Netlist nl;
//   ... build the design (directly or via the HDL front end) ...
//   tv::VerifierOptions opts;
//   opts.period = tv::from_ns(50.0);
//   opts.units = tv::ClockUnits::from_ns_per_unit(6.25);
//   tv::Verifier verifier(nl, opts);
//   tv::VerifyResult r = verifier.verify(cases);
//   std::cout << tv::timing_summary(nl);
//   for (const auto& v : r.violations) std::cout << v.message;
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/checker.hpp"
#include "core/evaluator.hpp"

namespace tv {

struct BatchSchedule;
struct Cone;
class ConeIndex;
struct NetlistDelta;
struct ReverifyStats;
struct FixpointState;
namespace diag {
class DiagnosticEngine;
}

struct VerifyResult {
  /// Violations found in the base (first) evaluation.
  std::vector<Violation> violations;
  /// Events processed in the base evaluation (one event = one output value
  /// change; Table 3-1 reports 20 052 for the 6357-chip design).
  std::size_t base_events = 0;
  std::size_t base_evals = 0;
  bool converged = true;
  /// True when any resource guard (segment cap, wall-clock limit, full
  /// waveform table) degraded part of the result to UNKNOWN -- in the base
  /// run or any case. Degraded results are conservative: UNKNOWN can only
  /// add violations, never hide one. JSON export carries this as "partial".
  bool partial = false;
  /// One entry per degradation event (TV-W2xx code + message), base run
  /// first, then cases in input order.
  std::vector<Degradation> degradations;

  struct CaseResult {
    std::string name;
    /// Signals this case disturbs: how many final (waveform, evaluation
    /// string) pairs differ from the baseline fixpoint (sec. 2.7's
    /// incremental footprint). A pure function of the final state, so the
    /// per-case and batch engines report identical counts.
    std::size_t events = 0;
    bool converged = true;   // base convergence AND this case's propagation
    bool degraded = false;   // a resource guard fired inside this case's cone
    /// Violations under this case, sorted by (missed-by, signal, kind) so
    /// the report is byte-stable for every job count.
    std::vector<Violation> violations;
  };
  std::vector<CaseResult> cases;

  /// Undefined signals without assertions (treated always-stable), for the
  /// cross-reference listing of sec. 2.5.
  std::vector<SignalId> cross_reference;

  /// All violations across the base evaluation and every case.
  std::size_t total_violations() const;
};

class Verifier {
 public:
  Verifier(Netlist& nl, VerifierOptions opts) : ev_(nl, opts) {}

  /// Full verification: base evaluation and constraint checks on the shared
  /// netlist, then every case on its own copy-on-write snapshot of the
  /// baseline fixpoint, confined to the case's cone (sec. 2.7). Cases never mutate shared state,
  /// so with options().jobs > 1 they evaluate concurrently; results are
  /// merged in input order and are identical for every job count. The
  /// netlist is left holding the baseline fixpoint.
  VerifyResult verify(const std::vector<CaseSpec>& cases = {});

  /// Incremental re-verification (core/incremental.hpp): applies `delta` to
  /// the netlist, re-runs the event-driven fixpoint only where the edit can
  /// propagate, re-checks only assertions whose support intersects the dirty
  /// set, and splices the result into the previous report. The returned
  /// report is byte-identical to a cold verify() of the edited design
  /// (enforced by tvfuzz --matrix incr); edits the incremental engine cannot
  /// prove safe (dirty cone touching an unclocked feedback loop, degraded or
  /// non-convergent baseline) silently fall back to a cold run. Requires a
  /// prior verify()/reverify() on this Verifier (throws std::logic_error
  /// otherwise); throws std::invalid_argument on an invalid delta, with the
  /// netlist and baseline left untouched. Defined in core/incremental.cpp.
  VerifyResult reverify(const NetlistDelta& delta, ReverifyStats* stats = nullptr);

  /// True after a successful verify()/reverify(): the netlist holds that
  /// run's fixpoint and reverify() can splice against it.
  bool has_baseline() const { return has_baseline_; }
  const std::vector<CaseSpec>& baseline_cases() const { return last_cases_; }
  /// The baseline report reverify() splices against (last verify's result).
  /// Meaningful only when has_baseline().
  const VerifyResult& baseline() const { return last_; }

  /// Serializes the baseline fixpoint into a durable snapshot blob
  /// (core/fixpoint.hpp; `artifact_hash` binds it to a compiled artifact,
  /// 0 for source designs). Throws std::logic_error without a baseline.
  /// Defined in core/fixpoint.cpp.
  std::string snapshot(const std::string& design, std::uint64_t artifact_hash = 0) const;

  /// Rebuilds the baseline from a loaded snapshot without evaluating
  /// anything: binding digests are checked against this verifier's design
  /// and options (TV-E317 on mismatch, reported to `diags`, returns
  /// false with the verifier untouched), every signal's waveform and
  /// evaluation string are written back and re-interned, and the prior
  /// report becomes the splice baseline -- reverify() afterwards behaves
  /// byte-identically to reverify() on the process that wrote the
  /// snapshot, cold-baseline cost never paid. `expected_artifact_hash`
  /// must equal the snapshot's bound artifact hash (0 for source
  /// designs). Defined in core/fixpoint.cpp.
  bool restore(const FixpointState& state, std::uint64_t expected_artifact_hash,
               diag::DiagnosticEngine& diags);

  Evaluator& evaluator() { return ev_; }
  const Evaluator& evaluator() const { return ev_; }

  /// Distinct pin sets whose affected cone this verifier has resolved
  /// since the fanout graph last changed: per-case runs and reverify()'s
  /// splice decision resolve cones, a batch sweep whose blocks all
  /// complete resolves none.
  std::size_t resolved_cones() const;

 private:
  VerifyResult verify_impl(const std::vector<CaseSpec>& cases);
  /// The case phase (sec. 2.7) against the fixpoint the netlist holds, for
  /// both verify() (every case) and reverify() (the cases it must re-run):
  /// lane blocks of the batch sweep plus lane-batched checks when the
  /// baseline is eligible, run_case per case otherwise and for any block
  /// that aborted, spread over options().jobs workers. `cones` is empty, or
  /// holds cases[i]'s affected cone at i; when empty, only the cases that
  /// run per case resolve theirs, through cone_index() built once under a
  /// once-flag (workers may race for it). Case i's result lands in
  /// results[i] and its resource-guard records in degradations[i],
  /// identical for every job count and lane width.
  void run_cases(const std::vector<CaseSpec>& cases,
                 const std::vector<std::shared_ptr<const Cone>>& cones,
                 const std::vector<Violation>& base_violations, bool base_converged,
                 bool base_partial, std::vector<VerifyResult::CaseResult>& results,
                 std::vector<std::vector<Degradation>>& degradations);
  /// One case on the per-case worklist: a cone-scoped snapshot, cone-scoped
  /// checks that reuse `base_violations` outside the cone, sorted findings.
  /// The case's resource-guard records replace `degradations`. Only
  /// run_cases calls it (ineligible runs and aborted blocks); safe to call
  /// concurrently.
  VerifyResult::CaseResult run_case(const CaseSpec& spec,
                                    const std::shared_ptr<const Cone>& cone,
                                    const std::vector<Violation>& base_violations,
                                    bool base_converged,
                                    std::vector<Degradation>& degradations) const;
  /// Folds per-case degradation records (one slot per case, input order)
  /// into `r`, marking it partial when any case degraded.
  static void merge_case_degradations(VerifyResult& r,
                                      std::vector<std::vector<Degradation>>& per_case);
  /// The memoized cone index for the current fanout graph, rebuilt when a
  /// structural edit bumped the netlist's structure version.
  const ConeIndex& cone_index();
  /// The batch sweep's schedule for the current fanout graph: built on
  /// first use and rebuilt only when a structural edit bumped the
  /// netlist's structure version. Its in_cycle mask is also reverify()'s
  /// feedback-loop gate.
  const BatchSchedule& batch_schedule();

  Evaluator ev_;
  bool has_baseline_ = false;
  VerifyResult last_;                 // previous report, splice baseline
  std::vector<CaseSpec> last_cases_;  // cases last_ was computed with
  std::shared_ptr<ConeIndex> cone_index_;
  std::shared_ptr<const BatchSchedule> schedule_;
  std::uint64_t schedule_version_ = 0;  // structure version schedule_ was built for
};

// --- report formatting (Figs 3-10 / 3-11) ----------------------------------

/// The timing summary listing: each signal's value changes over the cycle.
std::string timing_summary(const Netlist& nl);
/// The error listing: one formatted block per violation.
std::string violations_report(const std::vector<Violation>& violations);
/// Cross-reference listing of undefined, unasserted signals.
std::string cross_reference_listing(const Netlist& nl, const std::vector<SignalId>& ids);

/// Full where-used cross reference (sec. 3.3.2: the Timing Verifier
/// "generated cross reference listings, which aid the designer in finding
/// where signals are used within the design"): per signal, the defining
/// primitive and every consumer.
std::string where_used_listing(const Netlist& nl);

/// One-line ASCII rendering of a waveform, one character per column:
/// '_' 0, '#' 1, '=' STABLE, 'x' CHANGE, '/' RISE, '\\' FALL, '?' UNKNOWN.
std::string ascii_waveform(const Waveform& w, std::size_t columns = 64);

/// The Fig 3-10 listing with an ASCII waveform strip per signal.
std::string timing_summary_waves(const Netlist& nl, std::size_t columns = 64);

}  // namespace tv
