// Timing-constraint checking (thesis secs. 2.4.4, 2.4.5, 2.5.2, 2.6, 2.9).
//
// After evaluation reaches its fixpoint, every checker primitive and every
// "&A"/"&H" evaluation directive is examined against the computed signal
// values, and violations are reported in the style of Fig 3-11 (constraint,
// the data and clock waveforms as seen by the checker, and the amount by
// which the constraint was missed).
#pragma once

#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/snapshot.hpp"

namespace tv {

struct Violation {
  enum class Type {
    Setup,                    // set-up interval before a rising clock edge
    Hold,                     // hold interval after a clock edge
    StableWhileHigh,          // SETUP RISE HOLD FALL: input moved while CK true
    MinPulseHigh,             // high pulse narrower than the minimum
    MinPulseLow,              // low pulse narrower than the minimum
    Hazard,                   // &A/&H: control signal unstable while clock asserted
    StableAssertionViolated,  // generated signal violates its .S assertion
    Unconverged               // evaluation did not reach a fixpoint
  };

  Type type = Type::Setup;
  PrimId prim = kNoPrim;       // the checker / gate reporting the error
  SignalId signal = kNoSignal; // the offending data/control signal
  Time missed_by = 0;          // amount the constraint was missed by
  std::string message;         // fully formatted, Fig 3-11 style
};

std::string violation_type_name(Violation::Type t);

/// Runs all constraint checks against an evaluation state (baseline, or a
/// case snapshot through its view). Includes checker primitives, hazard
/// directives, and stable-assertion verification of generated signals. The
/// state must be a propagated fixpoint.
///
/// The checker polls the run's shared wall-clock deadline
/// (VerifierOptions::deadline, armed by Verifier::verify from
/// --time-limit): once expired, remaining checks are skipped and a TV-W204
/// degradation is appended to `degradations` (when non-null) so a
/// pathological checker pass cannot run unbounded. Skipped checks make the
/// result *partial* -- callers must surface VerifyResult::partial / exit 3.
std::vector<Violation> run_checks(const EvalView& view,
                                  std::vector<Degradation>* degradations = nullptr);
/// Convenience overload over the evaluator's (baseline) state.
std::vector<Violation> run_checks(const Evaluator& ev,
                                  std::vector<Degradation>* degradations = nullptr);

/// Case-scoped checking: re-examines only the primitives and signals inside
/// `cone` (whose input waveforms a case can disturb) and reuses `base` --
/// the baseline run_checks output -- for everything outside, where the
/// waveforms are untouched by construction. Produces the exact violation
/// list a full run_checks(view) would, at cone-proportional cost. Polls the
/// shared deadline like run_checks (in-cone re-checks are skipped once it
/// expires; a TV-W204 degradation is recorded).
std::vector<Violation> run_checks_scoped(const EvalView& view, const Cone& cone,
                                         const std::vector<Violation>& base,
                                         std::vector<Degradation>* degradations = nullptr);

/// Lane-batched checking for a block of case snapshots (the batch engine's
/// companion to run_checks_scoped; docs/batch_eval.md). A check reads only
/// its primitive's input cells (waveform ref, eval string), or its one
/// asserted signal, so per lane only the checks reading a *diverged* cell
/// -- a written snapshot cell that differs from the baseline fixpoint --
/// re-run: the fanout primitives of those cells and their own stable
/// assertions. Every other check provably reproduces the baseline
/// findings, which are copied. The walk costs what each lane disturbed.
/// Every lane's list is byte-identical to what run_checks_scoped(view_l,
/// cone_l, base) would return; `cones` is not read and may be empty (a
/// batch lane's snapshot holds no cone).
///
/// Preconditions (guaranteed by the batch engine's eligibility gate): all
/// snapshots share one netlist and interned baseline (`base_refs`), and no
/// wall-clock deadline is armed (deadline skips are order-dependent, which
/// lane-batching cannot mirror).
std::vector<std::vector<Violation>> run_checks_batch(
    const VerifierOptions& opts, const std::vector<const EvalSnapshot*>& snaps,
    const std::vector<const Cone*>& cones, const std::vector<char>& lane_converged,
    const std::vector<WaveformRef>& base_refs, const std::vector<Violation>& base);

/// Deterministic report order: sorts by (missed-by time, signal, violation
/// kind, primitive, message) so a case's report is byte-stable regardless
/// of the order its checks were evaluated in.
void sort_violations(std::vector<Violation>& violations);

/// Margin on one checker: how much earlier the data settles than required
/// (set-up) and how much longer it stays steady than required (hold).
/// Negative slack = violation. Supports the thesis' sec. 1.1 use case of
/// estimating the achievable cycle time while the design is still growing.
struct SlackEntry {
  PrimId checker = kNoPrim;
  SignalId data = kNoSignal;
  bool has_setup = false;
  bool has_hold = false;
  Time setup_slack = 0;  // min over all clock edges
  Time hold_slack = 0;
};

/// Computes set-up/hold slack for every SETUP HOLD CHK and SETUP RISE HOLD
/// FALL CHK primitive.
std::vector<SlackEntry> compute_slacks(const Evaluator& ev);

/// Renders the worst-N slack table and the cycle-time estimate: the clock
/// period could shrink by the smallest positive set-up slack (or must grow
/// by the worst violation).
std::string slack_report(const Netlist& nl, std::vector<SlackEntry> slacks, Time period,
                         std::size_t worst_n = 20);

}  // namespace tv
