// Batch case evaluation: one topological sweep for all case instances.
//
// The per-case engine (core/snapshot.hpp) re-runs the event-driven worklist
// once per case -- N cases cost N full cone propagations, each rebuilding
// worklists, memo keys, and deep waveform copies. The thesis' own cost
// model (sec. 2.7) says the *values* barely differ between cases: a case
// pins a handful of control signals and most of the design stays at the
// base fixpoint. This engine exploits that by evaluating many cases --
// "lanes" -- in lockstep over a single precomputed topological order:
//
//   * state is a structure-of-arrays arena (core/batch_arena.hpp) of
//     interned 32-bit waveform refs laid out [signal][lane];
//   * the schedule is the SCC condensation of the primitive graph (the
//     same Tarjan machinery as the oscillation localizer) in topological
//     order; cyclic components iterate to an intra-component fixpoint with
//     the per-case oscillation guard as the iteration cap;
//   * the sweep follows the disturbance: a bitset over schedule positions,
//     seeded with the case pins, holds the components a changed cell has
//     reached, and is drained in ascending order, so a block visits only
//     the consumers of cells some lane actually moved;
//   * at each visited primitive, a branch-minimal pass over the input rows
//     marks the lanes whose inputs diverged from the base fixpoint; all
//     other lanes are *skipped entirely* -- they provably hold the base
//     value -- which generalizes cone scoping to per-primitive-per-lane
//     granularity;
//   * dirty lanes share one memo-key skeleton per primitive (per-lane ref
//     patching instead of per-eval key construction) and feed the same
//     shard-locked EvalMemo as the per-case path, and identical adjacent
//     lanes reuse the previous lane's result outright.
//
// The invariant, enforced by the golden suite and tvfuzz --matrix: for
// non-degraded runs the batch path's reports are byte-identical to the
// per-case path's. Degradation-prone runs (armed wall-clock budgets,
// degraded or non-convergent base fixpoints, a full intern table) are not
// batched -- Verifier::run_cases silently defers those to the per-case path,
// and run_case_block aborts a block (completed = false) if the table fills
// mid-sweep so the caller can re-run it per-case. See docs/batch_eval.md.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch_arena.hpp"
#include "core/cone.hpp"
#include "core/evaluator.hpp"
#include "core/snapshot.hpp"

namespace tv {

/// The precomputed evaluation schedule: strongly connected components of
/// the primitive graph (checkers excluded -- they drive nothing) in
/// topological order. Acyclic components are single primitives evaluated
/// exactly once per sweep; cyclic ones (register feedback) iterate to an
/// intra-component fixpoint. Verifier caches one per netlist structure
/// version and shares it with every case block and worker thread.
struct BatchSchedule {
  struct Component {
    std::vector<PrimId> prims;  // ascending netlist order within the component
    bool cyclic = false;        // more than one primitive, or a self-loop
  };
  std::vector<Component> components;  // topological order
  /// Per primitive: 1 iff it belongs to a cyclic component (a feedback
  /// loop, where the fixpoint can depend on evaluation history).
  std::vector<char> in_cycle;
  /// Per primitive: the index of its component in `components`, or
  /// kNoPosition for checkers and primitives that drive nothing.
  std::vector<std::uint32_t> position;
  static constexpr std::uint32_t kNoPosition = 0xFFFFFFFFu;
};

BatchSchedule build_batch_schedule(const Netlist& nl);

/// Per-lane cost and convergence accounting for one block sweep.
struct BatchLaneStats {
  std::size_t evals = 0;       // primitive evaluations performed for this lane
  std::size_t lane_skips = 0;  // visited primitives where this lane was clean
  bool converged = true;
  bool degraded = false;
  std::vector<Degradation> degradations;
};

/// Result of one block sweep. completed == false means the waveform table
/// filled mid-sweep (or a baseline ref was missing): the arena state is
/// unusable and the caller must re-run the block's cases on the per-case
/// path, which re-derives the identical degradation records.
struct BatchBlockResult {
  bool completed = false;
  std::vector<BatchLaneStats> lanes;
};

/// Evaluates cases[first .. first+count) as lockstep lanes of one sweep.
/// `cones[first + l]` is lane l's affected cone and `snaps[l]` its (fresh)
/// snapshot; on success each snapshot holds exactly the lane's divergences
/// from the base fixpoint, ready for run_checks_batch or run_checks_scoped
/// -- the same shape the per-case runner leaves behind, so checking and
/// reporting are shared verbatim. `base_refs` is the baseline fixpoint's
/// per-signal ref array and `ctx` the run's shared intern context (both
/// from the Evaluator).
BatchBlockResult run_case_block(const Netlist& nl, const VerifierOptions& opts,
                                const BatchSchedule& sched, InternContext& ctx,
                                const std::vector<WaveformRef>& base_refs,
                                const std::vector<CaseSpec>& cases,
                                std::size_t first, std::size_t count,
                                const std::vector<std::shared_ptr<const Cone>>& cones,
                                std::vector<EvalSnapshot>& snaps);

}  // namespace tv
