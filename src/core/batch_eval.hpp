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
//     lanes reuse the previous lane's result outright;
//   * no cone is resolved: a lane's snapshot holds none, and the sweep
//     proves each lane's writes lie in its cone by walking from the lane's
//     pins through the cells it moved, in the order it moved them
//     (LaneReach).
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
#include <utility>
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

/// The batch sweep's cone-containment proof. A lane's snapshot holds no
/// cone; instead the sweep records each cell a lane moves, laid out
/// [row][lane] over the block's arena rows, and the order in which each
/// cell first moved. prove() walks every lane's reach from its pins in
/// that order: a moved cell is reached when it is a pin of the lane, or
/// when an input of its driver is a pin or a cell the lane reached before.
/// Those are the fanout edges a ConeIndex cone closes over, so a reached
/// cell lies in the lane's cone. The lane-skip rule makes every correct
/// write pass: a lane writes a cell only when its output is case-mapped
/// (a pin) or an input cell it moved earlier diverged. A cell outside the
/// cone, or written with no such input, fails. The walk costs the moved
/// cells' fan-in, with no per-case BFS.
class LaneReach {
 public:
  explicit LaneReach(std::size_t lanes) : lanes_(lanes) {}

  /// Appends a row, unmoved in every lane (alongside BatchArena::add_row).
  void add_row() { cells_.resize(cells_.size() + lanes_, kAtBase); }
  /// Records that `lane` moved its cell of `row`; a cell's first move is
  /// logged, in order.
  void mark_moved(std::size_t row, std::size_t lane) {
    char& cell = cells_[row * lanes_ + lane];
    if (cell != kAtBase) return;
    cell = kMoved;
    moves_.push_back({static_cast<std::uint32_t>(row), static_cast<std::uint32_t>(lane)});
  }

  /// Walks the logged moves; lane l's pins are cases[first + l]'s, `row_of`
  /// maps a signal to its row (-1: none) and `row_sig` a row to its
  /// signal. Throws std::logic_error naming the case and signal of the
  /// first moved cell the walk does not reach. Call once, after the last
  /// mark_moved.
  void prove(const Netlist& nl, const std::vector<std::int32_t>& row_of,
             const std::vector<SignalId>& row_sig, const std::vector<CaseSpec>& cases,
             std::size_t first);

 private:
  static constexpr char kAtBase = 0, kMoved = 1, kReached = 2;
  std::size_t lanes_;
  std::vector<char> cells_;  // [row][lane]
  std::vector<std::pair<std::uint32_t, std::uint32_t>> moves_;  // (row, lane), first moves in order
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
/// `snaps[l]` is lane l's (fresh) snapshot, normally built without a cone;
/// on success each snapshot holds exactly the lane's divergences from the
/// base fixpoint, ready for run_checks_batch or run_checks_scoped -- the
/// same shape the per-case runner leaves behind, so checking and reporting
/// are shared verbatim. `base_refs` is the baseline fixpoint's per-signal
/// ref array and `ctx` the run's shared intern context (both from the
/// Evaluator). `cones` is not read and may be empty.
///
/// The sweep checks cone containment itself (LaneReach): each cell a lane
/// moved must be reachable from the lane's pins through cells the lane
/// moved before it, along the fanout edges a cone closes over, or the
/// block throws std::logic_error.
BatchBlockResult run_case_block(const Netlist& nl, const VerifierOptions& opts,
                                const BatchSchedule& sched, InternContext& ctx,
                                const std::vector<WaveformRef>& base_refs,
                                const std::vector<CaseSpec>& cases,
                                std::size_t first, std::size_t count,
                                const std::vector<std::shared_ptr<const Cone>>& cones,
                                std::vector<EvalSnapshot>& snaps);

}  // namespace tv
