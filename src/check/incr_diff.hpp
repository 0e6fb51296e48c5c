// The incremental-reverification differential oracle (docs/incremental.md).
//
// For each seeded random circuit it replays a K-step random edit script two
// ways: incrementally (one long-lived Verifier, Verifier::reverify per
// step) and cold (a fresh build with the delta prefix applied wholesale,
// then a from-scratch verify; on odd circuit seeds the cold world runs its
// cases on the per-case reference engine instead of the batch sweep). After
// every step the two worlds must agree
// byte-for-byte on everything observable -- waveforms, evaluation strings,
// violation reports, case blocks, convergence verdicts, the cross-reference
// -- except the cumulative evaluation-effort counters
// (base_events/base_evals), which are the speedup itself.
//
// Edits are drawn from every delta family (primitive parameters, pin
// retargets, wire-delay overrides, assertion renames, case-map edits),
// including ones the incremental engine must refuse (a retarget that closes
// a combinational loop forces the silent cold fallback, which must still
// match). With `compiled` set, the circuit is first round-tripped through
// the scaldtvc artifact so the replay exercises the --compiled front end's
// id space and pre-interned seed arena.
#pragma once

#include <cstdint>
#include <optional>

#include "check/oracles.hpp"
#include "check/rand_netlist.hpp"
#include "core/incremental.hpp"

namespace tv::check {

struct IncrDiffOptions {
  /// Seed for the edit script; 0 derives it from the circuit seed. Fixed by
  /// the shrinker so the script stays stable while the circuit shrinks.
  std::uint64_t edit_seed = 0;
  int steps = 4;
  bool compiled = false;  // round-trip through the compiled artifact first
};

/// Draws a small (1-3 edit) valid delta against the current netlist/cases.
/// Exposed for the property suite; the same rng stream always yields the
/// same script.
NetlistDelta random_delta(Rng& rng, const Netlist& nl,
                          const std::vector<CaseSpec>& cases);

/// Runs the K-step differential replay. Returns the first divergence (or
/// harness failure), nullopt when every step matched.
std::optional<Failure> check_incr_equivalence(const CircuitSpec& spec,
                                              const IncrDiffOptions& opts = {});

}  // namespace tv::check
