// Counterexample minimization for the differential harness.
//
// Both shrinkers are greedy delta-debuggers over the plain-data specs: each
// pass proposes a list of simplifying mutations (drop a stage, zero a skew,
// collapse a delay range, halve a number, ...), keeps the first mutation
// under which the failure predicate still fires, and repeats to a fixpoint.
// Mutations that produce an unbuildable spec are rejected by the predicate
// wrapper, so candidates do not need to preserve validity.
#pragma once

#include <functional>
#include <string>

#include "check/oracles.hpp"

namespace tv::check {

/// Returns true when the (possibly mutated) spec still exhibits the failure
/// being minimized. Predicates should compare the Failure kind so shrinking
/// cannot wander onto a different bug.
using CircuitPred = std::function<bool(const CircuitSpec&)>;
using WavePred = std::function<bool(const WaveCase&)>;

/// Greedily minimizes a failing circuit spec. `still_fails` is invoked at
/// most `max_checks` times; exceptions thrown by it count as "does not
/// fail". The input spec must satisfy the predicate.
CircuitSpec shrink_circuit(const CircuitSpec& failing, const CircuitPred& still_fails,
                           int max_checks = 4000);

WaveCase shrink_wave(const WaveCase& failing, const WavePred& still_fails,
                     int max_checks = 4000);

/// The circuit oracle a repro asserts when none is named.
inline constexpr const char* kConservatismCall = "tv::check::check_conservatism(s)";

/// Renders a ready-to-paste gtest regression test asserting that the given
/// spec passes an oracle: `oracle_kind` names the test, `oracle_call` is the
/// C++ expression over the spec variable `s` that re-runs the failing
/// oracle (check/pipeline_diff.hpp's pipeline_call/degradation_call for
/// matrix failures).
std::string gtest_repro(const CircuitSpec& spec, const std::string& oracle_kind,
                        const std::string& oracle_call = kConservatismCall);
std::string gtest_repro(const WaveCase& wc, const std::string& oracle_kind);

}  // namespace tv::check
