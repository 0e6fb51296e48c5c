// Front-end robustness fuzzing (tvfuzz --parser-fuzz).
//
// Takes valid SHDL sources (the standard chip library plus small embedded
// designs), applies seeded byte- and token-level mutations, and feeds the
// result to the diagnostic front end. The contract under test:
//
//   * the front end never crashes and never lets an exception escape --
//     malformed input is a diagnostic, not a throw;
//   * when the front end rejects an input (returns nullopt) it has reported
//     at least one error diagnostic explaining why, and none of them is the
//     internal-error code SHDL-E099;
//   * when it accepts an input, the resulting design is finalized and
//     usable;
//   * a seed design with one vector-range bound replaced by a malformed
//     number ("1.2.3", "1..5", the fraction "1.5") is rejected with a
//     located SHDL-E022 -- an input accepted silently would pass the
//     contracts above ("silent-acceptance").
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace tv::check {

struct ParserFuzzFailure {
  std::uint64_t seed = 0;
  std::string kind;    // "uncaught-exception" | "silent-rejection" | "silent-acceptance" | ...
  std::string detail;  // what() text or invariant description
  std::string input;   // the mutated source that triggered it
};

/// Runs one seeded mutation + front-end round trip and one seeded
/// malformed-range check. Returns the failure if any contract above was
/// broken, std::nullopt otherwise.
std::optional<ParserFuzzFailure> check_parser_robustness(std::uint64_t seed);

/// The valid-SHDL seed corpus the mutator starts from. Exposed so other
/// harnesses (tvfuzz --serve-chaos) can generate known-good designs.
std::size_t seed_design_count();
std::string seed_design(std::size_t index);

/// The mutator alone: 1-8 seeded byte- and token-level edits of `src`. The
/// diagnostics digest (tests/test_diagnostics.cpp) runs the front end over
/// its mutants.
std::string mutate_source(std::string src, std::uint64_t seed);

}  // namespace tv::check
