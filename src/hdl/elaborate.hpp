// Macro expansion and elaboration: SHDL AST -> flat Netlist.
//
// Mirrors the SCALD Macro Expander of thesis sec. 3.3.2: Pass 1 walks the
// hierarchy resolving signal names (synonyms between formal parameters and
// actual signals) and produces summary statistics; Pass 2 walks it again
// emitting the fully expanded design for the Timing Verifier. Expansion is
// textual at the signal-name level: a macro's "/P" parameters are replaced
// by the actual connection strings, "/M" locals are prefixed with the
// instance path, and unmarked names are global (shared across instances).
// Vector ranges "<0:SIZE-1>" are evaluated with the instance's numeric
// parameters to concrete bounds.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>

#include "core/evaluator.hpp"
#include "core/netlist.hpp"
#include "diag/diagnostic.hpp"
#include "hdl/ast.hpp"

namespace tv::hdl {

/// Pass 1 output: the design summary (Table 3-2's raw material).
struct ExpandSummary {
  std::size_t macro_instances = 0;   // "chips": every `use` expanded
  std::size_t primitives = 0;        // primitive instances after expansion
  /// Distinct full names that primitives and wire_delay statements
  /// reference, counted before synonyms merge (a synonym pair counts twice).
  std::size_t unique_signals = 0;
  std::size_t total_bits = 0;        // sum of primitive widths
  std::map<std::string, std::size_t> prims_by_kind;
};

/// Fully elaborated design, ready to verify.
struct ElaboratedDesign {
  std::string name;
  Netlist netlist;
  VerifierOptions options;
  std::vector<CaseSpec> cases;
  ExpandSummary summary;
  /// Source location of each primitive's instantiation site (PrimId-indexed;
  /// populated only by the diagnostic entry points).
  std::vector<diag::SourceLoc> prim_locs;
};

/// Pass 1 only: expands the hierarchy without building the netlist.
ExpandSummary expand_summary(const File& file);

/// Pass 1 + Pass 2: expands and builds the finalized netlist. Throws
/// std::invalid_argument on semantic errors (unknown macro/primitive,
/// wrong pin counts, missing design block).
ElaboratedDesign elaborate(const File& file);

/// Convenience: parse + elaborate.
ElaboratedDesign elaborate_source(std::string_view src);

/// Diagnostic form: semantic errors are reported through `diags` with
/// source spans mapped back through macro expansion (each diagnostic
/// carries "in expansion of macro ... instantiated here" notes) and stable
/// error codes, instead of a thrown exception. Returns std::nullopt when
/// any error was reported. Never throws on malformed input; internal
/// failures surface as an SHDL-E099 diagnostic.
std::optional<ElaboratedDesign> elaborate(const File& file, diag::DiagnosticEngine& diags);

/// Parse (with statement-boundary recovery, reporting every syntax error)
/// + elaborate, all through `diags`.
std::optional<ElaboratedDesign> elaborate_source(std::string_view src,
                                                 diag::DiagnosticEngine& diags);

}  // namespace tv::hdl
