// Seeded inputs and report renderings shared by the workloads.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "core/verifier.hpp"
#include "hdl/elaborate.hpp"

namespace perfbench {

/// The S-1 generator's SHDL for `stages` pipeline stages. With `slowed` > 0
/// that many control-decode gates, drawn from `rng`, get a larger maximum
/// delay, so the design carries set-up violations.
std::string s1_source(int stages, Rng* rng = nullptr, int slowed = 0);

/// One section (stages [first, first + count)) of the S-1 design.
std::string s1_section_source(int first, int count);

/// hdl::parse then hdl::elaborate, each in its own span.
tv::hdl::ElaboratedDesign parse_and_elaborate(std::string_view src, Tracer* t);

/// The control input that decode chain `j` of stage `s` reads.
std::string control_name(int stage, int ctl);
/// Number of decode chains per stage in the generated design.
inline constexpr int kControlsPerStage = 11;

/// A case pinning one control to 0 or 1.
tv::CaseSpec control_case(const tv::Netlist& nl, int stage, int ctl, bool one);

/// The base run verify() performs, taken apart: Evaluator::initialize +
/// propagate in span core.base_fixpoint, then run_checks (degradations
/// merged) and the cross-reference in span core.check.
tv::VerifyResult base_run(tv::Evaluator& ev, Tracer* t);

/// The report scaldtv prints for a run.
std::string render_report(const std::string& design, const tv::Netlist& nl,
                          const tv::VerifyResult& r);
/// Every observable of a run except the cumulative effort counters
/// (base_events/base_evals), which reverify accumulates by design: signal
/// waveforms, violations and every case block.
std::string render_state(const tv::Netlist& nl, const tv::VerifyResult& r);
/// FNV-1a over every field of a result, effort counters included.
std::uint64_t fingerprint(const tv::VerifyResult& r);

/// The exit code scaldtv reports for a result (0 clean, 1 violations,
/// 3 partial).
int verdict(const tv::VerifyResult& r);

}  // namespace perfbench
