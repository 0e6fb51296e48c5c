// Seeded random-netlist generation for the differential self-checking
// harness (tools/tvfuzz, tests/test_cross_validation.cpp).
//
// The generator covers the territory the original hand-written
// cross-validation test did not: registers, latches, SET/RESET inputs,
// gated clocks carrying &A/&H/&Z evaluation directives, multi-letter
// evaluation strings that propagate across gate levels, polarity-dependent
// (rise/fall) delays, interconnection (wire) delays, skewed clock
// assertions, and case analysis. Every circuit is described first as a
// plain-data CircuitSpec -- a recipe of small integers -- so that a failing
// circuit can be shrunk field by field (src/check/shrinker.hpp) and
// re-emitted as a paste-into-gtest C++ literal.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/netlist.hpp"

namespace tv::check {

/// Deterministic 64-bit LCG shared by the whole harness; one seed fully
/// determines a differential case.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 0xD1B54A32D192ED03ULL) {}
  std::uint64_t next() {
    state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
    return state_ >> 33;
  }
  /// Uniform integer in [lo, hi] (inclusive).
  int range(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// True with probability pct/100.
  bool chance(int pct) { return range(1, 100) <= pct; }

 private:
  std::uint64_t state_;
};

/// One combinational stage on the data path between the toggling input and
/// the checked storage element.
enum class StageKind : std::uint8_t {
  Buf,          // buffer [dmin, dmax]
  Inv,          // inverter
  MuxFastSlow,  // select chooses a fast or a slow buffered copy (adds a control)
  AndEnable,    // AND with a fresh control input
  OrMask,       // OR with a fresh control input
  Xor2,         // XOR with a fresh control input (flip-overlay path)
};

struct StageSpec {
  StageKind kind = StageKind::Buf;
  int dmin_ns = 1, dmax_ns = 2;       // element delay
  int slow_min_ns = 4, slow_max_ns = 6;  // MuxFastSlow: slow-branch delay
  bool rise_fall = false;             // polarity-dependent delay (sec. 4.2.2)
  int fall_extra_ns = 0;              // fall delay = base delay + extra
  int wire_max_ns = 0;                // wire-delay override [0, wire_max] on the output
};

enum class SinkKind : std::uint8_t { Reg, RegSR, Latch, LatchSR };

struct ClockSpec {
  int edge_units = 20;      // nominal rising edge (clock units; 1 unit = 1 ns here)
  int high_units = 6;       // asserted width
  int skew_minus_ns = 0;    // assertion skew "(minus, plus)"; minus <= 0 <= plus
  int skew_plus_ns = 0;
  bool precision = true;    // .P vs .C assertion
  bool gated = false;       // clock passes AND(CK, GEN) before the sink
  char directive = '\0';    // '\0', 'A', 'H' or 'Z' on the gating AND's clock pin
  bool enable_from_path = false;  // GEN taken from the data path instead of a control
  /// Without an enabling directive (&A/&H) the enable must carry a definite
  /// .C assertion -- an unasserted enable is "assumed always stable"
  /// (sec. 2.5) and the gated clock then has no symbolic edges to check.
  /// These give the enable's asserted high window; unused otherwise.
  int enable_rise_units = 0;
  int enable_fall_units = 0;
};

/// Recipe for one random circuit. All times are whole nanoseconds so the
/// emitted gtest repro stays readable.
struct CircuitSpec {
  std::uint64_t seed = 0;       // provenance, for reporting only
  int period_ns = 200;
  int data_toggle_ns = 10;      // data input settles here each cycle
  int data_change_ns = 5;       // width of the changing window before the toggle
  std::vector<StageSpec> stages;
  SinkKind sink = SinkKind::Reg;
  ClockSpec clock;
  int sink_dmin_ns = 1, sink_dmax_ns = 2;
  int setup_ns = 3, hold_ns = 0;
  bool second_stage = false;    // pipeline: sink output -> buf -> checker -> reg
  int stage2_edge_units = 0;    // second checker's clock edge (0 = reuse + offset)
  bool with_case = false;       // run case analysis on the first control, 0 and 1
  /// Letters (E/W) after clock.directive on the gating AND's clock pin:
  /// the gate acts on the first letter and passes the rest on with its
  /// output (sec. 2.8), so the sink's clock pin sees a propagated string.
  std::string clock_directive_tail;
  /// Evaluation string (E letters) on the first stage's data pin; each
  /// stage consumes one letter and propagates the rest downstream.
  std::string data_directives;
};

/// Draws a random specification. The same seed always yields the same spec.
CircuitSpec random_spec(std::uint64_t seed);

/// A spec materialized as a verifier-ready netlist plus everything the
/// value-level simulator needs to drive it.
struct BuiltCircuit {
  Netlist nl;
  VerifierOptions opts;
  SignalId data_in = kNoSignal;
  SignalId clock_in = kNoSignal;
  SignalId clock2_in = kNoSignal;   // second pipeline clock, when separate
  SignalId gate_enable = kNoSignal; // .C-asserted gate enable, driven not enumerated
  std::vector<SignalId> controls;  // boolean inputs the simulator enumerates
  int case_control = -1;           // index into controls pinned by the cases
  std::vector<CaseSpec> cases;     // non-empty when spec.with_case
};

BuiltCircuit build(const CircuitSpec& spec);

/// Renders the spec as a C++ aggregate expression (a `tv::check::CircuitSpec{...}`
/// literal) for pasting into a regression test.
std::string to_cpp(const CircuitSpec& spec);

}  // namespace tv::check
