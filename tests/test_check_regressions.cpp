// Minimized regression cases for bugs found by the differential
// self-checking harness (tools/tvfuzz). Each circuit spec below was shrunk
// by src/check/shrinker.cpp from a failing fuzz seed and pasted from the
// emitted repro; the wave cases pin the delayed_rise_fall event-order
// hazards. Every test in this file failed before the corresponding fixes in
// src/core/primitives.cpp, src/core/waveform.cpp, src/sim/logic_sim.cpp and
// src/core/checker.cpp.
#include <gtest/gtest.h>

#include <cstdint>

#include "check/oracles.hpp"
#include "check/pipeline_diff.hpp"
#include "check/rand_netlist.hpp"

namespace tv::check {
namespace {

// Seed 48 shrunk: an &A-directed gated clock driving a latch through one
// buffer. The value-level simulator dropped the gate's falling edge when
// the rise was still in flight (output compared against the momentary value
// instead of the projected one), so the gated clock stuck high and exposed
// a phantom set-up violation no symbolic run could cover.
TEST(CheckRegression, ConservatismSeed48) {
  CircuitSpec s;
  s.seed = 48;
  s.period_ns = 40;
  s.data_toggle_ns = 6;
  s.data_change_ns = 1;
  s.stages.push_back({StageKind::Buf, 3, 3, 7, 7, false, 0, 0});
  s.sink = SinkKind::Latch;
  s.clock = {3, 2, 0, 0, true, true, 'A', false, 0, 0};
  s.sink_dmin_ns = 1;
  s.sink_dmax_ns = 1;
  s.setup_ns = 1;
  s.hold_ns = 0;
  auto fail = check_conservatism(s);
  ASSERT_FALSE(fail.has_value()) << fail->kind << ": " << fail->detail;
}

// Seed 93 shrunk: a LatchSR behind a gated clock feeding a second pipeline
// stage under case analysis. Exposed the simulator's SET/RESET-before-
// capture ordering (a clocked capture could override an asserted SET for
// part of the cycle) together with the latch's instantaneous-rise handover.
TEST(CheckRegression, CaseConservatismSeed93) {
  CircuitSpec s;
  s.seed = 93;
  s.period_ns = 40;
  s.data_toggle_ns = 2;
  s.data_change_ns = 1;
  s.sink = SinkKind::LatchSR;
  s.clock = {3, 2, 0, 0, true, true, '\0', false, 0, 5};
  s.sink_dmin_ns = 1;
  s.sink_dmax_ns = 3;
  s.setup_ns = 1;
  s.hold_ns = 0;
  s.second_stage = true;
  s.stage2_edge_units = 12;
  s.with_case = true;
  auto fail = check_conservatism(s);
  ASSERT_FALSE(fail.has_value()) << fail->kind << ": " << fail->detail;
}

// Seed 109 shrunk: a two-stage pipeline whose first register is clocked by
// a precise edge with dmin == dmax. The symbolic register produced a
// zero-width CHANGE window, rounded it away, and reported the intermediate
// signal always-STABLE -- hiding the second stage's set-up violation that
// every concrete realization exposed.
TEST(CheckRegression, ConservatismSeed109) {
  CircuitSpec s;
  s.seed = 109;
  s.period_ns = 40;
  s.data_toggle_ns = 2;
  s.data_change_ns = 1;
  s.sink = SinkKind::Reg;
  s.clock = {3, 2, 0, 0, true, false, '\0', false, 0, 0};
  s.sink_dmin_ns = 1;
  s.sink_dmax_ns = 1;
  s.setup_ns = 1;
  s.hold_ns = 0;
  s.second_stage = true;
  s.stage2_edge_units = 6;
  auto fail = check_conservatism(s);
  ASSERT_FALSE(fail.has_value()) << fail->kind << ": " << fail->detail;
}

// delayed_rise_fall event-order hazard, minimal form: a narrow pulse whose
// rise delay exceeds its fall delay shifts the fall's uncertainty window
// wholly *before* the rise's. The late rise then leaves a stale 1 on the
// output until the next cycle's fall -- the concrete-replay oracle caught
// the symbolic result claiming a clean 0 there.
TEST(CheckRegression, RiseFallCoverageReorderedWindows) {
  WaveCase w;
  w.base.period_ns = 40;
  w.base.fill = '0';
  w.base.ops = {{10, 3, '1'}};
  w.rise_min_ns = 6;
  w.rise_max_ns = 8;
  w.fall_min_ns = 1;
  w.fall_max_ns = 2;
  auto fail = check_wave_algebra(w);
  ASSERT_FALSE(fail.has_value()) << fail->kind << ": " << fail->detail;
}

// Fuzz seeds that each exposed a distinct defect in the overlap/inversion
// sweep while it was being built: skew-folded boundaries masking overlaps
// (18), settled values painted into colliding uncertainty spans (27, 343),
// wrap-spanning clusters whose base window starts past the period (56), and
// disjoint-but-reordered windows with no overlap at all (64, 194, 337,
// 458).
TEST(CheckRegression, RiseFallCoverageFuzzSeeds) {
  for (std::uint64_t seed : {18ULL, 27ULL, 56ULL, 64ULL, 194ULL, 337ULL, 343ULL, 458ULL}) {
    auto fail = check_wave_algebra(random_wave_case(seed));
    ASSERT_FALSE(fail.has_value())
        << "seed " << seed << " [" << fail->kind << "] " << fail->detail;
  }
}

// Seed 3107 shrunk, pasted verbatim from the degradation column's repro:
// an &A gate's clock input fed from the data path. At step 2 of the edit
// script a segment cap of 2 degrades it to UNKNOWN, and the hazard rule,
// which did not count UNKNOWN as a possibly asserted clock, dropped the
// undegraded run's CLOCK HAZARD error.
TEST(CheckRegression, DegradeHidesViolationSeed3107) {
    tv::check::CircuitSpec s;
    s.seed = 3107ULL;
    s.period_ns = 40; s.data_toggle_ns = 2; s.data_change_ns = 1;
    s.stages.push_back({tv::check::StageKind::Buf, 0, 0, 6, 6, false, 0, 0});
    s.sink = tv::check::SinkKind::Reg;
    s.clock = {3, 2, 0, 0, true, true, 'A', true, 0, 0};
    s.sink_dmin_ns = 1; s.sink_dmax_ns = 1;
    s.setup_ns = 1; s.hold_ns = 0;
    s.second_stage = false; s.stage2_edge_units = 0; s.with_case = false;
    auto fail = tv::check::check_degradation_conservatism(s, tv::check::Path{.compiled = false, .batch_eval = true, .restored = false, .incremental = false}, tv::check::Guard{.max_segments_per_signal = 2, .max_waveforms_per_shard = 0, .time_limit_seconds = 0}, tv::check::PipelineOptions{.edit_seed = 12082169897304126497ULL, .steps = 4});
    ASSERT_FALSE(fail.has_value()) << fail->kind << ": " << fail->detail;
}

}  // namespace
}  // namespace tv::check
