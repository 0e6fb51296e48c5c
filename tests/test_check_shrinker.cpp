// Tests for the greedy counterexample shrinkers (src/check/shrinker.cpp)
// and the paste-into-gtest repro emitter. The predicates here are synthetic
// "bugs" so the tests pin the delta-debugging mechanics without depending
// on a real oracle failure existing.
#include "check/shrinker.hpp"

#include "check/pipeline_diff.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace tv::check {
namespace {

TEST(Shrinker, CircuitShrinkReachesPredicateCore) {
  CircuitSpec s;
  s.period_ns = 200;
  s.data_toggle_ns = 50;
  s.data_change_ns = 9;
  s.stages.push_back({StageKind::Xor2, 5, 9, 4, 6, true, 3, 2});
  s.stages.push_back({StageKind::MuxFastSlow, 2, 4, 8, 12, false, 0, 1});
  s.stages.push_back({StageKind::Buf, 1, 7, 4, 6, false, 0, 0});
  s.sink = SinkKind::LatchSR;
  s.clock = {30, 10, -2, 3, false, true, 'H', false, 0, 0};
  s.sink_dmin_ns = 2;
  s.sink_dmax_ns = 5;
  s.setup_ns = 6;
  s.hold_ns = 2;
  s.second_stage = true;
  s.stage2_edge_units = 44;
  s.with_case = true;

  // The "bug" only needs the gated clock and a period of at least 100 ns;
  // everything else must shrink away.
  auto pred = [](const CircuitSpec& c) { return c.clock.gated && c.period_ns >= 100; };
  ASSERT_TRUE(pred(s));
  CircuitSpec m = shrink_circuit(s, pred);

  EXPECT_TRUE(pred(m));
  EXPECT_TRUE(m.stages.empty());
  EXPECT_FALSE(m.second_stage);
  EXPECT_FALSE(m.with_case);
  EXPECT_EQ(m.sink, SinkKind::Reg);
  EXPECT_EQ(m.clock.directive, '\0');
  EXPECT_EQ(m.clock.skew_minus_ns, 0);
  EXPECT_EQ(m.clock.skew_plus_ns, 0);
  EXPECT_TRUE(m.clock.precision);
  EXPECT_EQ(m.hold_ns, 0);
  EXPECT_EQ(m.setup_ns, 1);
  EXPECT_EQ(m.period_ns, 100);  // decremented exactly to the predicate floor
}

TEST(Shrinker, WaveShrinkDropsIrrelevantOps) {
  WaveCase w;
  w.base.period_ns = 60;
  w.base.fill = '0';
  w.base.ops = {{5, 10, '1'}, {20, 4, 'U'}, {40, 6, '1'}};
  w.base.skew_ns = 7;
  w.rise_min_ns = 2;
  w.rise_max_ns = 9;
  w.fall_min_ns = 1;
  w.fall_max_ns = 3;
  w.d1_min_ns = 1;
  w.d1_max_ns = 4;
  w.d2_min_ns = 2;
  w.d2_max_ns = 2;

  auto pred = [](const WaveCase& c) {
    for (const WaveOp& op : c.base.ops) {
      if (op.value == 'U') return true;
    }
    return false;
  };
  ASSERT_TRUE(pred(w));
  WaveCase m = shrink_wave(w, pred);

  EXPECT_TRUE(pred(m));
  ASSERT_EQ(m.base.ops.size(), 1u);
  EXPECT_EQ(m.base.ops[0].value, 'U');
  EXPECT_EQ(m.base.ops[0].width_ns, 1);
  EXPECT_EQ(m.base.ops[0].at_ns, 0);
  EXPECT_EQ(m.base.fill, 'S');
  EXPECT_EQ(m.base.skew_ns, 0);
  EXPECT_EQ(m.base.period_ns, 15);
  EXPECT_EQ(m.rise_max_ns, 0);
  EXPECT_EQ(m.fall_max_ns, 0);
  EXPECT_EQ(m.d1_max_ns, 0);
  EXPECT_EQ(m.d2_max_ns, 0);
}

TEST(Shrinker, PredicateExceptionsCountAsNotFailing) {
  // Mutations that make the spec unbuildable throw inside the predicate;
  // the shrinker must treat them as "does not fail" and keep the original.
  CircuitSpec s;
  s.period_ns = 77;
  auto pred = [](const CircuitSpec& c) {
    if (c.period_ns < 77) throw std::runtime_error("unbuildable");
    return true;
  };
  CircuitSpec m = shrink_circuit(s, pred);
  EXPECT_EQ(m.period_ns, 77);
}

TEST(Shrinker, GtestReproIsPasteable) {
  CircuitSpec s;
  s.seed = 7;
  std::string txt = gtest_repro(s, "conservatism");
  EXPECT_NE(txt.find("TEST(CheckRegression, ConservatismSeed7)"), std::string::npos);
  EXPECT_NE(txt.find("check_conservatism"), std::string::npos);
  EXPECT_NE(txt.find("ASSERT_FALSE"), std::string::npos);

  WaveCase w;
  w.seed = 9;
  std::string wt = gtest_repro(w, "rise-fall-coverage");
  EXPECT_NE(wt.find("RiseFallCoverageSeed9"), std::string::npos);
  EXPECT_NE(wt.find("check_wave_algebra"), std::string::npos);
}

TEST(Shrinker, MatrixReproNamesTheFailingPair) {
  // A pasted repro of a matrix failure must re-run that pair on the pinned
  // edit script, not the conservatism oracle.
  CircuitSpec s;
  s.seed = 11;
  const Path a;
  const Path b{.batch_eval = false, .incremental = true};
  std::string txt = gtest_repro(s, "pipeline-diff",
                                pipeline_call(a, b, {.edit_seed = 42, .steps = 3}));
  EXPECT_NE(txt.find("TEST(CheckRegression, PipelineDiffSeed11)"), std::string::npos);
  EXPECT_NE(txt.find("auto fail = tv::check::check_pipeline_equivalence(s, "
                     "tv::check::Path{.compiled = false, .batch_eval = true, "
                     ".restored = false, .incremental = false}, "
                     "tv::check::Path{.compiled = false, .batch_eval = false, "
                     ".restored = false, .incremental = true}, "
                     "tv::check::PipelineOptions{.edit_seed = 42ULL, .steps = 3});"),
            std::string::npos)
      << txt;
  EXPECT_EQ(txt.find("check_conservatism"), std::string::npos);

  std::string dt = gtest_repro(
      s, "degrade-hides-violation",
      degradation_call(a, Guard{.max_segments_per_signal = 2}, {.edit_seed = 42}));
  EXPECT_NE(dt.find("check_degradation_conservatism(s, tv::check::Path{"), std::string::npos);
  EXPECT_NE(dt.find("tv::check::Guard{.max_segments_per_signal = 2,"), std::string::npos) << dt;
}

}  // namespace
}  // namespace tv::check
