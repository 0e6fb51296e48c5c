// Focused tests of the constraint checkers (thesis secs. 2.4.4, 2.4.5):
// window arithmetic across the cycle wrap, negative hold times,
// complemented clock pins, the skew/pulse-width interaction of sec. 2.8,
// and the SETUP RISE HOLD FALL semantics for memory-style parts.
#include "core/checker.hpp"

#include "core/verifier.hpp"

#include <gtest/gtest.h>

namespace tv {
namespace {

using V = Value;

struct Rig {
  Netlist nl;
  VerifierOptions opts;
  Rig() {
    opts.period = from_ns(50.0);
    opts.units = ClockUnits::from_ns_per_unit(1.0);
    opts.default_wire = WireDelay{0, 0};
    opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};
  }
  std::vector<Violation> run() {
    nl.finalize();
    Evaluator ev(nl, opts);
    ev.initialize();
    ev.propagate();
    return run_checks(ev);
  }
};

TEST(Checker, CleanSetupHoldPasses) {
  Rig r;
  r.nl.setup_hold_chk("CHK", from_ns(3), from_ns(2), r.nl.ref("D .S15-55"),
                      r.nl.ref("CK .P20-30"));
  EXPECT_TRUE(r.run().empty());
}

TEST(Checker, SetupMissReportsAmount) {
  Rig r;
  // Data stable only from 18.5; clock rises at 20; setup 3 -> miss 1.5.
  r.nl.setup_hold_chk("CHK", from_ns(3), 0, r.nl.ref("D .S18.5-58"), r.nl.ref("CK .P20-30"));
  auto v = r.run();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].type, Violation::Type::Setup);
  EXPECT_EQ(v[0].missed_by, from_ns(1.5));
}

TEST(Checker, HoldMissReportsAmount) {
  Rig r;
  // Data starts changing at 21; hold to 20+2=22 -> miss 1.0.
  r.nl.setup_hold_chk("CHK", 0, from_ns(2), r.nl.ref("D .S10-21"), r.nl.ref("CK .P20-30"));
  auto v = r.run();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].type, Violation::Type::Hold);
  EXPECT_EQ(v[0].missed_by, from_ns(1.0));
}

TEST(Checker, NegativeHoldIsNotChecked) {
  // The F10145A data sheet's -1.0 ns hold (Fig 3-5): data may change
  // *before* the edge; no hold check must run.
  Rig r;
  r.nl.setup_hold_chk("CHK", from_ns(3), from_ns(-1.0), r.nl.ref("D .S10-20"),
                      r.nl.ref("CK .P20-30"));
  EXPECT_TRUE(r.run().empty());
}

TEST(Checker, ComplementedClockChecksFallingEdge) {
  // "- CK": the checker sees the complement, so its rising edge is the
  // falling edge of CK (the RAM write-data check of Fig 3-5).
  Rig r;
  // CK falls at 30. Data stable 25..29: misses the 3 ns setup by... data
  // stable from 25, need stable from 27 -> passes setup; changing at 29
  // violates nothing (hold 0). Make data stable only from 28 -> miss 1.
  r.nl.setup_hold_chk("CHK", from_ns(3), 0, r.nl.ref("D .S28-68"), r.nl.ref("- CK .P20-30"));
  auto v = r.run();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].missed_by, from_ns(1.0));
}

TEST(Checker, SetupWindowWrapsCycleBoundary) {
  // Clock rises at 2 ns; the 5 ns setup window is [47, 2) across the wrap.
  Rig r;
  // Data changing 45..48 -> stable only from 48: miss = 48 - 47 = 1... the
  // available run ending at 2 is 2+50-48 = 4 -> miss 5-4 = 1.
  r.nl.setup_hold_chk("CHK", from_ns(5), 0, r.nl.ref("D .S48-95"), r.nl.ref("CK .P2-10"));
  auto v = r.run();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].missed_by, from_ns(1.0));
}

TEST(Checker, SetupRiseHoldFallChecksAllThreeWindows) {
  // setup before the rise, stable while true, hold after the fall.
  {
    Rig r;  // violates only "stable while true"
    r.nl.setup_rise_hold_fall_chk("CHK", from_ns(2), from_ns(2), r.nl.ref("D .S15-24,26-58"),
                                  r.nl.ref("CK .P20-30"));
    auto v = r.run();
    ASSERT_EQ(v.size(), 1u) << violations_report(v);
    EXPECT_EQ(v[0].type, Violation::Type::StableWhileHigh);
  }
  {
    Rig r;  // violates only the hold-after-fall: changing at 31 < 30+2
    r.nl.setup_rise_hold_fall_chk("CHK", from_ns(2), from_ns(2), r.nl.ref("D .S15-81"),
                                  r.nl.ref("CK .P20-30"));
    auto v = r.run();
    ASSERT_EQ(v.size(), 1u) << violations_report(v);
    EXPECT_EQ(v[0].type, Violation::Type::Hold);
    EXPECT_EQ(v[0].missed_by, from_ns(1.0));
  }
}

TEST(Checker, MinPulseWidthBothPolarities) {
  Rig r;
  // High pulse 3 ns (needs 5), low pulse 41 ns at the complement: check
  // both limits on one waveform: high [20,23): 3 < 5; low elsewhere:
  // 47 ns >= 10.
  r.nl.min_pulse_width_chk("CHK", from_ns(5), from_ns(10), r.nl.ref("CK .P20-23"));
  auto v = r.run();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].type, Violation::Type::MinPulseHigh);
  EXPECT_EQ(v[0].missed_by, from_ns(2.0));
}

TEST(Checker, MinPulseLowAcrossWrap) {
  Rig r;
  // High except [48, 2): the low run wraps and is 4 ns wide, needs 6.
  r.nl.min_pulse_width_chk("CHK", 0, from_ns(6), r.nl.ref("CK .P2-48"));
  auto v = r.run();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].type, Violation::Type::MinPulseLow);
  EXPECT_EQ(v[0].missed_by, from_ns(2.0));
}

TEST(Checker, SkewedPulsePreservesWidthProperty) {
  // Sec. 2.8's whole point: a pulse delayed by [dmin, dmax] keeps its
  // width; the min-pulse check must not fire regardless of skew size.
  for (double skew_ns : {0.0, 1.0, 3.0, 7.5, 20.0}) {
    Rig r;
    Ref in = r.nl.ref("CK .P20-30");  // 10 ns pulse
    Ref out = r.nl.ref("DELAYED");
    r.nl.buf("B", from_ns(1.0), from_ns(1.0 + skew_ns), in, out);
    r.nl.min_pulse_width_chk("CHK", from_ns(9.5), 0, out);
    EXPECT_TRUE(r.run().empty()) << "skew " << skew_ns;
  }
}

TEST(Checker, FoldedSkewConservativelyShortensPulse) {
  // Once skew has been folded by a combination (two changing inputs), the
  // guaranteed width genuinely shrinks and the check must fire.
  Rig r;
  Ref a = r.nl.ref("CK A .P20-30");
  Ref da = r.nl.ref("DEL A");
  r.nl.buf("BA", from_ns(1.0), from_ns(4.0), a, da);       // 3 ns skew
  Ref b = r.nl.ref("CK B .P20-30");
  Ref g = r.nl.ref("GATED");
  r.nl.and_gate("G", 0, 0, {da, b}, g);                    // combines: folds
  r.nl.min_pulse_width_chk("CHK", from_ns(8.0), 0, g);
  auto v = r.run();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].type, Violation::Type::MinPulseHigh);
}

TEST(Checker, MultipleClockEdgesAllChecked) {
  Rig r;
  // Two rising edges (units 10 and 35); data violates setup only at the
  // second: stable 5..33, changing 33.. -> second edge at 35 misses.
  r.nl.setup_hold_chk("CHK", from_ns(3), 0, r.nl.ref("D .S5-33"),
                      r.nl.ref("CK .P10-15,35-40"));
  auto v = r.run();
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].missed_by, from_ns(3.0));
}

TEST(Checker, ConstantClockNeverChecks) {
  Rig r;
  r.nl.setup_hold_chk("CHK", from_ns(3), from_ns(3), r.nl.ref("D"), r.nl.ref("TIED"));
  EXPECT_TRUE(r.run().empty());  // undriven signals are always stable
}

TEST(Checker, UnknownFeedsThroughAsViolationFreeStable) {
  // Undriven + unasserted inputs default to always-stable (sec. 2.5) so
  // they produce no spurious errors; they appear on the cross reference.
  Rig r;
  Ref d = r.nl.ref("FLOATING DATA");
  r.nl.setup_hold_chk("CHK", from_ns(3), from_ns(3), d, r.nl.ref("CK .P20-30"));
  EXPECT_TRUE(r.run().empty());
  EXPECT_EQ(r.nl.undefined_unasserted().size(), 1u);  // just the floating data
}

}  // namespace
}  // namespace tv

namespace tv {
namespace {

TEST(Slack, PositiveAndNegativeSetupSlack) {
  Rig r;
  // Data stable from 15; clock rises at 20; setup 3 -> 2 ns positive slack.
  r.nl.setup_hold_chk("GOOD", from_ns(3), from_ns(1), r.nl.ref("D .S15-60"),
                      r.nl.ref("CK .P20-30"));
  // Second checker misses by 1.5 -> -1.5 slack.
  r.nl.setup_hold_chk("BAD", from_ns(3), 0, r.nl.ref("E .S18.5-58"), r.nl.ref("CK .P20-30"));
  r.nl.finalize();
  Evaluator ev(r.nl, r.opts);
  ev.initialize();
  ev.propagate();
  auto slacks = compute_slacks(ev);
  ASSERT_EQ(slacks.size(), 2u);
  EXPECT_EQ(slacks[0].setup_slack, from_ns(2.0));
  EXPECT_EQ(slacks[1].setup_slack, from_ns(-1.5));
  // Hold slack of the first: data steady from edge (20) until 60 mod -> 10:
  // 40 ns of steady run, hold 1 -> +39... capped by when D changes (at 60
  // mod 50 = 10): run from 20 to 10 = 40 ns.
  EXPECT_EQ(slacks[0].hold_slack, from_ns(39.0));

  std::string report = slack_report(r.nl, slacks, r.opts.period, 10);
  EXPECT_NE(report.find("BAD"), std::string::npos);
  EXPECT_NE(report.find("must grow"), std::string::npos) << report;
}

TEST(Slack, CycleTimeEstimateWhenAllPass) {
  Rig r;
  r.nl.setup_hold_chk("CHK", from_ns(3), 0, r.nl.ref("D .S10-55"), r.nl.ref("CK .P20-30"));
  r.nl.finalize();
  Evaluator ev(r.nl, r.opts);
  ev.initialize();
  ev.propagate();
  auto slacks = compute_slacks(ev);
  ASSERT_EQ(slacks.size(), 1u);
  // Data stable from 10, edge at 20: 10 ns available, 3 required -> +7.
  EXPECT_EQ(slacks[0].setup_slack, from_ns(7.0));
  std::string report = slack_report(r.nl, slacks, r.opts.period, 10);
  EXPECT_NE(report.find("could shrink"), std::string::npos) << report;
  EXPECT_NE(report.find("43.0"), std::string::npos) << report;  // 50 - 7
}

TEST(Slack, AgreesWithTheViolationListOnUnknownAndNeverSteadyClocks) {
  // Negative set-up (hold) slack must mean exactly that the checker reports
  // SETUP (HOLD) TIME MISSED, for every clock the checker accepts: a plain
  // pulse, and one a segment cap degraded to all-UNKNOWN -- it holds no
  // steady level, so it may switch at any instant of the cycle.
  for (bool degraded : {false, true}) {
    for (bool rise_hold_fall : {false, true}) {
      for (const char* data : {"D .S15-55", "D .S5-45", "D .S10-21", "D .S18.5-58",
                               "D .S22-48", "D .S45-95"}) {
        Rig r;
        if (degraded) r.opts.max_segments_per_signal = 1;
        Ref ck = r.nl.ref("CKB");
        r.nl.buf("BUF", 0, 0, r.nl.ref("CK .P20-30"), ck);
        if (rise_hold_fall) {
          r.nl.setup_rise_hold_fall_chk("CHK", from_ns(3), from_ns(2), r.nl.ref(data), ck);
        } else {
          r.nl.setup_hold_chk("CHK", from_ns(3), from_ns(2), r.nl.ref(data), ck);
        }
        r.nl.finalize();
        Evaluator ev(r.nl, r.opts);
        ev.initialize();
        ev.propagate();
        ASSERT_EQ(ev.degraded(), degraded);
        bool setup_missed = false, hold_missed = false;
        for (const Violation& v : run_checks(ev)) {
          setup_missed |= v.message.find("SETUP TIME MISSED") != std::string::npos;
          hold_missed |= v.message.find("HOLD TIME MISSED") != std::string::npos;
        }
        std::vector<SlackEntry> slacks = compute_slacks(ev);
        ASSERT_EQ(slacks.size(), 1u) << data << " degraded=" << degraded;
        const SlackEntry& e = slacks[0];
        SCOPED_TRACE(std::string(data) + (degraded ? " degraded" : "") +
                     (rise_hold_fall ? " rise-hold-fall" : " setup-hold"));
        EXPECT_EQ(e.has_setup && e.setup_slack < 0, setup_missed);
        EXPECT_EQ(e.has_hold && e.hold_slack < 0, hold_missed);
      }
    }
  }
}

}  // namespace
}  // namespace tv

// Regression for the --time-limit coverage bug: only the evaluation
// fixed-point loop used to poll the deadline, so a run whose budget expired
// during constraint checking silently kept checking (or, with cases, let
// every case re-arm a fresh budget). The shared deadline must cover the
// checker and surface skipped checks as TV-W204 with a partial result.
#include "diag/diagnostic.hpp"

namespace tv {
namespace {

TEST(CheckerDeadline, ExpiredBudgetSkipsChecksAndReportsW204) {
  Rig r;
  // A guaranteed setup violation (the SetupMissReportsAmount circuit).
  r.nl.setup_hold_chk("CHK", from_ns(3), 0, r.nl.ref("D .S18.5-58"), r.nl.ref("CK .P20-30"));
  r.nl.finalize();

  // Control: with no deadline the violation is reported.
  {
    Verifier v(r.nl, r.opts);
    VerifyResult res = v.verify({});
    ASSERT_EQ(res.violations.size(), 1u);
    EXPECT_FALSE(res.partial);
  }

  // An already-expired shared deadline: the checker must skip its checks,
  // mark the run partial, and say so -- never silently drop violations.
  VerifierOptions opts = r.opts;
  opts.deadline = Deadline::after_seconds(0);
  Verifier v(r.nl, opts);
  VerifyResult res = v.verify({});
  EXPECT_TRUE(res.partial);
  EXPECT_TRUE(res.violations.empty());
  bool saw_w204 = false;
  for (const Degradation& d : res.degradations) {
    if (std::string(d.code) == diag::kWarnCheckDeadline) {
      saw_w204 = true;
      EXPECT_NE(d.message.find("skipped"), std::string::npos) << d.message;
    }
  }
  EXPECT_TRUE(saw_w204);
}

TEST(CheckerDeadline, CasesShareOneBudgetAndDegradeToo) {
  Rig r;
  Ref sel = r.nl.ref("SEL");
  Ref out = r.nl.ref("OUT");
  r.nl.mux2("MUX", from_ns(1), from_ns(2), sel, r.nl.ref("A .S0-40"),
            r.nl.ref("B .S5-45"), out);
  r.nl.setup_hold_chk("CHK", from_ns(30), 0, out, r.nl.ref("CK .P20-30"));
  r.nl.finalize();
  std::vector<CaseSpec> cases = {{"sel0", {{sel.id, Value::Zero}}},
                                 {"sel1", {{sel.id, Value::One}}}};

  VerifierOptions opts = r.opts;
  opts.deadline = Deadline::after_seconds(0);
  Verifier v(r.nl, opts);
  VerifyResult res = v.verify(cases);
  EXPECT_TRUE(res.partial);
  ASSERT_EQ(res.cases.size(), 2u);
  for (const auto& c : res.cases) {
    EXPECT_TRUE(c.degraded) << c.name;
    EXPECT_TRUE(c.violations.empty()) << c.name;
  }
  // The expired budget is reported per checking phase (base + each case).
  std::size_t w204 = 0;
  for (const Degradation& d : res.degradations) {
    if (std::string(d.code) == diag::kWarnCheckDeadline) ++w204;
  }
  EXPECT_GE(w204, 3u);
}

}  // namespace
}  // namespace tv
