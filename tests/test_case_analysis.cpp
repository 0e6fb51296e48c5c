// Case analysis (thesis sec. 2.7, Fig 2-6): two cascaded multiplexers whose
// select lines are complementary. Without case analysis the verifier cannot
// see that both muxes never select their slow "1" input at once and reports
// a 40 ns input-to-output delay; analyzing the cases CONTROL=0 and CONTROL=1
// separately gives 30 ns for both.
#include <gtest/gtest.h>

#include "case_harness.hpp"
#include "core/verifier.hpp"

namespace tv {
namespace {

using V = Value;

struct Fig26Circuit {
  Netlist nl;
  VerifierOptions opts;
  SignalId input = kNoSignal;
  SignalId control = kNoSignal;
  SignalId output = kNoSignal;
};

// Each mux contributes 10 ns; each "1" data input has an extra 10 ns of
// combinational delay in front of it. INPUT changes during [5, 10).
Fig26Circuit build_fig26() {
  Fig26Circuit c;
  c.opts.period = from_ns(100.0);
  c.opts.units = ClockUnits::from_ns_per_unit(1.0);
  c.opts.default_wire = WireDelay{0, 0};
  c.opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};

  Netlist& nl = c.nl;
  Ref in = nl.ref("INPUT .S10-105");  // changing 5..10, stable the rest
  Ref control = nl.ref("CONTROL SIGNAL");
  c.input = in.id;
  c.control = control.id;

  Ref slow1 = nl.ref("SLOW1");
  nl.buf("EXTRA DELAY 1", from_ns(10), from_ns(10), in, slow1);
  Ref m1 = nl.ref("M1");
  nl.mux2("MUX 1", from_ns(10), from_ns(10), control, in, slow1, m1);

  Ref slow2 = nl.ref("SLOW2");
  nl.buf("EXTRA DELAY 2", from_ns(10), from_ns(10), m1, slow2);
  Ref out = nl.ref("OUTPUT");
  // The second mux's select is the *complement* of CONTROL: both slow
  // paths can never be selected simultaneously.
  Ref ncontrol = nl.ref("- CONTROL SIGNAL");
  nl.mux2("MUX 2", from_ns(10), from_ns(10), ncontrol, m1, slow2, out);
  c.output = out.id;
  nl.finalize();
  return c;
}

// When (after the input settles at 10 ns) does the output settle?
Time settle_time(const Waveform& w) {
  Time t = 0;
  EXPECT_TRUE(w.settles(from_ns(10), from_ns(90), t));
  return t;
}

TEST(CaseAnalysis, WithoutCasesDelayIs40ns) {
  Fig26Circuit c = build_fig26();
  Verifier v(c.nl, c.opts);
  VerifyResult r = v.verify();
  EXPECT_TRUE(r.converged);
  // INPUT settles at 10; OUTPUT settles 40 ns later.
  EXPECT_EQ(settle_time(c.nl.signal(c.output).wave), from_ns(50));
}

TEST(CaseAnalysis, EachCaseGives30ns) {
  Fig26Circuit c = build_fig26();
  CaseHarness h(c.nl, c.opts);

  h.run(CaseSpec{"CONTROL SIGNAL = 1", {{c.control, V::One}}});
  EXPECT_EQ(settle_time(h.wave(c.output)), from_ns(40));

  h.run(CaseSpec{"CONTROL SIGNAL = 0", {{c.control, V::Zero}}});
  EXPECT_EQ(settle_time(h.wave(c.output)), from_ns(40));
}

TEST(CaseAnalysis, CaseMappingOnlyAffectsStableValues) {
  // Sec. 2.7.1: the mapping replaces values that "would normally be
  // STABLE"; the changing intervals of an asserted signal keep changing.
  Netlist nl;
  VerifierOptions opts;
  opts.period = from_ns(100);
  opts.units = ClockUnits::from_ns_per_unit(1.0);
  opts.default_wire = {0, 0};
  Ref sig = nl.ref("CTL .S10-90");
  Ref out = nl.ref("OUT");
  nl.buf("B", 0, 0, sig, out);
  nl.finalize();
  CaseHarness h(nl, opts);
  h.run(CaseSpec{"CTL=1", {{sig.id, V::One}}});
  EXPECT_EQ(h.wave(sig.id).at(from_ns(50)), V::One);     // was STABLE
  EXPECT_EQ(h.wave(sig.id).at(from_ns(95)), V::Change);  // still changing
  EXPECT_EQ(h.wave(out.id).at(from_ns(50)), V::One);     // propagated
}

TEST(CaseAnalysis, IncrementalReevaluationIsCheap) {
  // Sec. 2.7/3.3.2: a case reevaluates only its affected cone.
  Fig26Circuit c = build_fig26();
  CaseHarness h(c.nl, c.opts);

  // A case on a signal nothing depends on, created after the baseline (the
  // snapshot must not read past the baseline's per-signal arrays): the
  // pin's own STABLE -> 1 is the only change, no primitive reevaluates.
  Ref unrelated = c.nl.ref("UNRELATED");
  c.nl.finalize();
  CaseRunStats noop = h.run(CaseSpec{"noop", {{unrelated.id, V::One}}});
  EXPECT_EQ(noop.evals, 0u);
  EXPECT_EQ(noop.events, 1u);
  EXPECT_EQ(h.snapshot().disturbed_signals(), 1u);

  // A case on CONTROL touches the two muxes (and their fanout) only.
  CaseRunStats control = h.run(CaseSpec{"CONTROL=1", {{c.control, V::One}}});
  EXPECT_LE(control.evals, 8u);  // far less than re-evaluating from scratch

  // The same pin through verify(): one disturbed signal, nothing else.
  Verifier v(c.nl, c.opts);
  VerifyResult r = v.verify({CaseSpec{"noop", {{unrelated.id, V::One}}}});
  ASSERT_EQ(r.cases.size(), 1u);
  EXPECT_EQ(r.cases[0].events, 1u);
  EXPECT_TRUE(r.cases[0].converged);
}

TEST(CaseAnalysis, VerifierRunsAllSpecifiedCases) {
  Fig26Circuit c = build_fig26();
  Verifier v(c.nl, c.opts);
  std::vector<CaseSpec> cases = {{"CONTROL SIGNAL = 0", {{c.control, V::Zero}}},
                                 {"CONTROL SIGNAL = 1", {{c.control, V::One}}}};
  VerifyResult r = v.verify(cases);
  ASSERT_EQ(r.cases.size(), 2u);
  EXPECT_EQ(r.cases[0].name, "CONTROL SIGNAL = 0");
  EXPECT_GT(r.cases[0].events, 0u);
}

}  // namespace
}  // namespace tv
