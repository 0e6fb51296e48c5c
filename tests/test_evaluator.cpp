// Tests for the event-driven evaluator (thesis sec. 2.9): initialization
// rules, directive-string propagation across gate levels (the EVAL STR PTR
// mechanism of Fig 2-7), event accounting, and wire-delay interplay.
#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include "case_harness.hpp"
#include "core/verifier.hpp"

namespace tv {
namespace {

using V = Value;

VerifierOptions opts() {
  VerifierOptions o;
  o.period = from_ns(50.0);
  o.units = ClockUnits::from_ns_per_unit(1.0);
  o.default_wire = WireDelay{0, 0};
  o.assertion_defaults = AssertionDefaults{0, 0, 0, 0};
  return o;
}

TEST(Evaluator, InitializationRules) {
  Netlist nl;
  Ref clock = nl.ref("CK .P10-20");
  Ref stable = nl.ref("S .S5-45");
  Ref floating = nl.ref("FLOATING");
  Ref driven = nl.ref("DRIVEN");
  nl.or_gate("G", 0, 0, {clock, stable, floating}, driven);
  nl.finalize();
  Evaluator ev(nl, opts());
  ev.initialize();
  // Clock assertions seed their waveform; stable assertions theirs;
  // undriven unasserted signals become always-STABLE; driven signals start
  // UNKNOWN until evaluation.
  EXPECT_EQ(ev.wave(clock.id).at(from_ns(15)), V::One);
  EXPECT_EQ(ev.wave(stable.id).at(from_ns(10)), V::Stable);
  EXPECT_EQ(ev.wave(stable.id).at(from_ns(47)), V::Change);
  EXPECT_EQ(ev.wave(floating.id).at(0), V::Stable);
  EXPECT_EQ(ev.wave(driven.id).at(0), V::Unknown);
  ev.propagate();
  EXPECT_NE(ev.wave(driven.id).at(from_ns(15)), V::Unknown);
}

TEST(Evaluator, MultiLevelDirectiveString) {
  // "HZZW"-style strings: each gate level consumes one letter and passes
  // the tail with its output (sec. 2.8). Three levels: H then Z then E.
  Netlist nl;
  Ref ck = nl.ref("CK .P10-20 &HZ");
  Ref en1 = nl.ref("EN1 .S0-8");
  Ref g1 = nl.ref("G1 OUT");
  nl.and_gate("L1", from_ns(2), from_ns(4), {ck, en1}, g1);   // consumes 'H'
  Ref g2 = nl.ref("G2 OUT");
  nl.buf("L2", from_ns(2), from_ns(4), g1, g2);               // consumes 'Z'
  Ref g3 = nl.ref("G3 OUT");
  nl.buf("L3", from_ns(2), from_ns(4), g2, g3);               // plain 'E'
  nl.finalize();
  Evaluator ev(nl, opts());
  ev.initialize();
  ev.propagate();
  // L1: 'H' -> delay zeroed, enable assumed: output = clock exactly.
  EXPECT_EQ(ev.wave(g1.id).at(from_ns(15)), V::One);
  EXPECT_EQ(ev.wave(g1.id).at(from_ns(9)), V::Zero);
  EXPECT_EQ(nl.signal(g1.id).eval_str, "Z");
  // L2: propagated 'Z' -> also zero-delay.
  EXPECT_EQ(ev.wave(g2.id).at(from_ns(15)), V::One);
  EXPECT_EQ(ev.wave(g2.id).at(from_ns(9)), V::Zero);
  EXPECT_TRUE(nl.signal(g2.id).eval_str.empty());
  // L3: no directive left: the 2-4 ns delay applies.
  EXPECT_EQ(ev.wave(g3.id).at(from_ns(11)), V::Zero);
  EXPECT_EQ(ev.wave(g3.id).at(from_ns(12)), V::One);
}

TEST(Evaluator, PinDirectiveBeatsPropagatedString) {
  // A "&" string written on a connection overrides whatever string arrives
  // along the signal.
  Netlist nl;
  Ref ck = nl.ref("CK .P10-20 &ZZ");
  Ref mid = nl.ref("MID");
  nl.buf("L1", from_ns(3), from_ns(3), ck, mid);  // consumes first 'Z'
  Ref out = nl.ref("OUT");
  // The pin's own "&E" suppresses the propagated second 'Z'.
  nl.buf("L2", from_ns(3), from_ns(3), nl.ref("MID &E"), out);
  nl.finalize();
  Evaluator ev(nl, opts());
  ev.initialize();
  ev.propagate();
  EXPECT_EQ(ev.wave(mid.id).at(from_ns(10)), V::One);  // zero-delay level
  EXPECT_EQ(ev.wave(out.id).at(from_ns(12)), V::Zero); // delayed level
  EXPECT_EQ(ev.wave(out.id).at(from_ns(13)), V::One);
}

TEST(Evaluator, EventsCountOutputChangesOnly) {
  Netlist nl;
  Ref a = nl.ref("A .S0-8");
  Ref b = nl.ref("B");
  Ref c = nl.ref("C");
  nl.buf("B1", from_ns(1), from_ns(1), a, b);
  nl.buf("B2", from_ns(1), from_ns(1), b, c);
  nl.finalize();
  Evaluator ev(nl, opts());
  ev.initialize();
  std::size_t events = ev.propagate();
  // Two primitives, each output changes exactly once from UNKNOWN; the
  // worklist dedup means B2 is evaluated only once (B1's change lands
  // before B2 is popped), so evals == events here.
  EXPECT_EQ(events, 2u);
  EXPECT_EQ(ev.evals_performed(), 2u);
}

TEST(Evaluator, WireDelayAppliesAtConsumer) {
  // The wire delay belongs to the consumer side: the signal's own waveform
  // stays undelayed; the driven gate sees it shifted.
  Netlist nl;
  Ref a = nl.ref("A .P10-20");
  Ref out = nl.ref("OUT");
  nl.buf("B", 0, 0, a, out);
  nl.set_wire_delay(a.id, from_ns(5), from_ns(5));
  nl.finalize();
  Evaluator ev(nl, opts());
  ev.initialize();
  ev.propagate();
  EXPECT_EQ(ev.wave(a.id).at(from_ns(10)), V::One);    // source: undelayed
  EXPECT_EQ(ev.wave(out.id).at(from_ns(10)), V::Zero); // consumer: +5 ns
  EXPECT_EQ(ev.wave(out.id).at(from_ns(15)), V::One);
}

TEST(Evaluator, CaseOnUndrivenSignalReseedsCone) {
  Netlist nl;
  Ref ctl = nl.ref("CTL");  // undriven, unasserted -> STABLE
  Ref a = nl.ref("A .P10-20");
  Ref out = nl.ref("OUT");
  nl.and_gate("G", 0, 0, {a, ctl}, out);
  nl.finalize();
  CaseHarness h(nl, opts());
  EXPECT_EQ(h.wave(out.id).at(from_ns(15)), V::Stable);  // 1 AND S
  h.run(CaseSpec{"CTL=1", {{ctl.id, V::One}}});
  EXPECT_EQ(h.wave(out.id).at(from_ns(15)), V::One);
  EXPECT_EQ(h.wave(out.id).at(from_ns(5)), V::Zero);
  h.run(CaseSpec{"CTL=0", {{ctl.id, V::Zero}}});
  EXPECT_TRUE(h.wave(out.id).is_constant());
  EXPECT_EQ(h.wave(out.id).at(0), V::Zero);
}

TEST(Evaluator, ConvergedFlagAndEventCap) {
  // Without clocked elements a combinational loop may oscillate; the guard
  // must trip and report rather than hang.
  Netlist nl;
  Ref a = nl.ref("A");
  Ref b = nl.ref("B");
  nl.not_gate("N1", from_ns(1), from_ns(2), a, b);
  nl.not_gate("N2", from_ns(1), from_ns(2), b, a);
  nl.finalize();
  VerifierOptions o = opts();
  o.max_evals_per_prim = 8;
  Evaluator ev(nl, o);
  ev.initialize();
  ev.propagate();  // must terminate
  SUCCEED();
}

}  // namespace
}  // namespace tv
