// Property suite for the incremental re-verification engine
// (core/incremental.*, docs/incremental.md):
//
//  * an empty delta splices the cached report back verbatim;
//  * a delta followed by its recorded inverse restores the original report
//    byte-for-byte;
//  * each edit family dirties exactly the fanout cone the ConeIndex
//    predicts (delay edits the output cone, wire/assertion edits the
//    signal cone, checker parameter edits only the checker itself);
//  * case-map edits re-evaluate only the edited case and splice the rest;
//  * an edit whose potential cone touches an unclocked feedback loop falls
//    back to a cold run -- and still renders identically;
//  * ConeIndex::is_current() goes stale when fanout edges change, and a
//    retargeted checker input is actually re-checked (the staleness
//    regression: a stale spliced verdict must never survive a retarget);
//  * re-run cases render identically on either case engine, for every job
//    count and lane width, and the verifier's cached sweep schedule follows
//    retargets (edge order and feedback-loop gate alike).
//
// Identity comparisons exclude the cumulative base_events/base_evals
// counters -- those are the speedup itself (see incremental.hpp).
#include "core/incremental.hpp"

#include <sstream>

#include <gtest/gtest.h>

#include "core/cone.hpp"
#include "core/verifier.hpp"

namespace tv {
namespace {

using V = Value;

// Everything observable except the evaluation-effort counters.
std::string render(const Netlist& nl, const VerifyResult& r) {
  std::ostringstream os;
  os << "converged " << (r.converged ? "yes" : "no") << " partial "
     << (r.partial ? "yes" : "no") << "\n";
  os << timing_summary(nl) << violations_report(r.violations);
  for (const auto& c : r.cases) {
    os << "case " << c.name << " events=" << c.events << " converged="
       << (c.converged ? "yes" : "no") << " degraded=" << (c.degraded ? "yes" : "no")
       << "\n" << violations_report(c.violations);
  }
  return os.str();
}

// The two-island cone fixture from test_cone.cpp, with real checker timing
// (period 50ns, zero default wire delay and skews) and two case analyses so
// splice accounting is observable:
//
//   A .S10-45 --[G1 buf]--> B --[G2 or]--> D --(CHK setup/hold vs CK .P20-30)
//                 C .S0-40 ----^
//   X --[G3 buf]--> Y                       E .S18.5-58 (undriven, violating)
struct IncrFixture {
  Netlist nl;
  VerifierOptions opts;
  Ref a, b, c, d, ck, x, y, e;
  PrimId g1, g2, g3, chk;
  std::vector<CaseSpec> cases;

  IncrFixture() {
    opts.period = from_ns(50.0);
    opts.units = ClockUnits::from_ns_per_unit(1.0);
    opts.default_wire = WireDelay{0, 0};
    opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};
    a = nl.ref("A .S10-45");
    b = nl.ref("B");
    c = nl.ref("C .S0-40");
    d = nl.ref("D");
    ck = nl.ref("CK .P20-30");
    x = nl.ref("X");
    y = nl.ref("Y");
    e = nl.ref("E .S18.5-58");
    g1 = nl.buf("G1", from_ns(1), from_ns(2), a, b);
    g2 = nl.or_gate("G2", from_ns(1), from_ns(2), {b, c}, d);
    g3 = nl.buf("G3", from_ns(1), from_ns(2), x, y);
    chk = nl.setup_hold_chk("CHK", from_ns(3), from_ns(2), d, ck);
    nl.finalize();
    cases.push_back(CaseSpec{"x0", {{x.id, V::Zero}}});
    cases.push_back(CaseSpec{"c1", {{c.id, V::One}}});
  }
};

// Two more cases upstream of the checker, so an edit on the A/C side
// re-runs three cases (a1, c1, c0) and splices only x0.
void add_upstream_cases(IncrFixture& f) {
  f.cases.push_back(CaseSpec{"a1", {{f.a.id, V::One}}});
  f.cases.push_back(CaseSpec{"c0", {{f.c.id, V::Zero}}});
}

// Builds a second pristine fixture, applies the deltas wholesale, and
// cold-verifies: the incremental render must match these bytes.
std::string cold_render(const std::vector<NetlistDelta>& deltas, bool upstream_cases = false) {
  IncrFixture f;
  if (upstream_cases) add_upstream_cases(f);
  for (const NetlistDelta& delta : deltas) apply_delta(f.nl, f.cases, delta);
  if (!f.nl.finalized()) f.nl.finalize();
  Verifier v(f.nl, f.opts);
  VerifyResult r = v.verify(f.cases);
  return render(f.nl, r);
}

std::string cold_render(const NetlistDelta& delta) { return cold_render(std::vector{delta}); }

TEST(Incremental, EmptyDeltaSplicesTheCachedReportVerbatim) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  VerifyResult base = v.verify(f.cases);
  ASSERT_TRUE(base.converged);
  const std::string before = render(f.nl, base);

  ReverifyStats st;
  VerifyResult again = v.reverify(NetlistDelta{}, &st);
  EXPECT_TRUE(st.incremental);
  EXPECT_TRUE(st.dirty_signals.empty());
  EXPECT_TRUE(st.dirty_prims.empty());
  EXPECT_EQ(render(f.nl, again), before);
  // Counters must not drift either: nothing was evaluated.
  EXPECT_EQ(again.base_events, base.base_events);
  EXPECT_EQ(again.base_evals, base.base_evals);
}

TEST(Incremental, DeltaPlusInverseRestoresTheOriginalBytes) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  VerifyResult base = v.verify(f.cases);
  const std::string before = render(f.nl, base);

  // A mixed delta: slow G1 down, override B's wire delay, and retarget
  // G2's side input from C to the other island's Y (structural).
  NetlistDelta delta;
  delta.prims.push_back({f.g1, std::nullopt, std::make_pair(from_ns(2), from_ns(4))});
  delta.wires.push_back({f.b.id, WireDelay{0, from_ns(1)}});
  delta.pins.push_back({f.g2, 1, f.y.id, false, ""});

  ReverifyStats st;
  VerifyResult edited = v.reverify(delta, &st);
  EXPECT_EQ(render(f.nl, edited), cold_render(delta))
      << "incremental reverify diverged from a cold run of the edited design";

  ReverifyStats undo;
  VerifyResult restored = v.reverify(st.inverse, &undo);
  EXPECT_EQ(render(f.nl, restored), before)
      << "reverify(inverse) must restore the pre-delta report bytes";
}

TEST(Incremental, DelayEditDirtiesExactlyTheOutputFanoutCone) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  v.verify(f.cases);

  NetlistDelta delta;
  delta.prims.push_back({f.g1, std::nullopt, std::make_pair(from_ns(1), from_ns(3))});
  ReverifyStats st;
  v.reverify(delta, &st);
  ASSERT_TRUE(st.incremental) << st.fallback_reason;
  // Seeded at G1's output B: the cone is B's transitive fanout, not A.
  EXPECT_EQ(st.dirty_signals, (std::vector<SignalId>{f.b.id, f.d.id}));
  EXPECT_EQ(st.dirty_prims, (std::vector<PrimId>{f.g1, f.g2, f.chk}));
}

TEST(Incremental, CheckerParameterEditDirtiesOnlyTheChecker) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  v.verify(f.cases);

  NetlistDelta delta;
  NetlistDelta::PrimEdit e;
  e.prim = f.chk;
  e.setup_hold = std::make_pair(from_ns(5), from_ns(2));
  delta.prims.push_back(e);
  ReverifyStats st;
  VerifyResult r = v.reverify(delta, &st);
  ASSERT_TRUE(st.incremental) << st.fallback_reason;
  // Checkers move no waveform: no signal is dirty, only the checker re-runs.
  EXPECT_TRUE(st.dirty_signals.empty());
  EXPECT_EQ(st.dirty_prims, (std::vector<PrimId>{f.chk}));
  EXPECT_EQ(st.touched_signals, 0u);
  EXPECT_EQ(render(f.nl, r), cold_render(delta));
}

TEST(Incremental, WireEditDirtiesTheSignalCone) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  v.verify(f.cases);

  NetlistDelta delta;
  delta.wires.push_back({f.b.id, WireDelay{from_ns(1), from_ns(2)}});
  ReverifyStats st;
  VerifyResult r = v.reverify(delta, &st);
  ASSERT_TRUE(st.incremental) << st.fallback_reason;
  EXPECT_EQ(st.dirty_signals, (std::vector<SignalId>{f.b.id, f.d.id}));
  EXPECT_EQ(st.dirty_prims, (std::vector<PrimId>{f.g1, f.g2, f.chk}));
  EXPECT_EQ(render(f.nl, r), cold_render(delta));
}

TEST(Incremental, AssertionEditDirtiesTheSignalConeAndRenames) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  v.verify(f.cases);

  Assertion tighter;
  tighter.kind = Assertion::Kind::Stable;
  tighter.ranges.push_back({12.0, 40.0, std::nullopt});
  NetlistDelta delta;
  delta.assertions.push_back(
      {f.a.id, tighter, "A", "A " + assertion_to_text(tighter)});
  ReverifyStats st;
  VerifyResult r = v.reverify(delta, &st);
  ASSERT_TRUE(st.incremental) << st.fallback_reason;
  EXPECT_EQ(st.dirty_signals, (std::vector<SignalId>{f.a.id, f.b.id, f.d.id}));
  EXPECT_EQ(st.dirty_prims, (std::vector<PrimId>{f.g1, f.g2, f.chk}));
  EXPECT_EQ(f.nl.signal(f.a.id).full_name, "A " + assertion_to_text(tighter));
  EXPECT_EQ(render(f.nl, r), cold_render(delta));
}

TEST(Incremental, CaseMapEditReEvaluatesOnlyTheEditedCase) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  v.verify(f.cases);

  NetlistDelta delta;
  delta.cases.push_back(
      {"c1", CaseSpec{"c1", {{f.c.id, V::Zero}}}, std::nullopt});
  ReverifyStats st;
  VerifyResult r = v.reverify(delta, &st);
  ASSERT_TRUE(st.incremental) << st.fallback_reason;
  // No netlist edit: nothing is dirty, the base report splices whole.
  EXPECT_TRUE(st.dirty_signals.empty());
  EXPECT_TRUE(st.dirty_prims.empty());
  EXPECT_EQ(st.cases_reevaluated, 1u);
  EXPECT_EQ(st.cases_spliced, 1u);
  EXPECT_EQ(render(f.nl, r), cold_render(delta));

  // Insert + remove round-trips through the recorded inverse.
  NetlistDelta add;
  add.cases.push_back({"y1", CaseSpec{"y1", {{f.y.id, V::One}}}, std::size_t{0}});
  ReverifyStats add_st;
  VerifyResult with = v.reverify(add, &add_st);
  ASSERT_EQ(with.cases.size(), 3u);
  EXPECT_EQ(with.cases[0].name, "y1");
  VerifyResult without = v.reverify(add_st.inverse);
  ASSERT_EQ(without.cases.size(), 2u);
  EXPECT_EQ(render(f.nl, without), render(f.nl, r));
}

TEST(Incremental, SccTouchingEditFallsBackToColdRun) {
  // A two-gate unclocked feedback loop: OR(Q2, A) -> Q1 -> buf -> Q2.
  Netlist nl;
  VerifierOptions opts;
  opts.period = from_ns(50.0);
  opts.units = ClockUnits::from_ns_per_unit(1.0);
  opts.default_wire = WireDelay{0, 0};
  opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};
  Ref a = nl.ref("A .S10-45");
  Ref q1 = nl.ref("Q1");
  Ref q2 = nl.ref("Q2");
  PrimId l1 = nl.or_gate("L1", from_ns(1), from_ns(2), {a, q2}, q1);
  nl.buf("L2", from_ns(1), from_ns(2), q1, q2);
  nl.finalize();

  Verifier v(nl, opts);
  VerifyResult base = v.verify({});
  ASSERT_TRUE(base.converged) << "fixture assumption: the loop reaches a fixpoint";

  NetlistDelta delta;
  delta.prims.push_back({l1, std::nullopt, std::make_pair(from_ns(1), from_ns(3))});
  ReverifyStats st;
  VerifyResult r = v.reverify(delta, &st);
  EXPECT_FALSE(st.incremental);
  EXPECT_EQ(st.fallback_reason, "dirty cone touches an unclocked feedback loop");

  // The silent fallback must still produce the cold bytes.
  Netlist nl2;
  Ref a2 = nl2.ref("A .S10-45");
  Ref q1b = nl2.ref("Q1");
  Ref q2b = nl2.ref("Q2");
  nl2.or_gate("L1", from_ns(1), from_ns(3), {a2, q2b}, q1b);
  nl2.buf("L2", from_ns(1), from_ns(2), q1b, q2b);
  nl2.finalize();
  Verifier v2(nl2, opts);
  VerifyResult cold = v2.verify({});
  EXPECT_EQ(render(nl, r), render(nl2, cold));
}

// Satellite regression: the ConeIndex must know it is stale once fanout
// edges change (a retarget re-finalizes and bumps structure_version), and a
// freshly built index must route the new edge.
TEST(Incremental, ConeIndexGoesStaleWhenFanoutEdgesChange) {
  IncrFixture f;
  ConeIndex idx(f.nl);
  EXPECT_TRUE(idx.is_current());
  auto island = idx.cone_of({f.x.id});
  EXPECT_FALSE(island->contains_prim(f.g2));

  f.nl.retarget_input(f.g2, 1, f.y.id, false, "");
  f.nl.finalize();
  EXPECT_FALSE(idx.is_current())
      << "a retarget must invalidate previously built cone indexes";

  ConeIndex fresh(f.nl);
  auto routed = fresh.cone_of({f.x.id});
  EXPECT_TRUE(routed->contains_prim(f.g2));
  EXPECT_TRUE(routed->contains_signal(f.d.id));
  EXPECT_TRUE(routed->contains_prim(f.chk));
}

// Satellite regression, verifier level: retargeting a checker's data input
// must re-run that checker against the new signal. The baseline is clean;
// E .S18.5-58 misses the 3ns setup window before CK's rise at 20 by 1.5ns.
TEST(Incremental, RetargetedCheckerInputIsRechecked) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  VerifyResult base = v.verify(f.cases);
  ASSERT_TRUE(base.violations.empty())
      << "fixture assumption: the baseline design is clean";

  NetlistDelta delta;
  delta.pins.push_back({f.chk, 0, f.e.id, false, ""});
  ReverifyStats st;
  VerifyResult r = v.reverify(delta, &st);
  ASSERT_EQ(r.violations.size(), 1u)
      << "the retargeted checker input was not re-checked";
  EXPECT_EQ(r.violations[0].type, Violation::Type::Setup);
  EXPECT_EQ(r.violations[0].missed_by, from_ns(1.5));
  EXPECT_EQ(render(f.nl, r), cold_render(delta));
}

// reverify() re-runs its cases through verify()'s case phase: the batch
// sweep or the per-case worklist, any lane width, any job count -- all must
// give the cold report. A G1 delay that moves D across CK's setup/hold
// window makes the cases disagree (c1 holds D at 1 and is clean, the
// others keep the setup and hold violations); a retarget of G2's side
// input re-runs the cases whose cone gained or lost G2.
TEST(Incremental, ReRunCasesRenderIdenticallyOnEveryCaseEngine) {
  const IncrFixture ids;
  NetlistDelta slow;
  slow.prims.push_back({ids.g1, std::nullopt, std::make_pair(from_ns(20), from_ns(25))});
  NetlistDelta retarget;
  retarget.pins.push_back({ids.g2, 1, ids.y.id, false, ""});

  for (const NetlistDelta& delta : {slow, retarget}) {
    const std::string cold = cold_render({delta}, true);
    for (bool batch : {true, false}) {
      for (unsigned jobs : {1u, 4u}) {
        for (unsigned lanes : {64u, 1u}) {
          IncrFixture f;
          add_upstream_cases(f);
          f.opts.batch_eval = batch;
          f.opts.jobs = jobs;
          f.opts.batch_lanes = lanes;
          Verifier v(f.nl, f.opts);
          v.verify(f.cases);
          ReverifyStats st;
          VerifyResult r = v.reverify(delta, &st);
          const std::string config = std::string(delta.structural() ? "retarget" : "delay") +
                                     " batch=" + (batch ? "on" : "off") +
                                     " jobs=" + std::to_string(jobs) +
                                     " lanes=" + std::to_string(lanes);
          ASSERT_TRUE(st.incremental) << config << ": " << st.fallback_reason;
          EXPECT_GE(st.cases_reevaluated, 2u) << config;
          EXPECT_EQ(render(f.nl, r), cold) << config;
        }
      }
    }
  }
}

// The sweep's schedule is cached per structure version. A retarget of G3's
// input onto D hangs X's island below G2, so the sweep must now evaluate
// G3 after G2 -- for the retarget's own re-run cases and for a later G1
// delay edit upstream of both; and a retarget that closes a loop through
// G3 must show up in the schedule's feedback-loop gate at once.
TEST(Incremental, CachedScheduleFollowsRetargets) {
  IncrFixture f;
  Verifier v(f.nl, f.opts);
  v.verify(f.cases);

  NetlistDelta retarget;
  retarget.pins.push_back({f.g3, 0, f.d.id, false, ""});
  ReverifyStats st;
  VerifyResult r = v.reverify(retarget, &st);
  ASSERT_TRUE(st.incremental) << st.fallback_reason;
  EXPECT_GE(st.cases_reevaluated, 1u);
  EXPECT_EQ(render(f.nl, r), cold_render({retarget}));

  NetlistDelta slow;
  slow.prims.push_back({f.g1, std::nullopt, std::make_pair(from_ns(20), from_ns(25))});
  r = v.reverify(slow, &st);
  ASSERT_TRUE(st.incremental) << st.fallback_reason;
  EXPECT_GE(st.cases_reevaluated, 1u);
  EXPECT_EQ(render(f.nl, r), cold_render({retarget, slow}));

  NetlistDelta loop;
  loop.pins.push_back({f.g1, 0, f.y.id, false, ""});
  v.reverify(loop, &st);
  EXPECT_FALSE(st.incremental);
  EXPECT_EQ(st.fallback_reason, "dirty cone touches an unclocked feedback loop");
}

}  // namespace
}  // namespace tv
