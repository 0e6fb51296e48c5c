// Batch case evaluation (core/batch_eval.hpp): lane-skip correctness and
// engine equivalence. The lockstep sweep's central claim is twofold: (1) a
// lane whose inputs all still hold the base fixpoint at a primitive is
// skipped and provably keeps the base ref -- per-primitive-per-lane cone
// scoping; (2) the reports it produces are byte-identical to the per-case
// reference path, including SET/RESET and gated-clock structures where
// case pins reach sequential primitives, and for every lane-block size and
// worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/pipeline_diff.hpp"
#include "core/batch_eval.hpp"
#include "core/cone.hpp"
#include "core/snapshot.hpp"
#include "core/verifier.hpp"
#include "diag/diagnostic.hpp"

namespace tv {
namespace {

using V = Value;

VerifierOptions test_options() {
  VerifierOptions opts;
  opts.period = from_ns(100.0);
  opts.units = ClockUnits::from_ns_per_unit(1.0);
  opts.default_wire = WireDelay{0, 0};
  opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};
  return opts;
}

/// Canonical rendering of a verification result for byte-compares.
std::string render_result(const Netlist& nl, const VerifyResult& r) {
  std::ostringstream os;
  os << "base " << r.base_events << " conv " << r.converged << " partial "
     << r.partial << "\n";
  os << timing_summary(nl);
  os << violations_report(r.violations);
  for (const auto& c : r.cases) {
    os << "case " << c.name << " events=" << c.events << " conv=" << c.converged
       << " degr=" << c.degraded << "\n"
       << violations_report(c.violations);
  }
  for (const auto& d : r.degradations) os << d.code << " " << d.message << "\n";
  return os.str();
}

/// Canonical rendering of a full verification.
std::string render(Netlist& nl, VerifierOptions opts, const std::vector<CaseSpec>& cases) {
  Verifier v(nl, opts);
  return render_result(nl, v.verify(cases));
}

// Two independent AND chains, each ending in a setup/hold check. A case on
// one chain's control must skip every primitive of the other chain.
struct TwoConeRig {
  Netlist nl;
  VerifierOptions opts = test_options();
  SignalId ctl_a = kNoSignal, out_a = kNoSignal;
  SignalId ctl_b = kNoSignal, out_b = kNoSignal;
};

TwoConeRig build_two_cones() {
  TwoConeRig r;
  for (char side : {'A', 'B'}) {
    std::string s(1, side);
    Ref ctl = r.nl.ref("CTL" + s);
    Ref in = r.nl.ref("IN" + s + " .S5-95");
    Ref mid = r.nl.ref("MID" + s);
    Ref out = r.nl.ref("OUT" + s);
    r.nl.and_gate("G1" + s, from_ns(1), from_ns(2), {ctl, in}, mid);
    r.nl.and_gate("G2" + s, from_ns(1), from_ns(2), {mid, in}, out);
    r.nl.setup_hold_chk("CHK" + s, from_ns(30), from_ns(2), out,
                        r.nl.ref("CK" + s + " .P40-50"));
    if (side == 'A') {
      r.ctl_a = ctl.id;
      r.out_a = out.id;
    } else {
      r.ctl_b = ctl.id;
      r.out_b = out.id;
    }
  }
  r.nl.finalize();
  return r;
}

// Runs one block directly through the batch engine and hands back the
// per-lane stats plus the materialized snapshots.
struct BlockRun {
  Evaluator ev;
  ConeIndex cone_index;
  std::vector<std::shared_ptr<const Cone>> cones;
  std::vector<EvalSnapshot> snaps;
  BatchBlockResult result;

  BlockRun(Netlist& nl, const VerifierOptions& opts, const std::vector<CaseSpec>& cases)
      : ev(nl, opts), cone_index(nl) {
    ev.initialize();
    ev.propagate();
    EXPECT_TRUE(ev.converged());
    for (const CaseSpec& c : cases) {
      std::vector<SignalId> pins;
      for (const auto& [sig, val] : c.pins) {
        (void)val;
        pins.push_back(sig);
      }
      cones.push_back(cone_index.cone_of(std::move(pins)));
    }
    snaps.reserve(cases.size());
    for (std::size_t l = 0; l < cases.size(); ++l) {
      snaps.emplace_back(nl, cones[l], ev.intern_context().get(), &ev.wave_refs());
    }
    BatchSchedule sched = build_batch_schedule(nl);
    result = run_case_block(nl, ev.options(), sched, *ev.intern_context(),
                            ev.wave_refs(), cases, 0, cases.size(), cones, snaps);
  }
};

TEST(BatchEval, LanesOutsideTheirConeAreSkippedAndKeepBaseRefs) {
  TwoConeRig r = build_two_cones();
  std::vector<CaseSpec> cases = {{"A=1", {{r.ctl_a, V::One}}},
                                 {"B=1", {{r.ctl_b, V::One}}},
                                 {"A=0", {{r.ctl_a, V::Zero}}}};
  BlockRun run(r.nl, r.opts, cases);
  ASSERT_TRUE(run.result.completed);
  ASSERT_EQ(run.result.lanes.size(), 3u);

  // The union sweep visits both chains; each lane must be skipped at every
  // primitive of the chain it doesn't pin (2 gates per chain).
  EXPECT_GE(run.result.lanes[0].lane_skips, 2u);  // lane A=1 skips chain B
  EXPECT_GE(run.result.lanes[1].lane_skips, 2u);  // lane B=1 skips chain A
  EXPECT_GT(run.result.lanes[0].evals, 0u);
  EXPECT_GT(run.result.lanes[1].evals, 0u);

  // Skipped lanes reuse the base refs outright: lane B=1 never wrote chain
  // A's signals, so its snapshot resolves them to the baseline's interned
  // refs (and vice versa).
  EXPECT_EQ(run.snaps[1].wave_ref(r.out_a), run.ev.wave_ref(r.out_a));
  EXPECT_EQ(run.snaps[0].wave_ref(r.out_b), run.ev.wave_ref(r.out_b));
  // Pinning CTLA=0 forces the AND chain low, so lane A=0's output genuinely
  // differs from the baseline fixpoint -- while its chain-B view does not.
  EXPECT_NE(run.snaps[2].wave_ref(r.out_a), run.ev.wave_ref(r.out_a));
  EXPECT_EQ(run.snaps[2].wave_ref(r.out_b), run.ev.wave_ref(r.out_b));
}

TEST(BatchEval, SubsetOfLanesDirtyAtASharedPrimitive) {
  // Three lanes over one shared chain: two pin its control (both values),
  // one pins an unrelated fanout-free signal. At every chain primitive the
  // unrelated lane's inputs equal base, so it is skipped there while its
  // siblings evaluate.
  TwoConeRig r = build_two_cones();
  Ref unrelated = r.nl.ref("UNRELATED");
  std::vector<CaseSpec> cases = {{"A=0", {{r.ctl_a, V::Zero}}},
                                 {"A=1", {{r.ctl_a, V::One}}},
                                 {"U=1", {{unrelated.id, V::One}}}};
  BlockRun run(r.nl, r.opts, cases);
  ASSERT_TRUE(run.result.completed);
  // UNRELATED drives nothing: the lane evaluates no primitive at all and
  // is skipped wherever its siblings made the sweep visit chain A.
  EXPECT_EQ(run.result.lanes[2].evals, 0u);
  EXPECT_GE(run.result.lanes[2].lane_skips, 2u);
  // Only the pinned signal itself is disturbed; every derived signal in the
  // lane's view is still the baseline ref.
  EXPECT_EQ(run.snaps[2].disturbed_signals(), 1u);
  EXPECT_EQ(run.snaps[2].wave_ref(r.out_a), run.ev.wave_ref(r.out_a));
  // Pinning the control low disturbs the chain beyond the pin itself.
  EXPECT_GT(run.snaps[0].disturbed_signals(), 1u);
}

// SET/RESET register rig: cases pin the asynchronous SET and RESET controls
// of a RegSR whose output feeds a setup/hold check.
struct RegSrRig {
  Netlist nl;
  VerifierOptions opts = test_options();
  SignalId set = kNoSignal, reset = kNoSignal;
  std::vector<CaseSpec> cases;
};

RegSrRig build_reg_sr() {
  RegSrRig r;
  Ref d = r.nl.ref("D .S10-60");
  Ref ck = r.nl.ref("CK .P40-50");
  Ref set = r.nl.ref("SET");
  Ref reset = r.nl.ref("RESET");
  Ref q = r.nl.ref("Q");
  r.nl.reg_sr("REG", from_ns(2), from_ns(5), d, ck, set, reset, q);
  Ref q2 = r.nl.ref("Q2");
  r.nl.buf("BUF", from_ns(1), from_ns(2), q, q2);
  r.nl.setup_hold_chk("CHK", from_ns(20), from_ns(3), q2, ck);
  r.nl.finalize();
  r.set = set.id;
  r.reset = reset.id;
  for (V sv : {V::Zero, V::One}) {
    for (V rv : {V::Zero, V::One}) {
      r.cases.push_back({std::string("SET=") + (sv == V::One ? "1" : "0") +
                             ",RESET=" + (rv == V::One ? "1" : "0"),
                         {{r.set, sv}, {r.reset, rv}}});
    }
  }
  return r;
}

TEST(BatchEval, RegSrSetResetLanesMatchReferencePath) {
  RegSrRig a = build_reg_sr();
  VerifierOptions batch = a.opts;
  batch.batch_eval = true;
  std::string with_batch = render(a.nl, batch, a.cases);

  RegSrRig b = build_reg_sr();
  VerifierOptions per_case = b.opts;
  per_case.batch_eval = false;
  std::string without = render(b.nl, per_case, b.cases);
  EXPECT_EQ(with_batch, without);
}

TEST(BatchEval, GatedClockLanesMatchReferencePath) {
  // A register clocked through an AND gate: pinning the enable changes the
  // clock waveform itself, so the case reaches a sequential primitive and
  // its setup/hold checker through a recomputed clock.
  auto build = [](VerifierOptions& opts, std::vector<CaseSpec>& cases) {
    Netlist nl;
    Ref ck = nl.ref("CK .P40-50");
    Ref en = nl.ref("EN");
    Ref gck = nl.ref("GCK");
    nl.and_gate("GATE", from_ns(1), from_ns(2), {ck, en}, gck);
    Ref d = nl.ref("D .S10-60");
    Ref q = nl.ref("Q");
    nl.reg("REG", from_ns(2), from_ns(5), d, gck, q);
    nl.setup_hold_chk("CHK", from_ns(20), from_ns(3), d, gck);
    nl.finalize();
    cases = {{"EN=0", {{en.id, V::Zero}}}, {"EN=1", {{en.id, V::One}}}};
    (void)opts;
    return nl;
  };
  VerifierOptions opts = test_options();
  std::vector<CaseSpec> cases;
  Netlist nl_on = build(opts, cases);
  VerifierOptions batch = opts;
  batch.batch_eval = true;
  std::string with_batch = render(nl_on, batch, cases);
  Netlist nl_off = build(opts, cases);
  VerifierOptions per_case = opts;
  per_case.batch_eval = false;
  std::string without = render(nl_off, per_case, cases);
  EXPECT_EQ(with_batch, without);
}

TEST(BatchEval, PinnedDrivenSignalMatchesReferencePathAndMemoAudits) {
  // A case may pin a *driven* signal: the sweep evaluates its driver, then
  // maps the STABLE regions of the result to the pinned value. X = AND(C, D)
  // keeps D's STABLE window once C is pinned to 1, and the three lanes feed
  // the AND identical inputs while mapping X to 0, not at all, and to 1. The
  // memo must hold the unmapped result, or the later lanes read another
  // lane's mapping; Z = AND(X, E) with E changing inside X's STABLE window
  // makes the setup check on Z see the difference.
  auto build = [](std::vector<CaseSpec>& cases) {
    Netlist nl;
    Ref c = nl.ref("C");
    Ref d = nl.ref("D .S10-60");
    Ref x = nl.ref("X");
    nl.and_gate("GX", from_ns(1), from_ns(2), {c, d}, x);
    Ref e = nl.ref("E .S5-30");
    Ref z = nl.ref("Z");
    nl.and_gate("GZ", from_ns(1), from_ns(2), {x, e}, z);
    nl.setup_hold_chk("CHK", from_ns(5), from_ns(1), z, nl.ref("CK .P40-50"));
    nl.finalize();
    cases = {{"X=0", {{c.id, V::One}, {x.id, V::Zero}}},
             {"X free", {{c.id, V::One}}},
             {"X=1", {{c.id, V::One}, {x.id, V::One}}}};
    return nl;
  };
  std::vector<CaseSpec> cases;
  Netlist nl_on = build(cases);
  VerifierOptions batch = test_options();
  batch.batch_eval = true;
  Verifier v(nl_on, batch);
  VerifyResult r = v.verify(cases);
  std::optional<check::Failure> audit = check::audit_memo(v, r);
  EXPECT_FALSE(audit.has_value()) << audit->kind << ": " << audit->detail;

  Netlist nl_off = build(cases);
  VerifierOptions per_case = test_options();
  per_case.batch_eval = false;
  EXPECT_EQ(render_result(nl_on, r), render(nl_off, per_case, cases));
}

TEST(BatchEval, ReportsInvariantUnderLaneBlockSizeAndJobs) {
  // The --batch-lanes knob and the worker count are pure partitioning
  // choices: every (lanes, jobs) combination must render identically.
  RegSrRig ref_rig = build_reg_sr();
  std::string reference = render(ref_rig.nl, ref_rig.opts, ref_rig.cases);
  for (unsigned lanes : {1u, 3u, 64u}) {
    for (unsigned jobs : {1u, 4u}) {
      RegSrRig r = build_reg_sr();
      VerifierOptions opts = r.opts;
      opts.batch_lanes = lanes;
      opts.jobs = jobs;
      EXPECT_EQ(render(r.nl, opts, r.cases), reference)
          << "lanes=" << lanes << " jobs=" << jobs;
    }
  }
}

// A case whose cone alone trips the segment cap. X = MUX2(B, A, NA) selects
// between two complementary pulse trains; with B unasserted (always STABLE)
// X is STABLE all cycle, so the base fixpoint stays under the cap. Pinning
// B to 1 makes X the pulse train NA, more segments than the cap allows.
// The other case pins an unrelated control and stays under the cap too.
struct SegmentCapRig {
  Netlist nl;
  VerifierOptions opts = test_options();
  SignalId x = kNoSignal, y = kNoSignal;
  std::vector<CaseSpec> cases;
};

SegmentCapRig build_segment_cap() {
  SegmentCapRig r;
  r.opts.max_segments_per_signal = 4;
  Ref a = r.nl.ref("A .C5-10,25-30,45-50,65-70");
  Ref na = r.nl.ref("NA .C10-25,30-45,50-65,70-105");
  Ref b = r.nl.ref("B");
  Ref x = r.nl.ref("X");
  Ref y = r.nl.ref("Y");
  r.nl.mux2("MX", 0, 0, b, a, na, x);
  r.nl.buf("BY", from_ns(1), from_ns(2), x, y);
  Ref ck = r.nl.ref("CK .P80-90");
  r.nl.setup_hold_chk("CHKY", from_ns(5), from_ns(1), y, ck);
  Ref c = r.nl.ref("C");
  Ref z = r.nl.ref("Z");
  r.nl.and_gate("GZ", from_ns(1), from_ns(2), {c, r.nl.ref("D .S10-60")}, z);
  r.nl.setup_hold_chk("CHKZ", from_ns(5), from_ns(1), z, ck);
  r.nl.finalize();
  r.x = x.id;
  r.y = y.id;
  r.cases = {{"B=1", {{b.id, V::One}}}, {"C=0", {{c.id, V::Zero}}}};
  return r;
}

TEST(BatchEval, SegmentCapInOneCaseConeMatchesReferencePath) {
  // Reports: the sweep at one lane per block and at 64, and the per-case
  // reference on several workers, render exactly what the per-case
  // reference renders on one, TV-W201 record included.
  SegmentCapRig ref_rig = build_segment_cap();
  VerifierOptions per_case = ref_rig.opts;
  per_case.batch_eval = false;
  const std::string reference = render(ref_rig.nl, per_case, ref_rig.cases);
  EXPECT_NE(reference.find("TV-W201 signal \"X\" exceeded 4 waveform segments; degraded to "
                           "UNKNOWN"),
            std::string::npos)
      << reference;
  for (unsigned jobs : {1u, 4u}) {
    for (unsigned lanes : {0u, 1u, 64u}) {  // 0: the per-case reference
      SegmentCapRig r = build_segment_cap();
      VerifierOptions opts = r.opts;
      opts.batch_eval = lanes != 0;
      opts.batch_lanes = lanes != 0 ? lanes : opts.batch_lanes;
      opts.jobs = jobs;
      EXPECT_EQ(render(r.nl, opts, r.cases), reference) << "lanes=" << lanes << " jobs=" << jobs;
    }
  }

  // Engines: on a clean base, each sweep lane (both lanes in one block, and
  // case B=1 alone in a one-lane block) records what the reference run of
  // its case records and leaves the same waveforms; X and Y are all-UNKNOWN
  // under B=1 only.
  SegmentCapRig r = build_segment_cap();
  BlockRun both(r.nl, r.opts, r.cases);
  ASSERT_TRUE(both.result.completed);
  EXPECT_FALSE(both.ev.degraded());
  SegmentCapRig r1 = build_segment_cap();
  BlockRun alone(r1.nl, r1.opts, {r1.cases[0]});
  ASSERT_TRUE(alone.result.completed);
  const Waveform unknown(r.opts.period, V::Unknown);
  for (std::size_t i = 0; i < r.cases.size(); ++i) {
    EvalSnapshot snap(r.nl, both.cones[i], both.ev.intern_context().get(), &both.ev.wave_refs());
    CaseRunStats ref = run_case_on_snapshot(snap, r.cases[i], r.opts);
    ASSERT_EQ(ref.degradations.size(), i == 0 ? 1u : 0u) << r.cases[i].name;
    std::vector<const BatchLaneStats*> lanes = {&both.result.lanes[i]};
    if (i == 0) lanes.push_back(&alone.result.lanes[0]);
    for (const BatchLaneStats* lane : lanes) {
      EXPECT_EQ(lane->degraded, ref.degraded) << r.cases[i].name;
      ASSERT_EQ(lane->degradations.size(), ref.degradations.size()) << r.cases[i].name;
      for (std::size_t k = 0; k < ref.degradations.size(); ++k) {
        EXPECT_STREQ(lane->degradations[k].code, ref.degradations[k].code);
        EXPECT_EQ(lane->degradations[k].message, ref.degradations[k].message);
      }
    }
    for (SignalId sig : both.cones[i]->signals) {
      EXPECT_TRUE(both.snaps[i].wave(sig).equivalent(snap.wave(sig)))
          << r.cases[i].name << " " << r.nl.signal(sig).full_name;
      if (i == 0) {
        EXPECT_TRUE(alone.snaps[0].wave(sig).equivalent(snap.wave(sig)));
      }
    }
    const bool capped = i == 0;
    EXPECT_EQ(snap.wave(r.x).equivalent(unknown), capped) << r.cases[i].name;
    EXPECT_EQ(snap.wave(r.y).equivalent(unknown), capped) << r.cases[i].name;
  }
}

/// Renders `cases` through the per-case reference (one job) and through the
/// sweep at lanes 1/64 x jobs 1/4 on fresh copies from `build`; every sweep
/// rendering must equal the reference.
template <class Build>
void expect_sweep_matches_reference(Build build, VerifierOptions opts) {
  std::vector<CaseSpec> cases;
  Netlist ref_nl = build(cases);
  VerifierOptions per_case = opts;
  per_case.batch_eval = false;
  const std::string reference = render(ref_nl, per_case, cases);
  for (unsigned lanes : {1u, 64u}) {
    for (unsigned jobs : {1u, 4u}) {
      std::vector<CaseSpec> c;
      Netlist nl = build(c);
      VerifierOptions o = opts;
      o.batch_lanes = lanes;
      o.jobs = jobs;
      EXPECT_EQ(render(nl, o, c), reference) << "lanes=" << lanes << " jobs=" << jobs;
    }
  }
}

TEST(BatchEval, BaselineHazardFindingIsRecomputedWhereALaneClearsIt) {
  // CK1 = AND(CK &ZH, EN) carries the propagated directive string "H" to
  // G2, whose hazard check wants CTL = AND(SEL, D) steady while CK1 may be
  // high. The baseline reports that hazard. A lane that gates the clock off
  // (EN=0) or steadies the control (SEL=0) clears it, although G2's clock
  // input still carries the "H" string -- directive strings follow the
  // static pin directives, not values -- so a lane whose inputs diverged
  // must recompute the finding instead of copying the baseline's. SEL=1
  // recomputes an identical finding; the UNRELATED lane copies it.
  auto build = [](std::vector<CaseSpec>& cases) {
    Netlist nl;
    Ref en = nl.ref("EN");
    Ref ck1 = nl.ref("CK1");
    nl.and_gate("G1", from_ns(1), from_ns(2), {nl.ref("CK .P20-30 &ZH"), en}, ck1);
    Ref sel = nl.ref("SEL");
    Ref ctl = nl.ref("CTL");
    nl.and_gate("GC", from_ns(1), from_ns(2), {sel, nl.ref("D .S35-95")}, ctl);
    nl.and_gate("G2", from_ns(1), from_ns(2), {ck1, ctl}, nl.ref("OUT"));
    Ref unrelated = nl.ref("UNRELATED");
    nl.finalize();
    cases = {{"EN=0", {{en.id, V::Zero}}},
             {"SEL=0", {{sel.id, V::Zero}}},
             {"SEL=1", {{sel.id, V::One}}},
             {"U=1", {{unrelated.id, V::One}}}};
    return nl;
  };
  std::vector<CaseSpec> cases;
  Netlist nl = build(cases);
  Verifier v(nl, test_options());
  VerifyResult r = v.verify(cases);
  EXPECT_EQ(nl.signal(nl.find("CK1")).eval_str, "H");
  auto hazards = [](const std::vector<Violation>& vs) {
    std::size_t n = 0;
    for (const Violation& x : vs) n += x.type == Violation::Type::Hazard;
    return n;
  };
  ASSERT_EQ(hazards(r.violations), 1u) << violations_report(r.violations);
  ASSERT_EQ(r.cases.size(), 4u);
  EXPECT_EQ(hazards(r.cases[0].violations), 0u) << "EN=0 gates the clock off";
  EXPECT_EQ(hazards(r.cases[1].violations), 0u) << "SEL=0 steadies the control";
  EXPECT_EQ(hazards(r.cases[2].violations), 1u);
  EXPECT_EQ(hazards(r.cases[3].violations), 1u);
  expect_sweep_matches_reference(build, test_options());
}

TEST(BatchEval, DivergedCellReturningToBaseInACycleMatchesReference) {
  // G1 -> G2 -> G3 -> G1 is one cyclic component. Under X=0, A2 moves off
  // the baseline while the loop settles and ends back on it: the per-case
  // reference writes A2 yet does not count it as disturbed, and the sweep
  // leaves no trace of it in the lane's snapshot. Reports must agree.
  auto build = [](std::vector<CaseSpec>& cases) {
    Netlist nl;
    Ref x = nl.ref("X");
    Ref ck = nl.ref("CK .P20-30");
    Ref ckb = nl.ref("CKB .P60-80");
    Ref a1 = nl.ref("A1");
    Ref a2 = nl.ref("A2");
    Ref a3 = nl.ref("A3");
    nl.mux2("G1", from_ns(3), from_ns(3), ck, x, a3, a1);
    nl.xor_gate("G2", from_ns(3), from_ns(4), {a1, nl.ref("D .S10-60")}, a2);
    nl.mux2("G3", from_ns(1), from_ns(1), x, ckb, a2, a3);
    nl.setup_hold_chk("CHK", from_ns(5), from_ns(1), a2, ckb);
    nl.finalize();
    cases = {{"X=0", {{x.id, V::Zero}}}, {"X=1", {{x.id, V::One}}}};
    return nl;
  };
  std::vector<CaseSpec> cases;
  Netlist nl = build(cases);
  const SignalId a2 = nl.find("A2");
  BlockRun run(nl, test_options(), cases);
  ASSERT_TRUE(run.result.completed);
  BatchSchedule sched = build_batch_schedule(nl);
  EXPECT_TRUE(sched.in_cycle[nl.signal(a2).driver]);
  EvalSnapshot ref(nl, run.cones[0], run.ev.intern_context().get(), &run.ev.wave_refs());
  CaseRunStats st = run_case_on_snapshot(ref, cases[0], run.ev.options());
  ASSERT_TRUE(st.converged);
  const std::vector<SignalId>& written = ref.written();
  EXPECT_NE(std::find(written.begin(), written.end(), a2), written.end());
  EXPECT_EQ(ref.wave_ref(a2), run.ev.wave_ref(a2));  // back at base
  EXPECT_EQ(ref.disturbed_signals(), written.size() - 1);
  EXPECT_EQ(run.snaps[0].wave_ref(a2), run.ev.wave_ref(a2));
  EXPECT_EQ(run.snaps[0].disturbed_signals(), ref.disturbed_signals());
  EXPECT_EQ(run.snaps[0].written().size(), run.snaps[0].disturbed_signals());
  expect_sweep_matches_reference(build, test_options());
}

TEST(BatchEval, TableFullLaneKeepsAnOwnedCopyAndMatchesReference) {
  // The intern table is capped at the smallest per-shard size the baseline
  // fits in, so the case's fresh waveforms overflow it: the sweep aborts
  // the block and the case re-runs on the per-case path, whose snapshot
  // keeps an owned copy of every waveform the table refused (TV-W203).
  // One case, so every lanes x jobs split runs it on one worker and the
  // table fills in the same order.
  auto build = [](std::vector<CaseSpec>& cases) {
    Netlist nl;
    Ref prev = nl.ref("IN .S5-95");
    Ref sel0;
    for (int i = 0; i < 6; ++i) {
      Ref sel = nl.ref("SEL" + std::to_string(i));
      if (i == 0) sel0 = sel;
      Ref out = nl.ref("N" + std::to_string(i));
      nl.mux2("MUX" + std::to_string(i), from_ns(1), from_ns(3), sel, prev,
              nl.ref("ALT" + std::to_string(i) + " .S10-90"), out);
      prev = out;
    }
    nl.setup_hold_chk("CHK", from_ns(30), from_ns(2), prev, nl.ref("CK .P40-50"));
    nl.finalize();
    cases = {{"SEL0=1", {{sel0.id, V::One}}}};
    return nl;
  };
  VerifierOptions opts = test_options();
  for (opts.max_waveforms_per_shard = 1; opts.max_waveforms_per_shard < 64;
       ++opts.max_waveforms_per_shard) {
    std::vector<CaseSpec> none;
    Netlist nl = build(none);
    Verifier v(nl, opts);
    if (!v.verify().partial) break;
  }
  std::vector<CaseSpec> cases;
  Netlist nl = build(cases);
  Verifier v(nl, opts);
  VerifyResult r = v.verify(cases);
  ASSERT_EQ(r.cases.size(), 1u);
  ASSERT_TRUE(r.cases[0].degraded);
  ASSERT_FALSE(r.degradations.empty());
  EXPECT_STREQ(r.degradations.front().code, diag::kWarnTableFull);
  // The base fits, so the run was batch-eligible: the case's cone was
  // resolved only when its aborted block fell back to the per-case path.
  EXPECT_EQ(v.resolved_cones(), 1u);

  // The per-case snapshot holds the refused waveforms itself, and they are
  // the values an uncapped run computes.
  const Evaluator& ev = v.evaluator();
  ConeIndex index(nl);
  std::shared_ptr<const Cone> cone = index.cone_of({cases[0].pins[0].first});
  EvalSnapshot capped(nl, cone, ev.intern_context().get(), &ev.wave_refs());
  run_case_on_snapshot(capped, cases[0], ev.options());
  std::vector<CaseSpec> same;
  Netlist free_nl = build(same);
  Evaluator free_ev(free_nl, test_options());
  free_ev.initialize();
  free_ev.propagate();
  EvalSnapshot exact(free_nl, ConeIndex(free_nl).cone_of({same[0].pins[0].first}),
                     free_ev.intern_context().get(), &free_ev.wave_refs());
  run_case_on_snapshot(exact, same[0], free_ev.options());
  std::size_t owned = 0;
  for (SignalId sig : capped.written()) {
    if (capped.wave_ref(sig) != kNoWaveform) continue;
    ++owned;
    EXPECT_TRUE(capped.wave(sig).equivalent(exact.wave(sig))) << nl.signal(sig).full_name;
  }
  EXPECT_GT(owned, 0u);
  EXPECT_EQ(capped.disturbed_signals(), exact.disturbed_signals());
  expect_sweep_matches_reference(build, opts);
}

TEST(BatchEval, FirstInvalidCaseThrowsTheSameErrorAtEveryJobCount) {
  // Cases are validated in order before any cone resolves on the pool, so
  // the first bad case decides the error whatever the worker count.
  TwoConeRig r = build_two_cones();
  const SignalId unknown_sig = static_cast<SignalId>(r.nl.num_signals() + 7);
  auto error_of = [&](std::vector<CaseSpec> cases, unsigned lanes, unsigned jobs) {
    VerifierOptions opts = r.opts;
    opts.batch_lanes = lanes;
    opts.jobs = jobs;
    Verifier v(r.nl, opts);
    try {
      v.verify(cases);
    } catch (const std::invalid_argument& e) {
      return std::string("invalid_argument: ") + e.what();
    } catch (const std::out_of_range& e) {
      return std::string("out_of_range: ") + e.what();
    }
    return std::string("no error");
  };
  std::vector<CaseSpec> valid;
  for (int i = 0; i < 12; ++i) {
    valid.push_back({"A" + std::to_string(i), {{i % 2 ? r.ctl_a : r.ctl_b, V::One}}});
  }
  std::vector<CaseSpec> bad_value_first = valid;
  bad_value_first[5].pins.push_back({r.ctl_b, V::Stable});
  bad_value_first[9].pins = {{unknown_sig, V::One}};
  std::vector<CaseSpec> bad_id_first = valid;
  bad_id_first[3].pins = {{r.ctl_a, V::Zero}, {unknown_sig, V::Zero}};
  bad_id_first[10].pins = {{r.ctl_a, V::Change}};
  for (const auto& [cases, expected] :
       {std::pair{bad_value_first, "invalid_argument: case values must be 0 or 1"},
        std::pair{bad_id_first, "out_of_range: case pins unknown signal"}}) {
    for (unsigned lanes : {1u, 64u}) {
      for (unsigned jobs : {1u, 4u}) {
        EXPECT_EQ(error_of(cases, lanes, jobs), expected) << "lanes=" << lanes << " jobs=" << jobs;
      }
    }
  }
}

TEST(BatchEval, EligibleVerifyResolvesNoConeIneligibleOnePerPinSet) {
  // The sweep reads no cone, so a batch-eligible verify() resolves none. A
  // run the sweep defers -- a wall-clock budget armed, or the per-case
  // reference forced -- resolves one per distinct pin set (pin order is
  // irrelevant), at every job count.
  TwoConeRig r = build_two_cones();
  std::vector<CaseSpec> cases = {{"A=0", {{r.ctl_a, V::Zero}}},
                                 {"A=1", {{r.ctl_a, V::One}}},
                                 {"B=1", {{r.ctl_b, V::One}}},
                                 {"A=1,B=0", {{r.ctl_a, V::One}, {r.ctl_b, V::Zero}}},
                                 {"B=1,A=0", {{r.ctl_b, V::One}, {r.ctl_a, V::Zero}}}};
  for (unsigned jobs : {1u, 4u}) {
    VerifierOptions eligible = r.opts;
    eligible.jobs = jobs;
    VerifierOptions timed = eligible;
    timed.time_limit_seconds = 3600;
    VerifierOptions per_case = eligible;
    per_case.batch_eval = false;
    for (const auto& [opts, cones] :
         {std::pair{eligible, 0u}, std::pair{timed, 3u}, std::pair{per_case, 3u}}) {
      Verifier v(r.nl, opts);
      VerifyResult res = v.verify(cases);
      EXPECT_EQ(res.cases.size(), cases.size());
      EXPECT_EQ(v.resolved_cones(), cones)
          << "jobs=" << jobs << " batch=" << opts.batch_eval
          << " time_limit=" << opts.time_limit_seconds;
    }
  }
}

TEST(BatchEval, ReachProofRejectsAMovedCellWithNoMovedPathFromThePins) {
  // LaneReach plants rows by hand over the two chains CTLx -> G1x -> MIDx
  // -> G2x -> OUTx, lane by lane in the listed order. A lane's moved cell
  // passes only when a walk from the lane's pins reaches it through cells
  // that lane moved before it.
  TwoConeRig r = build_two_cones();
  const SignalId mid_a = r.nl.find("MIDA");
  const SignalId mid_b = r.nl.find("MIDB");
  const std::vector<CaseSpec> cases = {{"A=1", {{r.ctl_a, V::One}}},
                                       {"B=1", {{r.ctl_b, V::One}}}};
  // moved[l] lists the signals lane l moved; returns the proof's error.
  auto prove = [&](const std::vector<std::vector<SignalId>>& moved) -> std::string {
    std::vector<std::int32_t> row_of(r.nl.num_signals(), -1);
    std::vector<SignalId> row_sig;
    LaneReach reach(moved.size());
    for (std::size_t l = 0; l < moved.size(); ++l) {
      for (SignalId sig : moved[l]) {
        if (row_of[sig] < 0) {
          row_of[sig] = static_cast<std::int32_t>(row_sig.size());
          row_sig.push_back(sig);
          reach.add_row();
        }
        reach.mark_moved(static_cast<std::size_t>(row_of[sig]), l);
      }
    }
    try {
      reach.prove(r.nl, row_of, row_sig, cases, 0);
    } catch (const std::logic_error& e) {
      return e.what();
    }
    return "";
  };
  EXPECT_EQ(prove({{r.ctl_a, mid_a, r.out_a}, {mid_b}}), "");
  EXPECT_EQ(prove({{mid_a, r.out_a}, {}}), "");  // a moved path from the pin
  // OUTA is in lane A's cone, but MIDA, its only way there, did not move,
  // or moved only after it.
  EXPECT_EQ(prove({{r.out_a}, {}}), "batch sweep: case \"A=1\" moved \"OUTA\" outside its cone");
  EXPECT_EQ(prove({{r.out_a, mid_a}, {}}),
            "batch sweep: case \"A=1\" moved \"OUTA\" outside its cone");
  // Lane B legitimately moved MIDB and OUTB; lane A's cell of the same row
  // lies outside lane A's cone.
  EXPECT_EQ(prove({{mid_a, r.out_b}, {mid_b, r.out_b}}),
            "batch sweep: case \"A=1\" moved \"OUTB\" outside its cone");
}

TEST(BatchEval, ScheduleCoversEveryNonCheckerPrimitiveOnce) {
  TwoConeRig r = build_two_cones();
  BatchSchedule sched = build_batch_schedule(r.nl);
  std::vector<int> seen(r.nl.num_prims(), 0);
  for (const auto& comp : sched.components) {
    for (PrimId pid : comp.prims) {
      EXPECT_FALSE(prim_is_checker(r.nl.prim(pid).kind));
      ++seen[pid];
    }
  }
  for (PrimId pid = 0; pid < r.nl.num_prims(); ++pid) {
    EXPECT_EQ(seen[pid], prim_is_checker(r.nl.prim(pid).kind) ? 0 : 1) << pid;
  }
}

}  // namespace
}  // namespace tv
