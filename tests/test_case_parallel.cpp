// Parallel case analysis: every case runs on a cone-scoped copy-on-write
// snapshot of the baseline fixpoint, so VerifyResults must be identical for
// every worker count, case reports must be byte-stable, and the shared
// netlist must be left holding the baseline fixpoint.
#include <gtest/gtest.h>

#include "case_harness.hpp"
#include "core/export.hpp"
#include "core/verifier.hpp"
#include "gen/regfile_example.hpp"
#include "util/fault.hpp"

namespace tv {
namespace {

using V = Value;

bool violation_eq(const Violation& a, const Violation& b) {
  return a.type == b.type && a.prim == b.prim && a.signal == b.signal &&
         a.missed_by == b.missed_by && a.message == b.message;
}

bool violation_key_le(const Violation& a, const Violation& b) {
  return std::tie(a.missed_by, a.signal, a.type, a.prim, a.message) <=
         std::tie(b.missed_by, b.signal, b.type, b.prim, b.message);
}

void expect_same_result(const VerifyResult& a, const VerifyResult& b, const char* what) {
  EXPECT_EQ(a.base_events, b.base_events) << what;
  EXPECT_EQ(a.base_evals, b.base_evals) << what;
  EXPECT_EQ(a.converged, b.converged) << what;
  ASSERT_EQ(a.violations.size(), b.violations.size()) << what;
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_TRUE(violation_eq(a.violations[i], b.violations[i])) << what << " base #" << i;
  }
  ASSERT_EQ(a.cases.size(), b.cases.size()) << what;
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    EXPECT_EQ(a.cases[i].name, b.cases[i].name) << what;
    EXPECT_EQ(a.cases[i].events, b.cases[i].events) << what << " case " << a.cases[i].name;
    EXPECT_EQ(a.cases[i].converged, b.cases[i].converged) << what;
    ASSERT_EQ(a.cases[i].violations.size(), b.cases[i].violations.size())
        << what << " case " << a.cases[i].name;
    for (std::size_t j = 0; j < a.cases[i].violations.size(); ++j) {
      EXPECT_TRUE(violation_eq(a.cases[i].violations[j], b.cases[i].violations[j]))
          << what << " case " << a.cases[i].name << " #" << j;
    }
  }
}

void expect_jobs_equivalence(Netlist& nl, VerifierOptions opts,
                             const std::vector<CaseSpec>& cases, const char* what) {
  opts.jobs = 1;
  Verifier ref(nl, opts);
  VerifyResult baseline = ref.verify(cases);
  for (unsigned jobs : {2u, 4u, 8u}) {
    VerifierOptions jopts = opts;
    jopts.jobs = jobs;
    Verifier v(nl, jopts);
    VerifyResult r = v.verify(cases);
    expect_same_result(baseline, r, what);
  }
  // Reports must arrive pre-sorted by the documented deterministic key.
  for (const auto& c : baseline.cases) {
    EXPECT_TRUE(std::is_sorted(c.violations.begin(), c.violations.end(), violation_key_le))
        << what << " case " << c.name;
  }
}

// The Fig 2-6 cascaded-mux circuit of test_case_analysis, with the internal
// nodes kept so cases can pin signals at several cone depths.
struct Fig26 {
  Netlist nl;
  VerifierOptions opts;
  Ref input, control, slow1, m1, slow2, output;
};

Fig26 build_fig26() {
  Fig26 c;
  c.opts.period = from_ns(100.0);
  c.opts.units = ClockUnits::from_ns_per_unit(1.0);
  c.opts.default_wire = WireDelay{0, 0};
  c.opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};

  Netlist& nl = c.nl;
  c.input = nl.ref("INPUT .S10-105");
  c.control = nl.ref("CONTROL SIGNAL");
  c.slow1 = nl.ref("SLOW1");
  nl.buf("EXTRA DELAY 1", from_ns(10), from_ns(10), c.input, c.slow1);
  c.m1 = nl.ref("M1");
  nl.mux2("MUX 1", from_ns(10), from_ns(10), c.control, c.input, c.slow1, c.m1);
  c.slow2 = nl.ref("SLOW2");
  nl.buf("EXTRA DELAY 2", from_ns(10), from_ns(10), c.m1, c.slow2);
  c.output = nl.ref("OUTPUT");
  nl.mux2("MUX 2", from_ns(10), from_ns(10), nl.ref("- CONTROL SIGNAL"), c.m1, c.slow2,
          c.output);
  // A checker so cases produce violations to compare byte-for-byte.
  nl.setup_hold_chk("OUT CHK", from_ns(60), from_ns(5), c.output,
                    nl.ref("CAPTURE CLK .P90-91"));
  c.nl.finalize();
  return c;
}

std::vector<CaseSpec> fig26_cases(const Fig26& c) {
  std::vector<CaseSpec> cases;
  for (V v : {V::Zero, V::One}) {
    char letter = v == V::Zero ? '0' : '1';
    cases.push_back({std::string("CONTROL=") + letter, {{c.control.id, v}}});
    cases.push_back({std::string("M1=") + letter, {{c.m1.id, v}}});
    cases.push_back({std::string("SLOW1=") + letter, {{c.slow1.id, v}}});
    cases.push_back(
        {std::string("CONTROL=M1=") + letter, {{c.control.id, v}, {c.m1.id, v}}});
  }
  return cases;
}

TEST(ParallelCases, Fig26IdenticalAcrossJobCounts) {
  Fig26 c = build_fig26();
  std::vector<CaseSpec> cases = fig26_cases(c);
  ASSERT_GE(cases.size(), 8u);
  expect_jobs_equivalence(c.nl, c.opts, cases, "fig26");
}

TEST(ParallelCases, RegfileIdenticalAcrossJobCounts) {
  Netlist nl;
  gen::RegfileExample rf = gen::build_regfile_example(nl);
  std::vector<CaseSpec> cases;
  for (int bits = 0; bits < 8; ++bits) {
    CaseSpec c;
    c.name = "RF CASE " + std::to_string(bits);
    c.pins = {{rf.adr, (bits & 1) ? V::One : V::Zero},
              {rf.we, (bits & 2) ? V::One : V::Zero},
              {rf.ram_out, (bits & 4) ? V::One : V::Zero}};
    cases.push_back(std::move(c));
  }
  expect_jobs_equivalence(nl, rf.options, cases, "regfile");
}

TEST(ParallelCases, CaseViolationsMatchAnUnscopedFullCheck) {
  // The cone-scoped check + baseline reuse must reproduce exactly what a
  // from-scratch sequential evaluation of the pinned circuit reports.
  Fig26 c = build_fig26();
  std::vector<CaseSpec> cases = fig26_cases(c);
  c.opts.jobs = 4;
  Verifier v(c.nl, c.opts);
  VerifyResult r = v.verify(cases);

  for (std::size_t i = 0; i < cases.size(); ++i) {
    Fig26 fresh = build_fig26();
    CaseHarness h(fresh.nl, fresh.opts);
    CaseRunStats stats = h.run(cases[i]);  // same pins resolve to same ids in the clone
    // Unscoped: every checker re-examined through the case's view.
    EvalView view(h.snapshot(), fresh.opts, h.baseline().converged && stats.converged);
    std::vector<Violation> expect = run_checks(view);
    sort_violations(expect);
    ASSERT_EQ(r.cases[i].violations.size(), expect.size()) << cases[i].name;
    for (std::size_t j = 0; j < expect.size(); ++j) {
      EXPECT_TRUE(violation_eq(r.cases[i].violations[j], expect[j]))
          << cases[i].name << " #" << j;
    }
  }
}

TEST(ParallelCases, NetlistKeepsBaselineFixpointAfterCases) {
  Fig26 c = build_fig26();
  Verifier v(c.nl, c.opts);
  VerifyResult base = v.verify();
  Waveform base_out = c.nl.signal(c.output.id).wave;

  VerifyResult with_cases = v.verify(fig26_cases(c));
  EXPECT_EQ(c.nl.signal(c.output.id).wave, base_out);
  EXPECT_EQ(with_cases.base_events, base.base_events);
}

TEST(ParallelCases, RejectsBadCaseValuesBeforeSpawningWorkers) {
  Fig26 c = build_fig26();
  c.opts.jobs = 4;
  Verifier v(c.nl, c.opts);
  std::vector<CaseSpec> cases = {{"ok", {{c.control.id, V::Zero}}},
                                 {"bad", {{c.control.id, V::Change}}}};
  EXPECT_THROW(v.verify(cases), std::invalid_argument);
}

TEST(ParallelCases, WorkerFaultSurfacesAfterJoinAndLeavesVerifierReusable) {
  // A fault thrown inside a pool worker must drain the queue, surface from
  // verify() once every worker joined (no hang), and leave no baseline to
  // splice against; the next clean verify() on the same Verifier must then
  // render exactly like a fresh run. Both engines share the one pool.
  for (bool batch : {true, false}) {
    SCOPED_TRACE(batch ? "batch sweep" : "per-case worklist");
    Fig26 c = build_fig26();
    std::vector<CaseSpec> cases = fig26_cases(c);
    c.opts.jobs = 4;
    c.opts.batch_eval = batch;
    c.opts.batch_lanes = 2;  // four blocks, so the batch pool runs 4 workers
    Verifier v(c.nl, c.opts);
    ASSERT_TRUE(fault::configure("snapshot.case@3:fail"));
    EXPECT_THROW(v.verify(cases), fault::InjectedFault);
    fault::reset();
    EXPECT_FALSE(v.has_baseline());

    VerifyResult again = v.verify(cases);
    EXPECT_TRUE(v.has_baseline());
    Fig26 fresh = build_fig26();
    Verifier fv(fresh.nl, c.opts);
    VerifyResult cold = fv.verify(cases);
    expect_same_result(cold, again, "after fault");
    EXPECT_EQ(export_json(c.nl, again, c.opts.period),
              export_json(fresh.nl, cold, c.opts.period));
    EXPECT_EQ(timing_summary(c.nl), timing_summary(fresh.nl));
  }
}

TEST(ParallelCases, SortedViolationRegression) {
  // Two checkers whose violations would naturally be reported in prim-id
  // order; the (missed-by, signal, kind) sort must order the smaller miss
  // first even though its checker has the higher prim id.
  Netlist nl;
  VerifierOptions opts;
  opts.period = from_ns(100.0);
  opts.units = ClockUnits::from_ns_per_unit(1.0);
  opts.default_wire = WireDelay{0, 0};
  opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};

  Ref ctl = nl.ref("CTL .S10-90");  // changing across the cycle wrap
  Ref d1 = nl.ref("D1");
  nl.buf("B1", from_ns(30), from_ns(40), ctl, d1);
  Ref d2 = nl.ref("D2");
  nl.buf("B2", from_ns(10), from_ns(20), ctl, d2);
  Ref ck = nl.ref("CK .P50-51");
  // Prim-id order: CHK BIG (missed more) before CHK SMALL (missed less).
  nl.setup_hold_chk("CHK BIG", from_ns(45), 0, d1, ck);
  nl.setup_hold_chk("CHK SMALL", from_ns(45), 0, d2, ck);
  nl.finalize();

  opts.jobs = 2;
  Verifier v(nl, opts);
  // Under CTL=1 the stable window becomes solid 1 but the wrap-around
  // change region remains; the two delayed copies settle at 50 ns and
  // 30 ns, missing the 45 ns setup by 45 and 25 respectively.
  VerifyResult r = v.verify({{"CTL=1", {{ctl.id, V::One}}}});
  ASSERT_EQ(r.cases.size(), 1u);
  const auto& vs = r.cases[0].violations;
  ASSERT_GE(vs.size(), 2u);
  EXPECT_TRUE(std::is_sorted(vs.begin(), vs.end(), violation_key_le));
  for (std::size_t i = 1; i < vs.size(); ++i) {
    EXPECT_LE(vs[i - 1].missed_by, vs[i].missed_by);
  }
}

}  // namespace
}  // namespace tv
