// Concurrent resource degradation: many case-analysis workers hitting a
// deliberately tiny intern table must all degrade to TV-W203 (table full)
// without losing soundness or determinism -- the run is marked partial and
// two identical runs produce identical degradation records, byte for byte,
// regardless of worker scheduling.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "diag/diagnostic.hpp"

namespace tv {
namespace {

using V = Value;

struct ChainRig {
  Netlist nl;
  VerifierOptions opts;
  std::vector<Ref> sels;
};

// A mux chain wide enough that every case re-evaluates several primitives
// (and therefore interns several fresh waveforms) inside its cone.
ChainRig build_chain(int stages) {
  ChainRig r;
  r.opts.period = from_ns(100.0);
  r.opts.units = ClockUnits::from_ns_per_unit(1.0);
  r.opts.default_wire = WireDelay{0, 0};
  r.opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};
  Ref prev = r.nl.ref("IN .S5-95");
  for (int i = 0; i < stages; ++i) {
    Ref sel = r.nl.ref("SEL" + std::to_string(i));
    Ref out = r.nl.ref("N" + std::to_string(i));
    r.nl.mux2("MUX" + std::to_string(i), from_ns(1), from_ns(3), sel, prev,
              r.nl.ref("ALT" + std::to_string(i) + " .S10-90"), out);
    r.sels.push_back(sel);
    prev = out;
  }
  r.nl.setup_hold_chk("CHK", from_ns(30), from_ns(2), prev, r.nl.ref("CK .P40-50"));
  r.nl.finalize();
  return r;
}

std::vector<CaseSpec> chain_cases(const ChainRig& r) {
  std::vector<CaseSpec> cases;
  for (std::size_t i = 0; i < r.sels.size(); ++i) {
    for (V v : {V::Zero, V::One}) {
      cases.push_back({"SEL" + std::to_string(i) + (v == V::Zero ? "=0" : "=1"),
                       {{r.sels[i].id, v}}});
    }
  }
  return cases;
}

std::vector<std::string> degradation_lines(const VerifyResult& res) {
  std::vector<std::string> lines;
  for (const Degradation& d : res.degradations) {
    lines.push_back(std::string(d.code) + ": " + d.message);
  }
  return lines;
}

TEST(ConcurrentDegradation, FullInternTableDegradesToPartialUnderParallelCases) {
  ChainRig r = build_chain(8);
  std::vector<CaseSpec> cases = chain_cases(r);
  ASSERT_GE(cases.size(), 16u);
  r.opts.jobs = 4;
  // One waveform per shard: the first fresh intern in every worker fails,
  // so every case-analysis worker trips the TV-W203 guard concurrently.
  r.opts.max_waveforms_per_shard = 1;
  Verifier v(r.nl, r.opts);
  VerifyResult res = v.verify(cases);

  EXPECT_TRUE(res.partial);
  std::size_t w203 = 0;
  for (const Degradation& d : res.degradations) {
    if (std::string(d.code) == diag::kWarnTableFull) ++w203;
  }
  EXPECT_GE(w203, 1u) << "expected at least one TV-W203 table-full record";
  // Soundness: degraded interning must not lose the checker's findings --
  // every case still reports (interning is an optimization, not semantics).
  EXPECT_EQ(res.cases.size(), cases.size());
}

TEST(ConcurrentDegradation, DegradationRecordsAreByteStableAcrossRuns) {
  ChainRig r = build_chain(8);
  std::vector<CaseSpec> cases = chain_cases(r);
  r.opts.jobs = 4;
  r.opts.max_waveforms_per_shard = 1;

  Verifier v1(r.nl, r.opts);
  std::vector<std::string> first = degradation_lines(v1.verify(cases));
  Verifier v2(r.nl, r.opts);
  std::vector<std::string> second = degradation_lines(v2.verify(cases));
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // And across worker counts: the merge order is deterministic by input
  // slot, not by scheduling, so 1 worker and 4 workers agree byte-for-byte.
  VerifierOptions serial = r.opts;
  serial.jobs = 1;
  Verifier v3(r.nl, serial);
  std::vector<std::string> sequential = degradation_lines(v3.verify(cases));
  EXPECT_EQ(first, sequential);
}

TEST(ConcurrentDegradation, BatchFallbackReportsEachDegradationExactlyOnce) {
  // Regression: when the lockstep batch engine aborts mid-sweep (the tiny
  // intern table fills and a baseline input can no longer be interned) and
  // the cases re-run individually, the abandoned batch lanes must not leave
  // behind their own degradation records -- the fallback run must be
  // byte-identical to a run with the batch engine disabled, TV-W203 records
  // included, each reported exactly once.
  // The per-case runs resolve their cones lazily, on whichever worker needs
  // the index first, so the comparison runs at one job and at four.
  for (unsigned jobs : {1u, 4u}) {
    ChainRig on = build_chain(8);
    std::vector<CaseSpec> cases = chain_cases(on);
    on.opts.max_waveforms_per_shard = 1;
    on.opts.batch_eval = true;
    on.opts.jobs = jobs;
    Verifier v_on(on.nl, on.opts);
    VerifyResult r_on = v_on.verify(cases);

    ChainRig off = build_chain(8);
    off.opts.max_waveforms_per_shard = 1;
    off.opts.batch_eval = false;
    Verifier v_off(off.nl, off.opts);
    VerifyResult r_off = v_off.verify(chain_cases(off));

    std::vector<std::string> batch = degradation_lines(r_on);
    std::vector<std::string> per_case = degradation_lines(r_off);
    ASSERT_FALSE(per_case.empty());
    EXPECT_EQ(batch, per_case) << "jobs=" << jobs;
    EXPECT_EQ(r_on.partial, r_off.partial);
    ASSERT_EQ(r_on.cases.size(), r_off.cases.size());
    for (std::size_t i = 0; i < r_on.cases.size(); ++i) {
      EXPECT_EQ(r_on.cases[i].degraded, r_off.cases[i].degraded) << i;
      EXPECT_EQ(r_on.cases[i].violations.size(), r_off.cases[i].violations.size()) << i;
    }
    // Every case fell back, so every distinct pin set (one per SEL) was
    // resolved, once.
    EXPECT_EQ(v_on.resolved_cones(), on.sels.size()) << "jobs=" << jobs;
  }
}

TEST(ConcurrentDegradation, ExpiredDeadlineDoesNotLeakIntoTheNextRun) {
  // The warm-worker pattern: one long-lived Verifier, many verify() calls
  // with per-job time limits. A run that exhausts its budget (TV-W202,
  // partial) must not leave its expired deadline armed -- the next run with
  // a fresh generous limit completes clean instead of instantly degrading.
  ChainRig r = build_chain(8);
  std::vector<CaseSpec> cases = chain_cases(r);
  r.opts.time_limit_seconds = 1e-12;  // already expired at the first poll
  Verifier v(r.nl, r.opts);
  VerifyResult limited = v.verify(cases);
  EXPECT_TRUE(limited.partial);

  v.evaluator().set_time_limit(3600.0);
  VerifyResult fresh = v.verify(cases);
  EXPECT_FALSE(fresh.partial)
      << "the expired deadline of the previous run leaked into this one";
  EXPECT_EQ(fresh.cases.size(), cases.size());

  // Re-running with another tiny budget degrades again: each verify() arms
  // its own deadline from the configured limit, none inherits a stale one.
  v.evaluator().set_time_limit(1e-12);
  EXPECT_TRUE(v.verify(cases).partial);
}

TEST(ConcurrentDegradation, ViolationReportsMatchDespiteDegradation) {
  // The degraded runs must still produce deterministic violation reports
  // identical across job counts (the tier-1 invariant, under pressure).
  ChainRig r = build_chain(8);
  std::vector<CaseSpec> cases = chain_cases(r);
  r.opts.max_waveforms_per_shard = 1;

  VerifierOptions a = r.opts;
  a.jobs = 1;
  Verifier va(r.nl, a);
  VerifyResult ra = va.verify(cases);
  VerifierOptions b = r.opts;
  b.jobs = 4;
  Verifier vb(r.nl, b);
  VerifyResult rb = vb.verify(cases);

  ASSERT_EQ(ra.cases.size(), rb.cases.size());
  EXPECT_EQ(ra.violations.size(), rb.violations.size());
  for (std::size_t i = 0; i < ra.cases.size(); ++i) {
    ASSERT_EQ(ra.cases[i].violations.size(), rb.cases[i].violations.size()) << i;
    for (std::size_t j = 0; j < ra.cases[i].violations.size(); ++j) {
      EXPECT_EQ(ra.cases[i].violations[j].message, rb.cases[i].violations[j].message);
    }
  }
}

}  // namespace
}  // namespace tv
