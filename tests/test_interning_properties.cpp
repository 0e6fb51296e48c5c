// Property tests for the waveform interning layer (core/wave_table.hpp):
// canonicalization is idempotent, interning is exactly semantic equality,
// the waveform algebra preserves the sum-of-widths invariant on canonical
// inputs, memo keys round-trip through their flat words, memo hits commit
// the same fixpoint as evaluations (segment cap and case map included), and
// every memo entry and converged fixpoint across tvfuzz-generated netlists
// passes the memo audit (check/pipeline_diff.hpp).
#include <gtest/gtest.h>

#include <random>
#include <string_view>

#include "check/oracles.hpp"
#include "check/pipeline_diff.hpp"
#include "core/cone.hpp"
#include "core/evaluator.hpp"
#include "core/snapshot.hpp"
#include "core/storage_stats.hpp"
#include "core/verifier.hpp"
#include "core/wave_table.hpp"
#include "diag/diagnostic.hpp"

namespace {

using namespace tv;

Time sum_widths(const Waveform& w) {
  Time t = 0;
  for (const auto& s : w.segments()) t += s.width;
  return t;
}

TEST(InterningProperties, CanonicalizeIsIdempotent) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    check::WaveCase wc = check::random_wave_case(seed);
    Waveform w = check::materialize(wc.base);
    Waveform once = w.canonical();
    Waveform twice = once.canonical();
    EXPECT_TRUE(once == twice) << "seed " << seed;
    EXPECT_TRUE(once.is_canonical()) << "seed " << seed;
    // Canonicalization never changes meaning: same values pointwise.
    for (Time t = 0; t < w.period(); t += w.period() / 37 + 1) {
      EXPECT_EQ(w.at(t), once.at(t)) << "seed " << seed << " t " << t;
    }
  }
}

TEST(InterningProperties, SkewOnInactiveWaveformIsNotADifference) {
  // The satellite fix: diff/convergence/snapshot change detection used to
  // disagree about skew-only differences on activity-free waveforms. The
  // unified predicate says they are equal.
  Waveform a(from_ns(50.0), Value::Stable);
  Waveform b = a;
  b.set_skew(from_ns(3.0));
  EXPECT_FALSE(a == b);                 // structurally different...
  EXPECT_TRUE(a.equivalent(b));         // ...but semantically identical
  EXPECT_EQ(a.canonical_hash(), b.canonical_hash());

  WaveformTable table;
  EXPECT_EQ(table.intern(a), table.intern(b));

  // With activity the skew *is* meaning (it widens RISE/FALL windows).
  Waveform c(from_ns(50.0), Value::Stable);
  c.set(from_ns(10.0), from_ns(20.0), Value::Change);
  Waveform d = c;
  d.set_skew(from_ns(3.0));
  EXPECT_FALSE(c.equivalent(d));
  EXPECT_NE(table.intern(c), table.intern(d));
}

TEST(InterningProperties, InternMatchesSemanticEquality) {
  WaveformTable table;
  std::vector<Waveform> waves;
  std::vector<WaveformRef> refs;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    check::WaveCase wc = check::random_wave_case(seed);
    Waveform w = check::materialize(wc.base);
    waves.push_back(w);
    refs.push_back(table.intern(w));
  }
  for (std::size_t i = 0; i < waves.size(); ++i) {
    for (std::size_t j = 0; j < waves.size(); ++j) {
      EXPECT_EQ(refs[i] == refs[j], waves[i].equivalent(waves[j]))
          << "seeds " << i + 1 << " vs " << j + 1;
    }
    // Interning is stable: re-interning returns the same ref, and the
    // stored waveform is the canonical form of the input.
    EXPECT_EQ(table.intern(waves[i]), refs[i]);
    EXPECT_TRUE(table.get(refs[i]) == waves[i].canonical());
  }
  EXPECT_LE(table.size(), waves.size());
  EXPECT_GE(table.lookups(), 2 * waves.size());
}

TEST(InterningProperties, AlgebraPreservesWidthSum) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    check::WaveCase wc = check::random_wave_case(seed);
    Waveform w = check::materialize(wc.base).canonical();
    Waveform partner = check::materialize(check::random_wave_case(seed + 7000).base);
    if (partner.period() != w.period()) partner = Waveform(w.period(), Value::Stable);

    EXPECT_EQ(sum_widths(w), w.period()) << "seed " << seed;
    EXPECT_EQ(sum_widths(w.delayed(from_ns(wc.d1_min_ns), from_ns(wc.d1_max_ns))),
              w.period())
        << "seed " << seed << " delayed";
    EXPECT_EQ(sum_widths(w.with_skew_incorporated()), w.period())
        << "seed " << seed << " skew fold";
    EXPECT_EQ(sum_widths(w.delayed_rise_fall(
                  from_ns(wc.rise_min_ns), from_ns(wc.rise_max_ns),
                  from_ns(wc.fall_min_ns), from_ns(wc.fall_max_ns))),
              w.period())
        << "seed " << seed << " rise/fall";
    EXPECT_EQ(sum_widths(w.map(value_not)), w.period()) << "seed " << seed << " map";
    EXPECT_EQ(sum_widths(w.replaced(Value::Stable, Value::One)), w.period())
        << "seed " << seed << " replaced";
    EXPECT_EQ(sum_widths(Waveform::binary(w, partner, value_and)), w.period())
        << "seed " << seed << " binary";
  }
}

TEST(InterningProperties, MemoCachedEvaluationIsBitIdentical) {
  // The memo's soundness property across 64 tvfuzz-generated netlists, the
  // memo audit column of tvfuzz --matrix: over an edit script on the default
  // path and one seeded path, every memo entry equals a fresh evaluation of
  // its key, and every converged fixpoint re-evaluates to itself without
  // the memo.
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    check::CircuitSpec spec = check::random_spec(seed);
    for (const check::Path& path : {check::Path{}, check::random_path(seed)}) {
      auto failure = check::check_memo_audit(spec, path);
      EXPECT_FALSE(failure.has_value())
          << "seed " << seed << " " << check::describe(path) << ": "
          << (failure ? failure->kind + ": " + failure->detail : "");
    }
  }
}

TEST(InterningProperties, MemoKeyRoundTripsThroughItsWords) {
  // Every field of a key survives encode -> decode, directive strings of
  // every length up to two words and a half included; keys that differ in
  // one field only hash apart or compare unequal in the memo.
  std::mt19937_64 rng(7);
  for (int round = 0; round < 200; ++round) {
    Primitive p;
    p.kind = static_cast<PrimKind>(rng() % 4);
    p.dmin = static_cast<Time>(rng() % 5000);
    p.dmax = p.dmin + static_cast<Time>(rng() % 5000);
    if (rng() % 2) p.rise_fall = RiseFallDelay{1, 2, 3, static_cast<Time>(rng() % 99)};
    MemoKeyFields want;
    want.kind = static_cast<std::uint8_t>(p.kind);
    want.dmin = p.dmin;
    want.dmax = p.dmax;
    want.has_rise_fall = p.rise_fall.has_value();
    if (p.rise_fall) want.rise_fall = {1, 2, 3, p.rise_fall->fall_max};
    want.pins.resize(rng() % 5);
    for (MemoPin& mp : want.pins) {
      mp.wave = static_cast<WaveformRef>(rng());
      mp.invert = rng() % 2;
      mp.wire_min = -static_cast<Time>(rng() % 300);
      mp.wire_max = static_cast<Time>(rng() % 300);
      mp.dirs = std::string(rng() % 21, 'A');
      for (char& c : mp.dirs) c = "AEHWZ"[rng() % 5];
    }
    p.inputs.resize(want.pins.size());
    MemoKey key;
    key.start(p);
    for (const MemoPin& mp : want.pins) {
      key.add_pin(mp.wave, mp.invert, mp.wire_min, mp.wire_max, mp.dirs);
    }
    EXPECT_EQ(MemoKey::decode(key.data(), key.size()), want) << "round " << round;
  }

  // One pin, varied one field at a time: each variant is its own entry.
  Primitive p;
  p.kind = PrimKind::And;
  p.inputs.resize(1);
  auto key_of = [&](bool invert, std::string_view dirs) {
    MemoKey k;
    k.start(p);
    k.add_pin(3, invert, 0, 10, dirs);
    return k;
  };
  EvalMemo memo;
  const MemoKey variants[] = {key_of(false, ""), key_of(true, ""), key_of(false, "W"),
                              key_of(false, "WWWWWWWWA"), key_of(false, "WWWWWWWWB")};
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    memo.store(variants[i], MemoResult{static_cast<WaveformRef>(i), ""});
  }
  ASSERT_EQ(memo.entries(), std::size(variants));
  for (std::size_t i = 0; i < std::size(variants); ++i) {
    std::optional<MemoResult> hit = memo.lookup(variants[i]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->wave, static_cast<WaveformRef>(i));
  }
}

TEST(InterningProperties, SecondPassIsAllMemoHitsAndRepeatsTheFirst) {
  // A second initialize() + propagate() on one evaluator replays the first
  // pass's evaluations over an already-filled memo: every one is a hit, and
  // the hit path (which commits refs, not waveforms) reaches the same
  // fixpoint with the same effort and degradations.
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    check::BuiltCircuit bc = check::build(check::random_spec(seed));
    Evaluator ev(bc.nl, bc.opts);
    ev.initialize();
    const std::size_t events = ev.propagate();
    const std::size_t evals = ev.evals_performed();
    const std::vector<WaveformRef> refs = ev.wave_refs();
    std::vector<std::string> strs;
    for (SignalId id = 0; id < bc.nl.num_signals(); ++id) {
      strs.push_back(bc.nl.signal(id).eval_str);
    }
    const std::vector<Degradation> degs = ev.degradations();
    const InternStats first = collect_intern_stats(*ev.intern_context());

    ev.initialize();
    EXPECT_EQ(ev.propagate(), events) << "seed " << seed;
    const InternStats second = collect_intern_stats(*ev.intern_context());
    EXPECT_EQ(second.memo_misses, first.memo_misses) << "seed " << seed;
    EXPECT_EQ(second.memo_hits - first.memo_hits, evals) << "seed " << seed;
    EXPECT_EQ(second.memo_entries, first.memo_entries) << "seed " << seed;
    EXPECT_EQ(second.unique_waveforms, first.unique_waveforms) << "seed " << seed;
    EXPECT_EQ(ev.evals_performed(), evals) << "seed " << seed;
    EXPECT_EQ(ev.wave_refs(), refs) << "seed " << seed;
    ASSERT_EQ(ev.degradations().size(), degs.size()) << "seed " << seed;
    for (std::size_t i = 0; i < degs.size(); ++i) {
      EXPECT_STREQ(ev.degradations()[i].code, degs[i].code);
      EXPECT_EQ(ev.degradations()[i].message, degs[i].message);
    }
    for (SignalId id = 0; id < bc.nl.num_signals(); ++id) {
      EXPECT_EQ(bc.nl.signal(id).eval_str, strs[id]) << "seed " << seed;
      // The write hook keeps the netlist's copy in step with the ref.
      EXPECT_TRUE(ev.wave(id) == ev.intern_context()->table.get(refs[id]))
          << "seed " << seed << " " << bc.nl.signal(id).full_name;
    }
  }
}

TEST(InterningProperties, SegmentCapAppliesToMemoHits) {
  // X1 and X2 buffer the same eight-edge clock under a 4-segment cap: X1's
  // evaluation misses the memo, X2's (same key) hits it. Both signals and
  // their consumers must degrade to UNKNOWN with one TV-W201 each, and a
  // reverify that re-evaluates both (hits now) must keep it so.
  Netlist nl;
  VerifierOptions opts;
  opts.period = from_ns(100.0);
  opts.units = ClockUnits::from_ns_per_unit(1.0);
  opts.default_wire = WireDelay{0, 0};
  opts.max_segments_per_signal = 4;
  Ref a = nl.ref("A .C5-10,25-30,45-50,65-70");
  Ref x1 = nl.ref("X1");
  Ref x2 = nl.ref("X2");
  Ref y2 = nl.ref("Y2");
  const PrimId b1 = nl.buf("B1", from_ns(1), from_ns(2), a, x1);
  const PrimId b2 = nl.buf("B2", from_ns(1), from_ns(2), a, x2);
  nl.not_gate("N2", 0, 0, x2, y2);
  nl.finalize();
  Evaluator ev(nl, opts);
  ev.initialize();
  ev.propagate();
  const InternStats st = collect_intern_stats(*ev.intern_context());
  EXPECT_GE(st.memo_hits, 1u);
  const Waveform unknown(opts.period, Value::Unknown);
  auto expect_capped = [&](const char* when) {
    for (SignalId id : {x1.id, x2.id, y2.id}) {
      EXPECT_TRUE(ev.wave(id).equivalent(unknown)) << when << " " << nl.signal(id).full_name;
    }
    ASSERT_EQ(ev.degradations().size(), 2u) << when;
    EXPECT_STREQ(ev.degradations()[0].code, diag::kWarnSegmentCap);
    EXPECT_STREQ(ev.degradations()[1].code, diag::kWarnSegmentCap);
    EXPECT_NE(ev.degradations()[0].message.find("\"X1\""), std::string::npos) << when;
    EXPECT_NE(ev.degradations()[1].message.find("\"X2\""), std::string::npos) << when;
  };
  expect_capped("base");
  const std::size_t hits = st.memo_hits;
  ev.propagate_incremental({}, {b2, b1});
  EXPECT_EQ(collect_intern_stats(*ev.intern_context()).memo_hits, hits + 2);
  expect_capped("reverify");
}

TEST(InterningProperties, MemoHitOnACasePinnedDrivenSignalIsCaseMapped) {
  // X1 and X2 buffer the same STABLE-asserted input, so the base run
  // memoizes one key for both. Pinning the driven X2 recomputes its driver
  // in the case -- a memo hit -- and the case map must still turn its
  // STABLE region into the pinned value, on the per-case reference and in
  // the batch sweep alike.
  auto build = [](Netlist& nl, std::vector<CaseSpec>& cases) {
    Ref a = nl.ref("A .S10-60");
    Ref x1 = nl.ref("X1");
    Ref x2 = nl.ref("X2");
    Ref c = nl.ref("C .S0-70");
    Ref y = nl.ref("Y");
    nl.buf("B1", from_ns(1), from_ns(2), a, x1);
    nl.buf("B2", from_ns(1), from_ns(2), a, x2);
    nl.and_gate("G", from_ns(1), from_ns(2), {x2, c}, y);
    nl.setup_hold_chk("CHK", from_ns(5), from_ns(1), y, nl.ref("CK .P40-50"));
    nl.finalize();
    cases = {{"X2=0", {{x2.id, Value::Zero}}}, {"X2=1", {{x2.id, Value::One}}}};
    return x2.id;
  };
  VerifierOptions opts;
  opts.period = from_ns(100.0);
  opts.units = ClockUnits::from_ns_per_unit(1.0);
  opts.default_wire = WireDelay{0, 0};
  opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};

  Netlist nl;
  std::vector<CaseSpec> cases;
  const SignalId x2 = build(nl, cases);
  Verifier v(nl, opts);
  v.verify();
  const Evaluator& ev = v.evaluator();
  ASSERT_EQ(ev.wave_ref(x2), ev.wave_ref(nl.find("X1")));
  ConeIndex index(nl);
  for (const CaseSpec& c : cases) {
    const std::size_t hits = ev.intern_context()->memo.hits();
    EvalSnapshot snap(nl, index.cone_of({x2}), ev.intern_context().get(), &ev.wave_refs());
    run_case_on_snapshot(snap, c, opts);
    EXPECT_GT(ev.intern_context()->memo.hits(), hits) << c.name;
    const Value pinned = c.pins[0].second;
    EXPECT_TRUE(snap.wave(x2).equivalent(ev.wave(x2).replaced(Value::Stable, pinned)))
        << c.name << ": " << snap.wave(x2).to_string();
    EXPECT_NE(snap.wave_ref(x2), ev.wave_ref(x2)) << c.name;
  }

  auto render = [&](bool batch) {
    Netlist n;
    std::vector<CaseSpec> cs;
    build(n, cs);
    VerifierOptions o = opts;
    o.batch_eval = batch;
    Verifier ver(n, o);
    VerifyResult r = ver.verify(cs);
    std::string out = timing_summary(n) + violations_report(r.violations);
    for (const auto& c : r.cases) {
      out += c.name + " " + std::to_string(c.events) + "\n" + violations_report(c.violations);
    }
    return out;
  };
  const std::string reference = render(false);
  EXPECT_NE(reference.find("X2=0"), std::string::npos);
  EXPECT_EQ(render(true), reference);
}

TEST(MemoAudit, FlagsAPlantedStaleEntry) {
  {
    check::BuiltCircuit clean = check::build(check::random_spec(11));
    Verifier v(clean.nl, clean.opts);
    VerifyResult r = v.verify(clean.cases);
    ASSERT_FALSE(check::audit_memo(v, r).has_value());
  }
  check::BuiltCircuit bc = check::build(check::random_spec(11));
  Verifier v(bc.nl, bc.opts);
  // A real key, before anything is cached: the first primitive's inputs at
  // their seeded values.
  Evaluator& ev = v.evaluator();
  InternContext& ctx = *ev.intern_context();
  ev.initialize();
  PrimId pid = 0;
  while (prim_is_checker(bc.nl.prim(pid).kind)) ++pid;
  const Primitive& p = bc.nl.prim(pid);
  MemoKey key;
  ASSERT_TRUE(build_memo_key(
      p, bc.nl, ev.options(), [&](SignalId id) { return ev.wave_ref(id); },
      [&](SignalId id) -> const std::string& { return bc.nl.signal(id).eval_str; }, key));
  std::vector<PreparedInput> ins;
  for (const Pin& pin : p.inputs) ins.push_back(ev.prepare(pin));
  PrimEvalResult right = evaluate_primitive(p, ins, ev.options().period);
  Waveform wrong(ev.options().period, Value::Change);
  if (wrong.equivalent(right.wave.canonical())) wrong = Waveform(wrong.period(), Value::Stable);
  // The flat key decodes to this primitive's kind and its inputs' refs.
  MemoKeyFields fields = MemoKey::decode(key.data(), key.size());
  EXPECT_EQ(fields.kind, static_cast<std::uint8_t>(p.kind));
  ASSERT_EQ(fields.pins.size(), p.inputs.size());
  for (std::size_t i = 0; i < p.inputs.size(); ++i) {
    EXPECT_EQ(fields.pins[i].wave, ev.wave_ref(p.inputs[i].sig));
  }
  ASSERT_EQ(ctx.memo.entries(), 0u);
  ctx.memo.store(key, MemoResult{ctx.table.intern(wrong), right.eval_str});

  VerifyResult r = v.verify(bc.cases);
  std::optional<check::Failure> f = check::audit_memo(v, r);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, "memo-stale-entry") << f->detail;
}

TEST(InterningProperties, EvaluatorExposesInternStats) {
  check::BuiltCircuit bc = check::build(check::random_spec(11));
  Evaluator ev(bc.nl, bc.opts);
  ev.initialize();
  ev.propagate();
  ASSERT_NE(ev.intern_context(), nullptr);
  InternStats st = collect_intern_stats(*ev.intern_context());
  EXPECT_GT(st.unique_waveforms, 0u);
  EXPECT_GE(st.intern_lookups, st.unique_waveforms);
  // A second pass over the identical circuit must be served by the memo.
  ev.initialize();
  ev.propagate();
  InternStats st2 = collect_intern_stats(*ev.intern_context());
  EXPECT_GT(st2.memo_hits, 0u);
  EXPECT_EQ(st2.unique_waveforms, st.unique_waveforms);
}

TEST(InterningProperties, StorageStatsReportsUniqueWaveforms) {
  check::BuiltCircuit bc = check::build(check::random_spec(3));
  Evaluator ev(bc.nl, bc.opts);
  ev.initialize();
  ev.propagate();
  StorageBreakdown b = compute_storage(bc.nl);
  EXPECT_GT(b.unique_waveforms, 0u);
  EXPECT_LE(b.unique_waveforms, static_cast<std::size_t>(bc.nl.num_signals()));
  EXPECT_LE(b.unique_value_bytes, b.signal_values);
  EXPECT_GE(b.signals_per_unique_waveform, 1.0);
}

}  // namespace
