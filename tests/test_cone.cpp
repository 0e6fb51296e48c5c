// ConeIndex: transitive affected cones over the fanout call lists.
#include <gtest/gtest.h>

#include "core/cone.hpp"

#include <random>
#include <set>
#include <string>
#include <thread>

#include "check/rand_netlist.hpp"
#include "gen/s1_design.hpp"

namespace tv {
namespace {

// A small two-island netlist:
//
//   A --[G1 buf]--> B --[G2 or]--> D --(SETUP HOLD CHK vs CK)
//                   C ----^
//   X --[G3 buf]--> Y
struct ConeFixture {
  Netlist nl;
  Ref a, b, c, d, ck, x, y;
  PrimId g1, g2, g3, chk;

  ConeFixture() {
    a = nl.ref("A");
    b = nl.ref("B");
    c = nl.ref("C");
    d = nl.ref("D");
    ck = nl.ref("CK .P0-4");
    x = nl.ref("X");
    y = nl.ref("Y");
    g1 = nl.buf("G1", from_ns(1), from_ns(2), a, b);
    g2 = nl.or_gate("G2", from_ns(1), from_ns(2), {b, c}, d);
    g3 = nl.buf("G3", from_ns(1), from_ns(2), x, y);
    chk = nl.setup_hold_chk("CHK", from_ns(1), from_ns(1), d, ck);
    nl.finalize();
  }
};

std::vector<SignalId> sigs(const Cone& c) { return c.signals; }
std::vector<PrimId> prims(const Cone& c) { return c.prims; }

TEST(ConeIndex, TransitiveFanoutIncludingCheckers) {
  ConeFixture f;
  ConeIndex idx(f.nl);
  auto cone = idx.cone_of({f.a.id});
  EXPECT_EQ(sigs(*cone), (std::vector<SignalId>{f.a.id, f.b.id, f.d.id}));
  EXPECT_EQ(prims(*cone), (std::vector<PrimId>{f.g1, f.g2, f.chk}));
}

TEST(ConeIndex, SideInputConeIsNarrower) {
  ConeFixture f;
  ConeIndex idx(f.nl);
  auto cone = idx.cone_of({f.c.id});
  EXPECT_EQ(sigs(*cone), (std::vector<SignalId>{f.c.id, f.d.id}));
  EXPECT_EQ(prims(*cone), (std::vector<PrimId>{f.g2, f.chk}));
}

TEST(ConeIndex, PinnedDrivenSignalIncludesItsDriverButNotItsInputs) {
  ConeFixture f;
  ConeIndex idx(f.nl);
  // Pinning B: G1 must re-evaluate (the case mapping applies to its
  // output), but B's upstream signal A is untouched.
  auto cone = idx.cone_of({f.b.id});
  EXPECT_EQ(sigs(*cone), (std::vector<SignalId>{f.b.id, f.d.id}));
  EXPECT_EQ(prims(*cone), (std::vector<PrimId>{f.g1, f.g2, f.chk}));
  EXPECT_FALSE(cone->contains_signal(f.a.id));
}

TEST(ConeIndex, IslandsDoNotLeakIntoEachOther) {
  ConeFixture f;
  ConeIndex idx(f.nl);
  auto main_cone = idx.cone_of({f.a.id});
  EXPECT_FALSE(main_cone->contains_signal(f.x.id));
  EXPECT_FALSE(main_cone->contains_signal(f.y.id));
  EXPECT_FALSE(main_cone->contains_prim(f.g3));

  auto island = idx.cone_of({f.x.id});
  EXPECT_EQ(sigs(*island), (std::vector<SignalId>{f.x.id, f.y.id}));
  EXPECT_EQ(prims(*island), (std::vector<PrimId>{f.g3}));
}

TEST(ConeIndex, SlotMapsAreDenseAndConsistent) {
  ConeFixture f;
  ConeIndex idx(f.nl);
  auto cone = idx.cone_of({f.a.id, f.c.id});
  for (std::size_t i = 0; i < cone->signals.size(); ++i) {
    EXPECT_EQ(cone->signal_slot[cone->signals[i]], static_cast<std::int32_t>(i));
  }
  for (std::size_t i = 0; i < cone->prims.size(); ++i) {
    EXPECT_EQ(cone->prim_slot[cone->prims[i]], static_cast<std::int32_t>(i));
  }

  // Word boundaries of the rank bitmap. Chain A0 -> ... -> A127 holds
  // signals 0..127 and, after one island buffer B0 -> B1 takes prim 0, prims
  // 1..127 (prim j drives Aj); the rest of island B follows. Pinning A64
  // puts exactly ids [64, 128) of both kinds in the cone, so 63|64 and
  // 127|128 each straddle a non-member and a member.
  Netlist nl;
  std::vector<Ref> chain, island;
  for (int i = 0; i < 128; ++i) chain.push_back(nl.ref("A" + std::to_string(i)));
  for (int i = 0; i < 20; ++i) island.push_back(nl.ref("B" + std::to_string(i)));
  nl.buf("B_BUF0", from_ns(1), from_ns(2), island[0], island[1]);
  for (int i = 0; i + 1 < 128; ++i) {
    nl.buf("A_BUF" + std::to_string(i), from_ns(1), from_ns(2), chain[i], chain[i + 1]);
  }
  for (int i = 1; i + 1 < 20; ++i) {
    nl.buf("B_BUF" + std::to_string(i), from_ns(1), from_ns(2), island[i], island[i + 1]);
  }
  nl.finalize();
  ASSERT_EQ(chain[64].id, 64u);
  ASSERT_EQ(nl.signal(chain[64].id).driver, 64u);
  ASSERT_GE(nl.num_signals(), 130u);

  ConeIndex chain_idx(nl);
  auto part = chain_idx.cone_of({chain[64].id});
  ASSERT_EQ(part->signals.size(), 64u);
  ASSERT_EQ(part->prims.size(), 64u);
  for (std::uint32_t id = 0; id < nl.num_signals(); ++id) {
    const bool member = id >= 64 && id < 128;
    EXPECT_EQ(part->contains_signal(id), member) << "signal " << id;
    EXPECT_EQ(part->signal_slot[id], member ? static_cast<std::int32_t>(id - 64) : -1)
        << "signal " << id;
  }
  for (std::uint32_t id = 0; id < nl.num_prims(); ++id) {
    const bool member = id >= 64 && id < 128;
    EXPECT_EQ(part->contains_prim(id), member) << "prim " << id;
    EXPECT_EQ(part->prim_slot[id], member ? static_cast<std::int32_t>(id - 64) : -1)
        << "prim " << id;
  }
}

TEST(ConeIndex, MemoizesByNormalizedPinSet) {
  ConeFixture f;
  ConeIndex idx(f.nl);
  auto c1 = idx.cone_of({f.a.id, f.c.id});
  auto c2 = idx.cone_of({f.c.id, f.a.id, f.a.id});  // order/duplicates ignored
  EXPECT_EQ(c1.get(), c2.get());
  EXPECT_EQ(idx.cache_size(), 1u);
  auto c3 = idx.cone_of({f.a.id});
  EXPECT_NE(c1.get(), c3.get());
  EXPECT_EQ(idx.cache_size(), 2u);
}

// The pre-bitmap algorithm, kept as the oracle: a BFS over the netlist's
// own Signal::fanout / Primitive::output with netlist-sized marks, then one
// ascending scan per kind.
struct RefCone {
  std::vector<SignalId> signals;
  std::vector<PrimId> prims;
};

RefCone reference_cone(const Netlist& nl, const std::vector<SignalId>& pins) {
  std::vector<char> sig_in(nl.num_signals(), 0), prim_in(nl.num_prims(), 0);
  std::vector<SignalId> stack;
  auto mark_signal = [&](SignalId id) {
    if (sig_in[id]) return;
    sig_in[id] = 1;
    stack.push_back(id);
  };
  auto mark_prim = [&](PrimId id) {
    if (prim_in[id]) return;
    prim_in[id] = 1;
    const Primitive& p = nl.prim(id);
    if (!prim_is_checker(p.kind) && p.output != kNoSignal) mark_signal(p.output);
  };
  for (SignalId id : pins) {
    mark_signal(id);
    if (nl.signal(id).driver != kNoPrim) mark_prim(nl.signal(id).driver);
  }
  while (!stack.empty()) {
    SignalId id = stack.back();
    stack.pop_back();
    for (PrimId pid : nl.signal(id).fanout) mark_prim(pid);
  }
  RefCone r;
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    if (sig_in[id]) r.signals.push_back(id);
  }
  for (PrimId id = 0; id < nl.num_prims(); ++id) {
    if (prim_in[id]) r.prims.push_back(id);
  }
  return r;
}

// Every single-signal pin set plus 50 seeded 2-3-pin sets; returns the
// number of pin sets that disagreed with the oracle.
int compare_with_reference(const Netlist& nl, std::uint64_t seed) {
  ConeIndex idx(nl);
  std::vector<std::vector<SignalId>> pin_sets;
  for (SignalId id = 0; id < nl.num_signals(); ++id) pin_sets.push_back({id});
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<SignalId> pick(0, static_cast<SignalId>(nl.num_signals() - 1));
  for (int k = 0; k < 50; ++k) {
    std::vector<SignalId> pins(2 + k % 2);
    for (SignalId& id : pins) id = pick(rng);
    pin_sets.push_back(pins);
  }
  int mismatches = 0;
  for (const std::vector<SignalId>& pins : pin_sets) {
    auto cone = idx.cone_of(pins);
    RefCone want = reference_cone(nl, pins);
    if (cone->signals != want.signals || cone->prims != want.prims) {
      ADD_FAILURE() << "seed " << seed << ": cone of pin " << pins.front() << " (+"
                    << pins.size() - 1 << ") differs from the reference BFS";
      ++mismatches;
    }
    for (std::size_t i = 0; i < cone->signals.size(); ++i) {
      if (cone->signal_slot[cone->signals[i]] != static_cast<std::int32_t>(i)) ++mismatches;
    }
    for (std::size_t i = 0; i < cone->prims.size(); ++i) {
      if (cone->prim_slot[cone->prims[i]] != static_cast<std::int32_t>(i)) ++mismatches;
    }
  }
  return mismatches;
}

TEST(ConeIndex, MatchesReferenceBfs) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    check::BuiltCircuit bc = check::build(check::random_spec(seed));
    EXPECT_EQ(compare_with_reference(bc.nl, seed), 0) << "random_spec seed " << seed;
  }
  gen::S1Params p;
  p.stages = 2;
  p.clock_tree_bufs = 2;
  hdl::ElaboratedDesign d = gen::build_s1_design(p);
  ASSERT_GT(d.netlist.num_signals(), 128u);
  EXPECT_EQ(compare_with_reference(d.netlist, 65), 0) << "S-1 design";
}

TEST(ConeIndex, ConcurrentLookupsShareOneCone) {
  gen::S1Params p;
  p.stages = 2;
  p.clock_tree_bufs = 2;
  hdl::ElaboratedDesign d = gen::build_s1_design(p);
  const Netlist& nl = d.netlist;
  ConeIndex idx(nl);

  // Overlapping pin sets: every 7th signal alone and paired with its
  // successor. Each thread asks for them in its own order and spelling
  // (reversed, duplicated), so lookups race on the same keys.
  std::vector<std::vector<SignalId>> sets;
  for (SignalId id = 0; id + 1 < nl.num_signals(); id += 7) {
    sets.push_back({id});
    sets.push_back({id, id + 1});
  }
  std::set<std::vector<SignalId>> distinct(sets.begin(), sets.end());

  constexpr int kThreads = 4;
  std::vector<std::vector<const Cone*>> got(kThreads, std::vector<const Cone*>(sets.size()));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t k = 0; k < sets.size(); ++k) {
        std::size_t i = (t % 2 == 0) ? k : sets.size() - 1 - k;
        std::vector<SignalId> pins(sets[i].rbegin(), sets[i].rend());
        if (t >= 2) pins.push_back(pins.front());
        got[t][i] = idx.cone_of(std::move(pins)).get();
      }
    });
  }
  for (std::thread& th : threads) th.join();

  for (std::size_t i = 0; i < sets.size(); ++i) {
    ASSERT_NE(got[0][i], nullptr);
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(got[t][i], got[0][i]) << "set " << i;
  }
  EXPECT_EQ(idx.cache_size(), distinct.size());
}

// The index copies the fanout graph at construction, so after a retarget a
// stale index would answer from the old edges: it must report itself stale,
// and a fresh index must follow the new edge and drop the old one.
TEST(ConeIndex, FreshIndexFollowsRetargetAndStaleOneKnowsIt) {
  ConeFixture f;
  ConeIndex old_idx(f.nl);
  ASSERT_TRUE(old_idx.is_current());
  ASSERT_TRUE(old_idx.cone_of({f.c.id})->contains_prim(f.g2));
  ASSERT_FALSE(old_idx.cone_of({f.x.id})->contains_prim(f.g2));

  f.nl.retarget_input(f.g2, 1, f.y.id, false, "");  // G2 reads Y instead of C
  f.nl.finalize();
  EXPECT_FALSE(old_idx.is_current());

  ConeIndex fresh(f.nl);
  EXPECT_TRUE(fresh.is_current());
  auto via_y = fresh.cone_of({f.x.id});
  EXPECT_EQ(sigs(*via_y), (std::vector<SignalId>{f.d.id, f.x.id, f.y.id}));
  EXPECT_EQ(prims(*via_y), (std::vector<PrimId>{f.g2, f.g3, f.chk}));
  auto cut = fresh.cone_of({f.c.id});
  EXPECT_EQ(sigs(*cut), (std::vector<SignalId>{f.c.id}));
  EXPECT_TRUE(prims(*cut).empty());
}

TEST(ConeIndex, RejectsUnknownSignalsAndUnfinalizedNetlists) {
  ConeFixture f;
  ConeIndex idx(f.nl);
  EXPECT_THROW(idx.cone_of({static_cast<SignalId>(999)}), std::out_of_range);
  Netlist raw;
  raw.ref("LONE");
  EXPECT_THROW(ConeIndex bad(raw), std::logic_error);
}

}  // namespace
}  // namespace tv
