// Tests for the circuit data model: reference identity, builder
// validation, finalize() structural checks, and the Table 3-2 style
// statistics the netlist carries.
#include "core/netlist.hpp"

#include <string>

#include <gtest/gtest.h>

namespace tv {
namespace {

TEST(Netlist, RefIdentityIsFullName) {
  Netlist nl;
  Ref a1 = nl.ref("MEM CLK .P2-3");
  Ref a2 = nl.ref("MEM CLK .P2-3");
  Ref b = nl.ref("MEM CLK .P2-4");  // different assertion -> different signal
  EXPECT_EQ(a1.id, a2.id);
  EXPECT_NE(a1.id, b.id);
  EXPECT_EQ(nl.find("MEM CLK .P2-3"), a1.id);
  EXPECT_EQ(nl.find("NOPE"), kNoSignal);
}

TEST(Netlist, ComplementDoesNotCreateNewSignal) {
  Netlist nl;
  Ref pos = nl.ref("WE");
  Ref neg = nl.ref("- WE");
  EXPECT_EQ(pos.id, neg.id);
  EXPECT_FALSE(pos.invert);
  EXPECT_TRUE(neg.invert);
}

TEST(Netlist, WidthGrowsToWidestReference) {
  Netlist nl;
  Ref a = nl.ref("BUS", 8);
  nl.ref("BUS", 16);
  nl.ref("BUS", 4);
  EXPECT_EQ(nl.signal(a.id).width, 16);
}

TEST(Netlist, FinalizeRejectsMultipleDrivers) {
  Netlist nl;
  Ref out = nl.ref("X");
  nl.buf("B1", 0, 0, nl.ref("A"), out);
  nl.buf("B2", 0, 0, nl.ref("B"), out);
  EXPECT_THROW(nl.finalize(), std::logic_error);
}

TEST(Netlist, FinalizeRejectsDrivenClockAssertion) {
  // A clock assertion *defines* the waveform; driving the same signal
  // would make verification circular.
  Netlist nl;
  Ref ck = nl.ref("CK .P2-3");
  nl.buf("B", 0, 0, nl.ref("A"), ck);
  EXPECT_THROW(nl.finalize(), std::logic_error);
}

TEST(Netlist, DrivenStableAssertionIsAllowed) {
  // Stable assertions on generated signals are checked, not seeds.
  Netlist nl;
  nl.buf("B", 0, 0, nl.ref("A .S0-4"), nl.ref("OUT .S1-6"));
  EXPECT_NO_THROW(nl.finalize());
}

TEST(Netlist, FinalizeRejectsWrongPinCounts) {
  {
    Netlist nl;
    Primitive p;
    p.kind = PrimKind::Mux2;
    p.name = "M";
    p.inputs = {Pin{nl.ref("A").id, false, ""}};  // needs 3
    p.output = nl.ref("Q").id;
    nl.add_prim(std::move(p));
    EXPECT_THROW(nl.finalize(), std::logic_error);
  }
  {
    Netlist nl;
    Primitive p;
    p.kind = PrimKind::Reg;
    p.name = "R";
    p.inputs = {Pin{nl.ref("D").id, false, ""}, Pin{nl.ref("CK").id, false, ""}};
    // no output
    nl.add_prim(std::move(p));
    EXPECT_THROW(nl.finalize(), std::logic_error);
  }
}

TEST(Netlist, CheckersMustNotDrive) {
  Netlist nl;
  Primitive p;
  p.kind = PrimKind::SetupHoldChk;
  p.name = "C";
  p.inputs = {Pin{nl.ref("D").id, false, ""}, Pin{nl.ref("CK").id, false, ""}};
  p.output = nl.ref("Q").id;
  nl.add_prim(std::move(p));
  EXPECT_THROW(nl.finalize(), std::logic_error);
}

TEST(Netlist, FanoutCallListsAreComputed) {
  Netlist nl;
  Ref a = nl.ref("A");
  PrimId b1 = nl.buf("B1", 0, 0, a, nl.ref("X"));
  PrimId b2 = nl.buf("B2", 0, 0, a, nl.ref("Y"));
  nl.or_gate("G", 0, 0, {nl.ref("X"), nl.ref("Y")}, nl.ref("Z"));
  nl.finalize();
  const auto& fo = nl.signal(a.id).fanout;
  ASSERT_EQ(fo.size(), 2u);
  EXPECT_EQ(fo[0], b1);
  EXPECT_EQ(fo[1], b2);
  EXPECT_EQ(nl.signal(nl.find("X")).driver, b1);
}

TEST(Netlist, InvalidDelayRangesThrowOnConstruction) {
  Netlist nl;
  EXPECT_THROW(nl.buf("B", from_ns(3), from_ns(2), nl.ref("A"), nl.ref("X")),
               std::invalid_argument);
  EXPECT_THROW(nl.set_wire_delay(nl.ref("A").id, from_ns(2), from_ns(1)),
               std::invalid_argument);
}

TEST(Netlist, OutputComplementRejected) {
  Netlist nl;
  EXPECT_THROW(nl.buf("B", 0, 0, nl.ref("A"), nl.ref("- X")), std::invalid_argument);
}

TEST(Netlist, RefinalizeAfterEditing) {
  Netlist nl;
  Ref a = nl.ref("A");
  nl.buf("B1", 0, 0, a, nl.ref("X"));
  nl.finalize();
  EXPECT_TRUE(nl.finalized());
  nl.buf("B2", 0, 0, nl.ref("X"), nl.ref("Y"));
  EXPECT_FALSE(nl.finalized());  // adding invalidates
  nl.finalize();
  EXPECT_EQ(nl.signal(nl.find("X")).fanout.size(), 1u);
}

TEST(Netlist, PrimKindNames) {
  EXPECT_EQ(prim_kind_name(PrimKind::RegSR), "REG RS");
  EXPECT_EQ(prim_kind_name(PrimKind::Mux8), "8 MUX");
  EXPECT_EQ(prim_kind_name(PrimKind::SetupHoldChk), "SETUP HOLD CHK");
  EXPECT_TRUE(prim_is_checker(PrimKind::MinPulseWidthChk));
  EXPECT_FALSE(prim_is_checker(PrimKind::Latch));
}

// --- the name index ---------------------------------------------------------

TEST(NameIndex, FindsEveryNameAcrossSeveralRehashes) {
  Netlist nl;
  std::size_t rehashes = 0;
  std::size_t slots = nl.name_index().slot_count();
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(nl.ref("NET " + std::to_string(i)).id, static_cast<SignalId>(i));
    if (nl.name_index().slot_count() != slots) {
      slots = nl.name_index().slot_count();
      ++rehashes;
    }
  }
  EXPECT_GE(rehashes, 5u);
  EXPECT_EQ(nl.name_index().size(), 5000u);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(nl.find("NET " + std::to_string(i)), static_cast<SignalId>(i));
  }
  EXPECT_EQ(nl.find("NET 5000"), kNoSignal);
  EXPECT_EQ(nl.find("NET"), kNoSignal);
  EXPECT_EQ(nl.find(""), kNoSignal);
}

TEST(NameIndex, MergedNameFollowsTheKeeperAfterTheDroppedSignalIsRenamed) {
  Netlist nl;
  SignalId keep = nl.ref("KEEP").id;
  SignalId drop = nl.ref("DROP").id;
  nl.merge_signals(keep, drop);
  EXPECT_EQ(nl.find("DROP"), keep);
  // Renaming the orphan leaves its old name with the keeper.
  ParsedSignal renamed = parse_signal_name("DROP2 .S0-6");
  nl.set_assertion(drop, renamed.assertion, renamed.base_name, renamed.full_name);
  EXPECT_EQ(nl.find("KEEP"), keep);
  EXPECT_EQ(nl.find("DROP"), keep);
  EXPECT_EQ(nl.find("DROP2 .S0-6"), drop);
  // Renaming the keeper moves only the name that was its own.
  ParsedSignal kept = parse_signal_name("KEEP .S0-6");
  nl.set_assertion(keep, kept.assertion, kept.base_name, kept.full_name);
  EXPECT_EQ(nl.find("KEEP"), kNoSignal);
  EXPECT_EQ(nl.find("KEEP .S0-6"), keep);
  EXPECT_EQ(nl.find("DROP"), keep);
  EXPECT_THROW(nl.set_assertion(drop, kept.assertion, kept.base_name, kept.full_name),
               std::invalid_argument);
}

TEST(NameIndex, PushSignalOfATakenNameKeepsTheFirstOwner) {
  Netlist nl;
  SignalId first = nl.ref("SYN").id;
  Signal orphan;
  orphan.full_name = "SYN";
  orphan.base_name = "SYN";
  SignalId pushed = nl.push_signal(std::move(orphan));
  EXPECT_EQ(pushed, first + 1);
  EXPECT_EQ(nl.num_signals(), 2u);
  EXPECT_EQ(nl.find("SYN"), first);
  EXPECT_EQ(nl.name_index().size(), 1u);
}

TEST(NameIndex, RenameAndInverseStayBounded) {
  Netlist nl;
  for (int i = 0; i < 100; ++i) nl.ref("N" + std::to_string(i));
  const SignalId id = nl.find("N7");
  ParsedSignal plain = parse_signal_name("N7");
  ParsedSignal asserted = parse_signal_name("N7 .S0-6");
  auto pair = [&] {
    nl.set_assertion(id, asserted.assertion, asserted.base_name, asserted.full_name);
    nl.set_assertion(id, plain.assertion, plain.base_name, plain.full_name);
  };
  const std::size_t live_bytes = nl.name_index().arena_bytes();
  for (int i = 0; i < 10000; ++i) pair();
  // Tombstones and dead entries are dropped on rehash: the table stays sized
  // by its 100 live names, and the arena holds at most as many dead bytes as
  // live ones (past a 4 KiB floor), give or take the entry being renamed.
  EXPECT_LE(nl.name_index().slot_count(), 8 * nl.name_index().size());
  EXPECT_LE(nl.name_index().arena_bytes(), 2 * live_bytes + 4096 + 64);
  EXPECT_EQ(nl.name_index().size(), 100u);
  EXPECT_EQ(nl.find("N7"), id);
  EXPECT_EQ(nl.find("N7 .S0-6"), kNoSignal);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(nl.find("N" + std::to_string(i)), SignalId(i));
}

}  // namespace
}  // namespace tv
