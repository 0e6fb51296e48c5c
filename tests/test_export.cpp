// Tests for the VCD and JSON exporters.
#include "core/export.hpp"

#include <gtest/gtest.h>

#include "gen/regfile_example.hpp"
#include "util/json.hpp"

namespace tv {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ex_ = gen::build_regfile_example(nl_);
    Verifier v(nl_, ex_.options);
    result_ = v.verify();
    slacks_ = compute_slacks(v.evaluator());
  }
  Netlist nl_;
  gen::RegfileExample ex_;
  VerifyResult result_;
  std::vector<SlackEntry> slacks_;
};

TEST_F(ExportTest, VcdStructure) {
  std::string vcd = export_vcd(nl_, ex_.options.period, "regfile");
  EXPECT_NE(vcd.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module regfile $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  // One $var per signal; spaces replaced for VCD identifiers.
  std::size_t vars = 0;
  for (std::size_t pos = 0; (pos = vcd.find("$var wire 1 ", pos)) != std::string::npos; ++pos) {
    ++vars;
  }
  EXPECT_EQ(vars, nl_.num_signals());
  EXPECT_NE(vcd.find("REG_DATA<0:31>"), std::string::npos);
  // Two cycles are dumped: a timestamp at exactly one period must exist.
  EXPECT_NE(vcd.find("#" + std::to_string(ex_.options.period)), std::string::npos);
  // Timestamps are ordered.
  long long last = -1;
  for (std::size_t pos = 0; (pos = vcd.find('\n' , pos)) != std::string::npos;) {
    ++pos;
    if (pos < vcd.size() && vcd[pos] == '#') {
      long long t = std::stoll(vcd.substr(pos + 1));
      EXPECT_GT(t, last);
      last = t;
    }
  }
}

TEST_F(ExportTest, VcdValueMapping) {
  // The WE pulse: z (stable)? no -- WE is 0/1: check '0' and '1' changes of
  // its id appear; ADR (symbolic) contributes 'z' and 'x' states.
  std::string vcd = export_vcd(nl_, ex_.options.period);
  EXPECT_NE(vcd.find('z'), std::string::npos);
  EXPECT_NE(vcd.find('x'), std::string::npos);
}

TEST_F(ExportTest, JsonContainsViolationsAndSlacks) {
  std::string json =
      export_json(nl_, result_, ex_.options.period, slacks_, "REGFILE_EXAMPLE");
  EXPECT_NE(json.find("\"design\": \"REGFILE_EXAMPLE\""), std::string::npos);
  EXPECT_NE(json.find("\"period_ns\": 50.0"), std::string::npos);
  EXPECT_NE(json.find("\"total_violations\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"type\": \"SETUP TIME\""), std::string::npos);
  EXPECT_NE(json.find("\"missed_by_ns\": 3.5"), std::string::npos);
  EXPECT_NE(json.find("\"missed_by_ns\": 1.0"), std::string::npos);
  EXPECT_NE(json.find("\"setup_slack_ns\""), std::string::npos);
  // The whole export is valid JSON (JsonWriters.ExportJsonRoundTrips covers
  // the escaping of every special character).
  json::Value parsed;
  std::string error;
  EXPECT_TRUE(json::parse(json, parsed, &error)) << error;
}

TEST_F(ExportTest, JsonEmptyResultIsWellFormed) {
  Netlist nl;
  nl.buf("B", 0, 0, nl.ref("A .S0-4"), nl.ref("X"));
  nl.finalize();
  VerifierOptions o;
  o.period = from_ns(50);
  Verifier v(nl, o);
  VerifyResult r = v.verify();
  std::string json = export_json(nl, r, o.period);
  EXPECT_NE(json.find("\"violations\": [\n  ]"), std::string::npos);
  EXPECT_NE(json.find("\"total_violations\": 0"), std::string::npos);
}

}  // namespace
}  // namespace tv

namespace tv {
namespace {

TEST(ExportDot, GraphStructureAndHighlight) {
  Netlist nl;
  Ref in = nl.ref("IN .S0-6");
  Ref mid = nl.ref("MID");
  nl.buf("B1", 0, 0, in, mid);
  Ref out = nl.ref("OUT");
  nl.buf("B2", 0, 0, mid, out);
  nl.setup_hold_chk("CHK", from_ns(1), 0, out, nl.ref("CK .P4-5"));
  nl.finalize();
  std::string dot = export_dot(nl, {mid.id}, "demo");
  EXPECT_NE(dot.find("digraph \"demo\""), std::string::npos);
  EXPECT_NE(dot.find("shape=doubleoctagon"), std::string::npos);  // the checker
  EXPECT_NE(dot.find("color=red"), std::string::npos);            // highlighted MID
  EXPECT_NE(dot.find("label=\"IN .S0-6\""), std::string::npos);   // input node
  // Balanced braces and one edge per fanout entry.
  std::size_t edges = 0;
  for (std::size_t pos = 0; (pos = dot.find(" -> ", pos)) != std::string::npos; ++pos) ++edges;
  EXPECT_EQ(edges, 4u);  // in->B1, mid->B2, out->CHK, ck->CHK
}

}  // namespace
}  // namespace tv
