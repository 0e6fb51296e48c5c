// Tests for the SHDL front end (the textual stand-in for the SCALD Hardware
// Description Language, thesis sec. 3.1): lexer, parser, macro expansion
// with width parameters and scope markers, and end-to-end elaboration of
// the Fig 2-5 / Fig 3-5 register-file design.
#include <cstdint>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/compiled.hpp"
#include "core/verifier.hpp"
#include "gen/s1_design.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/lexer.hpp"
#include "hdl/parser.hpp"
#include "hdl/stdlib.hpp"

namespace tv::hdl {
namespace {

TEST(HdlLexer, TokensAndComments) {
  auto toks = lex("macro M(SIZE) { -- comment\n reg [delay=1.5:4.5] (\"A B .S0-6\") -> \"Q\"; }");
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].kind, Tok::Ident);
  EXPECT_EQ(toks[0].text(), "macro");
  EXPECT_EQ(toks[1].text(), "M");
  // The comment is skipped; "reg" follows the '{'.
  bool found_string = false;
  for (const auto& t : toks) {
    if (t.kind == Tok::String) {
      EXPECT_EQ(t.text(), "A B .S0-6");
      found_string = true;
      break;
    }
  }
  EXPECT_TRUE(found_string);
  EXPECT_EQ(toks.back().kind, Tok::End);
}

TEST(HdlLexer, ArrowVsMinusVsComment) {
  auto toks = lex("a -> b - 1 --x\n2");
  ASSERT_EQ(toks.size(), 7u);  // a, ->, b, -, 1, 2 (comment eats x), End
  EXPECT_EQ(toks[1].kind, Tok::Arrow);
  EXPECT_EQ(toks[3].kind, Tok::Minus);
}

TEST(HdlLexer, ErrorsCarryLineNumbers) {
  try {
    lex("ok tokens\n\"unterminated");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

/// One number spelling and what the lexer makes of it: its value, or a
/// malformed-number error (overflow and underflow included).
struct NumberSpelling {
  std::string text;
  double value;
  bool malformed;
};

std::vector<NumberSpelling> number_spellings() {
  return {
      {"1", 1, false},
      {"1.", 1, false},
      {".5", 0.5, false},
      {"007", 7, false},
      {"4.5", 4.5, false},
      {"1.2.3", 0, true},
      {"1..5", 0, true},
      {"1" + std::string(399, '0'), 0, true},         // 1e399 overflows
      {"0." + std::string(400, '0') + "1", 0, true},  // 1e-401 underflows
  };
}

TEST(HdlLexer, NumberSpellingsKeepTheirValuesAndErrors) {
  for (const NumberSpelling& c : number_spellings()) {
    SCOPED_TRACE(c.text.substr(0, 12));
    EXPECT_EQ(number_length(c.text + ":"), c.text.size());
    std::optional<double> read = read_number(c.text);
    EXPECT_EQ(read.has_value(), !c.malformed);
    if (read) {
      EXPECT_EQ(*read, c.value);
    }
    diag::DiagnosticEngine diags;
    std::vector<Token> toks = lex(c.text, diags);
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].kind, Tok::Number);
    EXPECT_EQ(toks[0].number, c.value);
    EXPECT_EQ(toks[0].column, 1);
    if (c.malformed) {
      ASSERT_EQ(diags.diagnostics().size(), 1u);
      const diag::Diagnostic& d = diags.diagnostics()[0];
      EXPECT_EQ(d.code, diag::kErrMalformedNumber);
      EXPECT_EQ(d.message, "malformed number \"" + c.text + "\"");
      EXPECT_EQ(d.loc.line, 1);
      EXPECT_EQ(d.loc.column, 1);
      EXPECT_THROW(lex(c.text), std::invalid_argument);
    } else {
      EXPECT_TRUE(diags.diagnostics().empty());
      EXPECT_EQ(lex(c.text)[0].number, c.value);
    }
  }
}

TEST(HdlParser, DesignSettingsAndCases) {
  File f = parse(R"(
    design EX {
      period 50.0;
      clock_unit 6.25;
      default_wire 0.0:2.0;
      precision_skew -1.0:1.0;
      case "CTL TRUE" { "CONTROL SIGNAL" = 1; }
      buf [delay=1.0:2.0] ("IN .S0-6") -> "OUT";
    }
  )");
  ASSERT_TRUE(f.has_design);
  EXPECT_EQ(f.design_name, "EX");
  EXPECT_DOUBLE_EQ(f.design.period_ns, 50.0);
  EXPECT_DOUBLE_EQ(f.design.clock_unit_ns, 6.25);
  EXPECT_DOUBLE_EQ(f.design.precision_skew[0], -1.0);
  ASSERT_EQ(f.design.cases.size(), 1u);
  EXPECT_EQ(f.design.cases[0].pins[0].first, "CONTROL SIGNAL");
  ASSERT_EQ(f.design.instances.size(), 1u);
  EXPECT_EQ(f.design.instances[0].kind, "buf");
}

TEST(HdlParser, SyntaxErrorsAreReported) {
  EXPECT_THROW(parse("design X { period; }"), std::invalid_argument);
  EXPECT_THROW(parse("macro M { }"), std::invalid_argument);       // missing ()
  EXPECT_THROW(parse("design X { } design Y { }"), std::invalid_argument);
  EXPECT_THROW(parse("bogus"), std::invalid_argument);
}

TEST(HdlElaborate, MacroWidthParametersExpand) {
  ElaboratedDesign d = elaborate_source(R"(
    macro WIDE_REG(SIZE) {
      param in "I<0:SIZE-1>", "CK";
      param out "Q<0:SIZE-1>";
      reg [delay=1.5:4.5, width=SIZE] ("I<0:SIZE-1>", "CK") -> "Q<0:SIZE-1>";
      setup_hold [setup=2.5, hold=1.5, width=SIZE] ("I<0:SIZE-1>", "CK");
    }
    design T {
      period 50.0;
      use WIDE_REG [SIZE=32] ("DATA .S0-6", "CLK .P2-3", "OUT REG");
    }
  )");
  EXPECT_EQ(d.summary.macro_instances, 1u);
  EXPECT_EQ(d.summary.primitives, 2u);
  // The register is 32 bits wide; the width lives on the primitive and the
  // signal, not in 32 replicated primitives (the thesis' key vectorization:
  // 8 282 primitives instead of 53 833).
  SignalId out = d.netlist.find("OUT REG");
  ASSERT_NE(out, kNoSignal);
  EXPECT_EQ(d.netlist.signal(out).width, 32);
  EXPECT_EQ(d.netlist.prim(0).width, 32);
}

TEST(HdlElaborate, LocalSignalsGetInstancePaths) {
  ElaboratedDesign d = elaborate_source(R"(
    macro TWO_BUF() {
      param in "A"; param out "B";
      buf ("A") -> "MID /M";
      buf ("MID /M") -> "B";
    }
    design T {
      period 50.0;
      use TWO_BUF [] ("X .S0-4", "Y1");
      use TWO_BUF [] ("X .S0-4", "Y2");
    }
  )");
  // Each instance gets a private MID: 4 buffers, 2 distinct local signals.
  EXPECT_EQ(d.summary.primitives, 4u);
  int mids = 0;
  for (SignalId id = 0; id < d.netlist.num_signals(); ++id) {
    const Signal& s = d.netlist.signal(id);
    if (s.base_name.find("MID") != std::string::npos) {
      ++mids;
      EXPECT_EQ(s.scope, SignalScope::Local);
      EXPECT_NE(s.base_name.find("TWO_BUF#"), std::string::npos) << s.base_name;
    }
  }
  EXPECT_EQ(mids, 2);
}

TEST(HdlElaborate, ComplementAndDirectivesSurviveSubstitution) {
  ElaboratedDesign d = elaborate_source(R"(
    macro CHK() {
      param in "D", "CK";
      setup_hold [setup=4.5, hold=-1.0] ("D", "- CK");
    }
    design T {
      period 50.0;
      use CHK [] ("W DATA .S0-6", "WE SIG");
      and ("CK .P2-3 &H", "WRITE .S0-6") -> "WE SIG";
    }
  )");
  // The checker's clock pin is the complement of WE SIG.
  const Primitive& chk = d.netlist.prim(0);
  EXPECT_EQ(chk.kind, PrimKind::SetupHoldChk);
  EXPECT_TRUE(chk.inputs[1].invert);
  EXPECT_EQ(d.netlist.signal(chk.inputs[1].sig).base_name, "WE SIG");
  // The AND gate's first pin carries the "&H" directive.
  const Primitive& gate = d.netlist.prim(1);
  EXPECT_EQ(gate.inputs[0].directives, "H");
}

// An '&' inside a name is part of it: only an '&' that begins a token
// starts a directive string (sec. 2.6), in the elaborator as in the netlist.
TEST(HdlElaborate, EmbeddedAmpersandIsPartOfTheName) {
  ElaboratedDesign d = elaborate_source(R"(
    design T {
      period 50.0;
      clock_unit 1.0;
      buf [delay=1.0:2.0] ("A&B .S0-6") -> "X";
    }
  )");
  SignalId s = d.netlist.find("A&B .S0-6");
  ASSERT_NE(s, kNoSignal);
  EXPECT_EQ(d.netlist.signal(s).base_name, "A&B");
  EXPECT_EQ(d.netlist.signal(s).assertion, parse_signal_name("X .S0-6").assertion);
  EXPECT_TRUE(d.netlist.prim(0).inputs[0].directives.empty());
}

TEST(HdlElaborate, ErrorsAreDiagnosed) {
  EXPECT_THROW(elaborate_source("design T { period 50.0; bogus (\"A\") -> \"B\"; }"),
               std::invalid_argument);
  EXPECT_THROW(elaborate_source("design T { period 50.0; use NOPE [] (\"A\"); }"),
               std::invalid_argument);
  EXPECT_THROW(elaborate_source("design T { buf (\"A\") -> \"B\"; }"),  // no period
               std::invalid_argument);
  // Wrong pin count for a macro.
  EXPECT_THROW(elaborate_source(R"(
    macro M() { param in "A"; param out "B"; buf ("A") -> "B"; }
    design T { period 50.0; use M [] ("X"); }
  )"),
               std::invalid_argument);
}

// The Fig 2-5 design written in SHDL with the Fig 3-5 chip macro: the same
// two errors as the hand-built netlist must fall out.
constexpr const char* kRegfileSource = R"(
-- 16-word RAM timing model, Fig 3-5 (F10145A data sheet values)
macro RAM_16W_10145A(SIZE) {
  param in "I<0:SIZE-1>", "A<0:3>", "WE";
  param out "DO<0:SIZE-1>";
  setup_hold [setup=4.5, hold=-1.0, width=SIZE] ("I<0:SIZE-1>", "- WE");
  setup_rise_hold_fall [setup=3.5, hold=1.0, width=4] ("A<0:3>", "WE");
  min_pulse_width [min_high=4.0] ("WE");
  chg [delay=3.0:6.0, width=SIZE] ("A<0:3>", "WE") -> "DO<0:SIZE-1>";
}

-- Edge-triggered register chip, Fig 3-7
macro REG_10176(SIZE) {
  param in "I<0:SIZE-1>", "CK";
  param out "Q<0:SIZE-1>";
  reg [delay=1.5:4.5, width=SIZE] ("I<0:SIZE-1>", "CK") -> "Q<0:SIZE-1>";
  setup_hold [setup=2.5, hold=1.5, width=SIZE] ("I<0:SIZE-1>", "CK");
}

design REGFILE_EXAMPLE {
  period 50.0;
  clock_unit 6.25;
  default_wire 0.0:2.0;
  precision_skew -1.0:1.0;

  -- address multiplexer: clock drives the select (&Z refers timing to the
  -- gating buffer output); 0.3-1.2 ns extra select delay per Fig 3-6
  buf ("CK .P0-4 &Z") -> "ADR SEL RAW";
  buf [delay=0.3:1.2] ("ADR SEL RAW") -> "ADR SEL";
  wire_delay "ADR SEL RAW" 0:0;
  wire_delay "ADR SEL" 0:0;
  wire_delay "WRITE ADR .S0-6" 0:0;
  wire_delay "READ ADR .S4-9" 0:0;
  mux2 [delay=1.2:3.3, width=4] ("ADR SEL", "READ ADR .S4-9", "WRITE ADR .S0-6")
      -> "ADR<0:3>";
  wire_delay "ADR<0:3>" 0.0:6.0;

  -- gated write enable (&H: WRITE checked stable while CK asserted)
  and [delay=1.0:2.9] ("CK .P2-3 &H", "WRITE .S0-6") -> "WE";
  wire_delay "WE" 0:0;

  use RAM_16W_10145A [SIZE=32] ("W DATA .S0-6", "ADR<0:3>", "WE", "RAM OUT<0:31>");

  or [delay=1.0:3.0, width=32] ("RAM OUT<0:31>", "READ EN .S0-8") -> "REG DATA<0:31>";
  wire_delay "REG DATA<0:31>" 0:0;
  use REG_10176 [SIZE=32] ("REG DATA<0:31>", "REG CLK .P8-9", "REG OUT<0:31>");
}
)";

TEST(HdlElaborate, RegfileDesignReproducesFig311) {
  ElaboratedDesign d = elaborate_source(kRegfileSource);
  EXPECT_EQ(d.name, "REGFILE_EXAMPLE");
  EXPECT_EQ(d.summary.macro_instances, 2u);
  EXPECT_EQ(d.options.period, from_ns(50.0));
  EXPECT_EQ(d.options.units.ps_per_unit(), from_ns(6.25));

  Verifier v(d.netlist, d.options);
  VerifyResult r = v.verify(d.cases);
  ASSERT_EQ(r.violations.size(), 2u) << violations_report(r.violations);
  EXPECT_EQ(r.violations[0].missed_by, from_ns(3.5));
  EXPECT_NE(r.violations[0].message.find("11.5:R"), std::string::npos);
  EXPECT_EQ(r.violations[1].missed_by, from_ns(1.0));
  EXPECT_NE(r.violations[1].message.find("47.5:S"), std::string::npos);
  EXPECT_NE(r.violations[1].message.find("49.0:R"), std::string::npos);
}

TEST(HdlElaborate, SummaryCountsMatchNetlist) {
  ElaboratedDesign d = elaborate_source(kRegfileSource);
  EXPECT_EQ(d.summary.primitives, d.netlist.num_prims());
  std::size_t total = 0;
  for (const auto& [kind, n] : d.summary.prims_by_kind) total += n;
  EXPECT_EQ(total, d.summary.primitives);
  EXPECT_GE(d.summary.unique_signals, 10u);
}

}  // namespace
}  // namespace tv::hdl

namespace tv::hdl {
namespace {

TEST(HdlStdlib, LibraryParsesAndProvidesChips) {
  ElaboratedDesign d = elaborate_sources({std_chip_library(), R"(
    design LIBTEST {
      period 50.0;
      clock_unit 6.25;
      default_wire 0.0:2.0;
      precision_skew -1.0:1.0;
      use OR2_10102 [] ("A .S0-6", "B .S0-6", "AB");
      use REG_10176 [SIZE=8] ("AB", "CK .P6-7", "Q<0:7>");
      use PARITY_10160 [SIZE=8] ("Q<0:7>", "PAR");
      use MUX8_10164 [SIZE=4] ("S0 .S0-6", "S1 .S0-6", "S2 .S0-6",
        "Q<0:7>", "Q<0:7>", "Q<0:7>", "Q<0:7>",
        "Q<0:7>", "Q<0:7>", "Q<0:7>", "Q<0:7>", "MX<0:3>");
    }
  )"});
  EXPECT_EQ(d.summary.macro_instances, 4u);
  EXPECT_NE(d.netlist.find("Q<0:7>"), kNoSignal);
  Verifier v(d.netlist, d.options);
  VerifyResult r = v.verify();
  EXPECT_TRUE(r.converged);
}

TEST(HdlStdlib, AluChipHasLatchAndChecker) {
  ElaboratedDesign d = elaborate_sources({std_chip_library(), R"(
    design ALUTEST {
      period 50.0;
      clock_unit 6.25;
      use ALU_10181 [SIZE=36] ("A<0:35> .S1-7", "B<0:35> .S1-7", "FN<0:3> .S1-7",
                               "EN CLK .P5-6", "F<0:35>");
    }
  )"});
  // chg + latch + setup_rise_hold_fall = 3 primitives.
  EXPECT_EQ(d.summary.primitives, 3u);
  Verifier v(d.netlist, d.options);
  VerifyResult r = v.verify();
  EXPECT_TRUE(r.violations.empty()) << violations_report(r.violations);
}

TEST(HdlStdlib, DuplicateMacroAcrossSourcesIsRejected) {
  EXPECT_THROW(elaborate_sources({std_chip_library(), std_chip_library()}),
               std::invalid_argument);
  EXPECT_THROW(elaborate_sources({"design A { period 10.0; }", "design B { period 10.0; }"}),
               std::invalid_argument);
}

}  // namespace
}  // namespace tv::hdl

namespace tv::hdl {
namespace {

TEST(HdlSynonym, NamesMergeToOneSignal) {
  // The Macro Expander's Pass 1 synonym resolution: one net known by two
  // names (e.g. renamed across drawing pages).
  ElaboratedDesign d = elaborate_source(R"(
    design T {
      period 50.0;
      buf [delay=1.0:2.0] ("IN .S0-6") -> "ALPHA";
      buf [delay=1.0:2.0] ("BETA") -> "OUT";
      synonym "ALPHA" = "BETA";
    }
  )");
  // Both names resolve to the same id; the second buffer's input is driven
  // by the first buffer.
  SignalId a = d.netlist.find("ALPHA");
  SignalId b = d.netlist.find("BETA");
  EXPECT_EQ(a, b);
  Verifier v(d.netlist, d.options);
  v.verify();
  // OUT follows IN through both buffers: changing appears downstream.
  SignalId out = d.netlist.find("OUT");
  EXPECT_TRUE(d.netlist.signal(out).wave.has_activity());
}

TEST(HdlSynonym, ConflictingAssertionsRejected) {
  EXPECT_THROW(elaborate_source(R"(
    design T {
      period 50.0;
      buf ("X .S0-4") -> "Y";
      synonym "A .S0-4" = "B .S1-5";
    }
  )"),
               std::invalid_argument);
}

TEST(HdlSynonym, AssertionTransfersAcrossSynonym) {
  ElaboratedDesign d = elaborate_source(R"(
    design T {
      period 50.0;
      clock_unit 1.0;
      buf [delay=1.0:2.0] ("PLAIN NAME") -> "OUT";
      synonym "PLAIN NAME" = "TIMED NAME .S10-55";
    }
  )");
  SignalId s = d.netlist.find("PLAIN NAME");
  ASSERT_NE(s, kNoSignal);
  EXPECT_EQ(d.netlist.signal(s).assertion.kind, Assertion::Kind::Stable);
  Verifier v(d.netlist, d.options);
  v.verify();
  EXPECT_EQ(d.netlist.signal(s).wave.at(from_ns(20)), Value::Stable);
  EXPECT_EQ(d.netlist.signal(s).wave.at(from_ns(5)), Value::Change);
}

}  // namespace
}  // namespace tv::hdl

// --- front-end output pins ---------------------------------------------------
//
// The elaborator's output is pinned by content digest: signal and primitive
// ids, names, the summary and the case map all feed the compiled artifact's
// bytes, so any change to creation order or naming moves a digest. A front
// end change that is meant to be invisible must leave these values alone.

namespace tv::hdl {
namespace {

std::string read_design(const std::string& name) {
  std::ifstream in(std::string(TV_REPO_ROOT) + "/designs/" + name);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Parses the standard library and `design` into one File, the way
// elaborate_sources merges them.
File merge_with_stdlib(std::string_view design) {
  File merged = parse(std_chip_library());
  File f = parse(design);
  merged.has_design = f.has_design;
  merged.design_name = f.design_name;
  merged.design = std::move(f.design);
  merged.design_line = f.design_line;
  merged.end_line = f.end_line;
  return merged;
}

// Artifact bytes exactly as scaldtvc writes them, digested with 64-bit FNV-1a.
std::uint64_t artifact_digest(ElaboratedDesign& d) {
  CompiledSummary summary;
  summary.macro_instances = d.summary.macro_instances;
  summary.primitives = d.summary.primitives;
  summary.unique_signals = d.summary.unique_signals;
  summary.total_bits = d.summary.total_bits;
  summary.prims_by_kind = d.summary.prims_by_kind;
  CompiledDesign c = compile_design(d.name, d.netlist, d.options, d.cases, summary);
  std::string bytes = serialize_compiled(c);
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

gen::S1Params s1_16() {
  gen::S1Params p;
  p.stages = 16;
  return p;
}

TEST(HdlFrontEndPins, CompiledBytesMatchRecordedDigests) {
  diag::DiagnosticEngine diags;
  diags.set_current_file("designs/regfile_example.shdl");
  std::optional<ElaboratedDesign> regfile =
      elaborate_source(read_design("regfile_example.shdl"), diags);
  ASSERT_TRUE(regfile.has_value());
  EXPECT_EQ(artifact_digest(*regfile), 0x4157b469331b96eeull);

  std::string pipeline_src = read_design("stdlib_pipeline.shdl");
  std::optional<ElaboratedDesign> pipeline = elaborate_sources(
      {{"<stdlib>", std_chip_library()}, {"designs/stdlib_pipeline.shdl", pipeline_src}},
      diags);
  ASSERT_TRUE(pipeline.has_value());
  EXPECT_EQ(artifact_digest(*pipeline), 0xb82b306b3db871e2ull);
  EXPECT_FALSE(diags.has_errors());

  ElaboratedDesign s1 = gen::build_s1_design(s1_16());
  EXPECT_EQ(artifact_digest(s1), 0xbc2c17232bb64df2ull);
}

// A wire_delay-only signal, one a macro's wire_delay names before a later pin
// creates it, and a synonym pair: pass 1 and pass 2 count the same names.
constexpr const char* kCountFixture = R"(
  macro SLOW(SIZE) {
    param in "D<0:SIZE-1>";
    param out "Q<0:SIZE-1>";
    buf [delay=1.0:2.0, width=SIZE] ("D<0:SIZE-1>") -> "T/M";
    buf [delay=1.0:2.0, width=SIZE] ("T/M") -> "Q<0:SIZE-1>";
    wire_delay "LATER NET" 0:1;
    wire_delay "U/M" 0:1;
  }
  design COUNT {
    period 50.0;
    clock_unit 1.0;
    buf [delay=1.0:2.0] ("A .S0-6") -> "B";
    use SLOW [SIZE=4] ("B", "C<0:3>");
    not [delay=1.0:2.0] ("LATER NET") -> "E";
    wire_delay "B" 0:1;
    wire_delay "ONLY WIRE" 0:1;
    wire_delay "- ONLY WIRE &H" 0:2;
    synonym "E" = "E ALIAS";
  }
)";

TEST(HdlFrontEndPins, PassOneAndPassTwoCountTheSameSignals) {
  File fixture = parse(kCountFixture);
  ElaboratedDesign fd = elaborate(fixture);
  // A, B, C<0:3>, SLOW#0/T, LATER NET, E, SLOW#0/U, ONLY WIRE.
  EXPECT_EQ(fd.summary.unique_signals, 8u);
  EXPECT_EQ(expand_summary(fixture).unique_signals, fd.summary.unique_signals);

  File regfile = parse(read_design("regfile_example.shdl"));
  EXPECT_EQ(expand_summary(regfile).unique_signals, elaborate(regfile).summary.unique_signals);

  File pipeline = merge_with_stdlib(read_design("stdlib_pipeline.shdl"));
  EXPECT_EQ(expand_summary(pipeline).unique_signals,
            elaborate(pipeline).summary.unique_signals);

  File s1 = parse(gen::generate_s1_shdl(s1_16()));
  EXPECT_EQ(expand_summary(s1).unique_signals, elaborate(s1).summary.unique_signals);
}

}  // namespace
}  // namespace tv::hdl
