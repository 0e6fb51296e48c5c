// Golden corpus for the diagnostics subsystem: every malformed design in
// tests/diagnostics/ is run through the recovering front end and the
// rendered diagnostics (plus the accept/reject verdict) are byte-compared
// against the checked-in .golden.txt. Also covers the engine-side
// robustness contracts: unconverged-loop localization (Tarjan SCC over the
// hot primitives), static zero-delay-loop detection at finalize, resource
// degradation (segment cap / wall-clock limit -> partial results), and the
// scaldtv exit-code matrix via subprocess runs.
//
// To regenerate after an intentional change:
//   TV_UPDATE_GOLDEN=1 ./tv_tests --gtest_filter='GoldenDiagnostics.*'
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "check/parser_fuzz.hpp"
#include "check/rand_netlist.hpp"
#include "core/export.hpp"
#include "core/verifier.hpp"
#include "diag/diagnostic.hpp"
#include "diag/render.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/parser.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"
#include "hdl/stdlib.hpp"

namespace {

using namespace tv;

const char* const kCorpus[] = {
    "unterminated_string", "bad_char",       "bad_number",     "three_errors",
    "duplicate_macro",     "no_design",      "bad_period",     "bad_case_value",
    "unknown_macro",       "unknown_param",  "wrong_pin_count", "negative_delay",
    "duplicate_driver",    "zero_delay_loop", "macro_backtrace", "bad_signal_text",
};

std::string corpus_dir() { return std::string(TV_REPO_ROOT) + "/tests/diagnostics"; }

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

struct FrontEndRun {
  bool accepted = false;
  diag::DiagnosticEngine diags;
  std::optional<hdl::ElaboratedDesign> design;
};

/// Runs one corpus file through the diagnostic front end. Locations are
/// stamped with the bare file name so goldens are machine-independent.
FrontEndRun run_front_end(const std::string& name) {
  FrontEndRun r;
  std::string src = read_file(corpus_dir() + "/" + name + ".shdl");
  r.diags.set_current_file(name + ".shdl");
  r.design = hdl::elaborate_source(src, r.diags);
  r.accepted = r.design.has_value();
  return r;
}

std::string render_run(const FrontEndRun& r) {
  std::string out = diag::render_text(r.diags);
  out += r.accepted ? "front end: accepted\n" : "front end: rejected\n";
  return out;
}

void compare_to_golden(const std::string& name, const std::string& rendered) {
  const std::string path = corpus_dir() + "/" + name + ".golden.txt";
  if (std::getenv("TV_UPDATE_GOLDEN") != nullptr) {
    std::string error;
    ASSERT_TRUE(tv::util::atomic_write_file(path, rendered, &error))
        << "cannot write " << path << ": " << error;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " -- run with TV_UPDATE_GOLDEN=1 to create it";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), rendered) << "diagnostics for " << name
                                     << " diverged from " << path;
}

TEST(GoldenDiagnostics, Corpus) {
  for (const char* name : kCorpus) {
    SCOPED_TRACE(name);
    FrontEndRun r = run_front_end(name);
    compare_to_golden(name, render_run(r));
  }
}

// Acceptance criterion: a design with three injected syntax errors reports
// all three in one run, each with file, line, and column, and is rejected.
TEST(GoldenDiagnostics, ThreeErrorsReportedInOneRun) {
  FrontEndRun r = run_front_end("three_errors");
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.diags.error_count(), 3u);
  for (const diag::Diagnostic& d : r.diags.diagnostics()) {
    EXPECT_EQ(d.loc.file, "three_errors.shdl");
    EXPECT_GT(d.loc.line, 0);
    EXPECT_GT(d.loc.column, 0);
    EXPECT_EQ(d.code, diag::kErrExpectedToken);
  }
}

TEST(GoldenDiagnostics, MaxErrorsCapsTheRun) {
  std::string src = read_file(corpus_dir() + "/three_errors.shdl");
  diag::DiagnosticEngine::Options opts;
  opts.max_errors = 2;
  diag::DiagnosticEngine diags(opts);
  diags.set_current_file("three_errors.shdl");
  auto d = hdl::elaborate_source(src, diags);
  EXPECT_FALSE(d.has_value());
  EXPECT_TRUE(diags.error_limit_reached());
  // Cap of 2, plus the SHDL-E009 "too many errors" marker.
  ASSERT_EQ(diags.diagnostics().size(), 3u);
  EXPECT_EQ(diags.diagnostics().back().code, diag::kErrTooManyErrors);
}

TEST(GoldenDiagnostics, MacroBacktraceNotesPointAtInstantiationChain) {
  FrontEndRun r = run_front_end("macro_backtrace");
  EXPECT_FALSE(r.accepted);
  ASSERT_GE(r.diags.diagnostics().size(), 1u);
  const diag::Diagnostic& d = r.diags.diagnostics().front();
  ASSERT_GE(d.notes.size(), 2u);
  EXPECT_NE(d.notes[0].message.find("INNER"), std::string::npos);
  EXPECT_NE(d.notes[1].message.find("OUTER"), std::string::npos);
}

TEST(GoldenDiagnostics, ZeroDelayLoopIsAWarningNotAnError) {
  FrontEndRun r = run_front_end("zero_delay_loop");
  EXPECT_TRUE(r.accepted);
  EXPECT_EQ(r.diags.error_count(), 0u);
  ASSERT_EQ(r.diags.warning_count(), 1u);
  const diag::Diagnostic& w = r.diags.diagnostics().front();
  EXPECT_EQ(w.code, diag::kWarnZeroDelayLoop);
  EXPECT_NE(w.message.find("\"A\""), std::string::npos);
  EXPECT_NE(w.message.find("\"B\""), std::string::npos);
}

// --- unconverged-loop localization -----------------------------------------

// A 3-gate unclocked ring: the mux keeps re-injecting the (exact-delay
// shifted) feedback while the clock selects it, so every lap around the
// loop produces a new waveform and the oscillation guard trips.
const char* kRingSource = R"(design RING {
  period 50.0;
  clock_unit 6.25;
  default_wire 0.0:0.0;
  mux2 [delay=0.3:0.3] ("CK .P0-4", "D .S0-25", "A") -> "B";
  buf [delay=0.4:0.4] ("B") -> "C";
  buf [delay=0.4:0.4] ("C") -> "A";
}
)";

TEST(LoopLocalization, ThreeGateRingNamesTheExactCycle) {
  diag::DiagnosticEngine diags;
  auto design = hdl::elaborate_source(kRingSource, diags);
  ASSERT_TRUE(design.has_value()) << diag::render_text(diags);

  // Tighten the oscillation guard so the ring trips it well before the
  // waveform pattern could wrap around the period.
  design->options.max_evals_per_prim = 8;
  Verifier v(design->netlist, design->options);
  VerifyResult r = v.verify();
  EXPECT_FALSE(r.converged);

  std::vector<std::vector<std::string>> cycles = v.evaluator().feedback_cycles();
  ASSERT_EQ(cycles.size(), 1u);
  // One cycle through all three ring signals, in fanout order from the
  // Tarjan component, closed back on the start signal.
  ASSERT_EQ(cycles[0].size(), 3u);
  std::vector<std::string> sorted = cycles[0];
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<std::string>{"A", "B", "C"}));

  // The violation message names the full signal path instead of the generic
  // "did not converge" line.
  ASSERT_FALSE(r.violations.empty());
  const Violation& loop = r.violations.front();
  EXPECT_EQ(loop.type, Violation::Type::Unconverged);
  EXPECT_NE(loop.message.find("unclocked feedback cycle"), std::string::npos);
  EXPECT_NE(loop.message.find("\"A\""), std::string::npos);
  EXPECT_NE(loop.message.find("\"B\""), std::string::npos);
  EXPECT_NE(loop.message.find("\"C\""), std::string::npos);
}

// --- resource degradation ---------------------------------------------------

const char* kTinySource = R"(design TINY {
  period 50.0;
  clock_unit 6.25;
  reg [delay=1.5:4.5] ("D .S0-6", "CK .P8-9") -> "Q";
  setup_hold [setup=2.5, hold=1.5] ("D .S0-6", "CK .P8-9");
}
)";

TEST(ResourceDegradation, SegmentCapDegradesToUnknownAndMarksPartial) {
  diag::DiagnosticEngine diags;
  auto design = hdl::elaborate_source(kTinySource, diags);
  ASSERT_TRUE(design.has_value()) << diag::render_text(diags);

  design->options.max_segments_per_signal = 1;  // every multi-segment wave trips
  Verifier v(design->netlist, design->options);
  VerifyResult r = v.verify();
  EXPECT_TRUE(r.partial);
  ASSERT_FALSE(r.degradations.empty());
  EXPECT_STREQ(r.degradations.front().code, diag::kWarnSegmentCap);
  // Degraded signals hold UNKNOWN -- conservative, never hides a violation.
  bool found_unknown = false;
  for (SignalId id = 0; id < design->netlist.num_signals(); ++id) {
    const Waveform& w = design->netlist.signal(id).wave;
    if (w.segments().size() == 1 && w.segments()[0].value == Value::Unknown) {
      found_unknown = true;
    }
  }
  EXPECT_TRUE(found_unknown);
}

TEST(ResourceDegradation, SegmentCapOnAClockKeepsItsCheckerArmed) {
  // Random circuit seed 4: a segment cap of 1 degrades the gated clock CKG
  // to all-UNKNOWN. An UNKNOWN clock may switch at any instant, so CHK must
  // still report the set-up error the undegraded run finds.
  auto chk_setup = [](const Netlist& nl, const VerifyResult& r) {
    for (const Violation& v : r.violations) {
      if (v.type == Violation::Type::Setup && v.prim != kNoPrim && nl.prim(v.prim).name == "CHK") {
        return true;
      }
    }
    return false;
  };
  check::BuiltCircuit clean = check::build(check::random_spec(4));
  Verifier vc(clean.nl, clean.opts);
  ASSERT_TRUE(chk_setup(clean.nl, vc.verify(clean.cases)));

  check::BuiltCircuit capped = check::build(check::random_spec(4));
  capped.opts.max_segments_per_signal = 1;
  Verifier vd(capped.nl, capped.opts);
  VerifyResult r = vd.verify(capped.cases);
  EXPECT_TRUE(r.partial);
  SignalId ckg = capped.nl.find("CKG");
  ASSERT_NE(ckg, kNoSignal);
  const Waveform& w = capped.nl.signal(ckg).wave;
  ASSERT_EQ(w.segments().size(), 1u);
  EXPECT_EQ(w.segments()[0].value, Value::Unknown);
  EXPECT_TRUE(chk_setup(capped.nl, r)) << violations_report(r.violations);
}

TEST(ResourceDegradation, TimeLimitCompletesPartialInsteadOfCrashing) {
  diag::DiagnosticEngine diags;
  auto design = hdl::elaborate_source(kTinySource, diags);
  ASSERT_TRUE(design.has_value()) << diag::render_text(diags);

  design->options.time_limit_seconds = 1e-12;  // already expired at first pop
  Verifier v(design->netlist, design->options);
  VerifyResult r = v.verify();
  EXPECT_TRUE(r.partial);
  ASSERT_FALSE(r.degradations.empty());
  EXPECT_STREQ(r.degradations.front().code, diag::kWarnTimeLimit);
}

TEST(ResourceDegradation, PartialFlagReachesJsonExport) {
  diag::DiagnosticEngine diags;
  auto design = hdl::elaborate_source(kTinySource, diags);
  ASSERT_TRUE(design.has_value());
  design->options.time_limit_seconds = 1e-12;
  Verifier v(design->netlist, design->options);
  VerifyResult r = v.verify();
  std::string json = export_json(design->netlist, r, design->options.period, {}, "TINY");
  EXPECT_NE(json.find("\"partial\": true"), std::string::npos);
  EXPECT_NE(json.find("TV-W202"), std::string::npos);
}

TEST(ResourceDegradation, CleanRunIsNotPartial) {
  diag::DiagnosticEngine diags;
  auto design = hdl::elaborate_source(kTinySource, diags);
  ASSERT_TRUE(design.has_value());
  Verifier v(design->netlist, design->options);
  VerifyResult r = v.verify();
  EXPECT_FALSE(r.partial);
  EXPECT_TRUE(r.degradations.empty());
  std::string json = export_json(design->netlist, r, design->options.period, {}, "TINY");
  EXPECT_NE(json.find("\"partial\": false"), std::string::npos);
}

// --- diagnostics JSON -------------------------------------------------------

TEST(DiagnosticsJson, CarriesCodesAndSpans) {
  FrontEndRun r = run_front_end("three_errors");
  std::string json = diag::render_json(r.diags);
  EXPECT_NE(json.find("\"code\": \"SHDL-E010\""), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"three_errors.shdl\""), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 3"), std::string::npos);
}

// A malformed number in a vector range is the same error the lexer reports
// for it outside a string: before, "1.2.3" read as 1.2 and "1..5" as 1.
TEST(GoldenDiagnostics, MalformedRangeNumberIsReportedAtTheReference) {
  for (const char* bound : {"1.2.3", "1..5"}) {
    SCOPED_TRACE(bound);
    const std::string src = std::string("design D {\n  period 50.0;\n") +
                            "  buf [delay=1.0:2.0] (\"A<0:" + bound + "> .S0-6\") -> \"B\";\n}\n";
    diag::DiagnosticEngine diags;
    diags.set_current_file("range.shdl");
    EXPECT_FALSE(hdl::elaborate_source(src, diags).has_value());
    ASSERT_EQ(diags.diagnostics().size(), 1u);
    const diag::Diagnostic& d = diags.diagnostics()[0];
    EXPECT_EQ(d.code, diag::kErrBadRange);
    EXPECT_EQ(d.message, "bad number \"" + std::string(bound) + "\" in range expression");
    EXPECT_EQ(d.loc.file, "range.shdl");
    EXPECT_EQ(d.loc.line, 3);
    EXPECT_THROW(hdl::elaborate_source(src), std::invalid_argument);
  }
}

// A range bound is a bit index: a literal with a fractional value is the
// same error. Before, "A<0:1.5>" was accepted silently as a 3-wide bus.
TEST(GoldenDiagnostics, FractionalRangeBoundIsReportedAtTheReference) {
  auto source = [](const std::string& bound) {
    return std::string("design D {\n  period 50.0;\n") + "  buf [delay=1.0:2.0] (\"A<0:" +
           bound + "> .S0-6\") -> \"B\";\n}\n";
  };
  for (const char* bound : {"1.5", "0.25"}) {
    SCOPED_TRACE(bound);
    diag::DiagnosticEngine diags;
    diags.set_current_file("range.shdl");
    EXPECT_FALSE(hdl::elaborate_source(source(bound), diags).has_value());
    ASSERT_EQ(diags.diagnostics().size(), 1u);
    const diag::Diagnostic& d = diags.diagnostics()[0];
    EXPECT_EQ(d.code, diag::kErrBadRange);
    EXPECT_EQ(d.message, "bad number \"" + std::string(bound) + "\" in range expression");
    EXPECT_EQ(d.loc.line, 3);
  }
  // A whole number spelled with a fraction part stays a bound.
  diag::DiagnosticEngine diags;
  EXPECT_TRUE(hdl::elaborate_source(source("1.0"), diags).has_value());
  EXPECT_FALSE(diags.has_errors());
}

// A bound computed from a macro parameter must come out whole too. Before,
// SIZE=2.5 made "I<0:SIZE-1>" the range 0:1.5, rounded to a three-bit bus,
// and the design verified clean.
TEST(GoldenDiagnostics, ComputedFractionalRangeBoundIsReportedAtTheReference) {
  auto source = [](const std::string& size, const std::string& bound) {
    return "macro HALF(SIZE) {\n  param in \"I\", \"CK\";\n  param out \"Q\";\n"
           "  reg [delay=1.5:4.5] (\"I\", \"CK\") -> \"Q<0:" +
           bound + ">\";\n}\ndesign D {\n  period 50.0;\n  use HALF [SIZE=" + size +
           "] (\"D .S0-6\", \"CK .P8-9\", \"Q\");\n}\n";
  };
  struct Bad {
    const char* size;
    const char* bound;
    const char* value;
  };
  for (const Bad& bad : {Bad{"2.5", "SIZE-1", "1.5"}, Bad{"5", "SIZE/2", "2.5"},
                         Bad{"0", "1/SIZE", "inf"}}) {
    SCOPED_TRACE(bad.bound);
    diag::DiagnosticEngine diags;
    diags.set_current_file("range.shdl");
    EXPECT_FALSE(hdl::elaborate_source(source(bad.size, bad.bound), diags).has_value());
    ASSERT_EQ(diags.diagnostics().size(), 1u);
    const diag::Diagnostic& d = diags.diagnostics()[0];
    EXPECT_EQ(d.code, diag::kErrBadRange);
    EXPECT_EQ(d.message, "range bound \"" + std::string(bad.bound) + "\" evaluates to " +
                             bad.value + ", not a whole number");
    EXPECT_EQ(d.loc.line, 4);
    ASSERT_EQ(d.notes.size(), 1u);
    EXPECT_EQ(d.notes[0].loc.line, 8);
  }
  // A fractional parameter whose bounds come out whole is fine.
  diag::DiagnosticEngine diags;
  EXPECT_TRUE(hdl::elaborate_source(source("4.5", "SIZE*2"), diags).has_value());
  EXPECT_FALSE(diags.has_errors());
}

// --- diagnostics digest over seeded mutants ---------------------------------

/// Folds every diagnostic the front end reports for `src` -- code, location,
/// message, notes -- plus the parse's end line and the verdict into `h`.
std::uint64_t digest_front_end(const std::string& src, std::uint64_t h) {
  auto mix_text = [&](std::string_view s) {
    h = fnv1a(s.data(), s.size(), h);
    h = fnv1a("", 1, h);  // the terminating NUL separates fields
  };
  auto mix_int = [&](long long v) { h = fnv1a(&v, sizeof v, h); };
  diag::DiagnosticEngine parse_diags;
  mix_int(hdl::parse(src, parse_diags).end_line);

  diag::DiagnosticEngine diags;
  diags.set_current_file("mutant.shdl");
  std::optional<hdl::ElaboratedDesign> d = hdl::elaborate_source(src, diags);
  mix_int(d.has_value());
  if (d) {
    mix_int(static_cast<long long>(d->netlist.num_signals()));
    mix_int(static_cast<long long>(d->netlist.num_prims()));
  }
  for (const diag::Diagnostic& x : diags.diagnostics()) {
    mix_int(static_cast<int>(x.severity));
    mix_text(x.code);
    mix_text(x.loc.file);
    mix_int(x.loc.line);
    mix_int(x.loc.column);
    mix_text(x.message);
    for (const diag::Note& n : x.notes) {
      mix_text(n.loc.file);
      mix_int(n.loc.line);
      mix_int(n.loc.column);
      mix_text(n.message);
    }
  }
  return h;
}

// A lexer or parser rewrite must move no diagnostic: the front end's output
// over 6 500 seeded mutants of the --parser-fuzz corpus is pinned by one
// digest. Re-record only for an intended diagnostic change, and say why.
TEST(DiagnosticsDigest, SeededMutantsMatchRecordedDigest) {
  std::uint64_t h = kFnv1aBasis;
  for (std::size_t i = 0; i < check::seed_design_count(); ++i) {
    for (std::uint64_t seed = 0; seed < 2000; ++seed) {
      h = digest_front_end(check::mutate_source(check::seed_design(i), seed), h);
    }
  }
  const std::string with_stdlib = std::string(hdl::std_chip_library()) + check::seed_design(0);
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    h = digest_front_end(check::mutate_source(with_stdlib, seed), h);
  }
  EXPECT_EQ(h, 0x9bcb1d145b546719ull) << "digest 0x" << hex64(h);
}

// --- scaldtv exit-code matrix (subprocess) ----------------------------------

#ifdef TV_SCALDTV_PATH
int run_scaldtv(const std::string& args) {
  std::string cmd = std::string(TV_SCALDTV_PATH) + " " + args + " >/dev/null 2>&1";
  int status = std::system(cmd.c_str());
  return WEXITSTATUS(status);
}

TEST(ExitCodes, CleanDesignExitsZero) {
  EXPECT_EQ(run_scaldtv("--stdlib " + std::string(TV_REPO_ROOT) +
                        "/designs/stdlib_pipeline.shdl"),
            0);
}

TEST(ExitCodes, ViolatingDesignExitsOne) {
  EXPECT_EQ(run_scaldtv(std::string(TV_REPO_ROOT) + "/designs/regfile_example.shdl"), 1);
}

TEST(ExitCodes, MalformedDesignExitsTwo) {
  EXPECT_EQ(run_scaldtv(corpus_dir() + "/three_errors.shdl"), 2);
}

TEST(ExitCodes, TimeLimitedRunExitsThree) {
  EXPECT_EQ(run_scaldtv("--stdlib --time-limit 0.000000001 " +
                        std::string(TV_REPO_ROOT) + "/designs/stdlib_pipeline.shdl"),
            3);
}

TEST(ExitCodes, WerrorPromotesDegradationToError) {
  EXPECT_EQ(run_scaldtv("--stdlib --werror --time-limit 0.000000001 " +
                        std::string(TV_REPO_ROOT) + "/designs/stdlib_pipeline.shdl"),
            2);
}

TEST(ExitCodes, HugeTimeLimitDoesNotExpireAtOnce) {
  // 1e10 s is past the deadline clock's range: the run must report like an
  // unlimited one (two setup errors, exit 1), not degrade at once (exit 3).
  EXPECT_EQ(run_scaldtv("--time-limit 1e10 " + std::string(TV_REPO_ROOT) +
                        "/designs/regfile_example.shdl"),
            1);
}

TEST(ExitCodes, DeeplyNestedDeltaExitsTwo) {
  // A megabyte of '[' is an input error, not a stack overflow (SIGSEGV).
  const std::string path = ::testing::TempDir() + "tv_deep_delta.json";
  {
    std::ofstream out(path, std::ios::binary);
    out << std::string(1 << 20, '[');
  }
  EXPECT_EQ(run_scaldtv("--reverify " + path + " " + std::string(TV_REPO_ROOT) +
                        "/designs/regfile_example.shdl"),
            2);
  std::remove(path.c_str());
}

TEST(ExitCodes, UsageErrorExitsTwo) { EXPECT_EQ(run_scaldtv("--no-such-flag"), 2); }
#endif  // TV_SCALDTV_PATH

}  // namespace
