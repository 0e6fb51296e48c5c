// Golden-report regression suite: runs the full verifier over every example
// design and the checked-in SHDL designs, renders a canonical report, and
// byte-compares it against the files in tests/golden/. Each design is
// verified with the batch case sweep (the default) and with the per-case
// engine, and both reports must be byte-identical: the lockstep sweep
// changes no verdicts, waveforms, or event counts. Every run also passes
// the memo audit (check::audit_memo): each evaluation-memo entry equals a
// fresh evaluation of its key, and the converged fixpoint re-evaluates to
// itself without the memo.
//
// To regenerate after an intentional report change:
//   TV_UPDATE_GOLDEN=1 ./tv_tests --gtest_filter='GoldenReports.*'
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "check/pipeline_diff.hpp"
#include "core/compiled.hpp"
#include "core/incremental.hpp"
#include "core/verifier.hpp"
#include "example_designs.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/stdlib.hpp"
#include "util/atomic_file.hpp"

namespace {

using namespace tv;

/// Verifies and renders the design; a memo-audit failure fails the test.
std::string render_report(Netlist& nl, VerifierOptions opts,
                          const std::vector<CaseSpec>& cases, bool batch_eval = true) {
  opts.batch_eval = batch_eval;
  Verifier v(nl, opts);
  VerifyResult r = v.verify(cases);
  if (std::optional<check::Failure> f = check::audit_memo(v, r)) {
    ADD_FAILURE() << (batch_eval ? "batch" : "per-case") << " run: " << f->kind << ": "
                  << f->detail;
  }
  std::ostringstream os;
  os << "signals " << nl.num_signals() << "  primitives " << nl.num_prims() << "\n";
  os << "base events " << r.base_events << "  converged "
     << (r.converged ? "yes" : "no") << "\n\n";
  os << timing_summary(nl) << "\n";
  os << violations_report(r.violations);
  for (const auto& c : r.cases) {
    os << "\n=== case \"" << c.name << "\" (" << c.events << " events, converged "
       << (c.converged ? "yes" : "no") << ") ===\n";
    os << violations_report(c.violations);
  }
  os << "\n" << cross_reference_listing(nl, r.cross_reference);
  return os.str();
}

std::string golden_path(const std::string& name) {
  return std::string(TV_GOLDEN_DIR) + "/" + name + ".golden.txt";
}

void compare_to_golden(const std::string& name, const std::string& report) {
  const std::string path = golden_path(name);
  if (std::getenv("TV_UPDATE_GOLDEN") != nullptr) {
    std::string error;
    ASSERT_TRUE(tv::util::atomic_write_file(path, report, &error))
        << "cannot write " << path << ": " << error;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " -- run with TV_UPDATE_GOLDEN=1 to create it";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), report) << "report for " << name
                                   << " diverged from " << path;
}

// Builds the unit fresh for each engine (verification mutates the
// netlist's baseline waveforms), renders both reports, and checks
// engine-identity plus the golden file.
void check_example(std::size_t index) {
  examples::ExampleDesign batch = examples::all_example_designs()[index];
  std::string report = render_report(*batch.netlist, batch.options, batch.cases);
  examples::ExampleDesign per_case = examples::all_example_designs()[index];
  std::string without_batch =
      render_report(*per_case.netlist, per_case.options, per_case.cases, false);
  EXPECT_EQ(report, without_batch)
      << batch.name << ": batch and per-case engines must render identically";
  compare_to_golden(batch.name, report);
}

TEST(GoldenReports, ExampleDesigns) {
  std::size_t n = examples::all_example_designs().size();
  for (std::size_t i = 0; i < n; ++i) {
    SCOPED_TRACE(examples::all_example_designs()[i].name);
    check_example(i);
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing " << path;
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

void check_shdl(const std::string& name, bool with_stdlib) {
  const std::string text =
      read_file(std::string(TV_REPO_ROOT) + "/designs/" + name + ".shdl");
  ASSERT_FALSE(text.empty());
  auto elaborate = [&]() {
    return with_stdlib
               ? hdl::elaborate_sources({hdl::std_chip_library(), text})
               : hdl::elaborate_source(text);
  };
  hdl::ElaboratedDesign batch = elaborate();
  std::string report = render_report(batch.netlist, batch.options, batch.cases);
  hdl::ElaboratedDesign per_case = elaborate();
  std::string without_batch =
      render_report(per_case.netlist, per_case.options, per_case.cases, false);
  EXPECT_EQ(report, without_batch)
      << name << ": batch and per-case engines must render identically";
  hdl::ElaboratedDesign src = elaborate();
  CompiledDesign compiled =
      compile_design(name, src.netlist, src.options, src.cases, {});
  const std::string bytes = serialize_compiled(compiled);
  diag::DiagnosticEngine diags;
  std::optional<CompiledDesign> loaded = load_compiled(bytes, name + ".tvc", diags);
  ASSERT_TRUE(loaded.has_value()) << name << ": artifact round-trip failed";
  std::string via_artifact = render_report(loaded->netlist, loaded->options, loaded->cases);
  EXPECT_EQ(report, via_artifact)
      << name << ": the compiled-artifact path must render identically";
  compare_to_golden(name, report);
}

TEST(GoldenReports, RegfileExampleShdl) { check_shdl("regfile_example", false); }

TEST(GoldenReports, StdlibPipelineShdl) { check_shdl("stdlib_pipeline", true); }

// --- incremental-delta goldens (docs/incremental.md) ----------------------
//
// Each tests/golden/<design>_delta*/ directory holds a checked-in
// delta.json edit script; the golden report is what Verifier::reverify
// produces after applying it to the design's cold baseline. The render
// drops the cumulative "base events" counters -- the one legitimate
// difference between an incremental and a cold report -- so the same bytes
// also byte-compare against a from-scratch verify of the edited design,
// which the test asserts inline.
std::string render_delta_report(Netlist& nl, const VerifyResult& r) {
  std::ostringstream os;
  os << "signals " << nl.num_signals() << "  primitives " << nl.num_prims() << "\n";
  os << "converged " << (r.converged ? "yes" : "no") << "\n\n";
  os << timing_summary(nl) << "\n";
  os << violations_report(r.violations);
  for (const auto& c : r.cases) {
    os << "\n=== case \"" << c.name << "\" (" << c.events << " events, converged "
       << (c.converged ? "yes" : "no") << ") ===\n";
    os << violations_report(c.violations);
  }
  os << "\n" << cross_reference_listing(nl, r.cross_reference);
  return os.str();
}

void check_shdl_delta(const std::string& design, const std::string& dir,
                      bool with_stdlib) {
  const std::string text =
      read_file(std::string(TV_REPO_ROOT) + "/designs/" + design + ".shdl");
  ASSERT_FALSE(text.empty());
  auto elaborate = [&]() {
    return with_stdlib
               ? hdl::elaborate_sources({hdl::std_chip_library(), text})
               : hdl::elaborate_source(text);
  };
  const std::string delta_text =
      read_file(std::string(TV_GOLDEN_DIR) + "/" + dir + "/delta.json");
  ASSERT_FALSE(delta_text.empty());

  // The incremental world: cold baseline, then one reverify.
  hdl::ElaboratedDesign incr = elaborate();
  Verifier v(incr.netlist, incr.options);
  v.verify(incr.cases);
  NetlistDelta delta;
  std::string error;
  ASSERT_TRUE(parse_delta_json(delta_text, incr.netlist, &delta, &error)) << error;
  ReverifyStats st;
  VerifyResult spliced = v.reverify(delta, &st);
  EXPECT_TRUE(st.incremental) << dir << ": fell back (" << st.fallback_reason << ")";
  std::optional<check::Failure> audit = check::audit_memo(v, spliced);
  EXPECT_FALSE(audit.has_value()) << dir << ": " << audit->kind << ": " << audit->detail;
  const std::string report = render_delta_report(incr.netlist, spliced);

  // The cold world: the same delta applied wholesale, verified from scratch.
  hdl::ElaboratedDesign cold = elaborate();
  apply_delta(cold.netlist, cold.cases, delta);
  if (!cold.netlist.finalized()) cold.netlist.finalize();
  Verifier cv(cold.netlist, cold.options);
  VerifyResult cold_result = cv.verify(cold.cases);
  EXPECT_EQ(report, render_delta_report(cold.netlist, cold_result))
      << dir << ": incremental and cold reports diverged";

  const std::string path = std::string(TV_GOLDEN_DIR) + "/" + dir + "/report.golden.txt";
  if (std::getenv("TV_UPDATE_GOLDEN") != nullptr) {
    std::string error;
    ASSERT_TRUE(tv::util::atomic_write_file(path, report, &error))
        << "cannot write " << path << ": " << error;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " -- run with TV_UPDATE_GOLDEN=1 to create it";
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), report) << "report for " << dir << " diverged from " << path;
}

TEST(GoldenReports, RegfileExampleDelta1) {
  check_shdl_delta("regfile_example", "regfile_example_delta1", false);
}

TEST(GoldenReports, StdlibPipelineDelta1) {
  check_shdl_delta("stdlib_pipeline", "stdlib_pipeline_delta1", true);
}

}  // namespace
