// scaldtv -- command-line driver for the SCALD Timing Verifier reproduction.
//
// Usage:
//   scaldtv [options] <design.shdl>
//     --summary        print the Fig 3-10 signal value listing
//     --xref           print the undefined-signal cross reference
//     --stats          print expansion/verification statistics
//     --storage        print the Table 3-3 storage ledger
//     --slack          print the worst-slack table and cycle-time estimate
//     --waves          print ASCII waveform strips per signal
//     --where-used     print the full signal cross reference
//     --explain        print the critical chain behind each violation
//     --vcd FILE       dump one symbolic cycle of every signal as VCD
//     --json FILE      write violations/slacks/statistics as JSON
//     --diag-json FILE write collected diagnostics as JSON
//     --max-errors N   stop after N front-end errors (0 = unlimited)
//     --werror         treat warnings as errors
//     --time-limit S   wall-clock budget in seconds; on expiry the affected
//                      cones degrade to UNKNOWN (conservative) and the run
//                      completes as partial
//     --reverify FILE  after the baseline run, apply the JSON netlist delta
//                      in FILE (docs/incremental.md) and re-verify
//                      incrementally; the printed report describes the
//                      edited design
//     --write-snapshot FILE  after the run, serialize the baseline fixpoint
//                      to FILE as a .tvf snapshot (docs/recovery.md)
//     --from-snapshot FILE  restore the baseline from a .tvf snapshot
//                      instead of running the cold evaluation; the report
//                      (and any --reverify after it) is byte-identical to
//                      the run that wrote the snapshot, at zero evaluations
//     --no-cases       skip case analysis even if the design declares cases
//     --jobs N         evaluate cases on N worker threads (0 = one per core;
//                      results are identical for every N)
//     --batch-lanes N  lanes per block in the batch case evaluator
//                      (default 64, clamped to [1, 4096]; reports are
//                      identical for every N)
//     --fault SPEC     deterministic fault injection (docs/serving.md);
//                      also read from the TV_FAULT environment variable
//
// Exit status (documented in README.md and docs/serving.md):
//   0  no timing violations
//   1  timing violations found
//   2  usage or input errors (any error diagnostics)
//   3  run completed but was resource-degraded (partial results)
//   5  transient environment failure (I/O error, allocation failure --
//      injected or real); supervisors retry these
// (4 is reserved for scaldtvd: worker crashed after all retries.)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

#include "core/compiled.hpp"
#include "core/explain.hpp"
#include "core/fixpoint.hpp"
#include "core/incremental.hpp"
#include "core/export.hpp"
#include "core/storage_stats.hpp"
#include "core/verifier.hpp"
#include "diag/render.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/stdlib.hpp"
#include "util/crash.hpp"
#include "util/fault.hpp"
#include "util/stats.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: scaldtv [--summary] [--xref] [--stats] [--storage] [--no-cases] "
               "[--stdlib] [--compiled] [--slack] [--waves] [--where-used] [--explain] "
               "[--reverify FILE] [--write-snapshot FILE] [--from-snapshot FILE] "
               "[--vcd FILE] [--json FILE] [--diag-json FILE] [--max-errors N] [--werror] "
               "[--time-limit SECONDS] [--jobs N] [--batch-lanes N] "
               "[--fault SPEC] <design.shdl | design.tvc>\n");
  return 2;
}

/// Flushes the collected diagnostics: human text to stderr, machine JSON to
/// --diag-json when requested.
void flush_diagnostics(const tv::diag::DiagnosticEngine& diags, const char* diag_json_path) {
  if (!diags.diagnostics().empty()) {
    std::fputs(tv::diag::render_text(diags).c_str(), stderr);
  }
  if (diag_json_path) {
    std::ofstream df(diag_json_path);
    df << tv::diag::render_json(diags);
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Crash attribution first: if anything below faults, stderr names the
  // design and phase before the signal re-raises (scaldtvd workers die by
  // signal under injected aborts; the report makes the crash attributable).
  tv::crash::install_handler();
  tv::crash::set_context("", "startup");
  tv::fault::configure_from_env();

  bool want_summary = false, want_xref = false, want_stats = false, want_storage = false;
  bool run_cases = true;
  bool with_stdlib = false;  // prepend the standard chip-macro library
  bool compiled_input = false;  // the input is a scaldtvc artifact, not SHDL
  bool want_slack = false;
  bool want_waves = false, want_where_used = false;
  bool want_explain = false;
  const char* reverify_path = nullptr;
  const char* write_snapshot_path = nullptr;
  const char* from_snapshot_path = nullptr;
  const char* vcd_path = nullptr;
  const char* json_path = nullptr;
  const char* diag_json_path = nullptr;
  const char* path = nullptr;
  long jobs = 1;
  long batch_lanes = 64;
  long max_errors = 20;
  bool werror = false;
  double time_limit = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--summary") == 0) {
      want_summary = true;
    } else if (std::strcmp(argv[i], "--xref") == 0) {
      want_xref = true;
    } else if (std::strcmp(argv[i], "--stats") == 0) {
      want_stats = true;
    } else if (std::strcmp(argv[i], "--storage") == 0) {
      want_storage = true;
    } else if (std::strcmp(argv[i], "--no-cases") == 0) {
      run_cases = false;
    } else if (std::strcmp(argv[i], "--stdlib") == 0) {
      with_stdlib = true;
    } else if (std::strcmp(argv[i], "--compiled") == 0) {
      compiled_input = true;
    } else if (std::strcmp(argv[i], "--slack") == 0) {
      want_slack = true;
    } else if (std::strcmp(argv[i], "--waves") == 0) {
      want_waves = true;
    } else if (std::strcmp(argv[i], "--where-used") == 0) {
      want_where_used = true;
    } else if (std::strcmp(argv[i], "--werror") == 0) {
      werror = true;
    } else if (std::strcmp(argv[i], "--explain") == 0) {
      want_explain = true;
    } else if (std::strcmp(argv[i], "--reverify") == 0 && i + 1 < argc) {
      reverify_path = argv[++i];
    } else if (std::strcmp(argv[i], "--write-snapshot") == 0 && i + 1 < argc) {
      write_snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--from-snapshot") == 0 && i + 1 < argc) {
      from_snapshot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--vcd") == 0 && i + 1 < argc) {
      vcd_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--diag-json") == 0 && i + 1 < argc) {
      diag_json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--max-errors") == 0 && i + 1 < argc) {
      char* end = nullptr;
      max_errors = std::strtol(argv[++i], &end, 10);
      if (!end || *end != '\0' || max_errors < 0) return usage();
    } else if (std::strcmp(argv[i], "--time-limit") == 0 && i + 1 < argc) {
      char* end = nullptr;
      time_limit = std::strtod(argv[++i], &end);
      if (!end || *end != '\0' || time_limit < 0) return usage();
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      char* end = nullptr;
      jobs = std::strtol(argv[++i], &end, 10);
      if (!end || *end != '\0' || jobs < 0) return usage();
    } else if (std::strcmp(argv[i], "--batch-lanes") == 0 && i + 1 < argc) {
      char* end = nullptr;
      batch_lanes = std::strtol(argv[++i], &end, 10);
      if (!end || *end != '\0' || batch_lanes < 1 || batch_lanes > 4096) return usage();
    } else if (std::strcmp(argv[i], "--fault") == 0 && i + 1 < argc) {
      std::string error;
      if (!tv::fault::configure(argv[++i], &error)) {
        std::fprintf(stderr, "scaldtv: %s\n", error.c_str());
        return usage();
      }
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (path) {
      return usage();
    } else {
      path = argv[i];
    }
  }
  if (!path) return usage();
  tv::crash::set_context(path, "read");

  std::stringstream buf;
  if (!compiled_input) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "scaldtv: cannot open %s\n", path);
      return 2;
    }
    if (tv::fault::should_fail("io.read")) {
      // Injected I/O error: a *transient* environment failure, unlike the
      // cannot-open case above (a permanent input error, exit 2).
      std::fprintf(stderr, "scaldtv: injected read failure on %s\n", path);
      return 5;
    }
    buf << in.rdbuf();
  } else if (tv::fault::should_fail("io.read")) {
    std::fprintf(stderr, "scaldtv: injected read failure on %s\n", path);
    return 5;
  }

  tv::diag::DiagnosticEngine::Options diag_opts;
  diag_opts.max_errors = static_cast<std::size_t>(max_errors);
  diag_opts.werror = werror;
  tv::diag::DiagnosticEngine diags(diag_opts);

  try {
    tv::PhaseTimer timer;
    std::optional<tv::hdl::ElaboratedDesign> maybe_design;
    std::optional<tv::CompiledDesign> compiled;
    if (compiled_input) {
      // The compiled path skips the front end: the artifact already holds
      // the finalized netlist, options, cases, and summary, so the report
      // below is byte-identical to the source path by construction.
      tv::crash::set_context(path, "load compiled design");
      timer.start("load compiled design");
      compiled = tv::load_compiled_file(path, diags);
      timer.stop();
      if (!compiled) {
        flush_diagnostics(diags, diag_json_path);
        return 2;
      }
      tv::hdl::ElaboratedDesign d;
      d.name = compiled->name;
      d.netlist = std::move(compiled->netlist);
      d.options = compiled->options;
      d.cases = std::move(compiled->cases);
      d.summary.macro_instances = compiled->summary.macro_instances;
      d.summary.primitives = compiled->summary.primitives;
      d.summary.unique_signals = compiled->summary.unique_signals;
      d.summary.total_bits = compiled->summary.total_bits;
      d.summary.prims_by_kind = compiled->summary.prims_by_kind;
      maybe_design = std::move(d);
    } else {
      tv::crash::set_context(path, "parse + macro expansion");
      timer.start("parse + macro expansion");
      std::string text = buf.str();
      if (with_stdlib) {
        maybe_design = tv::hdl::elaborate_sources(
            {{"<stdlib>", tv::hdl::std_chip_library()}, {path, text}}, diags);
      } else {
        diags.set_current_file(path);
        maybe_design = tv::hdl::elaborate_source(text, diags);
      }
      timer.stop();
      if (!maybe_design) {
        flush_diagnostics(diags, diag_json_path);
        return 2;
      }
    }
    tv::hdl::ElaboratedDesign& design = *maybe_design;

    design.options.jobs = static_cast<unsigned>(jobs);
    design.options.batch_lanes = static_cast<unsigned>(batch_lanes);
    design.options.time_limit_seconds = time_limit;
    tv::Verifier verifier(design.netlist, design.options);
    if (compiled) {
      // Warm the intern table with the artifact's pre-interned seed arena.
      tv::preintern_seeds(*compiled, verifier.evaluator().intern_context()->table);
    }
    tv::VerifyResult result;
    if (from_snapshot_path) {
      // Warm start: restore the baseline fixpoint from the snapshot instead
      // of paying the cold evaluation. The restored report is byte-identical
      // to the run that wrote the snapshot (enforced by tvfuzz --matrix
      // snapshot); the printed evaluation count proves no baseline
      // evaluation ran.
      tv::crash::set_context(from_snapshot_path, "restore snapshot");
      timer.start("restore snapshot");
      auto state = tv::load_fixpoint_file(from_snapshot_path, diags);
      if (!state) {
        timer.stop();
        flush_diagnostics(diags, diag_json_path);
        return 2;
      }
      std::uint64_t expected_hash = compiled ? compiled->content_hash : 0;
      if (!verifier.restore(*state, expected_hash, diags)) {
        timer.stop();
        flush_diagnostics(diags, diag_json_path);
        return 2;
      }
      timer.stop();
      result = verifier.baseline();
      std::printf("restored snapshot %s: %zu signal(s), %zu evaluation(s) performed\n",
                  from_snapshot_path, design.netlist.num_signals(),
                  verifier.evaluator().evals_performed());
    } else {
      tv::crash::set_context(path, "verification");
      timer.start("verification");
      result = verifier.verify(run_cases ? design.cases : std::vector<tv::CaseSpec>{});
      timer.stop();
    }

    if (reverify_path) {
      tv::crash::set_context(reverify_path, "read delta");
      std::ifstream df(reverify_path);
      if (!df) {
        std::fprintf(stderr, "scaldtv: cannot open %s\n", reverify_path);
        return 2;
      }
      if (tv::fault::should_fail("io.read")) {
        std::fprintf(stderr, "scaldtv: injected read failure on %s\n", reverify_path);
        return 5;
      }
      std::stringstream dbuf;
      dbuf << df.rdbuf();
      tv::NetlistDelta delta;
      std::string derror;
      if (!tv::parse_delta_json(dbuf.str(), design.netlist, &delta, &derror)) {
        std::fprintf(stderr, "scaldtv: %s: %s\n", reverify_path, derror.c_str());
        return 2;
      }
      tv::crash::set_context(reverify_path, "reverify");
      timer.start("reverify");
      tv::ReverifyStats rst;
      result = verifier.reverify(delta, &rst);
      timer.stop();
      if (rst.incremental) {
        std::printf("reverify %s: incremental, %zu dirty primitive(s), %zu touched "
                    "signal(s), %zu case(s) re-evaluated, %zu spliced\n",
                    reverify_path, rst.dirty_prims.size(), rst.touched_signals,
                    rst.cases_reevaluated, rst.cases_spliced);
      } else {
        std::printf("reverify %s: full re-run (%s)\n", reverify_path,
                    rst.fallback_reason.c_str());
      }
    }

    if (write_snapshot_path) {
      // Snapshot the final baseline (post-reverify when --reverify ran, so
      // chained warm starts splice against the latest fixpoint).
      tv::crash::set_context(write_snapshot_path, "write snapshot");
      timer.start("write snapshot");
      std::uint64_t bound_hash = compiled ? compiled->content_hash : 0;
      std::string werror_msg;
      bool ok = tv::write_fixpoint_file(verifier, design.name, bound_hash,
                                        write_snapshot_path, &werror_msg);
      timer.stop();
      if (!ok) {
        std::fprintf(stderr, "scaldtv: cannot write %s: %s\n", write_snapshot_path,
                     werror_msg.c_str());
        return 5;
      }
      std::printf("wrote %s\n", write_snapshot_path);
    }
    tv::crash::set_context(path, "reporting");

    std::printf("design %s: %zu primitives, %zu signals, %zu events, %zu case(s)\n",
                design.name.c_str(), design.netlist.num_prims(), design.netlist.num_signals(),
                result.base_events, result.cases.size());

    if (want_summary) std::printf("\n%s", tv::timing_summary(design.netlist).c_str());
    if (want_waves) {
      std::printf("\n%s", tv::timing_summary_waves(design.netlist).c_str());
    }
    if (want_where_used) {
      std::printf("\n%s", tv::where_used_listing(design.netlist).c_str());
    }
    if (want_xref) {
      std::printf("\n%s",
                  tv::cross_reference_listing(design.netlist, result.cross_reference).c_str());
    }

    std::printf("\n%s", tv::violations_report(result.violations).c_str());
    if (want_explain) {
      for (const auto& v : result.violations) {
        auto chain = tv::explain_chain(verifier.evaluator(), v);
        std::printf("%s\n", tv::explain_report(design.netlist, chain).c_str());
      }
    }
    for (const auto& c : result.cases) {
      if (c.violations.empty()) continue;
      std::printf("\ncase \"%s\" (%zu events):\n%s", c.name.c_str(), c.events,
                  tv::violations_report(c.violations).c_str());
    }
    if (!result.converged) {
      std::printf("WARNING: evaluation did not converge (combinational loop?)\n");
    }

    if (want_stats) {
      std::printf("\nphases:\n");
      for (const auto& [name, secs] : timer.phases()) {
        std::printf("  %-28s %8.3f s\n", name.c_str(), secs);
      }
      std::printf("  macro instances %zu, primitives %zu, mean width %.2f bits\n",
                  design.summary.macro_instances, design.summary.primitives,
                  design.summary.primitives
                      ? static_cast<double>(design.summary.total_bits) /
                            design.summary.primitives
                      : 0.0);
    }
    if (want_slack) {
      std::printf("\n%s", tv::slack_report(design.netlist,
                                           tv::compute_slacks(verifier.evaluator()),
                                           design.options.period)
                              .c_str());
    }
    if (want_storage) {
      std::printf("\nstorage (thesis record model):\n%s",
                  tv::compute_storage(design.netlist).to_ledger().to_table().c_str());
    }
    if (vcd_path) {
      std::ofstream vf(vcd_path);
      vf << tv::export_vcd(design.netlist, design.options.period, design.name);
      std::printf("wrote %s\n", vcd_path);
    }
    if (json_path) {
      std::ofstream jf(json_path);
      jf << tv::export_json(design.netlist, result, design.options.period,
                            tv::compute_slacks(verifier.evaluator()), design.name);
      std::printf("wrote %s\n", json_path);
    }

    // Engine resource degradations join the diagnostic stream as warnings
    // (errors under --werror). Results stay conservative: degraded cones
    // hold UNKNOWN, which can only add violations, never hide one.
    diags.set_current_file("");
    for (const tv::Degradation& d : result.degradations) {
      diags.report(tv::diag::Severity::Warning, d.code, tv::diag::SourceLoc{},
                   d.message);
    }
    flush_diagnostics(diags, diag_json_path);
    return tv::diag::exit_code(diags.has_errors(), result.partial,
                               result.total_violations() != 0);
  } catch (const tv::fault::InjectedFault& e) {
    std::fprintf(stderr, "scaldtv: transient failure: %s\n", e.what());
    return 5;
  } catch (const std::bad_alloc&) {
    std::fprintf(stderr, "scaldtv: transient failure: out of memory\n");
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scaldtv: %s\n", e.what());
    return 2;
  }
}
