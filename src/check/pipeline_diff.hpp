// The differential pipeline matrix (tvfuzz --matrix).
//
// Every optimization layer of the verifier is meant to be invisible: a
// design verified through any combination of them must report exactly what
// the plainest pipeline reports. A Path picks one option on each axis:
//
//   front end  source build | compiled .tvc round trip (core/compiled.hpp)
//   cases      batch sweep | per-case reference worklist (batch_eval off)
//   baseline   cold verify | restored from a .tvf its cold twin wrote
//   edits      a fresh cold verify per step | reverify on one live verifier
//
// check_pipeline_equivalence runs two paths over the same seeded random
// edit script (random_delta) and, after the baseline and after every step,
// diffs them through one canonical render. The effort counters and the JSON
// export (which carries them) are dropped only when the paths differ on the
// edits axis: reverify's cumulative counters are the speedup itself. Each
// path also keeps its internal checks: serializing the artifact or the
// snapshot twice gives identical bytes, and two live verifiers on the same
// front end re-snapshot identically and take the same incremental-vs-
// fallback decision at every step.
//
// The degradation column (check_degradation_conservatism) runs one path
// against a twin that arms a resource guard and enforces the conservatism
// contract of docs/diagnostics.md: a recorded degradation marks the result
// partial, and UNKNOWN never hides a violation -- except where the run
// carries TV-W204, whose skipped checks the docs admit may hide one.
//
// The memo audit column (check_memo_audit) holds the evaluation memo to the
// thesis' own definitions instead of to a second, uncached engine: every
// memo entry must equal a fresh evaluate_primitive of the inputs its key
// describes, and a converged, undegraded fixpoint must be one (sec. 2.9):
// re-evaluating any primitive from its current inputs, with no memo,
// reproduces its output. The first check catches a stale or mis-stored
// entry; the second a key that omits an input, which no entry can show.
// The same column holds the batch sweep to the containment law its
// cone-free lanes rely on: re-run as one block over the audited fixpoint,
// every lane writes only signals inside ConeIndex::cone_of(its pins).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "check/rand_netlist.hpp"
#include "core/incremental.hpp"
#include "core/verifier.hpp"

namespace tv::check {

/// One pipeline through the verifier: a choice on each of the four axes.
/// The defaults are the production path of a cold `scaldtv` run.
struct Path {
  bool compiled = false;     // load from a serialized .tvc artifact
  bool batch_eval = true;    // cases on the batch sweep, else per-case
  bool restored = false;     // baseline restored from its twin's .tvf
  bool incremental = false;  // edits via reverify on one live verifier
};

/// The resource guard a degradation-column twin arms; zero fields are left
/// at the design's own setting.
struct Guard {
  std::size_t max_segments_per_signal = 0;
  std::uint32_t max_waveforms_per_shard = 0;
  double time_limit_seconds = 0;
};

struct PipelineOptions {
  /// Seed for the edit script; 0 derives it from the circuit seed
  /// (default_edit_seed). The shrinker pins it so the script stays fixed
  /// while the circuit shrinks.
  std::uint64_t edit_seed = 0;
  int steps = 4;
};

std::uint64_t default_edit_seed(std::uint64_t circuit_seed);

/// Draws a small (1-3 edit) valid delta against the current netlist and
/// cases; the same rng stream always yields the same script.
NetlistDelta random_delta(Rng& rng, const Netlist& nl, const std::vector<CaseSpec>& cases);

/// Everything observable about one verification: convergence and partial
/// flags, the timing summary (every waveform, skew and evaluation string),
/// the base report, each case block with its degraded flag, and the
/// cross-reference. With `effort` it also carries base_events/base_evals
/// and the export_json document.
std::string canonical_render(const Netlist& nl, const VerifyResult& r, Time period,
                             bool effort = true);

/// Runs both paths over the spec's circuit and a K-step edit script and
/// returns the first divergence. Kinds: "pipeline-diff" (renders differ),
/// "pipeline-state-diff" (live verifiers re-snapshot differently or
/// disagree on falling back), "pipeline-unstable" (serializing twice
/// differs), "pipeline-reject" (an artifact or snapshot just written
/// fails to load or restore), "pipeline-throw" (a generated delta or a
/// cold verify threw).
std::optional<Failure> check_pipeline_equivalence(const CircuitSpec& spec, const Path& a,
                                                   const Path& b,
                                                   const PipelineOptions& opts = {});

/// Runs `path` undegraded and with `guard` armed over the same edit script.
/// Kinds: "degrade-not-partial" (a degradation left the result unmarked),
/// "degrade-hides-violation" (a (checker, signal) pair violated in the
/// undegraded base or case report is absent from the degraded one), plus
/// the harness kinds above.
std::optional<Failure> check_degradation_conservatism(const CircuitSpec& spec,
                                                      const Path& path, const Guard& guard,
                                                      const PipelineOptions& opts = {});

/// The memo audit of one verified state: `v`'s memo entries against fresh
/// evaluations of their keys ("memo-stale-entry"), and -- when `r` is
/// converged and not partial -- every non-checker primitive's output
/// waveform and evaluation string against a memo-free evaluation of its
/// current inputs ("fixpoint-inconsistent").
std::optional<Failure> audit_memo(const Verifier& v, const VerifyResult& r);

/// The containment law of the batch sweep: `cases` run as one block through
/// run_case_block on cone-free snapshots over `v`'s fixpoint, and every
/// lane's written() must lie in ConeIndex::cone_of(its pins)
/// ("batch-outside-cone", also reported when the sweep's own reach proof
/// throws). Skipped where the sweep would not run (a non-converged or
/// partial result, an armed deadline) and when the block aborts. The
/// block's evaluations go through `v`'s shared memo and table.
std::optional<Failure> audit_batch_containment(const Verifier& v, const VerifyResult& r,
                                               const std::vector<CaseSpec>& cases);

/// Runs `path` over the spec's circuit and edit script, auditing the
/// verifier (audit_memo, then audit_batch_containment on its cases) after
/// the baseline and after every step. Kinds: the three audit kinds plus
/// the harness kinds above.
std::optional<Failure> check_memo_audit(const CircuitSpec& spec, const Path& path,
                                        const PipelineOptions& opts = {});

/// One named entry of the matrix a seed runs.
struct MatrixPair {
  std::string name;
  Path a, b;
};

/// The pairs tvfuzz --matrix runs for one seed: batch and compile (each
/// toggles one axis off the default path), incr and snapshot on both front
/// ends (incr diffs reverify against the per-case reference on odd seeds),
/// then two distinct paths drawn from the seed over all 16.
std::vector<MatrixPair> matrix_pairs(std::uint64_t seed);

/// The second path the seed's memo audit runs (the first is the default
/// path): one of the 15 others, drawn from the seed.
Path random_path(std::uint64_t seed);

/// The guard the seed's degradation twin arms: a segment cap of 1, 2 or
/// 4, a shard cap of 1 or 4, or an already-expired deadline.
Guard random_guard(std::uint64_t seed);

/// "{source, sweep, cold, cold-edits}"-style one-line summaries.
std::string describe(const Path& p);
std::string describe(const Guard& g);

/// C++ expressions over a spec variable `s` that re-run one matrix entry,
/// for gtest_repro (check/shrinker.hpp).
std::string pipeline_call(const Path& a, const Path& b, const PipelineOptions& opts);
std::string degradation_call(const Path& path, const Guard& guard,
                             const PipelineOptions& opts);
std::string memo_audit_call(const Path& path, const PipelineOptions& opts);

}  // namespace tv::check
