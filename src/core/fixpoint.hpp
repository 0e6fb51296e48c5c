// Fixpoint snapshots: the post-run fixed point as a durable artifact
// (docs/recovery.md; ROADMAP item 2's "persisting the fixpoint itself so a
// fresh process can reverify without the baseline run").
//
// A snapshot (`.tvf`, conventionally the compiled artifact's sidecar)
// captures everything Verifier::reverify needs from a prior verify():
// every signal's settled waveform and evaluation string (deduplicated
// through an arena, mirroring the evaluator's interned wave table), the
// full baseline report (violations, per-case blocks, cross-reference,
// convergence/degradation flags, cumulative effort counters), and the case
// list the report was computed with. Verifier::restore rebuilds a warm
// baseline from it -- re-interning every waveform so refs and the memo
// behave exactly as after a real run -- and a subsequent reverify is
// byte-identical to the same reverify on the process that wrote the
// snapshot (enforced by tvfuzz --matrix snapshot), including the effort
// counters: the cold baseline evaluation is never paid.
//
// The container is the compiled artifact's (core/wire_format.hpp): a
// 40-byte little-endian header ("SCALDTVF", endian tag, format version,
// FNV-1a content hash, payload size, section count), a section table, and
// sections BIND / WAVES / SIGS / RESULT / CASES in fixed order. Rejection
// uses the TV-E31x code family -- same taxonomy as the artifact's TV-E30x
// -- and a rejected snapshot is always an input error (exit 2, run the
// cold baseline instead), never a crash.
//
// Binding: the BIND section carries the compiled artifact's content hash
// (0 for source-elaborated designs), a digest of the netlist's shape
// (names, kinds, connectivity counts), and a digest of the
// semantics-affecting verifier options. restore() refuses (TV-E317) when
// any of them disagree with the design it is asked to warm -- a snapshot
// can never silently graft one design's fixpoint onto another.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/verifier.hpp"
#include "diag/diagnostic.hpp"

namespace tv {

inline constexpr char kFixpointMagic[] = "SCALDTVF";  // 8 chars + NUL
inline constexpr std::uint32_t kFixpointFormatVersion = 1;

/// Conventional sidecar location for a compiled artifact's snapshot.
inline std::string fixpoint_sidecar_path(const std::string& artifact_path) {
  return artifact_path + ".tvf";
}

/// A loaded, validated snapshot -- not yet bound to a live Verifier.
/// Everything in here has passed structural validation (refs in range,
/// value tags legal, digests consistent); binding checks happen in
/// Verifier::restore.
struct FixpointState {
  std::uint64_t artifact_hash = 0;   // bound .tvc content hash; 0 = source design
  std::uint64_t shape_digest = 0;    // netlist_shape_digest of the bound design
  std::uint64_t options_digest = 0;  // options_semantic_digest at snapshot time
  std::uint64_t report_digest = 0;   // FNV-1a over the RESULT section bytes
  std::string design;                // design name, for messages
  std::uint32_t num_prims = 0;
  std::vector<Waveform> waves;         // per-signal settled waveform
  std::vector<std::string> eval_strs;  // per-signal evaluation string
  VerifyResult result;                 // the full baseline report
  std::vector<CaseSpec> cases;         // case list the report used
};

/// Digest of the netlist's identity-relevant shape: signal names and
/// parameters, primitive names/kinds/connectivity. Two netlists with equal
/// digests produce interchangeable fixpoints for the same options.
std::uint64_t netlist_shape_digest(const Netlist& nl);

/// Digest of the verifier options that can change report bytes: period,
/// units, wire/assertion defaults, oscillation and resource-guard caps.
/// Deliberately excludes the performance-only knobs (jobs, batch_eval,
/// batch_lanes, time_limit/deadline) -- reports are byte-identical across
/// those by contract.
std::uint64_t options_semantic_digest(const VerifierOptions& o);

/// Serializes `v`'s baseline fixpoint (the state left by its last
/// verify()/reverify()) into a snapshot blob. `artifact_hash` is the
/// compiled artifact the design came from, or 0 for source designs.
/// Throws std::logic_error when the verifier has no baseline.
std::string serialize_fixpoint(const Verifier& v, const std::string& design,
                               std::uint64_t artifact_hash);

/// Parses and validates a snapshot blob. On any defect reports exactly one
/// TV-E31x diagnostic against `origin` and returns nullopt.
std::optional<FixpointState> load_fixpoint(std::string_view bytes, std::string_view origin,
                                           diag::DiagnosticEngine& diags);

/// mmap (read() fallback) + load_fixpoint. Reports TV-E310 when the file
/// cannot be read.
std::optional<FixpointState> load_fixpoint_file(const std::string& path,
                                                diag::DiagnosticEngine& diags);

/// serialize_fixpoint + util::atomic_write_file: the snapshot appears
/// complete or not at all, never torn.
bool write_fixpoint_file(const Verifier& v, const std::string& design,
                         std::uint64_t artifact_hash, const std::string& path,
                         std::string* error);

}  // namespace tv
