// Compiled-design artifact: the serve-path split between the front end and
// the verifier engine (ROADMAP item 1; the metalfpga compile-then-simulate
// shape).
//
// `scaldtvc` runs the front end once (parse, macro expansion, elaboration,
// finalize) and emits a versioned binary artifact holding everything the
// engine needs and nothing it re-derives: the flat signal/primitive arrays,
// assertions, the case map, the expansion summary, and a pre-interned arena
// of the unique canonical seed waveforms with 32-bit refs (the materialized
// assertions every run starts from -- preloading them warms the intern
// table before the first job). `scaldtv --compiled` and the scaldtvd warm
// workers load the artifact and skip the front end entirely; the resulting
// report is byte-identical to the source path (golden suite + the compile
// pair of tvfuzz --matrix enforce this).
//
// Format (fixed-layout, little-endian on disk, designed to be mmap-able):
//
//   header   : magic "SCALDTVC", endian tag 0x01020304, format version,
//              FNV-1a content hash over the payload, payload size,
//              section count
//   sections : table of (id, offset, size), then the concatenated payload
//              META / SIGNALS / PRIMS / CASES / WAVES sections; SIGNALS
//              ends with the synonyms (version 2): each name that
//              merge_signals pointed at another signal, and that keeper
//
// The format is deterministic -- no timestamps, no pointers, map-ordered
// tables -- so two compiles of the same source are byte-identical (CI
// checks this). Versioning rule: any layout change bumps
// kCompiledFormatVersion and readers reject every other version (TV-E302);
// there is no in-place migration, recompiling is cheap by design. Every
// rejection is reported through the diagnostic engine with a TV-E30x code
// and is an *input* error: exit 2, never a retryable 5.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.hpp"
#include "core/netlist.hpp"
#include "core/wave_table.hpp"
#include "diag/diagnostic.hpp"

namespace tv {

inline constexpr std::uint32_t kCompiledFormatVersion = 2;
inline constexpr char kCompiledMagic[8] = {'S', 'C', 'A', 'L', 'D', 'T', 'V', 'C'};

/// The front end's expansion statistics, carried through the artifact so
/// `scaldtv --compiled --stats` prints the same numbers as the source path
/// (mirrors hdl::ExpandSummary without a core -> hdl dependency).
struct CompiledSummary {
  std::size_t macro_instances = 0;
  std::size_t primitives = 0;
  std::size_t unique_signals = 0;
  std::size_t total_bits = 0;
  std::map<std::string, std::size_t> prims_by_kind;
};

/// A design as loaded from (or about to be written to) an artifact: the
/// finalized netlist, the elaboration-time verifier options (runtime knobs
/// -- jobs, time limits, fault specs -- are *not* part of a design and stay
/// CLI-controlled), the case map, and the seed-waveform arena.
struct CompiledDesign {
  std::string name;
  Netlist netlist;
  VerifierOptions options;
  std::vector<CaseSpec> cases;
  CompiledSummary summary;

  /// Unique canonical seed waveforms (materialized assertions, the
  /// always-STABLE default, UNKNOWN), deduplicated across signals.
  std::vector<Waveform> seed_arena;
  /// Per-signal index into seed_arena (SignalId-indexed, 32-bit refs).
  std::vector<std::uint32_t> seed_refs;

  /// FNV-1a over the serialized payload (set by serialize/load).
  std::uint64_t content_hash = 0;
};

/// Builds the artifact contents from an elaborated design: copies the
/// netlist and computes the deduplicated seed-waveform arena. The netlist
/// must be finalized.
CompiledDesign compile_design(std::string name, const Netlist& netlist,
                              const VerifierOptions& options,
                              std::vector<CaseSpec> cases, CompiledSummary summary);

/// Serializes to the on-disk byte format (deterministic: equal designs
/// yield equal bytes). Also updates `design.content_hash`.
std::string serialize_compiled(CompiledDesign& design);

/// Parses and validates an artifact image. On any failure reports exactly
/// one TV-E30x diagnostic against `origin` (the file name, for messages)
/// and returns nullopt. The returned netlist is finalized and ready to
/// verify.
std::optional<CompiledDesign> load_compiled(std::string_view bytes, std::string_view origin,
                                            diag::DiagnosticEngine& diags);

/// mmap (read() fallback) + load_compiled. The artifact is parsed
/// straight out of a read-only mapping -- load_compiled copies everything
/// it keeps, so the mapping is released before return. Reports TV-E300
/// when the file cannot be read.
std::optional<CompiledDesign> load_compiled_file(const std::string& path,
                                                 diag::DiagnosticEngine& diags);

/// serialize_compiled + util::atomic_write_file (temp file in the target
/// directory, fsync, rename, directory fsync): a crash mid-write can
/// never leave a torn artifact. Returns false with `error` set on I/O
/// failure.
bool write_compiled_file(CompiledDesign& design, const std::string& path, std::string* error);

/// Interns every arena waveform into `table`, warming it with the seed
/// waveforms before the first run (the warm-worker fast path). Returns the
/// number interned.
std::size_t preintern_seeds(const CompiledDesign& design, WaveformTable& table);

}  // namespace tv
