// Fixpoint snapshot serialization (see fixpoint.hpp for the format), plus
// Verifier::snapshot/restore -- kept here, next to the wire format, the way
// reverify lives in incremental.cpp.
#include "core/fixpoint.hpp"

#include <stdexcept>

#include "core/wire_format.hpp"
#include "util/atomic_file.hpp"
#include "util/hash.hpp"

namespace tv {
namespace {

using wire::ByteReader;
using wire::ByteWriter;
using wire::Loader;

// Section ids (the table is written in this order).
enum : std::uint32_t {
  kSecBind = 1,
  kSecWaves = 2,
  kSecSigs = 3,
  kSecResult = 4,
  kSecCases = 5,
};
constexpr std::uint32_t kSectionIds[] = {kSecBind, kSecWaves, kSecSigs, kSecResult,
                                         kSecCases};

// The smallest record of each counted kind, for ByteReader::room(): every
// string and list empty.
constexpr std::size_t kMinViolation = 1 + 4 + 4 + 8 + 4;
constexpr std::size_t kMinSig = 4 + 4;
constexpr std::size_t kMinDegradation = 4 + 4;
constexpr std::size_t kMinCaseResult = 4 + 8 + 1 + 1 + 4;
constexpr std::size_t kMinXref = 4;

constexpr wire::Format kFormat{
    kFixpointMagic,
    kFixpointFormatVersion,
    kSectionIds,
    diag::kErrSnapshotIo,
    diag::kErrSnapshotMagic,
    diag::kErrSnapshotVersion,
    diag::kErrSnapshotTruncated,
    diag::kErrSnapshotHash,
    diag::kErrSnapshotMalformed,
    diag::kErrSnapshotEndian,
    "snapshot",
    "a snapshot",
    "fixpoint snapshot",
    "re-run to regenerate",
};

/// Degradation codes are static diag constants in-process; on disk they are
/// strings. Restore maps them back so Degradation::code keeps pointing at
/// storage with program lifetime; an unrecognized code is a malformed
/// snapshot, not a leak-prone allocation.
const char* intern_degradation_code(const std::string& code) {
  for (const char* k : {diag::kWarnSegmentCap, diag::kWarnTimeLimit,
                        diag::kWarnTableFull, diag::kWarnCheckDeadline}) {
    if (code == k) return k;
  }
  return nullptr;
}

// ---------------------------------------------------------------- writing

void write_violations(ByteWriter& w, const std::vector<Violation>& vs) {
  w.u32(static_cast<std::uint32_t>(vs.size()));
  for (const Violation& v : vs) {
    w.u8(static_cast<std::uint8_t>(v.type));
    w.u32(v.prim);
    w.u32(v.signal);
    w.i64(v.missed_by);
    w.str(v.message);
  }
}

std::string build_bind(const std::string& design, const Netlist& nl,
                       const VerifierOptions& opts, std::uint64_t artifact_hash,
                       std::uint64_t report_digest) {
  ByteWriter w;
  w.u64(artifact_hash);
  w.u64(netlist_shape_digest(nl));
  w.u64(options_semantic_digest(opts));
  w.u64(report_digest);
  w.u32(static_cast<std::uint32_t>(nl.num_signals()));
  w.u32(static_cast<std::uint32_t>(nl.num_prims()));
  w.str(design);
  return w.take();
}

/// Deduplicated waveform arena + per-signal (arena ref, eval string): the
/// on-disk mirror of the evaluator's interned wave table.
void build_waves_and_sigs(const Netlist& nl, std::string& waves_out,
                          std::string& sigs_out) {
  wire::WaveArena arena;
  ByteWriter sigs;
  sigs.u32(static_cast<std::uint32_t>(nl.num_signals()));
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    sigs.u32(arena.add(s.wave.canonical()));
    sigs.str(s.eval_str);
  }
  ByteWriter waves;
  wire::write_arena(waves, arena.waves());
  waves_out = waves.take();
  sigs_out = sigs.take();
}

std::string build_result(const VerifyResult& r) {
  ByteWriter w;
  write_violations(w, r.violations);
  w.u64(r.base_events);
  w.u64(r.base_evals);
  w.u8(r.converged ? 1 : 0);
  w.u8(r.partial ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(r.degradations.size()));
  for (const Degradation& d : r.degradations) {
    w.str(d.code);
    w.str(d.message);
  }
  w.u32(static_cast<std::uint32_t>(r.cases.size()));
  for (const VerifyResult::CaseResult& c : r.cases) {
    w.str(c.name);
    w.u64(c.events);
    w.u8(c.converged ? 1 : 0);
    w.u8(c.degraded ? 1 : 0);
    write_violations(w, c.violations);
  }
  w.u32(static_cast<std::uint32_t>(r.cross_reference.size()));
  for (SignalId id : r.cross_reference) w.u32(id);
  return w.take();
}

// ---------------------------------------------------------------- reading

bool read_violations(ByteReader& r, std::vector<Violation>& out, std::uint32_t nsignals,
                     std::uint32_t nprims, Loader& L) {
  std::uint32_t count = r.u32();
  out.reserve(r.room(count, kMinViolation));
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    Violation v;
    std::uint8_t type = r.u8();
    if (!r.truncated() && type > static_cast<std::uint8_t>(Violation::Type::Unconverged))
      return L.bad("bad violation kind");
    v.type = static_cast<Violation::Type>(type);
    v.prim = r.u32();
    if (!r.truncated() && v.prim != kNoPrim && v.prim >= nprims)
      return L.bad("violation primitive out of range");
    v.signal = r.u32();
    if (!r.truncated() && v.signal != kNoSignal && v.signal >= nsignals)
      return L.bad("violation signal out of range");
    v.missed_by = r.i64();
    v.message = r.str();
    if (r.truncated()) break;
    out.push_back(std::move(v));
  }
  return true;
}

bool read_bind(ByteReader& r, FixpointState& st, std::uint32_t& nsignals) {
  st.artifact_hash = r.u64();
  st.shape_digest = r.u64();
  st.options_digest = r.u64();
  st.report_digest = r.u64();
  nsignals = r.u32();
  st.num_prims = r.u32();
  st.design = r.str();
  return true;
}

bool read_sigs(ByteReader& r, const std::vector<Waveform>& arena, std::uint32_t nsignals,
               FixpointState& st, Loader& L) {
  std::uint32_t count = r.u32();
  if (!r.truncated() && count != nsignals)
    return L.bad("signal table does not match the bound signal count");
  st.waves.reserve(r.room(count, kMinSig));
  st.eval_strs.reserve(r.room(count, kMinSig));
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    std::uint32_t ref = r.u32();
    std::string eval_str = r.str();
    if (r.truncated()) break;
    if (ref >= arena.size())
      return L.bad("waveform ref out of range");
    st.waves.push_back(arena[ref]);
    st.eval_strs.push_back(std::move(eval_str));
  }
  return true;
}

bool read_result(ByteReader& r, std::uint32_t nsignals, std::uint32_t nprims,
                 FixpointState& st, Loader& L) {
  VerifyResult& res = st.result;
  if (!read_violations(r, res.violations, nsignals, nprims, L)) return false;
  res.base_events = r.u64();
  res.base_evals = r.u64();
  res.converged = r.u8() != 0;
  res.partial = r.u8() != 0;
  std::uint32_t ndeg = r.u32();
  res.degradations.reserve(r.room(ndeg, kMinDegradation));
  for (std::uint32_t i = 0; i < ndeg && !r.truncated(); ++i) {
    std::string code = r.str();
    std::string message = r.str();
    if (r.truncated()) break;
    const char* interned = intern_degradation_code(code);
    if (interned == nullptr)
      return L.bad("unknown degradation code \"" + code + "\"");
    res.degradations.push_back(Degradation{interned, std::move(message)});
  }
  std::uint32_t ncases = r.u32();
  res.cases.reserve(r.room(ncases, kMinCaseResult));
  for (std::uint32_t i = 0; i < ncases && !r.truncated(); ++i) {
    VerifyResult::CaseResult c;
    c.name = r.str();
    c.events = r.u64();
    c.converged = r.u8() != 0;
    c.degraded = r.u8() != 0;
    if (!read_violations(r, c.violations, nsignals, nprims, L)) return false;
    if (r.truncated()) break;
    res.cases.push_back(std::move(c));
  }
  std::uint32_t nxref = r.u32();
  res.cross_reference.reserve(r.room(nxref, kMinXref));
  for (std::uint32_t i = 0; i < nxref && !r.truncated(); ++i) {
    std::uint32_t id = r.u32();
    if (!r.truncated() && id >= nsignals)
      return L.bad("cross-reference signal out of range");
    res.cross_reference.push_back(id);
  }
  return true;
}

}  // namespace

std::uint64_t netlist_shape_digest(const Netlist& nl) {
  // Everything restore needs to agree on before grafting a fixpoint:
  // per-signal identity and parameters, per-primitive kind/parameters and
  // connectivity. Evaluation state (wave, eval_str) is deliberately
  // excluded -- that is the payload, not the binding.
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(nl.num_signals()));
  w.u32(static_cast<std::uint32_t>(nl.num_prims()));
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    w.str(s.full_name);
    w.u8(s.wire_delay ? 1 : 0);
    if (s.wire_delay) {
      w.i64(s.wire_delay->dmin);
      w.i64(s.wire_delay->dmax);
    }
  }
  for (PrimId id = 0; id < nl.num_prims(); ++id) {
    const Primitive& p = nl.prim(id);
    w.u8(static_cast<std::uint8_t>(p.kind));
    w.str(p.name);
    w.i64(p.dmin);
    w.i64(p.dmax);
    w.u8(p.rise_fall ? 1 : 0);
    if (p.rise_fall) {
      w.i64(p.rise_fall->rise_min);
      w.i64(p.rise_fall->rise_max);
      w.i64(p.rise_fall->fall_min);
      w.i64(p.rise_fall->fall_max);
    }
    w.i64(p.setup);
    w.i64(p.hold);
    w.i64(p.min_high);
    w.i64(p.min_low);
    w.u32(p.output);
    w.u32(static_cast<std::uint32_t>(p.inputs.size()));
    for (const Pin& pin : p.inputs) {
      w.u32(pin.sig);
      w.u8(pin.invert ? 1 : 0);
      w.str(pin.directives);
    }
  }
  std::string bytes = w.take();
  return fnv1a(bytes.data(), bytes.size());
}

std::uint64_t options_semantic_digest(const VerifierOptions& o) {
  ByteWriter w;
  w.i64(o.period);
  w.i64(o.units.ps_per_unit());
  w.i64(o.default_wire.dmin);
  w.i64(o.default_wire.dmax);
  w.f64(o.assertion_defaults.precision_skew_minus_ns);
  w.f64(o.assertion_defaults.precision_skew_plus_ns);
  w.f64(o.assertion_defaults.clock_skew_minus_ns);
  w.f64(o.assertion_defaults.clock_skew_plus_ns);
  w.u64(o.max_evals_per_prim);
  w.u64(o.max_segments_per_signal);
  w.u32(o.max_waveforms_per_shard);
  std::string bytes = w.take();
  return fnv1a(bytes.data(), bytes.size());
}

std::string serialize_fixpoint(const Verifier& v, const std::string& design,
                               std::uint64_t artifact_hash) {
  if (!v.has_baseline()) {
    throw std::logic_error("serialize_fixpoint: verifier has no baseline fixpoint");
  }
  const Netlist& nl = v.evaluator().netlist();
  std::string waves_sec, sigs_sec;
  build_waves_and_sigs(nl, waves_sec, sigs_sec);
  std::string result_sec = build_result(v.baseline());
  std::uint64_t report_digest = fnv1a(result_sec.data(), result_sec.size());
  const std::string sections[] = {
      build_bind(design, nl, v.evaluator().options(), artifact_hash, report_digest),
      std::move(waves_sec), std::move(sigs_sec), std::move(result_sec),
      wire::build_cases(v.baseline_cases())};
  return wire::assemble(kFormat, sections);
}

std::optional<FixpointState> load_fixpoint(std::string_view bytes, std::string_view origin,
                                           diag::DiagnosticEngine& diags) {
  Loader L{diags, origin, kFormat};
  FixpointState st;
  if (!wire::decode(bytes, L, [&](wire::Container& c) {
        std::uint32_t nsignals = 0;
        std::vector<Waveform> arena;
        std::vector<ByteReader>& r = c.sections;
        const std::string_view result_sec = r[3].bytes();
        if (read_bind(r[0], st, nsignals) && wire::read_arena(r[1], arena, L) &&
            read_sigs(r[2], arena, nsignals, st, L) &&
            read_result(r[3], nsignals, st.num_prims, st, L) &&
            wire::read_cases(r[4], nsignals, st.cases, L) && wire::finish(c, L) &&
            st.report_digest != fnv1a(result_sec.data(), result_sec.size())) {
          L.bad("report digest mismatch");
        }
      })) {
    return std::nullopt;
  }
  return st;
}

std::optional<FixpointState> load_fixpoint_file(const std::string& path,
                                                diag::DiagnosticEngine& diags) {
  std::optional<FixpointState> st;
  wire::load_file(kFormat, path, diags,
                  [&](std::string_view bytes) { st = load_fixpoint(bytes, path, diags); });
  return st;
}

bool write_fixpoint_file(const Verifier& v, const std::string& design,
                         std::uint64_t artifact_hash, const std::string& path,
                         std::string* error) {
  std::string bytes = serialize_fixpoint(v, design, artifact_hash);
  return util::atomic_write_file(path, bytes, error);
}

// ------------------------------------------------- Verifier::snapshot/restore

std::string Verifier::snapshot(const std::string& design,
                               std::uint64_t artifact_hash) const {
  return serialize_fixpoint(*this, design, artifact_hash);
}

bool Verifier::restore(const FixpointState& state, std::uint64_t expected_artifact_hash,
                       diag::DiagnosticEngine& diags) {
  auto reject = [&](const std::string& message) {
    diags.report(diag::Severity::Error, diag::kErrSnapshotBinding, diag::SourceLoc{},
                 "snapshot of \"" + state.design + "\": " + message);
    return false;
  };
  const Netlist& nl = ev_.netlist();
  if (state.artifact_hash != expected_artifact_hash) {
    return reject("bound to a different compiled artifact");
  }
  if (state.waves.size() != nl.num_signals() || state.num_prims != nl.num_prims()) {
    return reject("signal/primitive counts do not match this design");
  }
  if (state.shape_digest != netlist_shape_digest(nl)) {
    return reject("netlist shape digest does not match this design");
  }
  if (state.options_digest != options_semantic_digest(ev_.options())) {
    return reject("verifier options do not match the snapshot's");
  }
  ev_.restore_fixpoint(state.waves, state.eval_strs, state.result.converged,
                       state.result.partial, state.result.degradations);
  last_ = state.result;
  last_cases_ = state.cases;
  has_baseline_ = true;
  return true;
}

}  // namespace tv
