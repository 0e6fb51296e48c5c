// Compiled-design artifact serialization (see compiled.hpp for the format).
#include "core/compiled.hpp"


#include "core/wire_format.hpp"
#include "util/atomic_file.hpp"

namespace tv {
namespace {

using wire::ByteReader;
using wire::ByteWriter;
using wire::Loader;

// Section ids (the table is written in this order).
enum : std::uint32_t {
  kSecMeta = 1,
  kSecSignals = 2,
  kSecPrims = 3,
  kSecCases = 4,
  kSecWaves = 5,
};
constexpr std::uint32_t kSectionIds[] = {kSecMeta, kSecSignals, kSecPrims, kSecCases,
                                         kSecWaves};

// The smallest record of each counted kind, for ByteReader::room(): every
// string empty, every optional field absent.
constexpr std::size_t kMinRange = 8 + 8 + 1;
constexpr std::size_t kMinSignal = 4 + 4 + (3 + 4) + 1 + 4 + 1;  // names, assertion, ...
constexpr std::size_t kMinPrim = 1 + 4 + 8 + 8 + 1 + 4 * 8 + 4 + 4 + 4;
constexpr std::size_t kMinPin = 4 + 1 + 4;
constexpr std::size_t kMinRef = 4;

constexpr wire::Format kFormat{
    kCompiledMagic,
    kCompiledFormatVersion,
    kSectionIds,
    diag::kErrArtifactIo,
    diag::kErrArtifactMagic,
    diag::kErrArtifactVersion,
    diag::kErrArtifactTruncated,
    diag::kErrArtifactHash,
    diag::kErrArtifactMalformed,
    diag::kErrArtifactEndian,
    "artifact",
    "an artifact",
    "compiled design",
    "recompile with scaldtvc",
};

// ---------------------------------------------------------------- writing

void write_assertion(ByteWriter& w, const Assertion& a) {
  w.u8(static_cast<std::uint8_t>(a.kind));
  w.u8(a.active_low ? 1 : 0);
  w.u8(a.skew_ns ? 1 : 0);
  if (a.skew_ns) {
    w.f64(a.skew_ns->first);
    w.f64(a.skew_ns->second);
  }
  w.u32(static_cast<std::uint32_t>(a.ranges.size()));
  for (const Assertion::Range& r : a.ranges) {
    w.f64(r.begin);
    w.f64(r.end);
    w.u8(r.width_ns ? 1 : 0);
    if (r.width_ns) w.f64(*r.width_ns);
  }
}

std::string build_meta(const CompiledDesign& d) {
  ByteWriter w;
  w.str(d.name);
  const VerifierOptions& o = d.options;
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
  w.u8(1);  // reserved, always 1: keeps the bytes of the removed interning switch
  w.u8(o.batch_eval ? 1 : 0);
  w.u32(o.batch_lanes);
  w.u64(d.summary.macro_instances);
  w.u64(d.summary.primitives);
  w.u64(d.summary.unique_signals);
  w.u64(d.summary.total_bits);
  w.u32(static_cast<std::uint32_t>(d.summary.prims_by_kind.size()));
  for (const auto& [kind, count] : d.summary.prims_by_kind) {  // std::map: sorted
    w.str(kind);
    w.u64(count);
  }
  return w.take();
}

std::string build_signals(const Netlist& nl) {
  ByteWriter w;
  std::vector<std::pair<std::string_view, SignalId>> aliases;  // a synonym's name -> keeper
  w.u32(static_cast<std::uint32_t>(nl.num_signals()));
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    const SignalId owner = nl.find(s.full_name);
    if (owner != id && owner != kNoSignal) aliases.emplace_back(s.full_name, owner);
    w.str(s.full_name);
    w.str(s.base_name);
    write_assertion(w, s.assertion);
    w.u8(static_cast<std::uint8_t>(s.scope));
    w.u32(static_cast<std::uint32_t>(s.width));
    w.u8(s.wire_delay ? 1 : 0);
    if (s.wire_delay) {
      w.i64(s.wire_delay->dmin);
      w.i64(s.wire_delay->dmax);
    }
  }
  w.u32(static_cast<std::uint32_t>(aliases.size()));
  for (const auto& [name, keeper] : aliases) {
    w.str(name);
    w.u32(keeper);
  }
  return w.take();
}

std::string build_prims(const Netlist& nl) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(nl.num_prims()));
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
    w.u32(static_cast<std::uint32_t>(p.width));
    w.u32(p.output);
    w.u32(static_cast<std::uint32_t>(p.inputs.size()));
    for (const Pin& pin : p.inputs) {
      w.u32(pin.sig);
      w.u8(pin.invert ? 1 : 0);
      w.str(pin.directives);
    }
  }
  return w.take();
}

std::string build_waves(const CompiledDesign& d) {
  ByteWriter w;
  wire::write_arena(w, d.seed_arena);
  w.u32(static_cast<std::uint32_t>(d.seed_refs.size()));
  for (std::uint32_t ref : d.seed_refs) w.u32(ref);
  return w.take();
}

// ---------------------------------------------------------------- reading

bool read_assertion(ByteReader& r, Assertion& a, Loader& L) {
  std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(Assertion::Kind::Stable))
    return L.bad("bad assertion kind");
  a.kind = static_cast<Assertion::Kind>(kind);
  a.active_low = r.u8() != 0;
  if (r.u8() != 0) {
    double minus = r.f64();
    double plus = r.f64();
    a.skew_ns = {minus, plus};
  }
  std::uint32_t nranges = r.u32();
  a.ranges.reserve(r.room(nranges, kMinRange));
  for (std::uint32_t i = 0; i < nranges && !r.truncated(); ++i) {
    Assertion::Range range;
    range.begin = r.f64();
    range.end = r.f64();
    if (r.u8() != 0) range.width_ns = r.f64();
    a.ranges.push_back(range);
  }
  return true;
}

// Interconnection delays feed Waveform::delayed, which needs
// 0 <= min <= max; the SHDL front end rejects anything else (SHDL-E032).
bool valid_range(const WireDelay& wd) { return wd.dmin >= 0 && wd.dmax >= wd.dmin; }

std::string describe_range(const WireDelay& wd) {
  return "invalid delay range " + format_ns(wd.dmin) + ":" + format_ns(wd.dmax) +
         " (need 0 <= min <= max)";
}

bool read_meta(ByteReader& r, CompiledDesign& d, Loader& L) {
  d.name = r.str();
  d.options.period = r.i64();
  d.options.units = ClockUnits(r.i64());
  d.options.default_wire.dmin = r.i64();
  d.options.default_wire.dmax = r.i64();
  d.options.assertion_defaults.precision_skew_minus_ns = r.f64();
  d.options.assertion_defaults.precision_skew_plus_ns = r.f64();
  d.options.assertion_defaults.clock_skew_minus_ns = r.f64();
  d.options.assertion_defaults.clock_skew_plus_ns = r.f64();
  d.options.max_evals_per_prim = r.u64();
  d.options.max_segments_per_signal = r.u64();
  r.u8();  // reserved (see build_meta)
  d.options.batch_eval = r.u8() != 0;
  d.options.batch_lanes = r.u32();
  d.summary.macro_instances = r.u64();
  d.summary.primitives = r.u64();
  d.summary.unique_signals = r.u64();
  d.summary.total_bits = r.u64();
  std::uint32_t nkinds = r.u32();
  for (std::uint32_t i = 0; i < nkinds && !r.truncated(); ++i) {
    std::string kind = r.str();
    std::uint64_t count = r.u64();
    d.summary.prims_by_kind[kind] = count;
  }
  if (!r.truncated() && d.options.period <= 0)
    return L.bad("non-positive clock period");
  if (!r.truncated() && !valid_range(d.options.default_wire))
    return L.bad("default wire delay: " + describe_range(d.options.default_wire));
  return true;
}

bool read_signals(ByteReader& r, CompiledDesign& d, Loader& L) {
  std::uint32_t count = r.u32();
  const std::size_t room = r.room(count, kMinSignal);
  d.netlist.reserve(room, 0);
  d.netlist.reserve_names(room);
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    Signal s;
    s.full_name = r.str();
    s.base_name = r.str();
    if (!read_assertion(r, s.assertion, L)) return false;
    std::uint8_t scope = r.u8();
    if (!r.truncated() && scope > static_cast<std::uint8_t>(SignalScope::Parameter))
      return L.bad("bad signal scope");
    s.scope = static_cast<SignalScope>(scope);
    s.width = static_cast<int>(r.u32());
    if (r.u8() != 0) {
      WireDelay wd;
      wd.dmin = r.i64();
      wd.dmax = r.i64();
      if (!r.truncated() && !valid_range(wd))
        return L.bad("signal \"" + s.full_name + "\" wire delay: " + describe_range(wd));
      s.wire_delay = wd;
    }
    if (r.truncated()) break;
    d.netlist.push_signal(std::move(s));
  }
  const std::uint32_t naliases = r.u32();
  for (std::uint32_t i = 0; i < naliases && !r.truncated(); ++i) {
    const std::string name = r.str();
    const SignalId keeper = r.u32();
    if (r.truncated()) break;
    if (keeper >= d.netlist.num_signals())
      return L.bad("synonym \"" + name + "\": keeper signal out of range");
    d.netlist.alias(name, keeper);
  }
  return true;
}

bool read_prims(ByteReader& r, CompiledDesign& d, Loader& L) {
  const std::uint32_t nsignals = static_cast<std::uint32_t>(d.netlist.num_signals());
  std::uint32_t count = r.u32();
  d.netlist.reserve(nsignals, r.room(count, kMinPrim));
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    Primitive p;
    std::uint8_t kind = r.u8();
    if (!r.truncated() && kind > static_cast<std::uint8_t>(PrimKind::MinPulseWidthChk))
      return L.bad("bad primitive kind");
    p.kind = static_cast<PrimKind>(kind);
    p.name = r.str();
    p.dmin = r.i64();
    p.dmax = r.i64();
    if (r.u8() != 0) {
      RiseFallDelay rf;
      rf.rise_min = r.i64();
      rf.rise_max = r.i64();
      rf.fall_min = r.i64();
      rf.fall_max = r.i64();
      p.rise_fall = rf;
    }
    p.setup = r.i64();
    p.hold = r.i64();
    p.min_high = r.i64();
    p.min_low = r.i64();
    p.width = static_cast<int>(r.u32());
    p.output = r.u32();
    if (!r.truncated() && p.output != kNoSignal && p.output >= nsignals)
      return L.bad("primitive \"" + p.name + "\": output signal out of range");
    std::uint32_t ninputs = r.u32();
    p.inputs.reserve(r.room(ninputs, kMinPin));
    for (std::uint32_t j = 0; j < ninputs && !r.truncated(); ++j) {
      Pin pin;
      pin.sig = r.u32();
      if (!r.truncated() && pin.sig >= nsignals)
        return L.bad("primitive \"" + p.name + "\": input signal out of range");
      pin.invert = r.u8() != 0;
      pin.directives = r.str();
      p.inputs.push_back(std::move(pin));
    }
    if (r.truncated()) break;
    try {
      d.netlist.add_prim(std::move(p));
    } catch (const std::exception& e) {
      return L.bad(e.what());
    }
  }
  return true;
}

bool read_waves(ByteReader& r, CompiledDesign& d, Loader& L) {
  if (!wire::read_arena(r, d.seed_arena, L)) return false;
  std::uint32_t nrefs = r.u32();
  d.seed_refs.reserve(r.room(nrefs, kMinRef));
  for (std::uint32_t i = 0; i < nrefs && !r.truncated(); ++i) {
    std::uint32_t ref = r.u32();
    if (!r.truncated() && ref >= d.seed_arena.size())
      return L.bad("seed-waveform ref out of range");
    d.seed_refs.push_back(ref);
  }
  if (!r.truncated() && d.seed_refs.size() != d.netlist.num_signals())
    return L.bad("seed-ref table does not match the signal count");
  return true;
}

}  // namespace

CompiledDesign compile_design(std::string name, const Netlist& netlist,
                              const VerifierOptions& options,
                              std::vector<CaseSpec> cases, CompiledSummary summary) {
  CompiledDesign d;
  d.name = std::move(name);
  d.netlist = netlist;
  d.options = options;
  d.cases = std::move(cases);
  d.summary = std::move(summary);

  // Deduplicated seed arena: every signal's initial waveform (materialized
  // assertion / always-STABLE / UNKNOWN), one unique canonical copy each.
  wire::WaveArena arena;
  d.seed_refs.reserve(netlist.num_signals());
  for (SignalId id = 0; id < netlist.num_signals(); ++id) {
    d.seed_refs.push_back(arena.add(seed_waveform(netlist.signal(id), options).canonical()));
  }
  d.seed_arena = std::move(arena.waves());
  return d;
}

std::string serialize_compiled(CompiledDesign& design) {
  const std::string sections[] = {build_meta(design), build_signals(design.netlist),
                                  build_prims(design.netlist), wire::build_cases(design.cases),
                                  build_waves(design)};
  return wire::assemble(kFormat, sections, &design.content_hash);
}

std::optional<CompiledDesign> load_compiled(std::string_view bytes, std::string_view origin,
                                            diag::DiagnosticEngine& diags) {
  Loader L{diags, origin, kFormat};
  CompiledDesign d;
  if (!wire::decode(bytes, L, [&](wire::Container& c) {
        d.content_hash = c.content_hash;
        std::vector<ByteReader>& r = c.sections;
        if (read_meta(r[0], d, L) && read_signals(r[1], d, L) && read_prims(r[2], d, L) &&
            wire::read_cases(r[3], static_cast<std::uint32_t>(d.netlist.num_signals()),
                             d.cases, L) &&
            read_waves(r[4], d, L) && wire::finish(c, L)) {
          // Recompute fanout call lists and re-validate the structure exactly
          // as the front end did; a corrupt-but-well-formed artifact fails here.
          try {
            d.netlist.finalize();
          } catch (const std::exception& e) {
            L.bad(e.what());
          }
        }
      })) {
    return std::nullopt;
  }
  return d;
}

std::optional<CompiledDesign> load_compiled_file(const std::string& path,
                                                 diag::DiagnosticEngine& diags) {
  // Parsed straight out of the mapping; load_compiled copies everything it
  // keeps.
  std::optional<CompiledDesign> d;
  wire::load_file(kFormat, path, diags,
                  [&](std::string_view bytes) { d = load_compiled(bytes, path, diags); });
  return d;
}

bool write_compiled_file(CompiledDesign& design, const std::string& path, std::string* error) {
  std::string bytes = serialize_compiled(design);
  return util::atomic_write_file(path, bytes, error);
}

std::size_t preintern_seeds(const CompiledDesign& design, WaveformTable& table) {
  std::size_t n = 0;
  for (const Waveform& w : design.seed_arena) {
    if (table.intern(w) != kNoWaveform) ++n;
  }
  return n;
}

}  // namespace tv
