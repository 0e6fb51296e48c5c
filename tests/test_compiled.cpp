// Compiled-design artifact (core/compiled.hpp) regression suite.
//
// Round-trip property: every example design, serialized through the
// scaldtvc byte format and reloaded, must verify bit-identically to the
// in-memory original -- same waveforms, same event counts, same violation
// reports -- and re-serializing the loaded design must reproduce the exact
// artifact bytes. Rejection matrix: a truncated, corrupted, version-skewed,
// wrong-magic, or wrong-endian artifact is refused with exactly one
// diagnostic carrying the right TV-E30x code, and `scaldtv --compiled` on
// such a file exits 2 (input error, never retryable).
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/compiled.hpp"
#include "core/incremental.hpp"
#include "core/verifier.hpp"
#include "core/wave_table.hpp"
#include "diag/diagnostic.hpp"
#include "example_designs.hpp"
#include "gen/s1_design.hpp"
#include "hdl/elaborate.hpp"

namespace {

using namespace tv;

std::string render_report(Netlist& nl, const VerifierOptions& opts,
                          const std::vector<CaseSpec>& cases) {
  Verifier v(nl, opts);
  VerifyResult r = v.verify(cases);
  std::ostringstream os;
  os << "signals " << nl.num_signals() << "  primitives " << nl.num_prims() << "\n";
  os << "base events " << r.base_events << "  converged "
     << (r.converged ? "yes" : "no") << "  partial " << (r.partial ? "yes" : "no")
     << "\n\n";
  os << timing_summary(nl) << "\n";
  os << violations_report(r.violations);
  for (const auto& c : r.cases) {
    os << "\n=== case \"" << c.name << "\" (" << c.events << " events, converged "
       << (c.converged ? "yes" : "no") << ") ===\n";
    os << violations_report(c.violations);
  }
  return os.str();
}

// Compiles a pristine copy of example `index` into artifact bytes.
std::string serialize_example(std::size_t index, CompiledDesign* out = nullptr) {
  examples::ExampleDesign d = examples::all_example_designs()[index];
  CompiledSummary summary;
  summary.primitives = d.netlist->num_prims();
  summary.unique_signals = d.netlist->num_signals();
  CompiledDesign design =
      compile_design(d.name, *d.netlist, d.options, d.cases, summary);
  std::string bytes = serialize_compiled(design);
  if (out != nullptr) *out = std::move(design);
  return bytes;
}

TEST(CompiledRoundTrip, EveryExampleVerifiesIdentically) {
  const std::size_t n = examples::all_example_designs().size();
  ASSERT_GE(n, 5u);
  for (std::size_t i = 0; i < n; ++i) {
    // Fresh build for the reference run: verification mutates the netlist's
    // baseline waveforms, so the compile below uses its own copy.
    examples::ExampleDesign ref = examples::all_example_designs()[i];
    std::string source_report =
        render_report(*ref.netlist, ref.options, ref.cases);

    std::string bytes = serialize_example(i);
    diag::DiagnosticEngine diags;
    std::optional<CompiledDesign> loaded = load_compiled(bytes, ref.name, diags);
    ASSERT_TRUE(loaded.has_value()) << ref.name;
    EXPECT_FALSE(diags.has_errors()) << ref.name;

    std::string compiled_report =
        render_report(loaded->netlist, loaded->options, loaded->cases);
    EXPECT_EQ(source_report, compiled_report)
        << ref.name << ": compiled path must be byte-identical to source path";
  }
}

TEST(CompiledRoundTrip, ReserializingALoadedDesignReproducesTheBytes) {
  for (std::size_t i = 0; i < examples::all_example_designs().size(); ++i) {
    std::string bytes = serialize_example(i);
    diag::DiagnosticEngine diags;
    std::optional<CompiledDesign> loaded = load_compiled(bytes, "rt", diags);
    ASSERT_TRUE(loaded.has_value()) << i;
    std::string again = serialize_compiled(*loaded);
    EXPECT_EQ(bytes, again)
        << "example " << i << ": serialize(load(bytes)) must equal bytes";
  }
}

// The netlist a load rebuilds -- the name index, each signal's driver and
// fanout -- must equal the front end's, field for field, not only in the
// fields the artifact stores.
void expect_same_netlist(const Netlist& want, const Netlist& got, const std::string& what) {
  SCOPED_TRACE(what);
  ASSERT_EQ(want.num_signals(), got.num_signals());
  ASSERT_EQ(want.num_prims(), got.num_prims());
  for (SignalId id = 0; id < want.num_signals() && !::testing::Test::HasFailure(); ++id) {
    SCOPED_TRACE("signal " + std::to_string(id));
    const Signal& a = want.signal(id);
    const Signal& b = got.signal(id);
    EXPECT_EQ(a.full_name, b.full_name);
    EXPECT_EQ(a.base_name, b.base_name);
    EXPECT_TRUE(a.assertion == b.assertion);
    EXPECT_EQ(a.scope, b.scope);
    EXPECT_EQ(a.width, b.width);
    ASSERT_EQ(a.wire_delay.has_value(), b.wire_delay.has_value());
    if (a.wire_delay) {
      EXPECT_EQ(a.wire_delay->dmin, b.wire_delay->dmin);
      EXPECT_EQ(a.wire_delay->dmax, b.wire_delay->dmax);
    }
    EXPECT_EQ(a.driver, b.driver);
    EXPECT_EQ(a.fanout, b.fanout);
    EXPECT_EQ(want.find(a.full_name), got.find(a.full_name));
  }
  for (PrimId id = 0; id < want.num_prims() && !::testing::Test::HasFailure(); ++id) {
    SCOPED_TRACE("primitive " + std::to_string(id));
    const Primitive& a = want.prim(id);
    const Primitive& b = got.prim(id);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.dmin, b.dmin);
    EXPECT_EQ(a.dmax, b.dmax);
    ASSERT_EQ(a.rise_fall.has_value(), b.rise_fall.has_value());
    if (a.rise_fall) {
      EXPECT_EQ(a.rise_fall->rise_min, b.rise_fall->rise_min);
      EXPECT_EQ(a.rise_fall->rise_max, b.rise_fall->rise_max);
      EXPECT_EQ(a.rise_fall->fall_min, b.rise_fall->fall_min);
      EXPECT_EQ(a.rise_fall->fall_max, b.rise_fall->fall_max);
    }
    EXPECT_EQ(a.setup, b.setup);
    EXPECT_EQ(a.hold, b.hold);
    EXPECT_EQ(a.min_high, b.min_high);
    EXPECT_EQ(a.min_low, b.min_low);
    EXPECT_EQ(a.width, b.width);
    EXPECT_EQ(a.output, b.output);
    ASSERT_EQ(a.inputs.size(), b.inputs.size());
    for (std::size_t i = 0; i < a.inputs.size(); ++i) {
      EXPECT_EQ(a.inputs[i].sig, b.inputs[i].sig);
      EXPECT_EQ(a.inputs[i].invert, b.inputs[i].invert);
      EXPECT_EQ(a.inputs[i].directives, b.inputs[i].directives);
    }
  }
  EXPECT_TRUE(got.finalized());
}

Netlist load_netlist(const std::string& bytes) {
  diag::DiagnosticEngine diags;
  std::optional<CompiledDesign> loaded = load_compiled(bytes, "rt", diags);
  EXPECT_TRUE(loaded.has_value());
  EXPECT_FALSE(diags.has_errors());
  return loaded ? std::move(loaded->netlist) : Netlist();
}

// A synonym merge leaves the dropped name's signal as an orphan and points
// the name at the keeper (Netlist::merge_signals); "C" is the dropped name.
constexpr const char* kSynonymDesign = R"(
design SYN {
  period 50.0;
  synonym "B" = "C";
  buf [delay=1.0:2.0] ("A .S0-30") -> "B";
  buf [delay=1.0:2.0] ("C") -> "D";
  setup_hold [setup=2.0, hold=1.0] ("D", "CK .C20-22");
}
)";

std::string compile_synonyms() {
  hdl::ElaboratedDesign d = hdl::elaborate_source(kSynonymDesign);
  CompiledDesign design = compile_design(d.name, d.netlist, d.options, d.cases, {});
  return serialize_compiled(design);
}

TEST(CompiledRoundTrip, LoadedNetlistEqualsTheFrontEnds) {
  for (std::size_t i = 0; i < examples::all_example_designs().size(); ++i) {
    examples::ExampleDesign d = examples::all_example_designs()[i];
    expect_same_netlist(*d.netlist, load_netlist(serialize_example(i)), d.name);
  }
  gen::S1Params p;
  p.stages = 3;
  p.clock_tree_bufs = 4;
  hdl::ElaboratedDesign s1 = gen::build_s1_design(p);
  CompiledDesign design = compile_design(s1.name, s1.netlist, s1.options, s1.cases, {});
  expect_same_netlist(s1.netlist, load_netlist(serialize_compiled(design)), "S-1");

  hdl::ElaboratedDesign syn = hdl::elaborate_source(kSynonymDesign);
  std::size_t orphans = 0;  // signals whose own name resolves to their keeper
  for (SignalId id = 0; id < syn.netlist.num_signals(); ++id) {
    if (syn.netlist.find(syn.netlist.signal(id).full_name) != id) ++orphans;
  }
  ASSERT_EQ(orphans, 1u);
  expect_same_netlist(syn.netlist, load_netlist(compile_synonyms()), "synonyms");
}

// What a reverify of a wire-delay edit on `signal` did.
struct Reverified {
  std::size_t dirty_prims = 0;
  std::size_t violations = 0;
  std::string report;
};

Reverified reverify_wire(Netlist& nl, const VerifierOptions& opts,
                         const std::vector<CaseSpec>& cases, const std::string& signal) {
  Verifier v(nl, opts);
  v.verify(cases);
  NetlistDelta delta;
  std::string error;
  EXPECT_TRUE(parse_delta_json(
      R"({"wires": [{"signal": ")" + signal + R"(", "dmin": 5.0, "dmax": 9.0}]})", nl, &delta,
      &error))
      << error;
  ReverifyStats st;
  VerifyResult r = v.reverify(delta, &st);
  return {st.dirty_prims.size(), r.violations.size(), violations_report(r.violations)};
}

TEST(CompiledSynonyms, ADeltaOnEitherNameAgreesOnBothPaths) {
  for (const char* name : {"C", "B"}) {
    SCOPED_TRACE(name);
    hdl::ElaboratedDesign src = hdl::elaborate_source(kSynonymDesign);
    const Reverified from_source = reverify_wire(src.netlist, src.options, src.cases, name);

    diag::DiagnosticEngine diags;
    std::optional<CompiledDesign> loaded = load_compiled(compile_synonyms(), "syn", diags);
    ASSERT_TRUE(loaded.has_value());
    const Reverified from_artifact =
        reverify_wire(loaded->netlist, loaded->options, loaded->cases, name);

    EXPECT_EQ(from_source.dirty_prims, 3u);
    EXPECT_EQ(from_source.violations, 2u);
    EXPECT_EQ(from_artifact.dirty_prims, from_source.dirty_prims);
    EXPECT_EQ(from_artifact.report, from_source.report);
  }
}

TEST(CompiledRoundTrip, SerializationIsDeterministic) {
  CompiledDesign a, b;
  std::string first = serialize_example(0, &a);
  std::string second = serialize_example(0, &b);
  EXPECT_EQ(first, second);
  EXPECT_EQ(a.content_hash, b.content_hash);
  EXPECT_NE(a.content_hash, 0u);
}

TEST(CompiledRoundTrip, PreinternedSeedsChangeNoVerdicts) {
  CompiledDesign design;
  std::string bytes = serialize_example(0, &design);
  ASSERT_FALSE(design.seed_arena.empty());
  ASSERT_EQ(design.seed_refs.size(), design.netlist.num_signals());

  WaveformTable table;
  std::size_t interned = preintern_seeds(design, table);
  EXPECT_EQ(interned, design.seed_arena.size());
  EXPECT_EQ(table.size(), design.seed_arena.size());
  // Warming is idempotent: the arena holds unique canonical waveforms, so a
  // second pass interns nothing new.
  preintern_seeds(design, table);
  EXPECT_EQ(table.size(), design.seed_arena.size());
}

// --- rejection matrix -------------------------------------------------------

// Header layout (compiled.cpp): magic[8], endian u32, version u32, hash u64,
// payload size u64, section count u32, reserved u32 -- 40 bytes.
constexpr std::size_t kHdrEndianOff = 8;
constexpr std::size_t kHdrVersionOff = 12;
constexpr std::size_t kHdrHashOff = 16;
constexpr std::size_t kHdrSize = 40;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void patch_u64(std::string& bytes, std::size_t off, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

// The artifact must be rejected with exactly one diagnostic of `code`.
void expect_reject(const std::string& bytes, const char* code, const char* what) {
  diag::DiagnosticEngine diags;
  std::optional<CompiledDesign> loaded = load_compiled(bytes, "corrupt", diags);
  EXPECT_FALSE(loaded.has_value()) << what;
  ASSERT_EQ(diags.error_count(), 1u) << what;
  EXPECT_EQ(diags.diagnostics().at(0).code, code) << what;
}

TEST(CompiledReject, TruncatedHeader) {
  std::string bytes = serialize_example(0);
  expect_reject(bytes.substr(0, 10), diag::kErrArtifactTruncated, "header stub");
  expect_reject("", diag::kErrArtifactTruncated, "empty file");
}

TEST(CompiledReject, BadMagic) {
  std::string bytes = serialize_example(0);
  bytes[0] = 'X';
  expect_reject(bytes, diag::kErrArtifactMagic, "flipped magic byte");
  expect_reject("DESIGN design; END DESIGN;\n" + std::string(kHdrSize, ' '),
                diag::kErrArtifactMagic, "SHDL source fed as an artifact");
}

TEST(CompiledReject, OppositeByteOrder) {
  std::string bytes = serialize_example(0);
  // A big-endian writer would lay the 0x01020304 tag down reversed.
  std::swap(bytes[kHdrEndianOff], bytes[kHdrEndianOff + 3]);
  std::swap(bytes[kHdrEndianOff + 1], bytes[kHdrEndianOff + 2]);
  expect_reject(bytes, diag::kErrArtifactEndian, "byte-swapped endian tag");
}

TEST(CompiledReject, GarbageEndianTag) {
  std::string bytes = serialize_example(0);
  bytes[kHdrEndianOff] = '\x7f';
  expect_reject(bytes, diag::kErrArtifactMalformed, "garbage endian tag");
}

TEST(CompiledReject, VersionSkew) {
  std::string bytes = serialize_example(0);
  bytes[kHdrVersionOff] = static_cast<char>(kCompiledFormatVersion + 1);
  diag::DiagnosticEngine diags;
  EXPECT_FALSE(load_compiled(bytes, "skewed", diags).has_value());
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.diagnostics().at(0).code, diag::kErrArtifactVersion);
  // The message tells the user the fix: recompile.
  EXPECT_NE(diags.diagnostics().at(0).message.find("recompile"), std::string::npos);
}

TEST(CompiledReject, TruncatedPayload) {
  std::string bytes = serialize_example(0);
  expect_reject(bytes.substr(0, bytes.size() - 1), diag::kErrArtifactTruncated,
                "last byte dropped");
  expect_reject(bytes.substr(0, kHdrSize + 3), diag::kErrArtifactTruncated,
                "payload cut mid-section-table");
}

TEST(CompiledReject, TrailingGarbage) {
  std::string bytes = serialize_example(0);
  expect_reject(bytes + std::string(2, '\0'), diag::kErrArtifactTruncated,
                "trailing bytes");
}

TEST(CompiledReject, CorruptedPayloadFailsTheContentHash) {
  std::string bytes = serialize_example(0);
  bytes[bytes.size() / 2] ^= 0x01;
  expect_reject(bytes, diag::kErrArtifactHash, "payload bit flip");
}

// Section layout (wire_format.cpp): a table of (id u32, reserved u32,
// offset u64, size u64) entries after the header, then the sections.
constexpr std::size_t kEntrySize = 24;
constexpr std::size_t kNumSections = 5;  // meta, signals, prims, cases, waves

std::uint64_t u64_at(const std::string& bytes, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes[off + i])) << (8 * i);
  return v;
}

// File offset of section `i`'s first byte.
std::size_t section_start(const std::string& bytes, std::size_t i) {
  return kHdrSize + kNumSections * kEntrySize +
         static_cast<std::size_t>(u64_at(bytes, kHdrSize + i * kEntrySize + 8));
}

void set_count(std::string& bytes, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void restamp(std::string& bytes) { patch_u64(bytes, kHdrHashOff, fnv1a(bytes.substr(kHdrSize))); }

// The sections that open with a record count: signals, primitives, cases
// and the seed-waveform arena.
constexpr std::size_t kCountedSections[] = {1, 2, 3, 4};

TEST(CompiledReject, HashMismatchOutranksABrokenRecord) {
  // The records are decoded while the hash is computed; when both fail, the
  // one diagnostic is still the hash's.
  const std::string good = serialize_example(0);
  std::string table = good;
  table[kHdrSize] ^= 0x40;
  expect_reject(table, diag::kErrArtifactHash, "bad section id, stale hash");
  for (std::size_t sec : kCountedSections) {
    std::string bytes = good;
    set_count(bytes, section_start(bytes, sec), 0xFFFFFFFFu);
    expect_reject(bytes, diag::kErrArtifactHash,
                  ("hostile count in section " + std::to_string(sec) + ", stale hash").c_str());
  }
}

TEST(CompiledReject, HostileCountsAllocateNothingLarge) {
  // A count of 2^32-1 behind a re-stamped hash: the reader reserves no more
  // records than the section's bytes can hold, so the load fails as an
  // input error (exactly one diagnostic) instead of with bad_alloc.
  for (std::size_t i : {0u, 8u}) {
    const std::string good = serialize_example(i);
    for (std::size_t sec : kCountedSections) {
      SCOPED_TRACE("example " + std::to_string(i) + ", section " + std::to_string(sec));
      std::string bytes = good;
      set_count(bytes, section_start(bytes, sec), 0xFFFFFFFFu);
      restamp(bytes);
      diag::DiagnosticEngine diags;
      std::optional<CompiledDesign> loaded;
      ASSERT_NO_THROW(loaded = load_compiled(bytes, "hostile", diags));
      EXPECT_FALSE(loaded.has_value());
      ASSERT_EQ(diags.error_count(), 1u);
      EXPECT_EQ(diags.diagnostics().at(0).code.substr(0, 6), "TV-E30");
      EXPECT_NE(diags.diagnostics().at(0).code, diag::kErrArtifactHash);
    }
  }
}

TEST(CompiledReject, MalformedSectionTable) {
  // Corrupt the first section id *and* re-stamp a matching content hash: the
  // damage must still be caught, by structural validation, not only by the
  // hash check.
  std::string bytes = serialize_example(0);
  bytes[kHdrSize] ^= 0x40;
  patch_u64(bytes, kHdrHashOff, fnv1a(bytes.substr(kHdrSize)));
  expect_reject(bytes, diag::kErrArtifactMalformed, "bad section id, fixed hash");
}

TEST(CompiledReject, CaseValueOtherThanZeroOrOne) {
  // A well-formed case record pinning STABLE (2): the artifact reader rejects
  // it as malformed, as the snapshot reader does, rather than load a case
  // the verifier would refuse without a TV code.
  examples::ExampleDesign d = examples::all_example_designs()[0];
  CompiledDesign design = compile_design(d.name, *d.netlist, d.options,
                                         {CaseSpec{"stable pin", {{0, Value::Stable}}}}, {});
  std::string bytes = serialize_compiled(design);
  expect_reject(bytes, diag::kErrArtifactMalformed, "case pin value 2");
}

TEST(CompiledReject, BadSynonymRecord) {
  // The synonym record closes SIGNALS (the section before PRIMS): in the
  // synonym design its last four bytes are the one keeper, in a design
  // without synonyms they are the record's count.
  std::string keeper = compile_synonyms();
  set_count(keeper, section_start(keeper, 2) - 4, 0xFFFFu);
  restamp(keeper);
  expect_reject(keeper, diag::kErrArtifactMalformed, "synonym keeper out of range");

  std::string count = serialize_example(0);
  set_count(count, section_start(count, 2) - 4, 0xFFFFFFFFu);
  restamp(count);
  expect_reject(count, diag::kErrArtifactTruncated, "hostile synonym count");
}

// An artifact whose options or signals carry `wire` where the example has
// its defaults: well-formed and hash-consistent, but the wire delay must be
// 0 <= min <= max or Waveform::delayed would be asked for the impossible.
std::string with_wire_delay(bool per_signal, WireDelay wire) {
  examples::ExampleDesign d = examples::all_example_designs()[0];
  VerifierOptions opts = d.options;
  if (per_signal) {
    d.netlist->signal(0).wire_delay = wire;
  } else {
    opts.default_wire = wire;
  }
  CompiledDesign design = compile_design(d.name, *d.netlist, opts, d.cases, {});
  return serialize_compiled(design);
}

TEST(CompiledReject, NegativeDefaultWireDelay) {
  expect_reject(with_wire_delay(false, {-from_ns(1.0), from_ns(2.0)}),
                diag::kErrArtifactMalformed, "default wire delay -1:2 ns");
}

TEST(CompiledReject, ReversedDefaultWireDelay) {
  expect_reject(with_wire_delay(false, {from_ns(3.0), from_ns(1.0)}),
                diag::kErrArtifactMalformed, "default wire delay 3:1 ns");
}

TEST(CompiledReject, ReversedSignalWireDelay) {
  expect_reject(with_wire_delay(true, {from_ns(2.0), from_ns(0.5)}),
                diag::kErrArtifactMalformed, "signal 0 wire delay 2:0.5 ns");
  // The same override in range loads.
  diag::DiagnosticEngine diags;
  EXPECT_TRUE(load_compiled(with_wire_delay(true, {from_ns(0.5), from_ns(2.0)}), "ok", diags)
                  .has_value());
}

TEST(CompiledReject, MissingFileReportsIo) {
  diag::DiagnosticEngine diags;
  EXPECT_FALSE(
      load_compiled_file("/nonexistent/design.tvc", diags).has_value());
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.diagnostics().at(0).code, diag::kErrArtifactIo);
}

// --- scaldtv --compiled exit codes (subprocess) -----------------------------

#ifdef TV_SCALDTV_PATH
class TempArtifact {
 public:
  explicit TempArtifact(const std::string& bytes) {
    char tmpl[] = "/tmp/tv_compiled_test_XXXXXX";
    int fd = mkstemp(tmpl);
    path_ = tmpl;
    std::ofstream out(path_, std::ios::binary);
    out << bytes;
    out.close();
    if (fd >= 0) close(fd);
  }
  ~TempArtifact() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

int run_scaldtv(const std::string& args) {
  std::string cmd = std::string(TV_SCALDTV_PATH) + " " + args + " >/dev/null 2>&1";
  return WEXITSTATUS(std::system(cmd.c_str()));
}

TEST(CompiledExitCodes, GoodArtifactReproducesTheSourceVerdict) {
  // quickstart (example 0) carries one deliberate set-up violation: exit 1,
  // from the compiled path exactly as from source.
  TempArtifact good(serialize_example(0));
  EXPECT_EQ(run_scaldtv("--compiled " + good.path()), 1);
}

TEST(CompiledExitCodes, CorruptedArtifactExitsTwo) {
  std::string bytes = serialize_example(0);
  bytes[bytes.size() / 2] ^= 0x01;
  TempArtifact corrupt(bytes);
  EXPECT_EQ(run_scaldtv("--compiled " + corrupt.path()), 2);
}

TEST(CompiledExitCodes, TruncatedArtifactExitsTwo) {
  TempArtifact stub(serialize_example(0).substr(0, 16));
  EXPECT_EQ(run_scaldtv("--compiled " + stub.path()), 2);
}

TEST(CompiledExitCodes, VersionSkewExitsTwo) {
  std::string bytes = serialize_example(0);
  bytes[kHdrVersionOff] = static_cast<char>(kCompiledFormatVersion + 1);
  TempArtifact skewed(bytes);
  EXPECT_EQ(run_scaldtv("--compiled " + skewed.path()), 2);
}

TEST(CompiledExitCodes, HostileCountsExitTwo) {
  const std::string good = serialize_example(0);
  for (std::size_t sec : kCountedSections) {
    std::string bytes = good;
    set_count(bytes, section_start(bytes, sec), 0xFFFFFFFFu);
    restamp(bytes);
    TempArtifact hostile(bytes);
    EXPECT_EQ(run_scaldtv("--compiled " + hostile.path()), 2) << "section " << sec;
  }
}

TEST(CompiledExitCodes, SynonymDeltaFindsTheSameViolationsOnBothPaths) {
  TempArtifact design(kSynonymDesign);
  TempArtifact artifact(compile_synonyms());
  TempArtifact delta(R"({"wires": [{"signal": "C", "dmin": 5.0, "dmax": 9.0}]})");
  EXPECT_EQ(run_scaldtv("--reverify " + delta.path() + " " + design.path()), 1);
  EXPECT_EQ(run_scaldtv("--reverify " + delta.path() + " --compiled " + artifact.path()), 1);
}

TEST(CompiledExitCodes, MissingArtifactExitsTwo) {
  EXPECT_EQ(run_scaldtv("--compiled /nonexistent/design.tvc"), 2);
}
#endif  // TV_SCALDTV_PATH

}  // namespace
