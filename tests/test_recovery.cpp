// Durable-state and crash-recovery regression suite (docs/recovery.md).
//
// Three subsystems under test:
//
//   * fixpoint snapshots (core/fixpoint.hpp): every example design's
//     baseline round-trips through the `.tvf` format byte-identically --
//     waveforms, reports, and effort counters -- and the rejection matrix
//     (truncation and bit flips at every section boundary plus seeded
//     random offsets) always produces exactly one TV-E31x diagnostic,
//     never a crash; `scaldtv --from-snapshot` on a damaged snapshot
//     exits 2. The same corruption sweep runs against the compiled
//     artifact (TV-E30x) so both durable formats share the guarantee.
//
//   * the write-ahead job journal (serve/journal.hpp): create/replay round
//     trip, the torn-final-line tolerance (exactly a missing newline, and
//     nothing else, is forgiven), the batch-binding digest, and the
//     derive_settlement classification matrix that makes resumed manifests
//     byte-identical to uninterrupted ones.
//
//   * atomic file replacement (util/atomic_file.hpp): the routine every
//     artifact/snapshot/manifest write goes through appears complete or
//     not at all and leaves no temp debris behind.
#include <dirent.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/pipeline_diff.hpp"
#include "core/compiled.hpp"
#include "core/fixpoint.hpp"
#include "core/verifier.hpp"
#include "diag/diagnostic.hpp"
#include "example_designs.hpp"
#include "serve/journal.hpp"
#include "util/atomic_file.hpp"
#include "util/fault.hpp"
#include "util/hash.hpp"

namespace {

using namespace tv;

// ------------------------------------------------------- shared helpers

std::uint32_t u32_at(const std::string& b, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(b[off + i])) << (8 * i);
  return v;
}

std::uint64_t u64_at(const std::string& b, std::size_t off) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(b[off + i])) << (8 * i);
  return v;
}

// Every structurally meaningful offset of a wire-format container (both
// durable formats share the layout): each header field, each section-table
// entry, and each section's start and end in the file.
std::vector<std::size_t> section_boundaries(const std::string& bytes) {
  std::vector<std::size_t> offs = {0, 8, 12, 16, 24, 32, 36, 40};
  constexpr std::size_t kHdr = 40, kEntry = 24;
  if (bytes.size() < kHdr) return offs;
  std::uint32_t nsections = u32_at(bytes, 32);
  std::size_t data0 = kHdr + nsections * kEntry;
  for (std::uint32_t i = 0; i < nsections && data0 <= bytes.size(); ++i) {
    std::size_t entry = kHdr + i * kEntry;
    if (entry + kEntry > bytes.size()) break;
    offs.push_back(entry);
    std::size_t off = static_cast<std::size_t>(u64_at(bytes, entry + 8));
    std::size_t size = static_cast<std::size_t>(u64_at(bytes, entry + 16));
    if (data0 + off <= bytes.size()) offs.push_back(data0 + off);
    if (data0 + off + size <= bytes.size()) offs.push_back(data0 + off + size);
  }
  return offs;
}

// xorshift64: deterministic offsets for the random leg of the sweep.
std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// The corruption sweep contract for one container: every truncation at a
/// section boundary and every single-bit flip at boundaries and seeded
/// random offsets is either cleanly rejected -- exactly one diagnostic in
/// the format's code family, nullopt result -- or (bit flips in the
/// header's unhashed reserved word only) still loads; it never crashes.
template <typename LoadFn>
void corruption_sweep(const std::string& bytes, const char* code_prefix,
                      LoadFn load, const char* what) {
  auto expect_clean_reject = [&](const std::string& mutated, const std::string& how) {
    diag::DiagnosticEngine diags;
    bool loaded = load(mutated, diags);
    EXPECT_FALSE(loaded) << what << ": " << how;
    ASSERT_EQ(diags.error_count(), 1u) << what << ": " << how;
    EXPECT_EQ(diags.diagnostics().at(0).code.substr(0, 6), code_prefix)
        << what << ": " << how << " reported " << diags.diagnostics().at(0).code;
  };

  std::vector<std::size_t> boundaries = section_boundaries(bytes);
  for (std::size_t b : boundaries) {
    for (std::size_t cut : {b, b + 1}) {
      if (cut >= bytes.size()) continue;
      expect_clean_reject(bytes.substr(0, cut),
                          "truncated at offset " + std::to_string(cut));
    }
  }

  auto flip = [&](std::size_t off, const char* leg) {
    std::string mutated = bytes;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x01);
    // The reserved header word (offsets 36-39) is the one unvalidated,
    // unhashed region; a flip there may legitimately still load.
    if (off >= 36 && off < 40) {
      diag::DiagnosticEngine diags;
      (void)load(mutated, diags);  // must simply not crash
      return;
    }
    expect_clean_reject(mutated, std::string(leg) + " bit flip at offset " +
                                     std::to_string(off));
  };
  for (std::size_t b : boundaries) {
    if (b < bytes.size()) flip(b, "boundary");
  }
  std::uint64_t seed = 0x5eedf00dULL ^ bytes.size();
  for (int i = 0; i < 64; ++i) {
    flip(static_cast<std::size_t>(next_rand(seed) % bytes.size()), "random");
  }
}

/// Single-bit flips anywhere in the payload with the content hash re-stamped,
/// so the damage reaches the section readers: each load either succeeds or
/// is rejected with exactly one diagnostic in the format's family, and never
/// throws: a corrupt record count must not become a huge allocation, which
/// the tools would report as a transient out-of-memory exit 5.
template <typename LoadFn>
void restamped_sweep(const std::string& bytes, const char* code_prefix, LoadFn load,
                     const char* what) {
  constexpr std::size_t kHdr = 40, kHashOff = 16;
  for (std::size_t off = kHdr; off < bytes.size(); ++off) {
    for (int bit : {0, 7}) {
      std::string mutated = bytes;
      mutated[off] = static_cast<char>(mutated[off] ^ (1 << bit));
      std::uint64_t h = fnv1a(mutated.data() + kHdr, mutated.size() - kHdr);
      for (int i = 0; i < 8; ++i) {
        mutated[kHashOff + i] = static_cast<char>((h >> (8 * i)) & 0xff);
      }
      diag::DiagnosticEngine diags;
      bool loaded = false;
      ASSERT_NO_THROW(loaded = load(mutated, diags)) << what << ": offset " << off;
      if (loaded) continue;
      ASSERT_EQ(diags.error_count(), 1u) << what << ": offset " << off;
      EXPECT_EQ(diags.diagnostics().at(0).code.substr(0, 6), code_prefix)
          << what << ": offset " << off;
    }
  }
}

std::string serialize_example_artifact(std::size_t index, CompiledDesign* out = nullptr) {
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

// Verifies example `index` and snapshots its fixpoint.
std::string snapshot_example(std::size_t index) {
  examples::ExampleDesign d = examples::all_example_designs()[index];
  Verifier v(*d.netlist, d.options);
  v.verify(d.cases);
  return v.snapshot(d.name);
}

// ------------------------------------------------- fixpoint round trip

TEST(SnapshotRoundTrip, EveryExampleRestoresIdentically) {
  const std::size_t n = examples::all_example_designs().size();
  ASSERT_GE(n, 5u);
  for (std::size_t i = 0; i < n; ++i) {
    examples::ExampleDesign a = examples::all_example_designs()[i];
    Verifier va(*a.netlist, a.options);
    va.verify(a.cases);
    std::string snap = va.snapshot(a.name);

    diag::DiagnosticEngine diags;
    std::optional<FixpointState> st = load_fixpoint(snap, a.name, diags);
    ASSERT_TRUE(st.has_value()) << a.name;

    examples::ExampleDesign b = examples::all_example_designs()[i];
    Verifier vb(*b.netlist, b.options);
    ASSERT_TRUE(vb.restore(*st, 0, diags)) << a.name;
    EXPECT_FALSE(diags.has_errors()) << a.name;
    // Restoring evaluates nothing: the cold baseline is never paid.
    EXPECT_EQ(vb.evaluator().evals_performed(), 0u) << a.name;

    EXPECT_EQ(check::canonical_render(*a.netlist, va.baseline(), a.options.period),
              check::canonical_render(*b.netlist, vb.baseline(), b.options.period))
        << a.name << ": restored baseline must be byte-identical, counters included";
    EXPECT_EQ(snap, vb.snapshot(b.name))
        << a.name << ": re-serializing the restored baseline must reproduce the bytes";
  }
}

TEST(SnapshotRoundTrip, SerializationIsDeterministic) {
  EXPECT_EQ(snapshot_example(0), snapshot_example(0));
}

TEST(SnapshotRoundTrip, BindingRefusesADifferentDesign) {
  std::string snap = snapshot_example(0);
  diag::DiagnosticEngine diags;
  std::optional<FixpointState> st = load_fixpoint(snap, "bind", diags);
  ASSERT_TRUE(st.has_value());

  examples::ExampleDesign other = examples::all_example_designs()[1];
  Verifier v(*other.netlist, other.options);
  EXPECT_FALSE(v.restore(*st, 0, diags));
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.diagnostics().at(0).code, diag::kErrSnapshotBinding);
  // The refusal left the verifier untouched: no baseline to reverify from.
  EXPECT_FALSE(v.has_baseline());
}

TEST(SnapshotRoundTrip, BindingRefusesAWrongArtifactHash) {
  CompiledDesign design;
  serialize_example_artifact(0, &design);
  Verifier v(design.netlist, design.options);
  v.verify(design.cases);
  std::string snap = v.snapshot("bind", design.content_hash);

  diag::DiagnosticEngine diags;
  std::optional<FixpointState> st = load_fixpoint(snap, "bind", diags);
  ASSERT_TRUE(st.has_value());
  CompiledDesign again;
  serialize_example_artifact(0, &again);
  Verifier v2(again.netlist, again.options);
  EXPECT_FALSE(v2.restore(*st, design.content_hash ^ 1, diags));
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.diagnostics().at(0).code, diag::kErrSnapshotBinding);
}

TEST(SnapshotReject, MissingFileReportsIo) {
  diag::DiagnosticEngine diags;
  EXPECT_FALSE(load_fixpoint_file("/nonexistent/baseline.tvf", diags).has_value());
  ASSERT_EQ(diags.error_count(), 1u);
  EXPECT_EQ(diags.diagnostics().at(0).code, diag::kErrSnapshotIo);
}

TEST(SnapshotReject, BadMagicAndVersionSkew) {
  std::string snap = snapshot_example(0);
  {
    std::string bytes = snap;
    bytes[0] = 'X';
    diag::DiagnosticEngine diags;
    EXPECT_FALSE(load_fixpoint(bytes, "magic", diags).has_value());
    ASSERT_EQ(diags.error_count(), 1u);
    EXPECT_EQ(diags.diagnostics().at(0).code, diag::kErrSnapshotMagic);
  }
  {
    std::string bytes = snap;
    bytes[12] = static_cast<char>(kFixpointFormatVersion + 1);
    diag::DiagnosticEngine diags;
    EXPECT_FALSE(load_fixpoint(bytes, "skew", diags).has_value());
    ASSERT_EQ(diags.error_count(), 1u);
    EXPECT_EQ(diags.diagnostics().at(0).code, diag::kErrSnapshotVersion);
  }
}

// File offset of section `i`'s first byte in a wire-format container.
std::size_t section_start(const std::string& bytes, std::size_t i) {
  constexpr std::size_t kHdr = 40, kEntry = 24;
  return kHdr + u32_at(bytes, 32) * kEntry +
         static_cast<std::size_t>(u64_at(bytes, kHdr + i * kEntry + 8));
}

void set_u32(std::string& bytes, std::size_t off, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

void restamp(std::string& bytes) {
  constexpr std::size_t kHdr = 40, kHashOff = 16;
  std::uint64_t h = fnv1a(bytes.data() + kHdr, bytes.size() - kHdr);
  for (int i = 0; i < 8; ++i) bytes[kHashOff + i] = static_cast<char>((h >> (8 * i)) & 0xff);
}

// The snapshot sections that open with a record count: the waveform arena,
// the signal table, the result (its violations) and the cases.
constexpr std::size_t kCountedSections[] = {1, 2, 3, 4};

TEST(SnapshotReject, HashMismatchOutranksABrokenRecord) {
  // The records are decoded while the hash is computed; when both fail, the
  // one diagnostic is still the hash's.
  const std::string good = snapshot_example(0);
  auto expect_hash = [](const std::string& bytes, const std::string& how) {
    diag::DiagnosticEngine diags;
    EXPECT_FALSE(load_fixpoint(bytes, "stale", diags).has_value()) << how;
    ASSERT_EQ(diags.error_count(), 1u) << how;
    EXPECT_EQ(diags.diagnostics().at(0).code, diag::kErrSnapshotHash) << how;
  };
  std::string table = good;
  table[40] ^= 0x40;
  expect_hash(table, "bad section id, stale hash");
  for (std::size_t sec : kCountedSections) {
    std::string bytes = good;
    set_u32(bytes, section_start(bytes, sec), 0xFFFFFFFFu);
    expect_hash(bytes, "hostile count in section " + std::to_string(sec) + ", stale hash");
  }
}

TEST(SnapshotReject, HostileCountsAllocateNothingLarge) {
  // A count of 2^32-1 behind a re-stamped hash: the reader reserves no more
  // records than the section's bytes can hold, so the load fails as an
  // input error (exactly one diagnostic) instead of with bad_alloc.
  for (std::size_t i : {0u, 8u}) {
    const std::string good = snapshot_example(i);
    for (std::size_t sec : kCountedSections) {
      SCOPED_TRACE("example " + std::to_string(i) + ", section " + std::to_string(sec));
      std::string bytes = good;
      set_u32(bytes, section_start(bytes, sec), 0xFFFFFFFFu);
      restamp(bytes);
      diag::DiagnosticEngine diags;
      std::optional<FixpointState> st;
      ASSERT_NO_THROW(st = load_fixpoint(bytes, "hostile", diags));
      EXPECT_FALSE(st.has_value());
      ASSERT_EQ(diags.error_count(), 1u);
      EXPECT_EQ(diags.diagnostics().at(0).code.substr(0, 6), "TV-E31");
      EXPECT_NE(diags.diagnostics().at(0).code, diag::kErrSnapshotHash);
    }
  }
}

// --------------------------------------------------- corruption sweeps

TEST(CorruptionSweep, SnapshotAlwaysRejectsCleanly) {
  std::string snap = snapshot_example(0);
  corruption_sweep(snap, "TV-E31",
                   [](const std::string& bytes, diag::DiagnosticEngine& diags) {
                     return load_fixpoint(bytes, "sweep", diags).has_value();
                   },
                   "snapshot");
}

TEST(CorruptionSweep, HashRestampedFlipsNeverThrow) {
  for (std::size_t i : {0u, 8u}) {
    restamped_sweep(serialize_example_artifact(i), "TV-E30",
                    [i](const std::string& bytes, diag::DiagnosticEngine& diags) {
                      std::optional<CompiledDesign> d = load_compiled(bytes, "sweep", diags);
                      // What the loader accepts must also verify: an accepted
                      // option or delay that trips an engine assert would
                      // abort the tools instead of exiting 2.
                      if (d && i == 0) Verifier(d->netlist, d->options).verify(d->cases);
                      return d.has_value();
                    },
                    "artifact");
    restamped_sweep(snapshot_example(i), "TV-E31",
                    [](const std::string& bytes, diag::DiagnosticEngine& diags) {
                      return load_fixpoint(bytes, "sweep", diags).has_value();
                    },
                    "snapshot");
  }
}

TEST(CorruptionSweep, ArtifactAlwaysRejectsCleanly) {
  std::string artifact = serialize_example_artifact(0);
  corruption_sweep(artifact, "TV-E30",
                   [](const std::string& bytes, diag::DiagnosticEngine& diags) {
                     return load_compiled(bytes, "sweep", diags).has_value();
                   },
                   "artifact");
}

// -------------------------------------------------- write-ahead journal

serve::JobSpec make_job(const std::string& id) {
  serve::JobSpec j;
  j.id = id;
  j.design = "designs/" + id + ".shdl";
  return j;
}

class TempPath {
 public:
  TempPath() {
    char tmpl[] = "/tmp/tv_recovery_test_XXXXXX";
    int fd = mkstemp(tmpl);
    path_ = tmpl;
    if (fd >= 0) close(fd);
  }
  ~TempPath() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

  std::string read() const {
    std::ifstream in(path_, std::ios::binary);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }
  void write(const std::string& bytes) const {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

 private:
  std::string path_;
};

TEST(Journal, CreateReplayRoundTrip) {
  TempPath file;
  std::vector<serve::JobSpec> jobs = {make_job("a"), make_job("b")};
  std::string error;
  auto j = serve::Journal::create(file.path(), jobs, 7, 3, serve::BatchPolicy{}, &error);
  ASSERT_TRUE(j) << error;
  j->record_launch("a", 1);
  j->record_outcome("a", 1, "exit:5");
  j->record_launch("a", 2);
  j->record_outcome("a", 2, "exit:0");
  j->record_settle("a", serve::JobState::Done);
  j->record_launch("b", 1);  // interrupted: no outcome yet
  EXPECT_TRUE(j->ok());
  j.reset();

  auto replay = serve::replay_journal(file.path(), &error);
  ASSERT_TRUE(replay) << error;
  EXPECT_EQ(replay->version, serve::kJournalVersion);
  EXPECT_EQ(replay->num_jobs, 2u);
  EXPECT_EQ(replay->digest, serve::jobs_digest(jobs));
  EXPECT_EQ(replay->seed, 7u);
  EXPECT_EQ(replay->max_attempts, 3);
  ASSERT_EQ(replay->jobs.count("a"), 1u);
  EXPECT_EQ(replay->jobs.at("a").outcomes,
            (std::vector<std::string>{"exit:5", "exit:0"}));
  EXPECT_TRUE(replay->jobs.at("a").settled);
  EXPECT_EQ(replay->jobs.at("a").state, serve::JobState::Done);
  // b's launch was write-ahead intent only: no outcome, so attempt 1 simply
  // runs again on resume.
  ASSERT_EQ(replay->jobs.count("b"), 1u);
  EXPECT_TRUE(replay->jobs.at("b").outcomes.empty());
  EXPECT_FALSE(replay->jobs.at("b").settled);
}

TEST(Journal, TornFinalLineIsDroppedSilently) {
  TempPath file;
  std::vector<serve::JobSpec> jobs = {make_job("a")};
  std::string error;
  auto j = serve::Journal::create(file.path(), jobs, 0, 3, serve::BatchPolicy{}, &error);
  ASSERT_TRUE(j) << error;
  j->record_launch("a", 1);
  j->record_outcome("a", 1, "exit:0");
  j.reset();

  std::string bytes = file.read();
  // A crash mid-append leaves a prefix of a record with no newline. Every
  // such prefix -- including one that happens to parse -- must be dropped:
  // a record is durable only once its newline hit the disk.
  for (std::size_t cut = 1; cut < 40; cut += 7) {
    std::string torn = bytes + std::string("{\"job\": \"a\", \"attempt\": 2, "
                                           "\"event\": \"launch\"}")
                                   .substr(0, cut);
    file.write(torn);
    auto replay = serve::replay_journal(file.path(), &error);
    ASSERT_TRUE(replay) << error << " (cut " << cut << ")";
    EXPECT_EQ(replay->jobs.at("a").outcomes.size(), 1u) << "cut " << cut;
  }
}

TEST(Journal, MidFileGarbageFailsLoudly) {
  TempPath file;
  std::vector<serve::JobSpec> jobs = {make_job("a")};
  std::string error;
  auto j = serve::Journal::create(file.path(), jobs, 0, 3, serve::BatchPolicy{}, &error);
  ASSERT_TRUE(j) << error;
  j->record_launch("a", 1);
  j.reset();

  // Newline-terminated garbage is NOT a torn tail -- it claims to be a
  // complete record, and replaying around it would be a guess.
  file.write(file.read() + "not json\n");
  EXPECT_FALSE(serve::replay_journal(file.path(), &error));
  EXPECT_FALSE(error.empty());

  // So is a well-formed line with an unknown event.
  j = serve::Journal::create(file.path(), jobs, 0, 3, serve::BatchPolicy{}, &error);
  ASSERT_TRUE(j);
  j.reset();
  file.write(file.read() + "{\"job\": \"a\", \"event\": \"vanish\"}\n");
  EXPECT_FALSE(serve::replay_journal(file.path(), &error));
}

TEST(Journal, ReplayValidatesAttemptOrder) {
  TempPath file;
  std::vector<serve::JobSpec> jobs = {make_job("a")};
  std::string error;
  auto j = serve::Journal::create(file.path(), jobs, 0, 3, serve::BatchPolicy{}, &error);
  ASSERT_TRUE(j) << error;
  j.reset();
  // Attempt 2 launching before any attempt-1 outcome exists cannot come
  // from our writer.
  file.write(file.read() + "{\"job\": \"a\", \"attempt\": 2, \"event\": \"launch\"}\n");
  EXPECT_FALSE(serve::replay_journal(file.path(), &error));
  EXPECT_FALSE(error.empty());
}

TEST(Journal, DigestBindsEveryJobField) {
  std::vector<serve::JobSpec> base = {make_job("a"), make_job("b")};
  std::uint64_t d0 = serve::jobs_digest(base);
  EXPECT_EQ(d0, serve::jobs_digest(base));  // deterministic

  auto differs = [&](auto mutate, const char* what) {
    std::vector<serve::JobSpec> jobs = base;
    mutate(jobs);
    EXPECT_NE(serve::jobs_digest(jobs), d0) << what;
  };
  differs([](auto& j) { j[0].id = "c"; }, "id");
  differs([](auto& j) { j[1].design = "other.shdl"; }, "design");
  differs([](auto& j) { j[0].compiled = true; }, "compiled flag");
  differs([](auto& j) { j[0].stdlib = true; }, "stdlib flag");
  differs([](auto& j) { j[1].time_limit = 1.5; }, "time limit");
  differs([](auto& j) { j[0].fault = "io.read@1:fail"; }, "fault spec");
  differs([](auto& j) { j[0].reverify = "delta.json"; }, "reverify delta");
  differs([](auto& j) { std::swap(j[0], j[1]); }, "job order");
  differs([](auto& j) { j.pop_back(); }, "job count");
}

TEST(Journal, DeriveSettlementMatchesTheSupervisor) {
  using serve::derive_settlement;
  using serve::JobState;
  JobState s;
  // Terminal exits settle immediately.
  EXPECT_TRUE(derive_settlement({"exit:0"}, 3, false, &s));
  EXPECT_EQ(s, JobState::Done);
  EXPECT_TRUE(derive_settlement({"exit:1"}, 3, false, &s));
  EXPECT_EQ(s, JobState::Violations);
  EXPECT_TRUE(derive_settlement({"exit:3"}, 3, false, &s));
  EXPECT_EQ(s, JobState::Degraded);
  EXPECT_TRUE(derive_settlement({"exit:2"}, 3, false, &s));
  EXPECT_EQ(s, JobState::InputError);
  // Transients retry until max_attempts, then the job is crashed.
  EXPECT_FALSE(derive_settlement({"exit:5"}, 3, false, &s));
  EXPECT_FALSE(derive_settlement({"signal:9", "timeout"}, 3, false, &s));
  EXPECT_TRUE(derive_settlement({"signal:9", "timeout", "spawn-failed"}, 3, false, &s));
  EXPECT_EQ(s, JobState::Crashed);
  // A recovery after transients settles with the final verdict.
  EXPECT_TRUE(derive_settlement({"exit:5", "signal:6", "exit:0"}, 3, false, &s));
  EXPECT_EQ(s, JobState::Done);
  // No attempts yet: nothing to settle.
  EXPECT_FALSE(derive_settlement({}, 3, false, &s));
}

TEST(Journal, DeriveSettlementMemLimitPolicy) {
  using serve::derive_settlement;
  using serve::JobState;
  JobState s;
  // Default policy: one breach is terminal ResourceExhausted, immediately,
  // regardless of remaining retry budget.
  EXPECT_TRUE(derive_settlement({"mem-limit"}, 3, false, &s));
  EXPECT_EQ(s, JobState::ResourceExhausted);
  EXPECT_TRUE(derive_settlement({"exit:5", "mem-limit"}, 3, false, &s));
  EXPECT_EQ(s, JobState::ResourceExhausted);
  // --mem-retry: breaches are transient until attempts run out...
  EXPECT_FALSE(derive_settlement({"mem-limit"}, 3, true, &s));
  EXPECT_FALSE(derive_settlement({"mem-limit", "mem-limit"}, 3, true, &s));
  // ...then the job settles ResourceExhausted when the final attempt
  // breached, and a later verdict still wins.
  EXPECT_TRUE(derive_settlement({"mem-limit", "mem-limit", "mem-limit"}, 3, true, &s));
  EXPECT_EQ(s, JobState::ResourceExhausted);
  EXPECT_TRUE(derive_settlement({"mem-limit", "exit:0"}, 3, true, &s));
  EXPECT_EQ(s, JobState::Done);
  // A mem-limit breach followed by ordinary transients exhausting the
  // budget is a crash story, not a budget story: the last attempt decides.
  EXPECT_TRUE(derive_settlement({"mem-limit", "signal:9", "timeout"}, 3, true, &s));
  EXPECT_EQ(s, JobState::Crashed);
}

TEST(Journal, PolicyHeaderRoundTripsAndQuarantineLedgerReplays) {
  TempPath file;
  std::vector<serve::JobSpec> jobs = {make_job("a"), make_job("b"), make_job("c")};
  serve::BatchPolicy pol;
  pol.mem_limit_mb = 512;
  pol.mem_retry = true;
  pol.max_queue = 4;
  pol.quarantine_after = 2;
  std::string error;
  auto j = serve::Journal::create(file.path(), jobs, 9, 3, pol, &error);
  ASSERT_TRUE(j) << error;
  // Decision states carry no outcomes: their settle records (and the
  // breaker's ledger record) are load-bearing on replay.
  j->record_quarantine("00000000deadbeef");
  j->record_settle("a", serve::JobState::Quarantined);
  j->record_settle("b", serve::JobState::Shed);
  ASSERT_TRUE(j->ok()) << j->error();
  j.reset();

  auto replay = serve::replay_journal(file.path(), &error);
  ASSERT_TRUE(replay) << error;
  EXPECT_EQ(replay->policy.mem_limit_mb, 512);
  EXPECT_TRUE(replay->policy.mem_retry);
  EXPECT_EQ(replay->policy.max_queue, 4);
  EXPECT_EQ(replay->policy.quarantine_after, 2);
  ASSERT_EQ(replay->quarantined_keys.size(), 1u);
  EXPECT_EQ(replay->quarantined_keys[0], "00000000deadbeef");
  ASSERT_EQ(replay->jobs.count("a"), 1u);
  EXPECT_TRUE(replay->jobs.at("a").settled);
  EXPECT_EQ(replay->jobs.at("a").state, serve::JobState::Quarantined);
  ASSERT_EQ(replay->jobs.count("b"), 1u);
  EXPECT_TRUE(replay->jobs.at("b").settled);
  EXPECT_EQ(replay->jobs.at("b").state, serve::JobState::Shed);
}

TEST(Journal, MalformedPolicyHeaderFailsLoudly) {
  TempPath file;
  std::vector<serve::JobSpec> jobs = {make_job("a")};
  std::string error;
  auto j = serve::Journal::create(file.path(), jobs, 0, 3, serve::BatchPolicy{}, &error);
  ASSERT_TRUE(j) << error;
  j.reset();
  std::string bytes = file.read();

  // A header missing a version-2 policy field cannot come from our writer.
  std::string missing = bytes;
  std::size_t at = missing.find(", \"max_queue\": 0");
  ASSERT_NE(at, std::string::npos);
  missing.erase(at, std::string(", \"max_queue\": 0").size());
  file.write(missing);
  EXPECT_FALSE(serve::replay_journal(file.path(), &error));
  EXPECT_FALSE(error.empty());

  // So does a policy field with a nonsense value.
  std::string negative = bytes;
  at = negative.find("\"quarantine_after\": 0");
  ASSERT_NE(at, std::string::npos);
  negative.replace(at, std::string("\"quarantine_after\": 0").size(),
                   "\"quarantine_after\": -1");
  file.write(negative);
  EXPECT_FALSE(serve::replay_journal(file.path(), &error));
}

TEST(Journal, AppendFailureIsStickyAndLeavesAResumableFile) {
  // Disk pressure (ENOSPC) on a journal append: the failure latches, later
  // appends are no-ops, and everything written *before* the failure is a
  // valid journal a restarted daemon can replay.
  TempPath file;
  std::vector<serve::JobSpec> jobs = {make_job("a")};
  std::string error;
  auto j = serve::Journal::create(file.path(), jobs, 0, 3, serve::BatchPolicy{}, &error);
  ASSERT_TRUE(j) << error;
  j->record_launch("a", 1);
  j->record_outcome("a", 1, "exit:0");
  ASSERT_TRUE(j->ok());

  ASSERT_TRUE(fault::configure("io.write@1:fail"));
  j->record_settle("a", serve::JobState::Done);  // hits the injected ENOSPC
  EXPECT_FALSE(j->ok());
  EXPECT_NE(j->error().find("io.write"), std::string::npos) << j->error();
  j->record_launch("a", 2);  // sticky: silently dropped
  fault::reset();
  j.reset();

  auto replay = serve::replay_journal(file.path(), &error);
  ASSERT_TRUE(replay) << error;
  EXPECT_EQ(replay->jobs.at("a").outcomes, (std::vector<std::string>{"exit:0"}));
  EXPECT_FALSE(replay->jobs.at("a").settled);
  // The outcome survived, so settlement is still derivable on resume.
  serve::JobState s;
  EXPECT_TRUE(serve::derive_settlement(replay->jobs.at("a").outcomes, 3, false, &s));
  EXPECT_EQ(s, serve::JobState::Done);
}

// ------------------------------------------------------ atomic replace

TEST(AtomicFile, WriteCreatesAndReplaces) {
  TempPath file;
  std::string error;
  ASSERT_TRUE(util::atomic_write_file(file.path(), "first", &error)) << error;
  EXPECT_EQ(file.read(), "first");
  ASSERT_TRUE(util::atomic_write_file(file.path(), "second", &error)) << error;
  EXPECT_EQ(file.read(), "second");
}

TEST(AtomicFile, FailureLeavesNoDebris) {
  std::string error;
  EXPECT_FALSE(util::atomic_write_file("/nonexistent-dir/x/y", "data", &error));
  EXPECT_FALSE(error.empty());

  // A successful write must not leave its temp file behind either.
  TempPath file;
  ASSERT_TRUE(util::atomic_write_file(file.path(), "data", &error)) << error;
  std::string dir = file.path().substr(0, file.path().rfind('/'));
  std::string base = file.path().substr(file.path().rfind('/') + 1);
  DIR* d = opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    EXPECT_EQ(name.find("." + base + ".tmp."), std::string::npos)
        << "temp debris: " << name;
  }
  closedir(d);
}

TEST(AtomicFile, InjectedWriteFaultFailsCleanlyWithoutDebris) {
  // The io.write fault site models ENOSPC at the top of atomic_write_file:
  // the call fails before the temp file is even created, so the previous
  // contents survive complete and no `.tmp.` debris appears.
  TempPath file;
  std::string error;
  ASSERT_TRUE(util::atomic_write_file(file.path(), "durable", &error)) << error;
  ASSERT_TRUE(fault::configure("io.write@1:fail"));
  EXPECT_FALSE(util::atomic_write_file(file.path(), "lost", &error));
  fault::reset();
  EXPECT_NE(error.find("io.write"), std::string::npos) << error;
  EXPECT_EQ(file.read(), "durable");

  std::string dir = file.path().substr(0, file.path().rfind('/'));
  std::string base = file.path().substr(file.path().rfind('/') + 1);
  DIR* d = opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    EXPECT_EQ(name.find("." + base + ".tmp."), std::string::npos)
        << "temp debris: " << name;
  }
  closedir(d);
}

TEST(AtomicFile, ConcurrentWritersNeverCollideOrCorrupt) {
  // Regression: the temp-file name used to be derived from the pid alone,
  // so two concurrent writers in one process (warm workers snapshotting,
  // the daemon writing its manifest) picked the SAME temp path and raced
  // open/write/rename against each other. A process-wide counter now makes
  // every writer's temp name unique; the last rename wins with one
  // writer's payload intact.
  TempPath file;
  constexpr int kThreads = 8;
  constexpr int kIters = 25;
  std::vector<std::string> payloads;
  for (int t = 0; t < kThreads; ++t) {
    payloads.push_back(std::string(1024 + 173 * static_cast<std::size_t>(t),
                                   static_cast<char>('a' + t)));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIters; ++i) {
        std::string error;
        if (!util::atomic_write_file(file.path(), payloads[static_cast<std::size_t>(t)],
                                     &error)) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  std::string got = file.read();
  bool intact = false;
  for (const std::string& p : payloads) intact = intact || got == p;
  EXPECT_TRUE(intact) << "torn final content, size " << got.size();

  std::string dir = file.path().substr(0, file.path().rfind('/'));
  std::string base = file.path().substr(file.path().rfind('/') + 1);
  DIR* d = opendir(dir.c_str());
  ASSERT_NE(d, nullptr);
  while (dirent* e = readdir(d)) {
    std::string name = e->d_name;
    EXPECT_EQ(name.find("." + base + ".tmp."), std::string::npos)
        << "temp debris: " << name;
  }
  closedir(d);
}

// --------------------------------- scaldtv --from-snapshot exit codes

#ifdef TV_SCALDTV_PATH
int run_scaldtv(const std::string& args) {
  std::string cmd = std::string(TV_SCALDTV_PATH) + " " + args + " >/dev/null 2>&1";
  return WEXITSTATUS(std::system(cmd.c_str()));
}

TEST(SnapshotExitCodes, DamagedSnapshotsExitTwoGoodOnesVerify) {
  CompiledDesign design;
  std::string artifact_bytes = serialize_example_artifact(0, &design);
  TempPath artifact;
  artifact.write(artifact_bytes);

  CompiledDesign fresh;
  serialize_example_artifact(0, &fresh);
  Verifier v(fresh.netlist, fresh.options);
  v.verify(fresh.cases);
  TempPath snap;
  std::string error;
  ASSERT_TRUE(write_fixpoint_file(v, "quickstart", fresh.content_hash, snap.path(),
                                  &error))
      << error;

  // Intact snapshot: the restored verdict matches the artifact's (example 0
  // carries one deliberate violation -- exit 1).
  EXPECT_EQ(run_scaldtv("--compiled " + artifact.path() + " --from-snapshot " +
                        snap.path()),
            1);

  std::string good = snap.read();
  snap.write(good.substr(0, good.size() / 2));  // truncated
  EXPECT_EQ(run_scaldtv("--compiled " + artifact.path() + " --from-snapshot " +
                        snap.path()),
            2);
  std::string flipped = good;
  flipped[good.size() - 3] = static_cast<char>(flipped[good.size() - 3] ^ 0x10);
  snap.write(flipped);  // corrupted payload
  EXPECT_EQ(run_scaldtv("--compiled " + artifact.path() + " --from-snapshot " +
                        snap.path()),
            2);
  EXPECT_EQ(run_scaldtv("--compiled " + artifact.path() +
                        " --from-snapshot /nonexistent/baseline.tvf"),
            2);
}

TEST(SnapshotExitCodes, HostileCountsExitTwo) {
  CompiledDesign design;
  TempPath artifact;
  artifact.write(serialize_example_artifact(0, &design));
  Verifier v(design.netlist, design.options);
  v.verify(design.cases);
  const std::string good = v.snapshot("quickstart", design.content_hash);
  for (std::size_t sec : kCountedSections) {
    std::string bytes = good;
    set_u32(bytes, section_start(bytes, sec), 0xFFFFFFFFu);
    restamp(bytes);
    TempPath snap;
    snap.write(bytes);
    EXPECT_EQ(run_scaldtv("--compiled " + artifact.path() + " --from-snapshot " + snap.path()),
              2)
        << "section " << sec;
  }
}

// ------------------------------------- disk pressure (ENOSPC) exit codes

int run_cmd(const std::string& cmd) {
  return WEXITSTATUS(std::system((cmd + " >/dev/null 2>&1").c_str()));
}

TEST(DiskPressureExitCodes, SnapshotWriteFailureExitsFiveAndKeepsTheOldFile) {
  CompiledDesign design;
  std::string artifact_bytes = serialize_example_artifact(0, &design);
  TempPath artifact;
  artifact.write(artifact_bytes);
  TempPath snap;

  // Clean run: the snapshot is written (exit 1 -- example 0 carries one
  // deliberate violation).
  EXPECT_EQ(run_cmd(std::string(TV_SCALDTV_PATH) + " --compiled " + artifact.path() +
                    " --write-snapshot " + snap.path()),
            1);
  std::string good = snap.read();
  ASSERT_FALSE(good.empty());

  // ENOSPC-shaped failure on the snapshot write: scaldtv reports the loss
  // loudly (exit 5, the transient code, so a supervisor retries it) and the
  // previous snapshot survives complete -- old-complete or new-complete,
  // never torn.
  EXPECT_EQ(run_cmd("TV_FAULT=io.write@1:fail " + std::string(TV_SCALDTV_PATH) +
                    " --compiled " + artifact.path() + " --write-snapshot " +
                    snap.path()),
            5);
  EXPECT_EQ(snap.read(), good);
}

#ifdef TV_SCALDTVC_PATH
TEST(DiskPressureExitCodes, CompilerOutputWriteFailureExitsTwo) {
  std::string design = std::string(TV_REPO_ROOT) + "/designs/regfile_example.shdl";
  TempPath out;
  EXPECT_EQ(run_cmd("TV_FAULT=io.write@1:fail " + std::string(TV_SCALDTVC_PATH) + " " +
                    design + " -o " + out.path()),
            2);
  EXPECT_EQ(out.read(), "");  // nothing half-written

  // The same compile succeeds once the disk behaves.
  EXPECT_EQ(run_cmd(std::string(TV_SCALDTVC_PATH) + " " + design + " -o " + out.path()),
            0);
  EXPECT_FALSE(out.read().empty());
}
#endif  // TV_SCALDTVC_PATH
#endif  // TV_SCALDTV_PATH

}  // namespace
