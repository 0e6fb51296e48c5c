// The one binary container of the durable on-disk artifacts: the compiled
// design (core/compiled.cpp, magic "SCALDTVC") and the fixpoint snapshot
// (core/fixpoint.cpp, magic "SCALDTVF"). A container is a fixed 40-byte
// little-endian header (magic, endian tag, format version, FNV-1a content
// hash over the payload, payload size, section count), a table of
// (id, reserved, offset, size) entries, and the concatenated sections.
// assemble() writes it, decode() validates it and hands one bounds-checked
// cursor per section to the format's reader, and load_file() maps a file
// for decode(). Each format supplies a Format descriptor and keeps only its
// own section builders and readers; every failure reports exactly one
// diagnostic, in the format's own code family. This header is internal to
// src/core; the public surfaces are compiled.hpp and fixpoint.hpp.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/evaluator.hpp"
#include "core/waveform.hpp"
#include "diag/diagnostic.hpp"
#include "util/intern_index.hpp"

namespace tv::wire {

/// What distinguishes one container format from the other: its identity,
/// its section order, its seven diagnostic codes, and the words its
/// messages use.
struct Format {
  const char* magic;  // 8 bytes, no terminator needed
  std::uint32_t version;
  std::span<const std::uint32_t> section_ids;  // the table's fixed order
  const char* io_code;
  const char* magic_code;
  const char* version_code;
  const char* truncated_code;
  const char* hash_code;
  const char* malformed_code;
  const char* endian_code;
  const char* noun;          // "artifact": "<noun> is truncated"
  const char* a_noun;        // "an artifact": "too small to hold <a_noun> header"
  const char* what;          // "compiled design": "not a <what> (bad magic)"
  const char* version_hint;  // how to get a readable file after version skew
};

// ---------------------------------------------------------------- writing

/// Appends explicitly little-endian records to a byte string, so the format
/// is identical regardless of host byte order.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s.data(), s.size());
  }
  std::string take() { return std::move(out_); }

 private:
  std::string out_;
};

// ---------------------------------------------------------------- reading

/// Bounds-checked little-endian cursor over one section. Every read checks
/// the remaining size; on underflow it sets `truncated` and returns zeros,
/// so the caller can finish the record and fail once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return static_cast<std::uint8_t>(bytes_[pos_++]);
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(bytes_[pos_ + i])) << (8 * i);
    pos_ += 8;
    return v;
  }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str() {
    std::uint32_t n = u32();
    if (!need(n)) return {};
    std::string s(bytes_.substr(pos_, n));
    pos_ += n;
    return s;
  }

  bool truncated() const { return truncated_; }
  bool at_end() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }
  /// How many of `count` records of at least `min_record` bytes each the
  /// rest of the section can hold: the most a reader reserves for a count
  /// it read, so a corrupt count can never become a large allocation.
  std::size_t room(std::uint32_t count, std::size_t min_record) const {
    return std::min<std::size_t>(count, remaining() / min_record);
  }
  std::string_view bytes() const { return bytes_; }

 private:
  bool need(std::size_t n) {
    if (truncated_ || bytes_.size() - pos_ < n) {
      truncated_ = true;
      return false;
    }
    return true;
  }

  std::string_view bytes_;
  std::size_t pos_ = 0;
  bool truncated_ = false;
};

/// Per-load validation state: keeps the first failure and remembers that
/// loading failed. decode() reports it, or the content-hash mismatch that
/// takes precedence over it, as the load's one diagnostic.
struct Loader {
  diag::DiagnosticEngine& diags;
  std::string_view origin;
  const Format& format;
  bool failed = false;
  const char* first_code = nullptr;
  std::string first_message{};

  bool fail(const char* code, const std::string& message) {
    if (!failed) {
      failed = true;
      first_code = code;
      first_message = message;
    }
    return false;
  }
  /// A bad record: the format's malformed code (TV-E305 / TV-E315).
  bool bad(const std::string& message) { return fail(format.malformed_code, message); }
};

// -------------------------------------------------------------- container

/// Frames `sections` (one per Format::section_ids entry, in that order) as
/// a complete file. *content_hash, when given, receives the payload hash
/// the header carries.
std::string assemble(const Format& format, std::span<const std::string> sections,
                     std::uint64_t* content_hash = nullptr);

/// A container whose header and section table checked out: one cursor per
/// section, in table order. The cursors are views into the bytes passed to
/// decode().
struct Container {
  std::uint64_t content_hash = 0;  // as the header carries it
  std::vector<ByteReader> sections;
};

/// Checks size, magic, endianness, version and payload size of `bytes`,
/// then the section table, and calls `read` on the sections; `read` records
/// a bad record through `L`. The content hash of the payload is computed on
/// a helper thread meanwhile (inline and first when no thread can start),
/// and a mismatch takes precedence over whatever the decode found. Reports
/// exactly one diagnostic on failure; true when the load succeeded.
bool decode(std::string_view bytes, Loader& L, const std::function<void(Container&)>& read);

/// The end-of-load check, run after every section reader succeeded: a
/// section that ran out mid-record is truncated, one with bytes left over
/// is malformed. Returns false (recorded) on either.
bool finish(const Container& c, Loader& L);

/// Calls `parse` on the bytes of the file at `path`: a read-only mapping
/// when the file can be mapped, a plain read otherwise (pipes, /proc,
/// zero-length files). The bytes are released when `parse` returns. An
/// unreadable file reports the format's I/O code and skips `parse`.
void load_file(const Format& format, const std::string& path, diag::DiagnosticEngine& diags,
               const std::function<void(std::string_view)>& parse);

// --------------------------------------------------------- case-list records

/// The case-list section both formats carry: per case its name and
/// (signal, 0|1) pins.
std::string build_cases(const std::vector<CaseSpec>& cases);

/// Reads a case list written by build_cases, rejecting a signal id at or
/// past `nsignals` and any pin value other than 0 or 1.
bool read_cases(ByteReader& r, std::uint32_t nsignals, std::vector<CaseSpec>& out,
                Loader& L);

// ---------------------------------------------------------- waveform arenas

/// Deduplicates waveforms: each distinct canonical waveform is kept once, in
/// first-seen order, and addressed by its 32-bit index. Shared waveforms
/// (clocks, constants -- the common case by far) serialize once.
class WaveArena {
 public:
  /// The index of `w`'s copy (`w` must be canonical), added on first sight.
  std::uint32_t add(Waveform w);
  std::vector<Waveform>& waves() { return waves_; }

 private:
  std::vector<Waveform> waves_;
  InternIndex index_;  // hashes on the low 32 bits of the canonical hash
};

/// An arena record: the waveform count, then each waveform.
void write_arena(ByteWriter& w, const std::vector<Waveform>& arena);
bool read_arena(ByteReader& r, std::vector<Waveform>& arena, Loader& L);

}  // namespace tv::wire
