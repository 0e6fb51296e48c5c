#include "core/wire_format.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "util/hash.hpp"

namespace tv::wire {

namespace {

constexpr std::uint32_t kEndianTag = 0x01020304u;
constexpr std::uint32_t kEndianTagSwapped = 0x04030201u;
constexpr std::size_t kHeaderSize = 40;
constexpr std::size_t kSectionEntrySize = 24;
// The smallest record of each counted kind, for ByteReader::room(). A
// waveform has at least one segment; a case may have no pins.
constexpr std::size_t kMinSegment = 1 + 8;
constexpr std::size_t kMinWaveform = 8 + 8 + 4 + kMinSegment;
constexpr std::size_t kMinCase = 4 + 4;
constexpr std::size_t kMinCasePin = 4 + 1;

void write_waveform(ByteWriter& w, const Waveform& wave) {
  w.i64(wave.period());
  w.i64(wave.skew());
  w.u32(static_cast<std::uint32_t>(wave.segments().size()));
  for (const Waveform::Segment& s : wave.segments()) {
    w.u8(static_cast<std::uint8_t>(s.value));
    w.i64(s.width);
  }
}

bool read_waveform(ByteReader& r, Waveform& out, Loader& L) {
  Time period = r.i64();
  Time skew = r.i64();
  std::uint32_t nsegs = r.u32();
  if (r.truncated()) return true;  // reported by the section-end check
  if (period <= 0 || nsegs == 0) return L.bad("bad waveform record");
  std::vector<Waveform::Segment> segs;
  segs.reserve(r.room(nsegs, kMinSegment));
  Time total = 0;
  for (std::uint32_t i = 0; i < nsegs && !r.truncated(); ++i) {
    std::uint8_t v = r.u8();
    Time width = r.i64();
    if (v >= kNumValues || width <= 0) return L.bad("bad waveform segment");
    // Checked before adding, so hostile widths cannot overflow the sum.
    if (width > period - total) return L.bad("waveform widths do not sum to the period");
    segs.push_back({static_cast<Value>(v), width});
    total += width;
  }
  if (r.truncated()) return true;
  if (total != period) return L.bad("waveform widths do not sum to the period");
  out = Waveform::from_segments(period, skew, std::move(segs));
  return true;
}

}  // namespace

std::string assemble(const Format& format, std::span<const std::string> sections,
                     std::uint64_t* content_hash) {
  // Section table + payload, then the header over them.
  ByteWriter body;
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    body.u32(format.section_ids[i]);
    body.u32(0);  // reserved
    body.u64(offset);
    body.u64(sections[i].size());
    offset += sections[i].size();
  }
  std::string out = body.take();
  for (const std::string& s : sections) out += s;

  const std::uint64_t hash = fnv1a(out.data(), out.size());
  if (content_hash) *content_hash = hash;

  ByteWriter header;
  for (std::size_t i = 0; i < 8; ++i) header.u8(static_cast<std::uint8_t>(format.magic[i]));
  header.u32(kEndianTag);
  header.u32(format.version);
  header.u64(hash);
  header.u64(out.size());
  header.u32(static_cast<std::uint32_t>(sections.size()));
  header.u32(0);  // reserved
  return header.take() + out;
}

namespace {

/// Checks everything the hash does not cover: size, magic, byte order,
/// version and payload size. Fills the header fields of `c` and returns the
/// payload, or records the failure and returns nothing.
std::optional<std::string_view> check_header(std::string_view bytes, Loader& L, Container& c,
                                             std::uint32_t& nsections) {
  const Format& f = L.format;
  if (bytes.size() < kHeaderSize) {
    L.fail(f.truncated_code, std::string("file too small to hold ") + f.a_noun + " header");
    return std::nullopt;
  }
  if (std::memcmp(bytes.data(), f.magic, 8) != 0) {
    L.fail(f.magic_code, std::string("not a ") + f.what + " (bad magic)");
    return std::nullopt;
  }
  ByteReader h(bytes.substr(8, kHeaderSize - 8));
  std::uint32_t endian = h.u32();
  if (endian != kEndianTag) {
    if (endian == kEndianTagSwapped) {
      L.fail(f.endian_code, std::string(f.noun) + " written with opposite byte order");
    } else {
      L.bad("bad endianness tag");
    }
    return std::nullopt;
  }
  std::uint32_t version = h.u32();
  if (version != f.version) {
    L.fail(f.version_code, "format version " + std::to_string(version) +
                               " (this build reads version " + std::to_string(f.version) +
                               "); " + f.version_hint);
    return std::nullopt;
  }
  c.content_hash = h.u64();
  std::uint64_t payload_size = h.u64();
  nsections = h.u32();
  if (payload_size != bytes.size() - kHeaderSize) {
    L.fail(f.truncated_code, payload_size > bytes.size() - kHeaderSize
                                 ? std::string(f.noun) + " is truncated"
                                 : std::string("trailing bytes after the payload"));
    return std::nullopt;
  }
  return bytes.substr(kHeaderSize);
}

/// The section table: ids in fixed order, ranges inside the payload.
bool read_table(std::string_view payload, std::uint32_t nsections, Loader& L, Container& c) {
  const Format& f = L.format;
  const std::size_t count = f.section_ids.size();
  if (nsections != count || payload.size() < count * kSectionEntrySize) {
    return L.bad("bad section table");
  }
  ByteReader t(payload.substr(0, count * kSectionEntrySize));
  std::string_view data = payload.substr(count * kSectionEntrySize);
  c.sections.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::uint32_t id = t.u32();
    t.u32();  // reserved
    std::uint64_t off = t.u64();
    std::uint64_t size = t.u64();
    if (id != f.section_ids[i] || off > data.size() || size > data.size() - off) {
      return L.bad("bad section table");
    }
    c.sections.emplace_back(data.substr(off, size));
  }
  return true;
}

}  // namespace

bool decode(std::string_view bytes, Loader& L, const std::function<void(Container&)>& read) {
  Container c;
  std::uint32_t nsections = 0;
  if (std::optional<std::string_view> payload = check_header(bytes, L, c, nsections)) {
    // The hash runs beside the decode; its verdict still comes first. A
    // decode of corrupt bytes is safe, since every read is bounds-checked
    // and every reservation capped by the bytes left.
    std::uint64_t hash = 0;
    bool hashed = false;
    std::jthread hasher;
    try {
      hasher = std::jthread([&hash, p = *payload] { hash = fnv1a(p.data(), p.size()); });
    } catch (const std::exception&) {  // no thread to be had: hash first
      hash = fnv1a(payload->data(), payload->size());
      hashed = true;
    }
    if (!hashed || hash == c.content_hash) {
      if (read_table(*payload, nsections, L, c)) read(c);
    }
    if (hasher.joinable()) hasher.join();
    if (hash != c.content_hash) {
      L.failed = true;
      L.first_code = L.format.hash_code;
      L.first_message =
          std::string("content hash mismatch (") + L.format.noun + " is corrupted)";
    }
  }
  if (L.failed) {
    L.diags.report(diag::Severity::Error, L.first_code, diag::SourceLoc{},
                   std::string(L.origin) + ": " + L.first_message);
  }
  return !L.failed;
}

bool finish(const Container& c, Loader& L) {
  for (const ByteReader& r : c.sections) {
    if (r.truncated()) return L.fail(L.format.truncated_code, "section ends mid-record");
    if (!r.at_end()) return L.bad("unconsumed bytes at the end of a section");
  }
  return true;
}

void load_file(const Format& format, const std::string& path, diag::DiagnosticEngine& diags,
               const std::function<void(std::string_view)>& parse) {
  auto io_error = [&](const std::string& message) {
    diags.report(diag::Severity::Error, format.io_code, diag::SourceLoc{},
                 path + ": " + message);
  };
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    io_error(std::string("cannot open ") + format.what);
    return;
  }
  struct stat st{};
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    std::size_t len = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      parse(std::string_view(static_cast<const char*>(map), len));
      ::munmap(map, len);
      return;
    }
  }
  ::close(fd);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    io_error(std::string("cannot open ") + format.what);
    return;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  if (!in.good() && !in.eof()) {
    io_error("read error");
    return;
  }
  std::string bytes = buf.str();
  parse(bytes);
}

std::uint32_t WaveArena::add(Waveform w) {
  const InternIndex::Probe p =
      index_.probe(static_cast<std::uint32_t>(w.canonical_hash()),
                   [&](std::uint32_t id) { return waves_[id].equivalent(w); });
  if (p.id != InternIndex::kAbsent) return p.id;
  index_.insert(p, waves_.size());
  waves_.push_back(std::move(w));
  return static_cast<std::uint32_t>(waves_.size() - 1);
}

void write_arena(ByteWriter& w, const std::vector<Waveform>& arena) {
  w.u32(static_cast<std::uint32_t>(arena.size()));
  for (const Waveform& wave : arena) write_waveform(w, wave);
}

bool read_arena(ByteReader& r, std::vector<Waveform>& arena, Loader& L) {
  std::uint32_t count = r.u32();
  arena.reserve(r.room(count, kMinWaveform));
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    Waveform w;
    if (!read_waveform(r, w, L)) return false;
    if (r.truncated()) break;
    arena.push_back(std::move(w));
  }
  return true;
}

std::string build_cases(const std::vector<CaseSpec>& cases) {
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(cases.size()));
  for (const CaseSpec& c : cases) {
    w.str(c.name);
    w.u32(static_cast<std::uint32_t>(c.pins.size()));
    for (const auto& [sig, value] : c.pins) {
      w.u32(sig);
      w.u8(static_cast<std::uint8_t>(value));
    }
  }
  return w.take();
}

bool read_cases(ByteReader& r, std::uint32_t nsignals, std::vector<CaseSpec>& out,
                Loader& L) {
  std::uint32_t count = r.u32();
  out.reserve(r.room(count, kMinCase));
  for (std::uint32_t i = 0; i < count && !r.truncated(); ++i) {
    CaseSpec c;
    c.name = r.str();
    std::uint32_t npins = r.u32();
    c.pins.reserve(r.room(npins, kMinCasePin));
    for (std::uint32_t j = 0; j < npins && !r.truncated(); ++j) {
      std::uint32_t sig = r.u32();
      std::uint8_t value = r.u8();
      if (r.truncated()) break;
      if (sig >= nsignals) return L.bad("case \"" + c.name + "\": signal out of range");
      if (value != static_cast<std::uint8_t>(Value::Zero) &&
          value != static_cast<std::uint8_t>(Value::One)) {
        return L.bad("case \"" + c.name + "\": bad value");
      }
      c.pins.emplace_back(sig, static_cast<Value>(value));
    }
    if (r.truncated()) break;
    out.push_back(std::move(c));
  }
  return true;
}

}  // namespace tv::wire
