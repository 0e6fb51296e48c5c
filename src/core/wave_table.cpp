#include "core/wave_table.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/fault.hpp"

namespace tv {

WaveformTable::WaveformTable(std::uint32_t max_per_shard)
    : max_per_shard_(max_per_shard) {}

WaveformTable::~WaveformTable() {
  for (Shard& sh : shards_) {
    for (auto& chunk : sh.chunks) {
      delete[] chunk.load(std::memory_order_relaxed);
    }
  }
}

WaveformRef WaveformTable::intern(const Waveform& w) {
  // Simulated allocation failure (docs/serving.md): `fail` throws
  // InjectedFault here, which drivers map to the transient exit code 5.
  fault::check("wave_table.intern");
  std::uint64_t h = w.canonical_hash();
  Shard& sh = shards_[h & kShardMask];
  std::lock_guard<std::mutex> lock(sh.mu);
  ++sh.lookups;
  // Every waveform of the shard shares h & kShardMask, so the index hashes
  // on the bits above it.
  const InternIndex::Probe p =
      sh.index.probe(static_cast<std::uint32_t>(h >> kShardBits), [&](std::uint32_t slot) {
        return sh.chunks[slot >> kChunkBits]
            .load(std::memory_order_relaxed)[slot & (kChunkSize - 1)]
            .equivalent(w);
      });
  if (p.id != InternIndex::kAbsent) {
    return (p.id << kShardBits) | static_cast<WaveformRef>(h & kShardMask);
  }
  std::uint32_t slot = sh.count;
  std::uint32_t cap = kMaxChunks * kChunkSize;
  if (max_per_shard_ != 0 && max_per_shard_ < cap) cap = max_per_shard_;
  if (slot >= cap) {
    // Shard exhausted: signal the caller instead of throwing so evaluation
    // can degrade the affected cone conservatively rather than crash.
    return kNoWaveform;
  }
  Waveform* chunk = sh.chunks[slot >> kChunkBits].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Waveform[kChunkSize];
    // Release pairs with the acquire in get(): a reader that learned of a
    // slot in this chunk (via a ref handed out after this point) sees the
    // chunk's construction.
    sh.chunks[slot >> kChunkBits].store(chunk, std::memory_order_release);
  }
  sh.paper_bytes += w.paper_storage_bytes();
  Waveform& copy = chunk[slot & (kChunkSize - 1)];
  copy = w;
  copy.canonicalize();
  sh.index.insert(p, slot);
  ++sh.count;
  return (slot << kShardBits) | static_cast<WaveformRef>(h & kShardMask);
}

std::size_t WaveformTable::size() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    n += sh.count;
  }
  return n;
}

std::size_t WaveformTable::lookups() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    n += sh.lookups;
  }
  return n;
}

std::size_t WaveformTable::unique_paper_bytes() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    n += sh.paper_bytes;
  }
  return n;
}

MemoKeyFields MemoKey::decode(const std::uint64_t* words, std::size_t n) {
  MemoKeyFields k;
  std::size_t i = 0;
  auto next = [&]() {
    if (i >= n) throw std::logic_error("memo key: truncated word sequence");
    return words[i++];
  };
  const std::uint64_t head = next();
  k.kind = static_cast<std::uint8_t>(head & 0xFF);
  k.has_rise_fall = (head >> 8) & 1;
  k.dmin = static_cast<Time>(next());
  k.dmax = static_cast<Time>(next());
  if (k.has_rise_fall) {
    for (Time& t : k.rise_fall) t = static_cast<Time>(next());
  }
  k.pins.resize(head >> 32);
  for (MemoPin& mp : k.pins) {
    const std::uint64_t pin = next();
    mp.wave = static_cast<WaveformRef>(pin & 0xFFFFFFFFu);
    mp.invert = (pin >> 32) & 1;
    mp.wire_min = static_cast<Time>(next());
    mp.wire_max = static_cast<Time>(next());
    mp.dirs.resize(pin >> 33);
    for (std::size_t c = 0; c < mp.dirs.size(); c += 8) {
      const std::uint64_t w = next();
      std::memcpy(mp.dirs.data() + c, &w, std::min<std::size_t>(8, mp.dirs.size() - c));
    }
  }
  if (i != n) throw std::logic_error("memo key: trailing words");
  return k;
}

InternIndex::Probe EvalMemo::Shard::probe(const MemoKey& key) const {
  return index.probe(static_cast<std::uint32_t>(key.hash()), [&](std::uint32_t entry) {
    const std::uint64_t* e = &arena[entry];
    return (e[0] & 0xFFFFFFFFu) == key.size() &&
           std::equal(key.data(), key.data() + key.size(), e + 1);
  });
}

std::optional<MemoResult> EvalMemo::lookup(const MemoKey& key) const {
  const Shard& sh = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const InternIndex::Probe p = sh.probe(key);
  if (p.id != InternIndex::kAbsent) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return sh.results[sh.arena[p.id] >> 32];
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void EvalMemo::store(const MemoKey& key, MemoResult result) {
  Shard& sh = shards_[shard_of(key)];
  std::lock_guard<std::mutex> lock(sh.mu);
  const InternIndex::Probe p = sh.probe(key);
  if (p.id != InternIndex::kAbsent) return;
  sh.index.insert(p, sh.arena.size());
  sh.arena.push_back(key.size() | static_cast<std::uint64_t>(sh.results.size()) << 32);
  sh.arena.insert(sh.arena.end(), key.data(), key.data() + key.size());
  sh.results.push_back(std::move(result));
}

std::size_t EvalMemo::entries() const {
  std::size_t n = 0;
  for (const Shard& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh.mu);
    n += sh.results.size();
  }
  return n;
}

InternStats collect_intern_stats(const InternContext& ctx) {
  InternStats st;
  st.unique_waveforms = ctx.table.size();
  st.intern_lookups = ctx.table.lookups();
  st.arena_paper_bytes = ctx.table.unique_paper_bytes();
  st.memo_hits = ctx.memo.hits();
  st.memo_misses = ctx.memo.misses();
  st.memo_entries = ctx.memo.entries();
  return st;
}

}  // namespace tv
