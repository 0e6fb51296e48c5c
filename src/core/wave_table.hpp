// Hash-consed waveform interning and evaluation memoization.
//
// The thesis' central storage observation (sec. 2.8, Table 3-3) is that the
// seven-value periodic waveforms of a large machine are massively shared:
// the mean value list is under three records because most signals collapse
// to one of a handful of canonical shapes (always-stable, the clock phases,
// a few delayed copies of each). A WaveformTable makes that sharing
// explicit: every waveform is canonicalized (normalized segments, skew
// zeroed when the waveform has no activity -- see Waveform::canonicalize)
// and placed in an arena exactly once; the 32-bit WaveformRef it gets back
// is content-addressed, so
//
//     intern(a) == intern(b)  <=>  a.equivalent(b)
//
// and the fixed-point convergence test degenerates from a deep segment
// compare to an integer compare. The arena also gives storage_stats the
// true unique-waveform count to hold against Table 3-3.
//
// intern() takes a const reference and copies the waveform only when it
// inserts it, so lookups() counts intern calls -- since memo hits commit
// refs, the fresh interns only (seeds, misses, case-mapped results).
//
// On top of the table sits the EvalMemo: evaluate_primitive is a pure
// function of (primitive kind, delay parameters, prepared inputs), and a
// prepared input is itself a pure function of (driving waveform, inversion,
// wire delay, directive string). Keying a cache on those -- with waveforms
// as refs -- lets structurally repeated logic (the S-1's dozens of
// identical pipeline stages) evaluate once and hit thereafter. A key is a
// flat word sequence (layout at MemoKey) hashed as it is built, and a hit
// hands back the interned output ref, which the propagation engine commits
// as is (core/propagate.hpp): no waveform is copied, canonicalized or
// re-interned on the hit path.
//
// Thread-safety contract (shared with the PR-1 case worker pool): both
// structures are *shard-locked*. A ref encodes (slot << 4 | shard); intern
// and memo lookups take one shard mutex, while WaveformTable::get is
// lock-free -- chunk pointers are published with store-release under the
// shard mutex and read with load-acquire, and a chunk is never reallocated,
// so any ref obtained from intern() (which synchronizes via the mutex, or
// reaches another thread via worker join) dereferences safely. We chose
// shard-locking over thread-local tables + merge because case workers
// interleave intern and get constantly and the merge step would reintroduce
// a serial phase; contention stays low because 16 shards are selected by
// the waveform hash.
//
// Each shard of either structure finds its entries through one InternIndex
// (util/intern_index.hpp), touched only under the shard mutex. A waveform
// shard's index hashes on the bits above the shard bits: every waveform of
// the shard shares the low ones.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/netlist.hpp"
#include "core/waveform.hpp"
#include "util/intern_index.hpp"

namespace tv {

/// Content-addressed handle to an interned canonical waveform.
using WaveformRef = std::uint32_t;
inline constexpr WaveformRef kNoWaveform = 0xFFFFFFFFu;

/// Append-only, shard-locked arena of unique canonical waveforms.
class WaveformTable {
 public:
  /// `max_per_shard` caps unique waveforms per shard below the structural
  /// maximum; 0 = unlimited (the built-in ~2M). Small caps force the
  /// TV-W203 degradation path deterministically, which the concurrent
  /// degradation tests exploit.
  explicit WaveformTable(std::uint32_t max_per_shard = 0);
  WaveformTable(const WaveformTable&) = delete;
  WaveformTable& operator=(const WaveformTable&) = delete;
  ~WaveformTable();

  /// Returns the ref of `w`'s unique canonical copy, inserting one (the only
  /// copy made) on first sight. Equivalent waveforms always get the same
  /// ref. Returns kNoWaveform when the shard is full (resource exhaustion;
  /// callers must degrade, not crash).
  WaveformRef intern(const Waveform& w);

  /// The interned waveform. Lock-free; the reference stays valid for the
  /// table's lifetime (chunks are never moved or freed before destruction).
  const Waveform& get(WaveformRef ref) const {
    const Shard& sh = shards_[ref & kShardMask];
    std::uint32_t slot = ref >> kShardBits;
    const Waveform* chunk =
        sh.chunks[slot >> kChunkBits].load(std::memory_order_acquire);
    return chunk[slot & (kChunkSize - 1)];
  }

  /// Unique canonical waveforms interned so far.
  std::size_t size() const;
  /// Total intern() calls; memo hits make none, so this counts the fresh
  /// interns (seeds, memo misses, case-mapped results, restored values).
  std::size_t lookups() const;
  /// Thesis-model bytes (Table 3-3 VALUE BASE + VALUE records) of the
  /// unique waveforms only -- what signal-value storage shrinks to when
  /// every signal holds a ref instead of an owned list.
  std::size_t unique_paper_bytes() const;

 private:
  static constexpr unsigned kShardBits = 4;
  static constexpr unsigned kShardCount = 1u << kShardBits;
  static constexpr unsigned kShardMask = kShardCount - 1;
  static constexpr unsigned kChunkBits = 9;  // 512 waveforms per chunk
  static constexpr unsigned kChunkSize = 1u << kChunkBits;
  static constexpr unsigned kMaxChunks = 1u << 12;  // 2M waveforms per shard

  struct Shard {
    mutable std::mutex mu;
    // Slot of each waveform, hashed on the bits above the shard's.
    InternIndex index;
    std::array<std::atomic<Waveform*>, kMaxChunks> chunks{};
    std::uint32_t count = 0;           // slots in use (guarded by mu)
    std::size_t lookups = 0;           // intern() calls (guarded by mu)
    std::size_t paper_bytes = 0;       // sum over unique waveforms
  };

  Shard shards_[kShardCount];
  std::uint32_t max_per_shard_ = 0;  // 0 = structural maximum
};

/// One prepared-input component of a decoded MemoKey: everything
/// prepare_input consumes besides the options (fixed per run) -- the
/// driving waveform (as a ref), the pin inversion, the wire delay that
/// would be applied, and the resolved directive string (pin override or
/// propagated eval string).
struct MemoPin {
  WaveformRef wave = kNoWaveform;
  bool invert = false;
  Time wire_min = 0;
  Time wire_max = 0;
  std::string dirs;
  bool operator==(const MemoPin&) const = default;
};

/// A MemoKey decoded into its fields (the memo audit reads keys this way).
struct MemoKeyFields {
  std::uint8_t kind = 0;  // PrimKind
  Time dmin = 0;
  Time dmax = 0;
  bool has_rise_fall = false;
  std::array<Time, 4> rise_fall{};  // rise min/max, fall min/max
  std::vector<MemoPin> pins;
  bool operator==(const MemoKeyFields&) const = default;
};

/// Cache key for one evaluate_primitive call: a flat sequence of 64-bit
/// words, hashed as it is built --
///
///   kind | has_rise_fall << 8 | pin count << 32;  dmin;  dmax;
///   [rise min, rise max, fall min, fall max]       (rise/fall delays only)
///   per pin: ref | invert << 32 | directive length << 33;
///            wire min;  wire max;  directive bytes, 8 per word, zero-padded
///
/// The clock period is fixed per evaluator, so it is deliberately not part
/// of the key. The word buffer keeps its capacity across start() calls, so
/// a caller that reuses one key builds it without allocating.
class MemoKey {
 public:
  /// Starts a key for primitive `p`; one add_pin per input follows.
  void start(const Primitive& p) {
    words_.clear();
    hash_ = kHashBasis;
    push(static_cast<std::uint64_t>(p.kind) |
         static_cast<std::uint64_t>(p.rise_fall.has_value()) << 8 |
         static_cast<std::uint64_t>(p.inputs.size()) << 32);
    push(static_cast<std::uint64_t>(p.dmin));
    push(static_cast<std::uint64_t>(p.dmax));
    if (p.rise_fall) {
      push(static_cast<std::uint64_t>(p.rise_fall->rise_min));
      push(static_cast<std::uint64_t>(p.rise_fall->rise_max));
      push(static_cast<std::uint64_t>(p.rise_fall->fall_min));
      push(static_cast<std::uint64_t>(p.rise_fall->fall_max));
    }
  }
  /// Appends one input's component.
  void add_pin(WaveformRef wave, bool invert, Time wire_min, Time wire_max,
               std::string_view dirs) {
    push(wave | static_cast<std::uint64_t>(invert) << 32 |
         static_cast<std::uint64_t>(dirs.size()) << 33);
    push(static_cast<std::uint64_t>(wire_min));
    push(static_cast<std::uint64_t>(wire_max));
    for (std::size_t i = 0; i < dirs.size(); i += 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, dirs.data() + i, std::min<std::size_t>(8, dirs.size() - i));
      push(w);
    }
  }

  const std::uint64_t* data() const { return words_.data(); }
  std::size_t size() const { return words_.size(); }
  std::uint64_t hash() const { return hash_; }

  /// The fields of the key stored as `words`/`n` (a whole key).
  static MemoKeyFields decode(const std::uint64_t* words, std::size_t n);

 private:
  static constexpr std::uint64_t kHashBasis = 0xcbf29ce484222325ull;
  void push(std::uint64_t w) {
    words_.push_back(w);
    hash_ = (hash_ ^ w) * 0x9e3779b97f4a7c15ull;
    hash_ ^= hash_ >> 29;
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t hash_ = kHashBasis;
};

/// Cached result: the interned output waveform (pre case-mapping -- the
/// mapping is case-local and applied by the caller) and the propagated
/// evaluation string.
struct MemoResult {
  WaveformRef wave = kNoWaveform;
  std::string eval_str;
};

/// Shard-locked memo-cache over evaluate_primitive. Content-addressed and
/// insert-only, so it is safe to share across the case worker pool and
/// across successive propagations of the same evaluator. A shard keeps its
/// keys back to back in one word arena behind an open-addressing table of
/// (hash, offset) slots, so an entry costs no allocation of its own.
class EvalMemo {
 public:
  std::optional<MemoResult> lookup(const MemoKey& key) const;
  /// Adds `key` -> `result` unless the key is already cached.
  void store(const MemoKey& key, MemoResult result);

  std::size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  std::size_t entries() const;

  /// Calls fn(fields, result) for every entry, its key decoded, each shard
  /// under its lock (the memo audit, check/pipeline_diff.hpp; not for the
  /// evaluation path).
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      for (std::size_t at = 0; at < sh.arena.size();) {
        const std::size_t n = sh.arena[at] & 0xFFFFFFFFu;
        fn(MemoKey::decode(&sh.arena[at + 1], n), sh.results[sh.arena[at] >> 32]);
        at += 1 + n;
      }
    }
  }

 private:
  static constexpr unsigned kShardBits = 4;
  static constexpr unsigned kShardCount = 1u << kShardBits;

  /// The index's id for a key is the arena offset of its entry: a header
  /// word (key length | result index << 32), then the key's words. The
  /// index hashes on the low 32 bits of the key's hash.
  struct Shard {
    mutable std::mutex mu;
    InternIndex index;
    std::vector<std::uint64_t> arena;
    std::vector<MemoResult> results;

    InternIndex::Probe probe(const MemoKey& key) const;
  };

  static std::size_t shard_of(const MemoKey& key) { return key.hash() >> (64 - kShardBits); }

  Shard shards_[kShardCount];
  mutable std::atomic<std::size_t> hits_{0};
  mutable std::atomic<std::size_t> misses_{0};
};

/// The shared interning state of one verification run: the waveform arena
/// plus the evaluation memo. The Evaluator owns one and hands it to every
/// case snapshot; it outlives all of them.
struct InternContext {
  WaveformTable table;
  EvalMemo memo;

  InternContext() = default;
  /// Caps unique waveforms per table shard (VerifierOptions::
  /// max_waveforms_per_shard); 0 = unlimited.
  explicit InternContext(std::uint32_t max_waveforms_per_shard)
      : table(max_waveforms_per_shard) {}
};

/// Snapshot of the interning counters for storage_stats / benchmarks.
struct InternStats {
  std::size_t unique_waveforms = 0;
  std::size_t intern_lookups = 0;
  std::size_t arena_paper_bytes = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  std::size_t memo_entries = 0;

  double memo_hit_rate() const {
    std::size_t n = memo_hits + memo_misses;
    return n ? static_cast<double>(memo_hits) / static_cast<double>(n) : 0.0;
  }
};

InternStats collect_intern_stats(const InternContext& ctx);

}  // namespace tv
