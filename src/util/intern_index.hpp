// The one open-addressing index behind every interning table: content ->
// dense 32-bit id. The netlist's name index, the evaluation memo's and the
// waveform table's shards, the artifact writer's waveform dedupe and the
// batch arena's eval-string pool all keep their own key storage and hash
// function and use this index to find a key's id.
//
// A slot is 8 bytes: the key's 32-bit hash and its id. Probing is linear.
// The owner resolves an id to its key, so a lookup passes the hash and an
// equality callback `eq(id)`; the index compares stored hashes first and
// calls `eq` only on a match. probe() hands the insert slot to insert(), so
// a get-or-create hashes and probes once.
//
// An erased key leaves a tombstone. Tombstones count toward the load limit
// (half the slots), so every probe ends at an empty slot; a probe that
// misses reports the first tombstone on its way as the insert slot. A
// rehash sizes the table from the live keys alone, drops the tombstones and
// re-places each slot by its stored hash, so no key is hashed twice.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace tv {

class InternIndex {
 public:
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  /// Where a lookup ended. `id` is the key's id or kAbsent; when absent,
  /// `slot` is where an insert of the same key goes.
  struct Probe {
    std::uint32_t id;
    std::uint32_t hash;
    std::size_t slot;
  };

  /// Looks up the key hashing to `hash`; `eq(id)` says whether the key
  /// stored under `id` is the one sought.
  template <class Eq>
  Probe probe(std::uint32_t hash, Eq&& eq) const {
    if (slots_.empty()) return Probe{kAbsent, hash, 0};
    const std::size_t mask = slots_.size() - 1;
    std::size_t reuse = slots_.size();  // the first tombstone on the way
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.id == kEmpty) return Probe{kAbsent, hash, reuse != slots_.size() ? reuse : i};
      if (s.id == kTombstone) {
        if (reuse == slots_.size()) reuse = i;
      } else if (s.hash == hash && eq(s.id)) {
        return Probe{s.id, hash, i};
      }
    }
  }

  /// Adds `id` at `at`, a probe that found nothing, with no mutation of the
  /// index in between; grows first when the table would pass half full.
  /// Throws std::length_error, before anything changes, for an id of
  /// 2^32 - 2 or more (the two reserved slot markers): an owner whose ids
  /// are offsets into its key storage gets its 4 GiB guard here.
  void insert(const Probe& at, std::size_t id) {
    if (id >= kTombstone) throw std::length_error("intern index: id exceeds 32 bits");
    std::size_t slot = at.slot;
    // Keep at least half the slots empty, so every probe ends.
    if ((used_ + 1) * 2 > slots_.size()) {
      rehash(live_ + 1);
      slot = empty_slot(at.hash);
    }
    if (slots_[slot].id == kEmpty) ++used_;
    slots_[slot] = Slot{at.hash, static_cast<std::uint32_t>(id)};
    ++live_;
  }
  /// Removes the key `at` found (a probe whose id is not kAbsent).
  void erase(const Probe& at) {
    slots_[at.slot].id = kTombstone;
    --live_;
  }
  /// Room for `keys` more keys, so that adding them rehashes nothing.
  void reserve(std::size_t keys) {
    if ((used_ + keys) * 2 > slots_.size()) rehash(live_ + keys);
  }

  /// Replaces every live id with `fn(id)`: an owner that moves its keys
  /// (the name index compacting its arena) renumbers them in place.
  template <class Fn>
  void remap(Fn&& fn) {
    for (Slot& s : slots_) {
      if (s.id < kTombstone) s.id = fn(s.id);
    }
  }

  std::size_t size() const { return live_; }
  /// Slots allocated, live, tombstoned and empty together.
  std::size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::uint32_t kTombstone = 0xFFFFFFFEu;

  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t id = kEmpty;
  };

  /// Rebuilds the table for `live` keys with no tombstones. At most a third
  /// full afterwards: growth doubles the table, and a table full of
  /// tombstones is rebuilt at its size with room before the next one.
  void rehash(std::size_t live) {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(std::bit_ceil(std::max<std::size_t>(16, live * 3)), Slot{});
    for (const Slot& s : old) {
      if (s.id < kTombstone) slots_[empty_slot(s.hash)] = s;
    }
    used_ = live_;
  }
  std::size_t empty_slot(std::uint32_t hash) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i].id != kEmpty) i = (i + 1) & mask;
    return i;
  }

  std::vector<Slot> slots_;  // size 0 or a power of two
  std::size_t live_ = 0;
  std::size_t used_ = 0;  // live + tombstones
};

}  // namespace tv
