// The netlist's name index: full signal name -> SignalId.
//
// One open-addressing table (linear probing) over one append-only arena of
// entries. An entry is the id, the key's length and the key text; a slot is
// 8 bytes, the low 32 bits of the name's hash and the entry's offset, so a
// name costs no allocation of its own and a rehash moves only slots. The
// hash is std::hash<std::string_view>; it is computed once per get-or-create
// (probe() hands it to insert()).
//
// An erased name leaves a tombstone slot and a dead entry. Tombstones count
// toward the load limit (half the slots). A rehash sizes the table from the
// live names alone and, when entries died, copies only the live ones into a
// fresh arena. It also runs when the dead bytes outgrow the live ones, so
// renames cannot grow the index without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tv {

using SignalId = std::uint32_t;

class NameIndex {
 public:
  /// Where a lookup ended. `id` is the name's id or kAbsent; when absent,
  /// `slot` is where an insert of the same name goes.
  struct Probe {
    SignalId id;
    std::uint32_t hash;
    std::size_t slot;
  };
  static constexpr SignalId kAbsent = static_cast<SignalId>(-1);

  Probe probe(std::string_view name) const;
  SignalId find(std::string_view name) const { return probe(name).id; }

  /// Adds `name` -> `id` at `at`, a probe of `name` that found nothing, with
  /// no mutation of the index in between.
  void insert(const Probe& at, std::string_view name, SignalId id);
  /// Adds `name` -> `id` unless the name is already taken; true if added.
  bool insert_if_absent(std::string_view name, SignalId id);
  /// Points `name` at `id`, adding it when absent.
  void assign(std::string_view name, SignalId id);
  /// Removes `name`; a no-op when absent.
  void erase(std::string_view name);
  /// Room for `names` more names, so that adding them rehashes nothing.
  void reserve(std::size_t names);

  std::size_t size() const { return live_; }
  /// Slots allocated, live, tombstoned and empty together.
  std::size_t slot_count() const { return slots_.size(); }
  /// Bytes of entries held, dead ones included.
  std::size_t arena_bytes() const { return arena_.size(); }

 private:
  struct Slot {
    std::uint32_t hash = 0;
    std::uint32_t entry = kEmpty;  // arena offset of the entry
  };
  static constexpr std::uint32_t kEmpty = static_cast<std::uint32_t>(-1);
  static constexpr std::uint32_t kTombstone = static_cast<std::uint32_t>(-2);
  static constexpr std::size_t kHeader = 2 * sizeof(std::uint32_t);  // id, length

  SignalId id_at(std::uint32_t entry) const;
  std::string_view key_at(std::uint32_t entry) const;
  /// Rebuilds the table for `live` names: no tombstones, no dead entries.
  void rehash(std::size_t live);
  std::size_t empty_slot(std::uint32_t hash) const;

  std::vector<Slot> slots_;  // size 0 or a power of two
  std::string arena_;
  std::size_t live_ = 0;
  std::size_t used_ = 0;        // live + tombstones
  std::size_t dead_bytes_ = 0;  // arena bytes of erased entries
};

}  // namespace tv
