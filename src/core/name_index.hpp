// The netlist's name index: full signal name -> SignalId.
//
// An InternIndex (util/intern_index.hpp) over one append-only arena of
// entries. An entry is the id, the key's length and the key text; the
// index's id for a name is its entry's arena offset, so a name costs no
// allocation of its own and a rehash moves only slots. The hash is
// std::hash<std::string_view>; it is computed once per get-or-create
// (probe() hands it to insert()).
//
// An erased name leaves a tombstone in the index and a dead entry in the
// arena. Once the dead bytes outgrow the live ones, the live entries are
// copied into a fresh arena, so renames cannot grow the index without bound.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "util/intern_index.hpp"

namespace tv {

using SignalId = std::uint32_t;

class NameIndex {
 public:
  /// Where a lookup ended. `id` is the name's id or kAbsent; when absent,
  /// `at` is where an insert of the same name goes.
  struct Probe {
    SignalId id;
    InternIndex::Probe at;
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
  void reserve(std::size_t names) { index_.reserve(names); }

  std::size_t size() const { return index_.size(); }
  /// Slots allocated, live, tombstoned and empty together.
  std::size_t slot_count() const { return index_.slot_count(); }
  /// Bytes of entries held, dead ones included.
  std::size_t arena_bytes() const { return arena_.size(); }

 private:
  static constexpr std::size_t kHeader = 2 * sizeof(std::uint32_t);  // id, length

  std::string_view key_at(std::uint32_t entry) const;
  /// Copies the live entries into a fresh arena.
  void compact();

  InternIndex index_;
  std::string arena_;
  std::size_t dead_bytes_ = 0;  // arena bytes of erased entries
};

}  // namespace tv
