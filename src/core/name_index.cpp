#include "core/name_index.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <stdexcept>

namespace tv {

namespace {

std::uint32_t hash_name(std::string_view name) {
  return static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
}

std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_u32(char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

SignalId NameIndex::id_at(std::uint32_t entry) const { return load_u32(arena_.data() + entry); }

std::string_view NameIndex::key_at(std::uint32_t entry) const {
  const char* e = arena_.data() + entry;
  return std::string_view(e + kHeader, load_u32(e + sizeof(std::uint32_t)));
}

NameIndex::Probe NameIndex::probe(std::string_view name) const {
  const std::uint32_t h = hash_name(name);
  if (slots_.empty()) return Probe{kAbsent, h, 0};
  const std::size_t mask = slots_.size() - 1;
  std::size_t reuse = slots_.size();  // the first tombstone on the way
  for (std::size_t i = h & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.entry == kEmpty) return Probe{kAbsent, h, reuse != slots_.size() ? reuse : i};
    if (s.entry == kTombstone) {
      if (reuse == slots_.size()) reuse = i;
    } else if (s.hash == h && key_at(s.entry) == name) {
      return Probe{id_at(s.entry), h, i};
    }
  }
}

std::size_t NameIndex::empty_slot(std::uint32_t hash) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = hash & mask;
  while (slots_[i].entry != kEmpty) i = (i + 1) & mask;
  return i;
}

void NameIndex::insert(const Probe& at, std::string_view name, SignalId id) {
  if (arena_.size() + kHeader + name.size() >= kTombstone) {
    throw std::length_error("name index: entry arena exceeds 4 GiB");
  }
  std::size_t slot = at.slot;
  // Keep at least half the slots empty, so every probe ends; compact once
  // the dead entries outweigh the live ones.
  if ((used_ + 1) * 2 > slots_.size() ||
      (dead_bytes_ > 4096 && dead_bytes_ > arena_.size() - dead_bytes_)) {
    rehash(live_ + 1);
    slot = empty_slot(at.hash);
  }
  Slot& s = slots_[slot];
  if (s.entry == kEmpty) ++used_;
  s = Slot{at.hash, static_cast<std::uint32_t>(arena_.size())};
  char header[kHeader];
  store_u32(header, id);
  store_u32(header + sizeof(std::uint32_t), static_cast<std::uint32_t>(name.size()));
  arena_.append(header, kHeader);
  arena_.append(name);
  ++live_;
}

bool NameIndex::insert_if_absent(std::string_view name, SignalId id) {
  Probe p = probe(name);
  if (p.id != kAbsent) return false;
  insert(p, name, id);
  return true;
}

void NameIndex::assign(std::string_view name, SignalId id) {
  Probe p = probe(name);
  if (p.id == kAbsent) {
    insert(p, name, id);
  } else {
    store_u32(arena_.data() + slots_[p.slot].entry, id);
  }
}

void NameIndex::erase(std::string_view name) {
  Probe p = probe(name);
  if (p.id == kAbsent) return;
  Slot& s = slots_[p.slot];
  dead_bytes_ += kHeader + key_at(s.entry).size();
  s.entry = kTombstone;
  --live_;
}

void NameIndex::reserve(std::size_t names) {
  if ((used_ + names) * 2 > slots_.size()) rehash(live_ + names);
}

void NameIndex::rehash(std::size_t live) {
  // At most a third full afterwards: growth doubles the table, and a
  // compaction leaves room for tombstones before the next one.
  const std::size_t cap = std::bit_ceil(std::max<std::size_t>(16, live * 3));
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(cap, Slot{});
  const bool compact = dead_bytes_ > 0;
  std::string arena;
  if (compact) arena.reserve(arena_.size() - dead_bytes_);
  for (const Slot& s : old) {
    if (s.entry == kEmpty || s.entry == kTombstone) continue;
    Slot& to = slots_[empty_slot(s.hash)];
    to = s;
    if (compact) {
      to.entry = static_cast<std::uint32_t>(arena.size());
      arena.append(arena_, s.entry, kHeader + key_at(s.entry).size());
    }
  }
  if (compact) arena_ = std::move(arena);
  used_ = live_;
  dead_bytes_ = 0;
}

}  // namespace tv
