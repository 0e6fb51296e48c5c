#include "core/name_index.hpp"

#include <cstring>
#include <functional>

namespace tv {

namespace {

std::uint32_t load_u32(const char* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

void store_u32(char* p, std::uint32_t v) { std::memcpy(p, &v, sizeof v); }

}  // namespace

std::string_view NameIndex::key_at(std::uint32_t entry) const {
  const char* e = arena_.data() + entry;
  return std::string_view(e + kHeader, load_u32(e + sizeof(std::uint32_t)));
}

NameIndex::Probe NameIndex::probe(std::string_view name) const {
  const auto h = static_cast<std::uint32_t>(std::hash<std::string_view>{}(name));
  const InternIndex::Probe at =
      index_.probe(h, [&](std::uint32_t entry) { return key_at(entry) == name; });
  return Probe{at.id == InternIndex::kAbsent ? kAbsent : load_u32(arena_.data() + at.id), at};
}

void NameIndex::insert(const Probe& at, std::string_view name, SignalId id) {
  index_.insert(at.at, arena_.size());
  char header[kHeader];
  store_u32(header, id);
  store_u32(header + sizeof(std::uint32_t), static_cast<std::uint32_t>(name.size()));
  arena_.append(header, kHeader);
  arena_.append(name);
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
    store_u32(arena_.data() + p.at.id, id);
  }
}

void NameIndex::erase(std::string_view name) {
  Probe p = probe(name);
  if (p.id == kAbsent) return;
  dead_bytes_ += kHeader + key_at(p.at.id).size();
  index_.erase(p.at);
  if (dead_bytes_ > 4096 && dead_bytes_ > arena_.size() - dead_bytes_) compact();
}

void NameIndex::compact() {
  std::string arena;
  arena.reserve(arena_.size() - dead_bytes_);
  index_.remap([&](std::uint32_t entry) {
    const auto moved = static_cast<std::uint32_t>(arena.size());
    arena.append(arena_, entry, kHeader + key_at(entry).size());
    return moved;
  });
  arena_ = std::move(arena);
  dead_bytes_ = 0;
}

}  // namespace tv
