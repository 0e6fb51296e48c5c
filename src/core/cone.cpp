#include "core/cone.hpp"

#include <algorithm>
#include <stdexcept>

namespace tv {

void SlotMap::finish(std::vector<std::uint32_t>& members) {
  members.clear();
  for (std::size_t w = 0; w < bits_.size(); ++w) {
    rank_[w] = static_cast<std::uint32_t>(members.size());
    for (std::uint64_t word = bits_[w]; word != 0; word &= word - 1) {
      members.push_back(static_cast<std::uint32_t>(w * 64 + std::countr_zero(word)));
    }
  }
}

ConeIndex::ConeIndex(const Netlist& nl) : nl_(nl), version_(nl.structure_version()) {
  if (!nl.finalized()) {
    throw std::logic_error("ConeIndex requires a finalized netlist");
  }
  fanout_begin_.reserve(nl.num_signals() + 1);
  driver_.reserve(nl.num_signals());
  fanout_begin_.push_back(0);
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    fanout_.insert(fanout_.end(), s.fanout.begin(), s.fanout.end());
    fanout_begin_.push_back(static_cast<std::uint32_t>(fanout_.size()));
    driver_.push_back(s.driver);
  }
  // A checker consumes cone signals but drives nothing; a functional
  // primitive propagates the disturbance to its output signal.
  drives_.reserve(nl.num_prims());
  for (PrimId id = 0; id < nl.num_prims(); ++id) {
    const Primitive& p = nl.prim(id);
    drives_.push_back(prim_is_checker(p.kind) ? kNoSignal : p.output);
  }
}

std::shared_ptr<const Cone> ConeIndex::cone_of(std::vector<SignalId> pins) const {
  std::sort(pins.begin(), pins.end());
  pins.erase(std::unique(pins.begin(), pins.end()), pins.end());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(pins);
    if (it != cache_.end()) return it->second;
  }
  std::shared_ptr<const Cone> cone = compute(pins);
  std::lock_guard<std::mutex> lock(mu_);
  // Two threads may have raced to compute the same cone; keep the first.
  return cache_.emplace(std::move(pins), std::move(cone)).first->second;
}

std::shared_ptr<const Cone> ConeIndex::compute(const std::vector<SignalId>& pins) const {
  auto cone = std::make_shared<Cone>(driver_.size(), drives_.size());

  std::vector<SignalId> stack;
  auto mark_signal = [&](SignalId id) {
    if (cone->signal_slot.mark(id)) stack.push_back(id);
  };
  auto mark_prim = [&](PrimId id) {
    if (cone->prim_slot.mark(id) && drives_[id] != kNoSignal) mark_signal(drives_[id]);
  };

  for (SignalId id : pins) {
    if (id >= driver_.size()) throw std::out_of_range("case pins unknown signal");
    mark_signal(id);
    // The driver re-evaluates so the case mapping is applied to its output;
    // its inputs are untouched, so marking it does not widen the cone.
    if (driver_[id] != kNoPrim) mark_prim(driver_[id]);
  }
  while (!stack.empty()) {
    SignalId id = stack.back();
    stack.pop_back();
    for (std::uint32_t e = fanout_begin_[id]; e < fanout_begin_[id + 1]; ++e) {
      mark_prim(fanout_[e]);
    }
  }

  cone->signal_slot.finish(cone->signals);
  cone->prim_slot.finish(cone->prims);
  return cone;
}

std::size_t ConeIndex::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace tv
