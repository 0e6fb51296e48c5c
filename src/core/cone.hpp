// Fanout-cone extraction for case analysis (thesis secs. 2.7, 3.3.2).
//
// A case specification pins a handful of control signals; the only parts of
// the circuit its evaluation can disturb are the pinned signals themselves,
// their drivers (which recompute under the case mapping), and everything
// downstream through the fanout call lists. The ConeIndex precomputes that
// transitive *affected cone* -- the signal set, the primitive set (checkers
// included, since their checks must be re-run), and O(1) slot maps that let
// a snapshot store per-cone evaluation state in dense cone-local arrays.
//
// A cone costs its own size, not the netlist's. Each slot map is a bitmap
// with one bit per id plus one 32-bit prefix count per 64-bit word (12 bytes
// per 64 ids, a 21st of an int32 array); a member's slot is its rank among
// the set bits. The index keeps a compact CSR copy of the fanout graph
// (signal -> consumer primitives, primitive -> the signal it drives), so a
// BFS touches only cone members and the ascending member lists fall out of
// one scan over the set bits: O(|cone| + N/64) time and memory per cone.
//
// Cones are memoized by pin set: the common case file pins the same control
// signals over and over with different values (CONTROL=0 / CONTROL=1), so
// one BFS serves every case on that pin set.
#pragma once

#include <bit>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "core/netlist.hpp"

namespace tv {

/// Membership and cone-local slot of ids drawn from [0, n). Ids are
/// marked first; finish() then fixes the ranks and lists the members, after
/// which a member's slot is its index in that ascending list.
class SlotMap {
 public:
  explicit SlotMap(std::size_t n) : bits_((n + 63) / 64, 0), rank_(bits_.size(), 0) {}

  /// Sets `id`'s bit; true when it was clear. Only valid before finish().
  bool mark(std::uint32_t id) {
    std::uint64_t& word = bits_[id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if (word & bit) return false;
    word |= bit;
    return true;
  }

  bool contains(std::uint32_t id) const { return (bits_[id >> 6] >> (id & 63)) & 1; }

  /// Cone-local slot of `id`, or -1 outside the set.
  std::int32_t operator[](std::uint32_t id) const {
    const std::uint64_t word = bits_[id >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (id & 63);
    if (!(word & bit)) return -1;
    return static_cast<std::int32_t>(rank_[id >> 6]) + std::popcount(word & (bit - 1));
  }

  /// Fixes every word's prefix count and replaces `members` with the
  /// marked ids, ascending.
  void finish(std::vector<std::uint32_t>& members);

 private:
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> rank_;  // set bits in all earlier words
};

/// The transitive affected cone of one pin set.
struct Cone {
  /// An empty cone over a netlist of this size, ready for marking.
  Cone(std::size_t num_signals, std::size_t num_prims)
      : signal_slot(num_signals), prim_slot(num_prims) {}

  /// Affected signals, ascending. Includes the pinned signals.
  std::vector<SignalId> signals;
  /// Affected primitives, ascending: the pinned signals' drivers, every
  /// fanout primitive of every affected signal. Checkers appear here (their
  /// constraints must be re-examined) but are never enqueued for evaluation.
  std::vector<PrimId> prims;

  /// Cone-local slot of each signal/primitive (its index in `signals` /
  /// `prims`), or -1 outside the cone.
  SlotMap signal_slot;
  SlotMap prim_slot;

  bool contains_signal(SignalId id) const { return signal_slot.contains(id); }
  bool contains_prim(PrimId id) const { return prim_slot.contains(id); }
};

class ConeIndex {
 public:
  /// The netlist must be finalized (fanout call lists computed) and must
  /// outlive the index; structural edits invalidate it.
  explicit ConeIndex(const Netlist& nl);

  /// The affected cone of `pins` (order and duplicates irrelevant).
  /// Memoized: repeated pin sets share one Cone. Thread-safe.
  std::shared_ptr<const Cone> cone_of(std::vector<SignalId> pins) const;

  std::size_t cache_size() const;

  /// False once the netlist's fanout graph changed after construction (it
  /// was re-finalized, bumping structure_version(), or definalized by an
  /// edit). A stale index must be discarded -- its fanout copy and memoized
  /// cones describe the old graph and would silently skip retargeted
  /// connections.
  bool is_current() const {
    return nl_.finalized() && nl_.structure_version() == version_;
  }

 private:
  std::shared_ptr<const Cone> compute(const std::vector<SignalId>& pins) const;

  const Netlist& nl_;
  std::uint64_t version_ = 0;
  // The fanout graph as of construction, in CSR form: the consumers of
  // signal s are fanout_[fanout_begin_[s] .. fanout_begin_[s + 1]).
  std::vector<std::uint32_t> fanout_begin_;
  std::vector<PrimId> fanout_;
  std::vector<PrimId> driver_;      // SignalId -> driving primitive or kNoPrim
  std::vector<SignalId> drives_;    // PrimId -> output, kNoSignal for checkers
  mutable std::mutex mu_;
  mutable std::map<std::vector<SignalId>, std::shared_ptr<const Cone>> cache_;
};

}  // namespace tv
