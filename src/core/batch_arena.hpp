// Structure-of-arrays evaluation arena for batch case analysis.
//
// The batch engine (core/batch_eval.hpp) evaluates many case instances --
// "lanes" -- in lockstep over one topological sweep of the design. Its
// working state is deliberately *structure-of-arrays*: for every signal row
// the per-lane interned waveform refs (wave_table.hpp's 32-bit handles) are
// laid out contiguously, `[signal][lane]`, so the hot inner loops -- "which
// lanes differ from the base fixpoint at this input?" and "did this lane's
// output change?" -- are branch-minimal passes over adjacent u32 cells that
// the compiler can vectorize. The same layout is what a future SIMD or GPU
// corner sweep (ROADMAP items 3-4) consumes unchanged: one row is one
// coalesced load.
//
// Evaluation strings ride along in a parallel `[signal][lane]` array of
// small integer ids backed by a run-local EvalStrPool, so the "lane equals
// base" test stays a pair of integer compares even for signals carrying
// hazard directives.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/wave_table.hpp"
#include "util/intern_index.hpp"

namespace tv {

/// Run-local intern pool for evaluation strings. Dense u32 ids make string
/// equality an integer compare inside the lane loops; id 0 is always the
/// empty string (the overwhelmingly common case -- only hazard-directive
/// propagation produces non-empty strings). Each string is held once, in
/// `strs_`; the index maps its hash to its id. Not thread-safe: each case
/// block owns one pool.
class EvalStrPool {
 public:
  EvalStrPool() { strs_.emplace_back(); }  // id 0 = "", never indexed

  std::uint32_t intern(const std::string& s) {
    if (s.empty()) return 0;
    const InternIndex::Probe p =
        ids_.probe(static_cast<std::uint32_t>(std::hash<std::string_view>{}(s)),
                   [&](std::uint32_t id) { return strs_[id] == s; });
    if (p.id != InternIndex::kAbsent) return p.id;
    ids_.insert(p, strs_.size());
    strs_.push_back(s);
    return static_cast<std::uint32_t>(strs_.size() - 1);
  }

  const std::string& str(std::uint32_t id) const { return strs_[id]; }
  std::size_t size() const { return strs_.size(); }

 private:
  std::vector<std::string> strs_;
  InternIndex ids_;
};

/// The SoA lane state of one case block: one row per signal some lane has
/// moved off the baseline, by `lanes` case instances. refs(row)[lane] is
/// the lane's current interned waveform for that signal; strs(row)[lane]
/// its evaluation-string id. A row is added the first time one of its
/// cells diverges and starts filled with the baseline fixpoint, so "lane is
/// at base" is the natural initial state and dirtiness is always an
/// explicit divergence. Adding a row may move every row: re-fetch row
/// pointers after add_row().
class BatchArena {
 public:
  explicit BatchArena(std::size_t lanes) : lanes_(lanes) {}

  std::size_t rows() const { return rows_; }
  std::size_t lanes() const { return lanes_; }

  WaveformRef* refs(std::size_t row) { return refs_.data() + row * lanes_; }
  const WaveformRef* refs(std::size_t row) const { return refs_.data() + row * lanes_; }
  std::uint32_t* strs(std::size_t row) { return strs_.data() + row * lanes_; }
  const std::uint32_t* strs(std::size_t row) const { return strs_.data() + row * lanes_; }

  /// Appends a row with every lane at the baseline (ref, string-id) pair;
  /// returns its index.
  std::size_t add_row(WaveformRef ref, std::uint32_t str_id) {
    refs_.resize(refs_.size() + lanes_, ref);
    strs_.resize(strs_.size() + lanes_, str_id);
    return rows_++;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t lanes_;
  std::vector<WaveformRef> refs_;   // [row][lane], contiguous per row
  std::vector<std::uint32_t> strs_;  // parallel eval-string ids
};

}  // namespace tv
