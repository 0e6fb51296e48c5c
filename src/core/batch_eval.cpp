#include "core/batch_eval.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "core/propagate.hpp"
#include "core/scc.hpp"
#include "util/fault.hpp"

namespace tv {

BatchSchedule build_batch_schedule(const Netlist& nl) {
  // Vertices are primitives; an edge P -> Q for every consumer Q on P's
  // output call list. Checkers drive nothing and are never evaluated, so
  // they contribute no edges and their singleton components are dropped.
  std::vector<std::vector<std::uint32_t>> adj(nl.num_prims());
  for (PrimId pid = 0; pid < nl.num_prims(); ++pid) {
    const Primitive& p = nl.prim(pid);
    if (prim_is_checker(p.kind) || p.output == kNoSignal) continue;
    for (PrimId consumer : nl.signal(p.output).fanout) {
      if (!prim_is_checker(nl.prim(consumer).kind)) adj[pid].push_back(consumer);
    }
  }
  std::vector<std::vector<std::uint32_t>> comps = strongly_connected_components(adj);
  BatchSchedule sched;
  sched.components.reserve(comps.size());
  sched.in_cycle.assign(nl.num_prims(), 0);
  // Tarjan emits reverse topological order; the sweep wants sources first.
  for (auto it = comps.rbegin(); it != comps.rend(); ++it) {
    if (it->size() == 1) {
      const Primitive& p = nl.prim((*it)[0]);
      if (prim_is_checker(p.kind) || p.output == kNoSignal) continue;
    }
    BatchSchedule::Component comp;
    comp.prims = std::move(*it);
    std::sort(comp.prims.begin(), comp.prims.end());
    comp.cyclic = comp.prims.size() > 1;
    if (!comp.cyclic) {
      for (std::uint32_t succ : adj[comp.prims[0]]) {
        if (succ == comp.prims[0]) {
          comp.cyclic = true;
          break;
        }
      }
    }
    if (comp.cyclic) {
      for (PrimId pid : comp.prims) sched.in_cycle[pid] = 1;
    }
    sched.components.push_back(std::move(comp));
  }
  sched.position.assign(nl.num_prims(), BatchSchedule::kNoPosition);
  for (std::size_t c = 0; c < sched.components.size(); ++c) {
    for (PrimId pid : sched.components[c].prims) {
      sched.position[pid] = static_cast<std::uint32_t>(c);
    }
  }
  return sched;
}

void LaneReach::prove(const Netlist& nl, const std::vector<std::int32_t>& row_of,
                      const std::vector<SignalId>& row_sig, const std::vector<CaseSpec>& cases,
                      std::size_t first) {
  for (const auto& [row, lane] : moves_) {
    const std::vector<std::pair<SignalId, Value>>& pins = cases[first + lane].pins;
    auto reached = [&](SignalId sig) {
      for (const auto& pin : pins) {
        if (pin.first == sig) return true;
      }
      const std::int32_t r = row_of[sig];
      return r >= 0 && cells_[static_cast<std::size_t>(r) * lanes_ + lane] == kReached;
    };
    const SignalId sig = row_sig[row];
    bool ok = reached(sig);  // a pin of the lane
    if (const PrimId driver = nl.signal(sig).driver; !ok && driver != kNoPrim) {
      for (const Pin& in : nl.prim(driver).inputs) {
        if (reached(in.sig)) {
          ok = true;
          break;
        }
      }
    }
    if (!ok) {
      throw std::logic_error("batch sweep: case \"" + cases[first + lane].name + "\" moved \"" +
                             nl.signal(sig).full_name + "\" outside its cone");
    }
    cells_[static_cast<std::size_t>(row) * lanes_ + lane] = kReached;
  }
}

namespace {

/// One block's lockstep sweep. Scratch arrays are members so the per-prim
/// inner loops never allocate in steady state.
class BlockSweep {
 public:
  BlockSweep(const Netlist& nl, const VerifierOptions& opts, const BatchSchedule& sched,
             InternContext& ctx, const std::vector<WaveformRef>& base_refs,
             const std::vector<CaseSpec>& cases, std::size_t first, std::size_t count,
             std::vector<EvalSnapshot>& snaps)
      : nl_(nl),
        opts_(opts),
        sched_(sched),
        ctx_(ctx),
        base_refs_(base_refs),
        cases_(cases),
        first_(first),
        lanes_(count),
        snaps_(snaps),
        arena_(count),
        reach_(count) {}

  BatchBlockResult run() {
    res_.lanes.resize(lanes_);
    // Fault-site parity with the per-case runner: one injectable check per
    // case instance, so chaos runs exercise both engines alike.
    for (std::size_t l = 0; l < lanes_; ++l) fault::check("snapshot.case");
    // max_evals_per_prim == 0 makes the per-case guard trip before any
    // evaluation -- a degenerate configuration the sweep can't mirror, so
    // defer it to the reference path.
    if (opts_.max_evals_per_prim == 0) return std::move(res_);
    row_of_.assign(nl_.num_signals(), -1);
    pending_.assign((sched_.components.size() + 63) / 64, 0);
    dirty_.assign(lanes_, 0);
    lane_changed_.assign(lanes_, 0);
    if (!seed_lanes()) return std::move(res_);
    if (!sweep()) return std::move(res_);
    materialize();
    res_.completed = true;
    return std::move(res_);
  }

 private:
  /// The arena row of `sig`, added (filled with the baseline) on first
  /// use. Sets abort_ and returns -1 for an uninterned baseline.
  std::int32_t ensure_row(SignalId sig) {
    std::int32_t& row = row_of_[sig];
    if (row >= 0) return row;
    WaveformRef br = sig < base_refs_.size() ? base_refs_[sig] : kNoWaveform;
    if (br == kNoWaveform) {
      abort_ = true;
      return -1;
    }
    std::uint32_t bs = pool_.intern(nl_.signal(sig).eval_str);
    row = static_cast<std::int32_t>(arena_.add_row(br, bs));
    row_sig_.push_back(sig);
    base_ref_.push_back(br);
    base_str_.push_back(bs);
    seg_degraded_.resize(seg_degraded_.size() + lanes_, 0);
    reach_.add_row();
    return row;
  }

  /// Marks a component for the sweep. The component being evaluated is
  /// skipped: a cyclic one iterates over its own members.
  void enqueue(PrimId pid) {
    std::uint32_t pos = sched_.position[pid];
    if (pos == BatchSchedule::kNoPosition || pos == current_) return;
    pending_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
  }
  void enqueue_fanout(SignalId sig) {
    for (PrimId consumer : nl_.signal(sig).fanout) enqueue(consumer);
  }

  /// Case maps per pinned signal. A pinned driven signal recomputes via its
  /// forced-dirty driver, exactly like the per-case enqueue; a pinned
  /// undriven one is reseeded directly and its consumers enqueued.
  bool seed_lanes() {
    Waveform unknown(opts_.period, Value::Unknown);
    unknown.canonicalize();
    unknown_ref_ = ctx_.table.intern(unknown);
    if (unknown_ref_ == kNoWaveform) return false;
    for (std::size_t l = 0; l < lanes_; ++l) {
      for (const auto& [sig, val] : cases_[first_ + l].pins) {
        if (val != Value::Zero && val != Value::One) {
          throw std::invalid_argument("case values must be 0 or 1");
        }
        auto [it, fresh] = case_map_.try_emplace(sig);
        if (fresh) it->second.assign(lanes_, -1);
        it->second[l] = static_cast<std::int8_t>(val);
      }
    }
    for (auto& [sig, lane_vals] : case_map_) {
      const Signal& s = nl_.signal(sig);
      if (s.driver != kNoPrim) {
        enqueue(s.driver);
        continue;
      }
      const WaveformRef br = sig < base_refs_.size() ? base_refs_[sig] : kNoWaveform;
      Waveform base_seed = seed_waveform(s, opts_);
      WaveformRef seeded[2] = {kNoWaveform, kNoWaveform};
      bool moved = false;
      for (std::size_t l = 0; l < lanes_; ++l) {
        std::int8_t v = lane_vals[l];
        if (v < 0) continue;
        if (seeded[v] == kNoWaveform) {
          Waveform w = base_seed.replaced(Value::Stable, static_cast<Value>(v));
          w.canonicalize();
          seeded[v] = ctx_.table.intern(w);
          if (seeded[v] == kNoWaveform) return false;
        }
        if (seeded[v] == br) continue;
        // A reseeded signal's evaluation string is empty, same as its
        // baseline seed: only the ref cell carries the divergence.
        std::int32_t row = ensure_row(sig);
        if (row < 0) return false;
        arena_.refs(static_cast<std::size_t>(row))[l] = seeded[v];
        reach_.mark_moved(static_cast<std::size_t>(row), l);
        moved = true;
      }
      if (moved) enqueue_fanout(sig);
    }
    return true;
  }

  /// Drains the pending components in schedule (topological) order. A
  /// changed cell only ever enqueues later components, so one ascending
  /// pass sees every component after all its producers. Cyclic components
  /// iterate to an intra-component fixpoint under the oscillation guard.
  bool sweep() {
    for (std::size_t w = 0; w < pending_.size(); ++w) {
      while (pending_[w] != 0) {
        current_ = static_cast<std::uint32_t>(w * 64 + std::countr_zero(pending_[w]));
        pending_[w] &= pending_[w] - 1;
        const BatchSchedule::Component& comp = sched_.components[current_];
        if (!comp.cyclic) {
          eval_prim(comp.prims[0]);
          if (abort_) return false;
          continue;
        }
        for (std::size_t iter = 0; iter < opts_.max_evals_per_prim; ++iter) {
          std::fill(lane_changed_.begin(), lane_changed_.end(), 0);
          bool any = false;
          for (PrimId pid : comp.prims) {
            any = eval_prim(pid) || any;
            if (abort_) return false;
          }
          if (!any) break;
          if (iter + 1 == opts_.max_evals_per_prim) {
            // Still changing at the cap: those lanes oscillate, mirroring
            // the per-case eval-count guard.
            for (std::size_t l = 0; l < lanes_; ++l) {
              if (lane_changed_[l]) res_.lanes[l].converged = false;
            }
          }
        }
      }
    }
    return true;
  }

  /// Evaluates one primitive across all dirty lanes and enqueues the
  /// consumers of its output when a lane's cell changed. Returns true on
  /// such a change; sets abort_ when the table fills.
  bool eval_prim(PrimId pid) {
    const Primitive& p = nl_.prim(pid);
    if (prim_is_checker(p.kind) || p.output == kNoSignal) return false;
    const std::size_t nin = p.inputs.size();
    const std::size_t L = lanes_;

    // Dirty mask: a lane evaluates here iff its output is case-mapped (the
    // per-case "reseed the pinned signal's driver" rule) or any input cell
    // diverged from the base fixpoint. Everything else provably still
    // holds the base value and is skipped. These loops are the hot path --
    // flat passes over adjacent u32 cells, no calls, no branches beyond
    // the accumulate.
    const std::vector<std::int8_t>* maps = nullptr;
    if (auto it = case_map_.find(p.output); it != case_map_.end()) maps = &it->second;
    if (maps) {
      const std::int8_t* mv = maps->data();
      for (std::size_t l = 0; l < L; ++l) {
        dirty_[l] = static_cast<std::uint8_t>(mv[l] >= 0);
      }
    } else {
      std::fill(dirty_.begin(), dirty_.end(), 0);
    }
    in_row_.clear();
    for (const Pin& pin : p.inputs) in_row_.push_back(row_of_[pin.sig]);
    for (std::size_t i = 0; i < nin; ++i) {
      std::int32_t row = in_row_[i];
      if (row < 0) continue;  // no lane moved this input: at base everywhere
      const WaveformRef* rr = arena_.refs(static_cast<std::size_t>(row));
      const std::uint32_t* ss = arena_.strs(static_cast<std::size_t>(row));
      const WaveformRef br = base_ref_[static_cast<std::size_t>(row)];
      const std::uint32_t bs = base_str_[static_cast<std::size_t>(row)];
      for (std::size_t l = 0; l < L; ++l) {
        dirty_[l] = static_cast<std::uint8_t>(dirty_[l] | (rr[l] != br) | (ss[l] != bs));
      }
    }

    // A visited primitive is often dirty in no lane at all (a divergence
    // that converged back to the base waveform in every lane that reached
    // it); skip the key build and lane loop outright.
    bool any_dirty = false;
    for (std::size_t l = 0; l < L; ++l) any_dirty = any_dirty || dirty_[l];
    if (!any_dirty) {
      for (std::size_t l = 0; l < L; ++l) ++res_.lanes[l].lane_skips;
      return false;
    }

    // Lane keys are built over interned refs: an uninterned baseline input
    // defers the block to the per-case path.
    for (const Pin& pin : p.inputs) {
      if (pin.sig >= base_refs_.size() || base_refs_[pin.sig] == kNoWaveform) {
        abort_ = true;
        return false;
      }
    }
    in_base_ref_.clear();
    in_base_str_.clear();
    for (std::size_t i = 0; i < nin; ++i) {
      std::int32_t row = in_row_[i];
      WaveformRef br = row >= 0 ? base_ref_[static_cast<std::size_t>(row)]
                                : base_refs_[p.inputs[i].sig];
      std::uint32_t bs = row >= 0 ? base_str_[static_cast<std::size_t>(row)]
                                  : pool_.intern(nl_.signal(p.inputs[i].sig).eval_str);
      in_base_ref_.push_back(br);
      in_base_str_.push_back(bs);
    }
    lane_ref_.assign(nin, kNoWaveform);
    lane_str_.assign(nin, 0);
    prev_ref_.assign(nin, kNoWaveform);
    prev_str_.assign(nin, 0);

    // The output row exists once some lane moved the output; until then
    // every lane's cell is the baseline.
    std::int32_t out_row = row_of_[p.output];
    const WaveformRef out_base_ref =
        p.output < base_refs_.size() ? base_refs_[p.output] : kNoWaveform;
    const std::uint32_t out_base_str = pool_.intern(nl_.signal(p.output).eval_str);
    WaveformRef* out_r = nullptr;
    std::uint32_t* out_s = nullptr;
    auto bind_output = [&]() -> bool {
      if (out_row < 0) {
        out_row = ensure_row(p.output);
        if (out_row < 0) return false;
        // A self-loop reads its own output: later lanes read the new row.
        for (std::size_t i = 0; i < nin; ++i) {
          if (p.inputs[i].sig == p.output) in_row_[i] = out_row;
        }
      }
      out_r = arena_.refs(static_cast<std::size_t>(out_row));
      out_s = arena_.strs(static_cast<std::size_t>(out_row));
      return true;
    };
    if (out_row >= 0) bind_output();

    bool any = false;
    bool have_prev = false;
    std::int8_t prev_map = -1;
    WaveformRef prev_final = kNoWaveform;
    std::uint32_t prev_final_str = 0;

    for (std::size_t l = 0; l < L; ++l) {
      if (!dirty_[l]) {
        ++res_.lanes[l].lane_skips;
        continue;
      }
      for (std::size_t i = 0; i < nin; ++i) {
        std::int32_t row = in_row_[i];
        lane_ref_[i] = row >= 0 ? arena_.refs(static_cast<std::size_t>(row))[l]
                                : in_base_ref_[i];
        lane_str_[i] = row >= 0 ? arena_.strs(static_cast<std::size_t>(row))[l]
                                : in_base_str_[i];
      }
      std::int8_t mv = maps ? (*maps)[l] : -1;
      ++res_.lanes[l].evals;
      // Adjacent lanes frequently present identical inputs (a sweep that
      // pins the same control both ways alternates only one pin); reuse the
      // previous lane's result outright when they match.
      if (!(have_prev && mv == prev_map && lane_ref_ == prev_ref_ &&
            lane_str_ == prev_str_)) {
        key_.start(p);
        for (std::size_t i = 0; i < nin; ++i) {
          const Pin& pin = p.inputs[i];
          add_memo_pin(key_, lane_ref_[i], pin, nl_.signal(pin.sig), opts_,
                       pool_.str(lane_str_[i]));
        }
        WaveformRef raw;
        std::uint32_t raw_str;
        if (std::optional<MemoResult> hit = ctx_.memo.lookup(key_)) {
          raw = hit->wave;
          raw_str = pool_.intern(hit->eval_str);
        } else {
          ins_.clear();
          for (std::size_t i = 0; i < nin; ++i) {
            const Pin& pin = p.inputs[i];
            ins_.push_back(prepare_input(pin, nl_.signal(pin.sig),
                                         ctx_.table.get(lane_ref_[i]),
                                         pool_.str(lane_str_[i]), opts_));
          }
          PrimEvalResult r = evaluate_primitive(p, ins_, opts_.period);
          raw = ctx_.table.intern(r.wave);
          if (raw == kNoWaveform) {
            abort_ = true;
            return any;
          }
          ctx_.memo.store(key_, MemoResult{raw, r.eval_str});
          raw_str = pool_.intern(r.eval_str);
        }
        // Case map and segment cap, mirroring the engine's commit step.
        WaveformRef final_ref = raw;
        if (mv >= 0) {
          Waveform w = ctx_.table.get(raw).replaced(Value::Stable, static_cast<Value>(mv));
          w.canonicalize();
          final_ref = ctx_.table.intern(w);
          if (final_ref == kNoWaveform) {
            abort_ = true;
            return any;
          }
        }
        if (opts_.max_segments_per_signal != 0 &&
            ctx_.table.get(final_ref).segments().size() > opts_.max_segments_per_signal) {
          // The once-per-cell record needs the cell's row.
          if (!bind_output()) return any;
          std::size_t cell = static_cast<std::size_t>(out_row) * L + l;
          if (!seg_degraded_[cell]) {
            seg_degraded_[cell] = 1;
            res_.lanes[l].degraded = true;
            res_.lanes[l].degradations.push_back(
                segment_cap_degradation(nl_.signal(p.output), opts_.max_segments_per_signal));
          }
          final_ref = unknown_ref_;
        }
        prev_final = final_ref;
        prev_final_str = raw_str;
        prev_map = mv;
        prev_ref_ = lane_ref_;
        prev_str_ = lane_str_;
        have_prev = true;
      }
      const WaveformRef cur_ref = out_r ? out_r[l] : out_base_ref;
      const std::uint32_t cur_str = out_s ? out_s[l] : out_base_str;
      if (prev_final != cur_ref || prev_final_str != cur_str) {
        if (!out_r && !bind_output()) return any;
        out_r[l] = prev_final;
        out_s[l] = prev_final_str;
        reach_.mark_moved(static_cast<std::size_t>(out_row), l);
        lane_changed_[l] = 1;
        any = true;
      }
    }
    if (any) enqueue_fanout(p.output);
    return any;
  }

  /// Writes each lane's divergences from base into its snapshot -- the same
  /// final shape the per-case runner leaves, so checking is shared. Only
  /// rows some lane moved exist, so this walks the diverged rows alone.
  /// The snapshots hold no cone, so the lanes' reach is proven first, with
  /// every diverged cell counted as moved: a write that skipped mark_moved
  /// cannot escape the proof either.
  void materialize() {
    for_each_diverged([&](std::size_t r, std::size_t l) { reach_.mark_moved(r, l); });
    reach_.prove(nl_, row_of_, row_sig_, cases_, first_);
    for_each_diverged([&](std::size_t r, std::size_t l) {
      snaps_[l].set_ref(row_sig_[r], arena_.refs(r)[l], pool_.str(arena_.strs(r)[l]));
    });
  }

  /// Calls fn(row, lane) for every cell that differs from the base fixpoint.
  template <class Fn>
  void for_each_diverged(const Fn& fn) const {
    for (std::size_t r = 0; r < row_sig_.size(); ++r) {
      const WaveformRef* rr = arena_.refs(r);
      const std::uint32_t* ss = arena_.strs(r);
      for (std::size_t l = 0; l < lanes_; ++l) {
        if (rr[l] != base_ref_[r] || ss[l] != base_str_[r]) fn(r, l);
      }
    }
  }

  const Netlist& nl_;
  const VerifierOptions& opts_;
  const BatchSchedule& sched_;
  InternContext& ctx_;
  const std::vector<WaveformRef>& base_refs_;
  const std::vector<CaseSpec>& cases_;
  const std::size_t first_;
  const std::size_t lanes_;
  std::vector<EvalSnapshot>& snaps_;

  BatchBlockResult res_;
  EvalStrPool pool_;
  BatchArena arena_;
  std::vector<std::int32_t> row_of_;   // SignalId -> arena row, -1 at base in every lane
  std::vector<SignalId> row_sig_;      // arena row -> SignalId
  std::vector<WaveformRef> base_ref_;  // per-row baseline ref
  std::vector<std::uint32_t> base_str_;
  std::unordered_map<SignalId, std::vector<std::int8_t>> case_map_;
  std::vector<char> seg_degraded_;     // [row][lane]: segment cap already fired
  LaneReach reach_;                    // [row][lane]: cells each lane moved
  std::vector<std::uint64_t> pending_;  // schedule positions awaiting a visit
  std::uint32_t current_ = BatchSchedule::kNoPosition;  // component being evaluated
  WaveformRef unknown_ref_ = kNoWaveform;
  bool abort_ = false;

  // Per-primitive scratch (member so the sweep never allocates in steady
  // state).
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint8_t> lane_changed_;
  std::vector<std::int32_t> in_row_;
  std::vector<WaveformRef> in_base_ref_;
  std::vector<std::uint32_t> in_base_str_;
  MemoKey key_;
  std::vector<WaveformRef> lane_ref_;
  std::vector<std::uint32_t> lane_str_;
  std::vector<WaveformRef> prev_ref_;
  std::vector<std::uint32_t> prev_str_;
  std::vector<PreparedInput> ins_;
};

}  // namespace

BatchBlockResult run_case_block(const Netlist& nl, const VerifierOptions& opts,
                                const BatchSchedule& sched, InternContext& ctx,
                                const std::vector<WaveformRef>& base_refs,
                                const std::vector<CaseSpec>& cases,
                                std::size_t first, std::size_t count,
                                const std::vector<std::shared_ptr<const Cone>>& cones,
                                std::vector<EvalSnapshot>& snaps) {
  // Not read: the sweep follows the disturbance, and materialize proves
  // each lane's writes lie in its cone without one.
  (void)cones;
  return BlockSweep(nl, opts, sched, ctx, base_refs, cases, first, count, snaps).run();
}

}  // namespace tv
