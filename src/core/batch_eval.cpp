#include "core/batch_eval.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
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
  return sched;
}

namespace {

/// One block's lockstep sweep. Scratch arrays are members so the per-prim
/// inner loops never allocate.
class BlockSweep {
 public:
  BlockSweep(const Netlist& nl, const VerifierOptions& opts, const BatchSchedule& sched,
             InternContext& ctx, const std::vector<WaveformRef>& base_refs,
             const std::vector<CaseSpec>& cases, std::size_t first, std::size_t count,
             const std::vector<std::shared_ptr<const Cone>>& cones,
             std::vector<EvalSnapshot>& snaps)
      : nl_(nl),
        opts_(opts),
        sched_(sched),
        ctx_(ctx),
        base_refs_(base_refs),
        cases_(cases),
        first_(first),
        lanes_(count),
        cones_(cones),
        snaps_(snaps) {}

  BatchBlockResult run() {
    res_.lanes.resize(lanes_);
    // Fault-site parity with the per-case runner: one injectable check per
    // case instance, so chaos runs exercise both engines alike.
    for (std::size_t l = 0; l < lanes_; ++l) fault::check("snapshot.case");
    // max_evals_per_prim == 0 makes the per-case guard trip before any
    // evaluation -- a degenerate configuration the sweep can't mirror, so
    // defer it to the reference path.
    if (opts_.max_evals_per_prim == 0) return std::move(res_);
    if (!build_rows()) return std::move(res_);
    if (!seed_lanes()) return std::move(res_);
    if (!sweep()) return std::move(res_);
    materialize();
    res_.completed = true;
    return std::move(res_);
  }

 private:
  /// Union of the block's cones as dense rows; arena filled with baseline.
  bool build_rows() {
    row_of_.assign(nl_.num_signals(), -1);
    prim_in_.assign(nl_.num_prims(), 0);
    for (std::size_t l = 0; l < lanes_; ++l) {
      const Cone& cone = *cones_[first_ + l];
      for (SignalId s : cone.signals) {
        if (row_of_[s] < 0) {
          row_of_[s] = static_cast<std::int32_t>(row_sig_.size());
          row_sig_.push_back(s);
        }
      }
      for (PrimId p : cone.prims) prim_in_[p] = 1;
    }
    const std::size_t rows = row_sig_.size();
    base_ref_.resize(rows);
    base_str_.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) {
      SignalId s = row_sig_[r];
      WaveformRef br = s < base_refs_.size() ? base_refs_[s] : kNoWaveform;
      if (br == kNoWaveform) return false;  // uninterned baseline: defer
      base_ref_[r] = br;
      base_str_[r] = pool_.intern(nl_.signal(s).eval_str);
    }
    arena_ = std::make_unique<BatchArena>(rows, lanes_);
    for (std::size_t r = 0; r < rows; ++r) arena_->fill_row(r, base_ref_[r], base_str_[r]);
    seg_degraded_.assign(rows * lanes_, 0);
    dirty_.assign(lanes_, 0);
    lane_changed_.assign(lanes_, 0);
    return true;
  }

  /// Case maps per pinned signal, plus direct reseeding of pinned undriven
  /// signals (pinned driven signals recompute via their forced-dirty
  /// driver, exactly like the per-case enqueue).
  bool seed_lanes() {
    Waveform unknown(opts_.period, Value::Unknown);
    unknown.canonicalize();
    unknown_ref_ = ctx_.table.intern(std::move(unknown));
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
      if (s.driver != kNoPrim) continue;
      std::int32_t row = row_of_[sig];  // pinned signals are cone members
      Waveform base_seed = seed_waveform(s, opts_);
      WaveformRef seeded[2] = {kNoWaveform, kNoWaveform};
      WaveformRef* rr = arena_->refs(static_cast<std::size_t>(row));
      for (std::size_t l = 0; l < lanes_; ++l) {
        std::int8_t v = lane_vals[l];
        if (v < 0) continue;
        if (seeded[v] == kNoWaveform) {
          Waveform w = base_seed.replaced(Value::Stable, static_cast<Value>(v));
          w.canonicalize();
          seeded[v] = ctx_.table.intern(std::move(w));
          if (seeded[v] == kNoWaveform) return false;
        }
        // A reseeded signal's evaluation string is empty, same as its
        // baseline seed: only the ref cell carries the divergence.
        rr[l] = seeded[v];
      }
    }
    return true;
  }

  /// Walks the schedule once; cyclic components iterate to an
  /// intra-component fixpoint under the oscillation guard.
  bool sweep() {
    for (const BatchSchedule::Component& comp : sched_.components) {
      if (!comp.cyclic) {
        if (prim_in_[comp.prims[0]]) {
          eval_prim(comp.prims[0]);
          if (abort_) return false;
        }
        continue;
      }
      bool member = false;
      for (PrimId pid : comp.prims) member = member || prim_in_[pid];
      if (!member) continue;
      for (std::size_t iter = 0; iter < opts_.max_evals_per_prim; ++iter) {
        std::fill(lane_changed_.begin(), lane_changed_.end(), 0);
        bool any = false;
        for (PrimId pid : comp.prims) {
          if (!prim_in_[pid]) continue;
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
    return true;
  }

  /// Evaluates one primitive across all dirty lanes. Returns true when any
  /// lane's output cell changed; sets abort_ when the table fills.
  bool eval_prim(PrimId pid) {
    const Primitive& p = nl_.prim(pid);
    if (prim_is_checker(p.kind) || p.output == kNoSignal) return false;
    std::int32_t out_row = row_of_[p.output];
    if (out_row < 0) return false;
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
      if (row < 0) continue;  // input outside every cone: at base in all lanes
      const WaveformRef* rr = arena_->refs(static_cast<std::size_t>(row));
      const std::uint32_t* ss = arena_->strs(static_cast<std::size_t>(row));
      const WaveformRef br = base_ref_[static_cast<std::size_t>(row)];
      const std::uint32_t bs = base_str_[static_cast<std::size_t>(row)];
      for (std::size_t l = 0; l < L; ++l) {
        dirty_[l] = static_cast<std::uint8_t>(dirty_[l] | (rr[l] != br) | (ss[l] != bs));
      }
    }

    // Most primitives in the block's cone union are dirty in only a few
    // lanes (often none once a lane's divergence converges back to the base
    // waveform); skip the key build and lane loop outright when the whole
    // mask is clean.
    bool any_dirty = false;
    for (std::size_t l = 0; l < L; ++l) any_dirty = any_dirty || dirty_[l];
    if (!any_dirty) {
      for (std::size_t l = 0; l < L; ++l) ++res_.lanes[l].lane_skips;
      return false;
    }

    // Memo-key skeleton built once from the baseline; dirty lanes patch
    // refs (and the rare diverged directive string) in place instead of
    // re-running key construction per evaluation.
    MemoKey key;
    if (!build_memo_key(
            p, nl_, opts_,
            [this](SignalId s) { return s < base_refs_.size() ? base_refs_[s] : kNoWaveform; },
            [this](SignalId s) -> const std::string& { return nl_.signal(s).eval_str; },
            key)) {
      abort_ = true;  // uninterned baseline input: defer to per-case
      return false;
    }
    in_base_ref_.clear();
    in_base_str_.clear();
    cur_str_.clear();
    for (std::size_t i = 0; i < nin; ++i) {
      std::int32_t row = in_row_[i];
      WaveformRef br = row >= 0 ? base_ref_[static_cast<std::size_t>(row)]
                                : base_refs_[p.inputs[i].sig];
      std::uint32_t bs = row >= 0 ? base_str_[static_cast<std::size_t>(row)]
                                  : pool_.intern(nl_.signal(p.inputs[i].sig).eval_str);
      in_base_ref_.push_back(br);
      in_base_str_.push_back(bs);
      cur_str_.push_back(bs);  // the key currently holds the base string
    }
    lane_ref_.assign(nin, kNoWaveform);
    lane_str_.assign(nin, 0);
    prev_ref_.assign(nin, kNoWaveform);
    prev_str_.assign(nin, 0);

    WaveformRef* out_r = arena_->refs(static_cast<std::size_t>(out_row));
    std::uint32_t* out_s = arena_->strs(static_cast<std::size_t>(out_row));
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
        lane_ref_[i] = row >= 0 ? arena_->refs(static_cast<std::size_t>(row))[l]
                                : in_base_ref_[i];
        lane_str_[i] = row >= 0 ? arena_->strs(static_cast<std::size_t>(row))[l]
                                : in_base_str_[i];
      }
      std::int8_t mv = maps ? (*maps)[l] : -1;
      ++res_.lanes[l].evals;
      // Adjacent lanes frequently present identical inputs (a sweep that
      // pins the same control both ways alternates only one pin); reuse the
      // previous lane's result outright when they match.
      if (!(have_prev && mv == prev_map && lane_ref_ == prev_ref_ &&
            lane_str_ == prev_str_)) {
        for (std::size_t i = 0; i < nin; ++i) {
          key.pins[i].wave = lane_ref_[i];
          if (p.inputs[i].directives.empty() && lane_str_[i] != cur_str_[i]) {
            key.pins[i].dirs = pool_.str(lane_str_[i]);
            cur_str_[i] = lane_str_[i];
          }
        }
        WaveformRef raw;
        std::uint32_t raw_str;
        if (std::optional<MemoResult> hit = ctx_.memo.lookup(key)) {
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
          raw = ctx_.table.intern(std::move(r.wave));
          if (raw == kNoWaveform) {
            abort_ = true;
            return any;
          }
          ctx_.memo.store(key, MemoResult{raw, r.eval_str});
          raw_str = pool_.intern(r.eval_str);
        }
        // Case map and segment cap, mirroring the engine's commit step.
        WaveformRef final_ref = raw;
        if (mv >= 0) {
          Waveform w = ctx_.table.get(raw).replaced(Value::Stable, static_cast<Value>(mv));
          w.canonicalize();
          final_ref = ctx_.table.intern(std::move(w));
          if (final_ref == kNoWaveform) {
            abort_ = true;
            return any;
          }
        }
        if (opts_.max_segments_per_signal != 0 &&
            ctx_.table.get(final_ref).segments().size() > opts_.max_segments_per_signal) {
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
      if (prev_final != out_r[l] || prev_final_str != out_s[l]) {
        out_r[l] = prev_final;
        out_s[l] = prev_final_str;
        lane_changed_[l] = 1;
        any = true;
      }
    }
    return any;
  }

  /// Writes each lane's divergences from base into its snapshot -- the same
  /// final shape the per-case runner leaves, so checking is shared.
  void materialize() {
    for (std::size_t l = 0; l < lanes_; ++l) {
      EvalSnapshot& snap = snaps_[l];
      const Cone& cone = *cones_[first_ + l];
      for (SignalId sig : cone.signals) {
        std::size_t r = static_cast<std::size_t>(row_of_[sig]);
        WaveformRef fr = arena_->refs(r)[l];
        std::uint32_t fs = arena_->strs(r)[l];
        if (fr == base_ref_[r] && fs == base_str_[r]) continue;
        snap.set_ref(sig, fr, pool_.str(fs));
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
  const std::vector<std::shared_ptr<const Cone>>& cones_;
  std::vector<EvalSnapshot>& snaps_;

  BatchBlockResult res_;
  EvalStrPool pool_;
  std::unique_ptr<BatchArena> arena_;
  std::vector<std::int32_t> row_of_;   // SignalId -> arena row, -1 outside
  std::vector<SignalId> row_sig_;      // arena row -> SignalId
  std::vector<char> prim_in_;          // PrimId -> in some cone of the block
  std::vector<WaveformRef> base_ref_;  // per-row baseline ref
  std::vector<std::uint32_t> base_str_;
  std::unordered_map<SignalId, std::vector<std::int8_t>> case_map_;
  std::vector<char> seg_degraded_;  // [row][lane]: segment cap already fired
  WaveformRef unknown_ref_ = kNoWaveform;
  bool abort_ = false;

  // Per-primitive scratch (member so the sweep never allocates in steady
  // state).
  std::vector<std::uint8_t> dirty_;
  std::vector<std::uint8_t> lane_changed_;
  std::vector<std::int32_t> in_row_;
  std::vector<WaveformRef> in_base_ref_;
  std::vector<std::uint32_t> in_base_str_;
  std::vector<std::uint32_t> cur_str_;
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
  return BlockSweep(nl, opts, sched, ctx, base_refs, cases, first, count, cones, snaps)
      .run();
}

}  // namespace tv
