#include "core/checker.hpp"

#include <algorithm>
#include <tuple>

namespace tv {

namespace {

// Length of the steady run starting at `from` (capped at `cap` ps).
Time steady_run_from(const Waveform& w, Time from, Time cap) {
  if (cap <= 0) return 0;
  if (cap > w.period()) cap = w.period();
  Time len = 0;
  while (len < cap) {
    // Find the segment containing (from + len) and extend over it.
    Time t = floor_mod(from + len, w.period());
    Time acc = 0;
    for (const auto& s : w.segments()) {
      if (t < acc + s.width) {
        if (!is_steady(s.value)) return len;
        len += (acc + s.width) - t;
        break;
      }
      acc += s.width;
    }
  }
  return std::min(len, cap);
}

// Length of the steady run ending at `until` (capped at `cap`), i.e. how
// much set-up margin the data actually provided before the clock edge.
Time steady_run_until(const Waveform& w, Time until, Time cap) {
  if (cap <= 0) return 0;
  if (cap > w.period()) cap = w.period();
  Time settle = 0;
  if (!w.settles(until - cap, until, settle)) return 0;
  Time avail = floor_mod(until - settle, w.period());
  if (avail == 0) avail = cap;  // steady across the full (clamped) window
  return std::min(avail, cap);
}

// The edge windows a checker tests its data against. A clock region that a
// resource guard degraded to UNKNOWN may hide an edge of either polarity,
// so it counts as CHANGE here -- otherwise a degraded clock would silence
// its checker. A clock that holds no steady level anywhere may switch at
// any instant: it gets one window spanning the whole cycle, from 0 to the
// last picosecond, when it can carry an edge of the wanted polarity.
std::vector<EdgeWindow> check_edges(const Waveform& clock, bool rising) {
  Waveform ck = clock.replaced(Value::Unknown, Value::Change);
  auto any = [&](auto pred) {
    return std::any_of(ck.segments().begin(), ck.segments().end(),
                       [&](const Waveform::Segment& s) { return pred(s.value); });
  };
  if (!any(is_steady)) {
    const Value edge = rising ? Value::Rise : Value::Fall;
    if (any([&](Value v) { return v == Value::Change || v == edge; })) {
      return {EdgeWindow{0, ck.period() - 1}};
    }
    return {};
  }
  return edge_windows(ck, rising);
}

struct CheckContext {
  const EvalView& ev;
  const Netlist& nl;
  std::vector<Violation>& out;

  const Signal& sig_of(const Pin& pin) const { return nl.signal(pin.sig); }

  std::string describe(const char* role, const Pin& pin, const Waveform& w) const {
    std::string s = "  ";
    s += role;
    s += " = ";
    s += sig_of(pin).full_name;
    s += "   ";
    s += w.to_string();
    s += "\n";
    return s;
  }

  void add(Violation::Type type, const Primitive& p, PrimId pid, SignalId sig, Time missed,
           std::string detail) {
    Violation v;
    v.type = type;
    v.prim = pid;
    v.signal = sig;
    v.missed_by = missed;
    v.message = violation_type_name(type) + " ERROR: " + p.name + ": " + std::move(detail);
    out.push_back(std::move(v));
  }
};

// The DATA/CLOCK lines of a two-input checker's report, formatted on the
// first violation only: most checks pass, and the text costs two
// Waveform::to_string calls.
class DataClockText {
 public:
  DataClockText(const CheckContext& ctx, const Primitive& p, const Waveform& data,
                const Waveform& ck)
      : ctx_(ctx), p_(p), data_(data), ck_(ck) {}

  const std::string& get() {
    if (text_.empty()) {
      text_ = ctx_.describe("DATA INPUT ", p_.inputs[0], data_) +
              ctx_.describe("CLOCK INPUT", p_.inputs[1], ck_);
    }
    return text_;
  }

 private:
  const CheckContext& ctx_;
  const Primitive& p_;
  const Waveform& data_;
  const Waveform& ck_;
  std::string text_;
};

void check_setup_hold(CheckContext& ctx, PrimId pid) {
  const Primitive& p = ctx.nl.prim(pid);
  PreparedInput data_in = ctx.ev.prepare(p.inputs[0]);
  PreparedInput ck_in = ctx.ev.prepare(p.inputs[1]);
  Waveform data = data_in.wave.with_skew_incorporated();
  Waveform ck = ck_in.wave.with_skew_incorporated();
  DataClockText waves{ctx, p, data, ck};
  char hdr[160];

  for (const EdgeWindow& e : check_edges(ck, /*rising=*/true)) {
    // Set-up: the input must already be steady `setup` before the earliest
    // possible rising edge (Fig 2-3; the Fig 3-11 report measures the miss
    // from the required stable time).
    if (p.setup > 0) {
      Time avail = steady_run_until(data, e.start, p.setup);
      if (avail < p.setup) {
        Time missed = p.setup - avail;
        std::snprintf(hdr, sizeof hdr,
                      "SETUP TIME = %s, HOLD TIME = %s, SETUP TIME MISSED BY %s\n",
                      format_ns(p.setup).c_str(), format_ns(p.hold).c_str(),
                      format_ns(missed).c_str());
        ctx.add(Violation::Type::Setup, p, pid, p.inputs[0].sig, missed, hdr + waves.get());
      }
    }
    // The input must not move during the edge uncertainty window itself
    // (the window may wrap: width computed circularly).
    Time edge_width = floor_mod(e.end - e.start, ck.period());
    if (edge_width > 0 && !data.steady_over(e.start, e.start + edge_width + 1)) {
      std::snprintf(hdr, sizeof hdr, "DATA CHANGING DURING CLOCK EDGE WINDOW %s-%s\n",
                    format_ns(e.start).c_str(), format_ns(e.end).c_str());
      ctx.add(Violation::Type::Setup, p, pid, p.inputs[0].sig, p.setup, hdr + waves.get());
    }
    // Hold: steady for `hold` after the latest possible edge. A negative
    // hold time (register-file data sheets) needs no check.
    if (p.hold > 0) {
      Time avail = steady_run_from(data, e.end, p.hold);
      if (avail < p.hold) {
        Time missed = p.hold - avail;
        std::snprintf(hdr, sizeof hdr,
                      "SETUP TIME = %s, HOLD TIME = %s, HOLD TIME MISSED BY %s\n",
                      format_ns(p.setup).c_str(), format_ns(p.hold).c_str(),
                      format_ns(missed).c_str());
        ctx.add(Violation::Type::Hold, p, pid, p.inputs[0].sig, missed, hdr + waves.get());
      }
    }
  }
}

void check_setup_rise_hold_fall(CheckContext& ctx, PrimId pid) {
  const Primitive& p = ctx.nl.prim(pid);
  PreparedInput data_in = ctx.ev.prepare(p.inputs[0]);
  PreparedInput ck_in = ctx.ev.prepare(p.inputs[1]);
  Waveform data = data_in.wave.with_skew_incorporated();
  Waveform ck = ck_in.wave.with_skew_incorporated();
  DataClockText waves{ctx, p, data, ck};
  char hdr[160];

  std::vector<EdgeWindow> rises = check_edges(ck, true);
  std::vector<EdgeWindow> falls = check_edges(ck, false);

  for (const EdgeWindow& r : rises) {
    if (p.setup > 0) {
      Time avail = steady_run_until(data, r.start, p.setup);
      if (avail < p.setup) {
        Time missed = p.setup - avail;
        std::snprintf(hdr, sizeof hdr, "SETUP TIME = %s, SETUP TIME MISSED BY %s\n",
                      format_ns(p.setup).c_str(), format_ns(missed).c_str());
        ctx.add(Violation::Type::Setup, p, pid, p.inputs[0].sig, missed, hdr + waves.get());
      }
    }
    // Stable for the entire interval the clock is (possibly) true: from the
    // start of this rising window to the end of the next falling window.
    if (!falls.empty()) {
      const EdgeWindow* f = nullptr;
      Time best = ck.period() + 1;
      for (const EdgeWindow& cand : falls) {
        Time d = floor_mod(cand.end - r.start, ck.period());
        if (d != 0 && d < best) {
          best = d;
          f = &cand;
        }
      }
      if (f && !data.steady_over(r.start, r.start + best + 1)) {
        std::snprintf(hdr, sizeof hdr, "INPUT NOT STABLE WHILE CLOCK TRUE (%s-%s)\n",
                      format_ns(r.start).c_str(), format_ns(f->end).c_str());
        ctx.add(Violation::Type::StableWhileHigh, p, pid, p.inputs[0].sig, 0, hdr + waves.get());
      }
    }
  }
  if (p.hold > 0) {
    for (const EdgeWindow& f : falls) {
      Time avail = steady_run_from(data, f.end, p.hold);
      if (avail < p.hold) {
        Time missed = p.hold - avail;
        std::snprintf(hdr, sizeof hdr, "HOLD TIME = %s, HOLD TIME MISSED BY %s\n",
                      format_ns(p.hold).c_str(), format_ns(missed).c_str());
        ctx.add(Violation::Type::Hold, p, pid, p.inputs[0].sig, missed, hdr + waves.get());
      }
    }
  }
}

void check_min_pulse_width(CheckContext& ctx, PrimId pid) {
  const Primitive& p = ctx.nl.prim(pid);
  PreparedInput in = ctx.ev.prepare(p.inputs[0]);
  // Pulse widths are measured on the value list with the skew field left
  // separate: a variable delay moves both edges of a pulse by the same
  // amount, so the width is preserved (sec. 2.8 keeps skew separate
  // precisely "to avoid incorrect assertions ... that minimum pulse width
  // requirements have not been met"). Skew that was folded into the list by
  // an earlier combination appears as R/F/C values and conservatively
  // shortens the solid runs, as it must.
  const Waveform& w = in.wave;
  if (w.is_constant()) return;
  std::string wave_desc = ctx.describe("INPUT", p.inputs[0], w);
  char hdr[160];

  // Collect maximal circular runs of each level.
  struct Run {
    Value v;
    Time width;
  };
  std::vector<Run> runs;
  for (const auto& s : w.segments()) runs.push_back(Run{s.value, s.width});
  if (runs.size() > 1 && runs.front().v == runs.back().v) {
    runs.front().width += runs.back().width;
    runs.pop_back();
  }
  for (const Run& r : runs) {
    if (r.v == Value::One && p.min_high > 0 && r.width < p.min_high) {
      Time missed = p.min_high - r.width;
      std::snprintf(hdr, sizeof hdr,
                    "MINIMUM HIGH PULSE WIDTH = %s, PULSE OF %s, MISSED BY %s\n",
                    format_ns(p.min_high).c_str(), format_ns(r.width).c_str(),
                    format_ns(missed).c_str());
      ctx.add(Violation::Type::MinPulseHigh, p, pid, p.inputs[0].sig, missed, hdr + wave_desc);
    }
    if (r.v == Value::Zero && p.min_low > 0 && r.width < p.min_low) {
      Time missed = p.min_low - r.width;
      std::snprintf(hdr, sizeof hdr,
                    "MINIMUM LOW PULSE WIDTH = %s, PULSE OF %s, MISSED BY %s\n",
                    format_ns(p.min_low).c_str(), format_ns(r.width).c_str(),
                    format_ns(missed).c_str());
      ctx.add(Violation::Type::MinPulseLow, p, pid, p.inputs[0].sig, missed, hdr + wave_desc);
    }
  }
}

// "&A"/"&H" hazard checks (sec. 2.6): the other inputs of the gate must be
// stable whenever the directive-carrying (clock) input is asserted.
void check_hazard_directives(CheckContext& ctx, PrimId pid) {
  const Primitive& p = ctx.nl.prim(pid);
  if (prim_is_checker(p.kind)) return;
  for (std::size_t i = 0; i < p.inputs.size(); ++i) {
    // The directive prepare_input would resolve: the pin's own string,
    // else the one propagated along the signal. Only &A/&H pins check.
    const Pin& pin = p.inputs[i];
    const std::string& dirs = !pin.directives.empty() ? pin.directives : ctx.ev.eval_str(pin.sig);
    if (dirs.empty() || (dirs[0] != 'A' && dirs[0] != 'H')) continue;
    PreparedInput clk = ctx.ev.prepare(pin);
    Waveform ck = clk.wave.with_skew_incorporated();

    // Asserted regions: any time the clock may be non-zero -- UNKNOWN
    // included, so a clock a resource guard degraded still checks.
    Time acc = 0;
    struct Region {
      Time begin, width;
    };
    std::vector<Region> regions;
    for (const auto& s : ck.segments()) {
      if (s.value != Value::Zero) {
        regions.push_back(Region{acc, s.width});
      }
      acc += s.width;
    }
    // Merge adjacent asserted segments (e.g. R then 1 then F).
    std::vector<Region> merged;
    for (const Region& r : regions) {
      if (!merged.empty() && merged.back().begin + merged.back().width == r.begin) {
        merged.back().width += r.width;
      } else {
        merged.push_back(r);
      }
    }
    if (merged.size() > 1 && merged.front().begin == 0 &&
        merged.back().begin + merged.back().width == ck.period()) {
      merged.back().width += merged.front().width;
      merged.erase(merged.begin());
    }

    for (std::size_t j = 0; j < p.inputs.size(); ++j) {
      if (j == i) continue;
      PreparedInput other = ctx.ev.prepare(p.inputs[j]);
      Waveform ow = other.wave.with_skew_incorporated();
      for (const Region& r : merged) {
        if (!ow.steady_over(r.begin, r.begin + r.width)) {
          char hdr[200];
          std::snprintf(hdr, sizeof hdr,
                        "CONTROL SIGNAL NOT STABLE WHILE CLOCK ASSERTED (%s-%s)\n",
                        format_ns(r.begin).c_str(),
                        format_ns(floor_mod(r.begin + r.width, ck.period())).c_str());
          std::string msg = hdr + ctx.describe("CLOCK INPUT  ", p.inputs[i], ck) +
                            ctx.describe("CONTROL INPUT", p.inputs[j], ow);
          ctx.add(Violation::Type::Hazard, p, pid, p.inputs[j].sig, 0, std::move(msg));
          break;  // one report per control input
        }
      }
    }
  }
}

// Stable assertions on generated signals are *checked* against the computed
// waveform (sec. 2.5.2): "the designer's initial timing assertion is checked
// against the timing of the actual signal".
void check_stable_assertion(CheckContext& ctx, SignalId id) {
  const Signal& s = ctx.nl.signal(id);
  if (s.assertion.kind != Assertion::Kind::Stable || s.driver == kNoPrim) return;
  Waveform required = assertion_waveform(s.assertion, ctx.ev.options().period,
                                         ctx.ev.options().units);
  Waveform actual = ctx.ev.wave(id).with_skew_incorporated();
  Time acc = 0;
  for (const auto& seg : required.segments()) {
    if (seg.value == Value::Stable && !actual.steady_over(acc, acc + seg.width)) {
      Violation v;
      v.type = Violation::Type::StableAssertionViolated;
      v.prim = s.driver;
      v.signal = id;
      v.message = violation_type_name(v.type) + " ERROR: signal " + s.full_name +
                  " asserted stable " + format_ns(acc) + "-" +
                  format_ns(floor_mod(acc + seg.width, actual.period())) +
                  " but computed value is\n  " + actual.to_string() + "\n";
      ctx.out.push_back(std::move(v));
      break;
    }
    acc += seg.width;
  }
}

void check_prim(CheckContext& ctx, PrimId pid) {
  switch (ctx.nl.prim(pid).kind) {
    case PrimKind::SetupHoldChk: check_setup_hold(ctx, pid); break;
    case PrimKind::SetupRiseHoldFallChk: check_setup_rise_hold_fall(ctx, pid); break;
    case PrimKind::MinPulseWidthChk: check_min_pulse_width(ctx, pid); break;
    default: check_hazard_directives(ctx, pid); break;
  }
}

void add_unconverged(std::vector<Violation>& out) {
  Violation v;
  v.type = Violation::Type::Unconverged;
  v.message = "EVALUATION NOT CONVERGED: unclocked feedback path suspected\n";
  out.push_back(std::move(v));
}

// Watches the run-wide deadline across one checking pass: checks are
// skipped (and counted) once the deadline expires, and the skip count
// becomes one TV-W204 degradation record. Unlike evaluation's UNKNOWN
// degradation, a skipped check can hide a violation -- which is exactly why
// the record exists and the result is marked partial.
class CheckDeadline {
 public:
  explicit CheckDeadline(const VerifierOptions& opts)
      : deadline_(opts.deadline), limit_(opts.time_limit_seconds) {
    if (!deadline_.armed() && limit_ > 0) {
      deadline_ = Deadline::after_seconds(limit_);
    }
  }

  /// True when this check must be skipped (deadline expired). The first
  /// expired poll latches, so later polls cost nothing.
  bool skip() {
    if (expired_) {
      ++skipped_;
      return true;
    }
    if (deadline_.armed() && deadline_.expired()) {
      expired_ = true;
      ++skipped_;
      return true;
    }
    return false;
  }

  void flush(std::vector<Degradation>* degradations) const {
    if (skipped_ == 0 || !degradations) return;
    degradations->push_back(Degradation{
        diag::kWarnCheckDeadline,
        "time limit of " + std::to_string(limit_) +
            "s exceeded during constraint checking; " + std::to_string(skipped_) +
            " check(s) skipped (result partial)"});
  }

  std::size_t skipped() const { return skipped_; }

 private:
  Deadline deadline_;
  double limit_ = 0;
  bool expired_ = false;
  std::size_t skipped_ = 0;
};

}  // namespace

std::string violation_type_name(Violation::Type t) {
  switch (t) {
    case Violation::Type::Setup: return "SETUP TIME";
    case Violation::Type::Hold: return "HOLD TIME";
    case Violation::Type::StableWhileHigh: return "STABLE WHILE CLOCK TRUE";
    case Violation::Type::MinPulseHigh: return "MINIMUM HIGH PULSE WIDTH";
    case Violation::Type::MinPulseLow: return "MINIMUM LOW PULSE WIDTH";
    case Violation::Type::Hazard: return "CLOCK HAZARD";
    case Violation::Type::StableAssertionViolated: return "STABLE ASSERTION";
    case Violation::Type::Unconverged: return "EVALUATION NOT CONVERGED";
  }
  return "?";
}

std::vector<SlackEntry> compute_slacks(const Evaluator& ev) {
  std::vector<SlackEntry> out;
  const Netlist& nl = ev.netlist();
  const Time period = ev.options().period;
  for (PrimId pid = 0; pid < nl.num_prims(); ++pid) {
    const Primitive& p = nl.prim(pid);
    if (p.kind != PrimKind::SetupHoldChk && p.kind != PrimKind::SetupRiseHoldFallChk) {
      continue;
    }
    Waveform data = ev.prepare(p.inputs[0]).wave.with_skew_incorporated();
    Waveform ck = ev.prepare(p.inputs[1]).wave.with_skew_incorporated();

    SlackEntry e;
    e.checker = pid;
    e.data = p.inputs[0].sig;
    e.setup_slack = period;
    e.hold_slack = period;

    // Set-up margin against every relevant rising edge (uncapped run so
    // positive margins are visible, not clamped at the requirement). The
    // edges are the checker's own (check_edges), so an UNKNOWN or
    // never-steady clock yields the margins the violation list reports.
    for (const EdgeWindow& edge : check_edges(ck, /*rising=*/true)) {
      Time avail = steady_run_until(data, edge.start, period);
      e.setup_slack = std::min(e.setup_slack, avail - p.setup);
      e.has_setup = true;
    }
    // Hold margin: after the rising edge for SETUP HOLD CHK, after the
    // falling edge for the memory-style checker.
    if (p.hold > 0) {
      bool rising_hold = p.kind == PrimKind::SetupHoldChk;
      for (const EdgeWindow& edge : check_edges(ck, rising_hold)) {
        Time avail = steady_run_from(data, edge.end, period);
        e.hold_slack = std::min(e.hold_slack, avail - p.hold);
        e.has_hold = true;
      }
    }
    if (e.has_setup || e.has_hold) out.push_back(e);
  }
  return out;
}

std::string slack_report(const Netlist& nl, std::vector<SlackEntry> slacks, Time period,
                         std::size_t worst_n) {
  std::sort(slacks.begin(), slacks.end(), [](const SlackEntry& a, const SlackEntry& b) {
    Time wa = std::min(a.has_setup ? a.setup_slack : a.hold_slack,
                       a.has_hold ? a.hold_slack : a.setup_slack);
    Time wb = std::min(b.has_setup ? b.setup_slack : b.hold_slack,
                       b.has_hold ? b.hold_slack : b.setup_slack);
    return wa < wb;
  });

  std::string out = "WORST SLACK REPORT\n";
  char line[256];
  Time min_setup_slack = period;
  bool any_setup = false;
  std::size_t shown = 0;
  for (const SlackEntry& e : slacks) {
    if (e.has_setup) {
      min_setup_slack = std::min(min_setup_slack, e.setup_slack);
      any_setup = true;
    }
    if (shown++ >= worst_n) continue;
    std::snprintf(line, sizeof line, "  %-32s data %-24s setup %8s  hold %8s\n",
                  nl.prim(e.checker).name.c_str(), nl.signal(e.data).base_name.c_str(),
                  e.has_setup ? format_ns(e.setup_slack).c_str() : "-",
                  e.has_hold ? format_ns(e.hold_slack).c_str() : "-");
    out += line;
  }
  if (any_setup) {
    std::snprintf(line, sizeof line,
                  "  cycle time estimate: %s ns period %s by %s ns -> %s ns achievable\n",
                  format_ns(period).c_str(),
                  min_setup_slack >= 0 ? "could shrink" : "must grow",
                  format_ns(min_setup_slack >= 0 ? min_setup_slack : -min_setup_slack).c_str(),
                  format_ns(period - min_setup_slack).c_str());
    out += line;
  }
  return out;
}

std::vector<Violation> run_checks(const EvalView& view,
                                  std::vector<Degradation>* degradations) {
  std::vector<Violation> out;
  const Netlist& nl = view.netlist();
  CheckContext ctx{view, nl, out};
  CheckDeadline deadline(view.options());

  if (!view.converged()) add_unconverged(out);
  for (PrimId pid = 0; pid < nl.num_prims(); ++pid) {
    if (deadline.skip()) continue;
    check_prim(ctx, pid);
  }
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    if (deadline.skip()) continue;
    check_stable_assertion(ctx, id);
  }
  deadline.flush(degradations);
  return out;
}

std::vector<Violation> run_checks(const Evaluator& ev,
                                  std::vector<Degradation>* degradations) {
  std::vector<Violation> out = run_checks(
      EvalView(ev.netlist(), ev.options(), ev.converged()), degradations);
  if (!ev.converged()) {
    // The evaluator knows which primitives tripped the oscillation guard;
    // replace the generic "feedback path suspected" with the actual cycles.
    std::vector<std::vector<std::string>> cycles = ev.feedback_cycles();
    if (!cycles.empty() && !out.empty() && out.front().type == Violation::Type::Unconverged) {
      std::vector<Violation> localized;
      localized.reserve(cycles.size());
      for (const auto& cyc : cycles) {
        Violation v;
        v.type = Violation::Type::Unconverged;
        std::string msg = "EVALUATION NOT CONVERGED: unclocked feedback cycle: ";
        for (const std::string& name : cyc) msg += "\"" + name + "\" -> ";
        msg += "\"" + cyc.front() + "\"\n";
        v.message = std::move(msg);
        localized.push_back(std::move(v));
      }
      out.erase(out.begin());
      out.insert(out.begin(), std::make_move_iterator(localized.begin()),
                 std::make_move_iterator(localized.end()));
    }
  }
  return out;
}

std::vector<Violation> run_checks_scoped(const EvalView& view, const Cone& cone,
                                         const std::vector<Violation>& base,
                                         std::vector<Degradation>* degradations) {
  std::vector<Violation> out;
  const Netlist& nl = view.netlist();
  CheckContext ctx{view, nl, out};
  CheckDeadline deadline(view.options());

  if (!view.converged()) add_unconverged(out);

  // Walk in the same order as run_checks, interleaving recomputed checks
  // (inside the cone, where the case may have moved waveforms) with copies
  // of the baseline findings (outside, where every input is bit-identical
  // to the baseline fixpoint). Baseline violations are grouped by origin:
  // the prim-phase ones by reporting primitive, the assertion-phase ones by
  // signal; a stable sort preserves their original relative order.
  std::vector<const Violation*> by_prim, by_signal;
  for (const Violation& v : base) {
    if (v.type == Violation::Type::Unconverged) continue;  // re-derived above
    if (v.type == Violation::Type::StableAssertionViolated) {
      by_signal.push_back(&v);
    } else {
      by_prim.push_back(&v);
    }
  }
  std::stable_sort(by_prim.begin(), by_prim.end(),
                   [](const Violation* a, const Violation* b) { return a->prim < b->prim; });
  std::stable_sort(by_signal.begin(), by_signal.end(), [](const Violation* a,
                                                          const Violation* b) {
    return a->signal < b->signal;
  });

  std::size_t bp = 0;
  for (PrimId pid = 0; pid < nl.num_prims(); ++pid) {
    if (cone.contains_prim(pid)) {
      // Once the deadline expires the in-cone re-check is skipped; the
      // baseline findings for this prim are *not* substituted (the case may
      // have moved its inputs), so the skip is surfaced via TV-W204.
      if (!deadline.skip()) check_prim(ctx, pid);
      while (bp < by_prim.size() && by_prim[bp]->prim == pid) ++bp;  // superseded
    } else {
      for (; bp < by_prim.size() && by_prim[bp]->prim == pid; ++bp) out.push_back(*by_prim[bp]);
    }
  }
  std::size_t bs = 0;
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    if (cone.contains_signal(id)) {
      if (!deadline.skip()) check_stable_assertion(ctx, id);
      while (bs < by_signal.size() && by_signal[bs]->signal == id) ++bs;
    } else {
      for (; bs < by_signal.size() && by_signal[bs]->signal == id; ++bs) {
        out.push_back(*by_signal[bs]);
      }
    }
  }
  deadline.flush(degradations);
  return out;
}

std::vector<std::vector<Violation>> run_checks_batch(
    const VerifierOptions& opts, const std::vector<const EvalSnapshot*>& snaps,
    const std::vector<const Cone*>& /*cones*/, const std::vector<char>& lane_converged,
    const std::vector<WaveformRef>& base_refs, const std::vector<Violation>& base) {
  const std::size_t L = snaps.size();
  std::vector<std::vector<Violation>> out(L);
  if (L == 0) return out;
  const Netlist& nl = snaps[0]->netlist();

  // Baseline findings grouped exactly as run_checks_scoped groups them.
  std::vector<const Violation*> by_prim, by_signal;
  for (const Violation& v : base) {
    if (v.type == Violation::Type::Unconverged) continue;  // re-derived per lane
    if (v.type == Violation::Type::StableAssertionViolated) {
      by_signal.push_back(&v);
    } else {
      by_prim.push_back(&v);
    }
  }
  std::stable_sort(by_prim.begin(), by_prim.end(),
                   [](const Violation* a, const Violation* b) { return a->prim < b->prim; });
  std::stable_sort(by_signal.begin(), by_signal.end(), [](const Violation* a,
                                                          const Violation* b) {
    return a->signal < b->signal;
  });

  // Appends, in ascending id order, the recomputed findings of the ids in
  // `redo` (sorted, unique) and copies of the baseline findings `group` of
  // every other id; `id_of` names a finding's primitive or signal.
  auto merge = [](const std::vector<std::uint32_t>& redo,
                  const std::vector<const Violation*>& group, auto id_of, auto recheck,
                  std::vector<Violation>& dst) {
    std::size_t r = 0, g = 0;
    while (r < redo.size() || g < group.size()) {
      if (g == group.size() || (r < redo.size() && redo[r] <= id_of(*group[g]))) {
        const std::uint32_t id = redo[r++];
        recheck(id);
        while (g < group.size() && id_of(*group[g]) == id) ++g;  // superseded
      } else {
        dst.push_back(*group[g++]);
      }
    }
  };

  // Each lane on its own: a check reads only its primitive's input cells
  // (or its one asserted signal), so a lane re-runs exactly the checks that
  // read one of its diverged cells -- every other check reproduces the
  // baseline findings, which are copied. The diverged cells are the
  // snapshot's written cells that differ from the baseline; the walk costs
  // what the lane disturbed, not its cone or the netlist.
  std::vector<SignalId> diverged;
  std::vector<std::uint32_t> redo_prims, redo_sigs;
  for (std::size_t l = 0; l < L; ++l) {
    const EvalSnapshot& snap = *snaps[l];
    EvalView view(snap, opts, static_cast<bool>(lane_converged[l]));
    if (!lane_converged[l]) add_unconverged(out[l]);
    diverged.clear();
    for (SignalId sig : snap.written()) {
      WaveformRef br = sig < base_refs.size() ? base_refs[sig] : kNoWaveform;
      if (snap.wave_ref(sig) == br && snap.eval_str(sig) == nl.signal(sig).eval_str) continue;
      diverged.push_back(sig);
    }
    redo_prims.clear();
    redo_sigs.clear();
    for (SignalId sig : diverged) {
      const Signal& s = nl.signal(sig);
      redo_prims.insert(redo_prims.end(), s.fanout.begin(), s.fanout.end());
      if (s.assertion.kind == Assertion::Kind::Stable && s.driver != kNoPrim) {
        redo_sigs.push_back(sig);
      }
    }
    std::sort(redo_prims.begin(), redo_prims.end());
    redo_prims.erase(std::unique(redo_prims.begin(), redo_prims.end()), redo_prims.end());
    std::sort(redo_sigs.begin(), redo_sigs.end());

    CheckContext ctx{view, nl, out[l]};
    merge(redo_prims, by_prim, [](const Violation& v) { return v.prim; },
          [&](PrimId pid) { check_prim(ctx, pid); }, out[l]);
    merge(redo_sigs, by_signal, [](const Violation& v) { return v.signal; },
          [&](SignalId id) { check_stable_assertion(ctx, id); }, out[l]);
  }
  return out;
}

void sort_violations(std::vector<Violation>& violations) {
  std::sort(violations.begin(), violations.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.missed_by, a.signal, a.type, a.prim, a.message) <
           std::tie(b.missed_by, b.signal, b.type, b.prim, b.message);
  });
}

}  // namespace tv
