#include "core/waveform.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <stdexcept>

#include "util/hash.hpp"

namespace tv {

Waveform::Waveform(Time period, Value fill) : period_(period) {
  if (period <= 0) throw std::invalid_argument("waveform period must be positive");
  segs_.push_back(Segment{fill, period});
}

Value Waveform::at(Time t) const {
  t = floor_mod(t, period_);
  Time acc = 0;
  for (const Segment& s : segs_) {
    acc += s.width;
    if (t < acc) return s.value;
  }
  return segs_.back().value;  // unreachable when invariants hold
}

void Waveform::fill(Value v) {
  segs_.clear();
  segs_.push_back(Segment{v, period_});
  skew_ = 0;
}

void Waveform::normalize() {
  std::vector<Segment> out;
  for (const Segment& s : segs_) {
    if (s.width == 0) continue;
    if (!out.empty() && out.back().value == s.value) {
      out.back().width += s.width;
    } else {
      out.push_back(s);
    }
  }
  if (out.empty()) out.push_back(Segment{segs_.empty() ? Value::Unknown : segs_[0].value, period_});
  segs_ = std::move(out);
}

Waveform Waveform::from_segments(Time period, Time skew, std::vector<Segment> segs) {
  Waveform w;
  w.period_ = period;
  w.skew_ = skew;
  w.segs_ = std::move(segs);
  w.normalize();
  return w;
}

Waveform Waveform::from_points(Time period, std::vector<std::pair<Time, Value>> pts, Time skew) {
  Waveform w(period);
  if (pts.empty()) return w;
  std::stable_sort(pts.begin(), pts.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  // Later points at the same time win.
  std::vector<std::pair<Time, Value>> uniq;
  for (const auto& p : pts) {
    if (!uniq.empty() && uniq.back().first == p.first) {
      uniq.back().second = p.second;
    } else {
      uniq.push_back(p);
    }
  }
  // Anchor at cycle time 0: if no explicit point there, the value wraps
  // around from the last change point of the previous cycle.
  if (uniq.front().first != 0) uniq.insert(uniq.begin(), {0, uniq.back().second});
  w.segs_.clear();
  for (std::size_t i = 0; i < uniq.size(); ++i) {
    Time end = (i + 1 < uniq.size()) ? uniq[i + 1].first : period;
    w.segs_.push_back(Segment{uniq[i].second, end - uniq[i].first});
  }
  w.skew_ = skew;
  w.normalize();
  return w;
}

void Waveform::set(Time begin, Time end, Value v) {
  Time width = end - begin;
  if (width <= 0) return;
  if (width >= period_) {
    Time sk = skew_;
    fill(v);
    skew_ = sk;
    return;
  }
  begin = floor_mod(begin, period_);
  end = begin + width;  // may exceed period_, meaning the interval wraps

  auto inside = [&](Time t) {
    // Circular membership of t in [begin, begin+width).
    Time rel = floor_mod(t - begin, period_);
    return rel < width;
  };

  std::vector<std::pair<Time, Value>> pts;
  Time acc = 0;
  for (const Segment& s : segs_) {
    pts.emplace_back(acc, s.value);
    acc += s.width;
  }
  // Critical times where the override interval begins/ends.
  Time b = floor_mod(begin, period_);
  Time e = floor_mod(end, period_);
  Value at_e = at(e);
  pts.emplace_back(b, v);
  pts.emplace_back(e, at_e);
  // Rewrite any original change points falling inside the interval.
  for (auto& p : pts) {
    if (inside(p.first)) p.second = v;
  }
  *this = from_points(period_, std::move(pts), skew_);
}

Waveform Waveform::delayed(Time dmin, Time dmax) const {
  assert(dmin >= 0 && dmax >= dmin);
  std::vector<std::pair<Time, Value>> pts;
  Time acc = 0;
  for (const Segment& s : segs_) {
    pts.emplace_back(floor_mod(acc + dmin, period_), s.value);
    acc += s.width;
  }
  return from_points(period_, std::move(pts), skew_ + (dmax - dmin));
}

std::vector<Waveform::Boundary> Waveform::boundaries() const {
  std::vector<Boundary> out;
  if (segs_.size() <= 1) return out;
  if (segs_.back().value != segs_.front().value) {
    out.push_back(Boundary{0, segs_.back().value, segs_.front().value});
  }
  Time acc = 0;
  for (std::size_t i = 0; i + 1 < segs_.size(); ++i) {
    acc += segs_[i].width;
    out.push_back(Boundary{acc, segs_[i].value, segs_[i + 1].value});
  }
  std::sort(out.begin(), out.end(),
            [](const Boundary& a, const Boundary& b) { return a.time < b.time; });
  return out;
}

std::uint8_t Waveform::value_mask(Time begin, Time end) const {
  Time width = end - begin;
  if (width <= 0) return 0;
  if (width > period_) width = period_;
  begin = floor_mod(begin, period_);
  std::uint8_t mask = 0;
  // Walk segments circularly starting from `begin` until `width` consumed.
  Time acc = 0;
  std::size_t i = 0;
  // Find the segment containing `begin`.
  while (acc + segs_[i].width <= begin) {
    acc += segs_[i].width;
    ++i;
  }
  Time pos = begin;
  Time remaining = width;
  Time seg_end = acc + segs_[i].width;
  while (remaining > 0) {
    mask |= static_cast<std::uint8_t>(1u << static_cast<int>(segs_[i].value));
    Time take = std::min(remaining, seg_end - pos);
    remaining -= take;
    pos += take;
    if (remaining > 0) {
      i = (i + 1) % segs_.size();
      if (i == 0) {
        pos = 0;
        seg_end = segs_[0].width;
      } else {
        seg_end += segs_[i].width;
      }
    }
  }
  return mask;
}

namespace {
constexpr std::uint8_t bit(Value v) { return static_cast<std::uint8_t>(1u << static_cast<int>(v)); }
constexpr std::uint8_t kSteadyMask =
    (1u << static_cast<int>(Value::Zero)) | (1u << static_cast<int>(Value::One)) |
    (1u << static_cast<int>(Value::Stable));
}  // namespace

bool Waveform::steady_over(Time begin, Time end) const {
  std::uint8_t m = value_mask(begin, end);
  return (m & ~kSteadyMask) == 0;
}

bool Waveform::has_activity() const {
  if (segs_.empty()) return false;  // default-constructed (period 0)
  if (segs_.size() > 1) return true;
  return is_changing(segs_[0].value);
}

std::uint64_t Waveform::canonical_hash() const {
  std::uint64_t h = kFnv1aBasis;
  // Host byte order: the hash only places waveforms in in-process tables.
  auto mix = [&h](std::uint64_t v) { h = fnv1a(&v, sizeof v, h); };
  mix(static_cast<std::uint64_t>(period_));
  mix(static_cast<std::uint64_t>(has_activity() ? skew_ : 0));
  for (const Segment& s : segs_) {
    mix(static_cast<std::uint64_t>(s.value));
    mix(static_cast<std::uint64_t>(s.width));
  }
  return h;
}

bool Waveform::settles(Time from, Time until, Time& settle_time) const {
  Time span = until - from;
  if (span <= 0) return false;
  if (span > period_) span = period_;
  // Walk backwards from `until`, accumulating the steady run that ends there.
  Time covered = 0;
  Time t_end = floor_mod(until, period_);
  // Segment index and in-segment offset for the instant just before t_end.
  while (covered < span) {
    Time probe = floor_mod(t_end - covered - 1, period_);
    // Find the segment containing `probe` and how far into it probe is.
    Time acc = 0;
    std::size_t i = 0;
    while (acc + segs_[i].width <= probe) {
      acc += segs_[i].width;
      ++i;
    }
    if (!is_steady(segs_[i].value)) break;
    Time run_start = acc;                       // segment start
    Time usable = probe - run_start + 1;        // steady time ending at probe+1
    covered += usable;
  }
  if (covered == 0) return false;
  if (covered > span) covered = span;
  settle_time = floor_mod(until - covered, period_);
  return true;
}

Waveform Waveform::binary(const Waveform& a, const Waveform& b, Value (*op)(Value, Value)) {
  assert(a.period_ == b.period_);
  std::vector<Time> times;
  Time acc = 0;
  for (const Segment& s : a.segs_) {
    times.push_back(acc);
    acc += s.width;
  }
  acc = 0;
  for (const Segment& s : b.segs_) {
    times.push_back(acc);
    acc += s.width;
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::vector<std::pair<Time, Value>> pts;
  pts.reserve(times.size());
  for (Time t : times) pts.emplace_back(t, op(a.at(t), b.at(t)));
  return from_points(a.period_, std::move(pts), 0);
}

Waveform Waveform::ternary(const Waveform& a, const Waveform& b, const Waveform& c,
                           Value (*op)(Value, Value, Value)) {
  assert(a.period_ == b.period_ && b.period_ == c.period_);
  std::vector<Time> times;
  for (const Waveform* w : {&a, &b, &c}) {
    Time acc = 0;
    for (const Segment& s : w->segs_) {
      times.push_back(acc);
      acc += s.width;
    }
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::vector<std::pair<Time, Value>> pts;
  pts.reserve(times.size());
  for (Time t : times) pts.emplace_back(t, op(a.at(t), b.at(t), c.at(t)));
  return from_points(a.period_, std::move(pts), 0);
}

Waveform Waveform::map(Value (*op)(Value)) const {
  Waveform w = *this;
  for (Segment& s : w.segs_) s.value = op(s.value);
  w.normalize();
  return w;
}

Waveform Waveform::replaced(Value from, Value to) const {
  Waveform w = *this;
  for (Segment& s : w.segs_) {
    if (s.value == from) s.value = to;
  }
  w.normalize();
  return w;
}

namespace {

// Edge value for a change a->b widened by skew (Fig 2-9): monotone movement
// within {0, R, 1} is a RISE, within {1, F, 0} a FALL, anything else CHANGE;
// UNKNOWN dominates.
Value edge_value(Value a, Value b) {
  if (a == Value::Unknown || b == Value::Unknown) return Value::Unknown;
  auto up = [](Value x) { return x == Value::Zero || x == Value::Rise; };
  auto up_to = [](Value x) { return x == Value::Rise || x == Value::One; };
  auto down = [](Value x) { return x == Value::One || x == Value::Fall; };
  auto down_to = [](Value x) { return x == Value::Fall || x == Value::Zero; };
  if (up(a) && up_to(b) && a != b) return Value::Rise;
  if (down(a) && down_to(b) && a != b) return Value::Fall;
  return Value::Change;
}

}  // namespace

Waveform Waveform::with_skew_incorporated() const {
  if (skew_ == 0) return *this;
  if (segs_.size() == 1) {
    Waveform w = *this;
    w.skew_ = 0;
    return w;
  }
  Time s = std::min(skew_, period_);
  std::vector<Boundary> bounds = boundaries();

  // Sweep event points: every edge-window start and end. The set of covering
  // edge windows is constant between consecutive events.
  std::vector<Time> events;
  for (const Boundary& b : bounds) {
    events.push_back(b.time);
    events.push_back(floor_mod(b.time + s, period_));
  }
  std::sort(events.begin(), events.end());
  events.erase(std::unique(events.begin(), events.end()), events.end());

  auto covered_by = [&](Time t, const Boundary& b) {
    // Is t inside the circular window [b.time, b.time + s)?
    Time rel = floor_mod(t - b.time, period_);
    return rel < s;
  };

  std::vector<std::pair<Time, Value>> pts;
  for (Time t : events) {
    bool any = false, all_r = true, all_f = true, any_u = false;
    for (const Boundary& b : bounds) {
      if (!covered_by(t, b)) continue;
      any = true;
      Value e = edge_value(b.from, b.to);
      if (e == Value::Unknown) any_u = true;
      if (e != Value::Rise) all_r = false;
      if (e != Value::Fall) all_f = false;
    }
    Value v;
    if (!any) {
      v = at(t);
    } else if (any_u) {
      v = Value::Unknown;
    } else if (all_r) {
      v = Value::Rise;
    } else if (all_f) {
      v = Value::Fall;
    } else {
      v = Value::Change;
    }
    pts.emplace_back(t, v);
  }
  return from_points(period_, std::move(pts), 0);
}

Waveform Waveform::delayed_rise_fall(Time rise_min, Time rise_max, Time fall_min,
                                     Time fall_max) const {
  // Per-edge delays cannot share the single skew field, so start from the
  // fully folded representation.
  Waveform base = with_skew_incorporated();
  if (base.segs_.size() == 1) return base;

  const Time umin = std::min(rise_min, fall_min);
  const Time umax = std::max(rise_max, fall_max);

  struct Win {
    Time at;       // original boundary time (sorted ascending)
    Time dmin, dmax;
    Value edge;    // value during the uncertainty window
    Value after;   // settled value
  };
  auto make_wins = [&](const std::vector<Boundary>& bs) {
    std::vector<Win> v;
    for (const Boundary& b : bs) {
      Value e = edge_value(b.from, b.to);
      Win w;
      w.at = b.time;
      w.edge = e;
      w.after = b.to;
      switch (e) {
        case Value::Rise: w.dmin = rise_min; w.dmax = rise_max; break;
        case Value::Fall: w.dmin = fall_min; w.dmax = fall_max; break;
        default: w.dmin = umin; w.dmax = umax; break;  // unknown polarity
      }
      v.push_back(w);
    }
    return v;
  };
  std::vector<Win> wins = make_wins(base.boundaries());

  // Tile the output from the windows in boundary order: the uncertainty
  // value over [lo, hi), then the settled value from hi to the next
  // window's start. A settled value deliberately never extends into a later
  // window's span -- time-sorted emission would let an early window's
  // settle override the uncertainty of a later one it overlaps (the gap is
  // then negative, and the cluster sweep below demotes the whole span).
  Waveform out(period_, Value::Stable);
  for (std::size_t k = 0; k < wins.size(); ++k) {
    const Win& w = wins[k];
    Time lo = w.at + w.dmin, hi = w.at + w.dmax;
    if (hi - lo >= period_) return Waveform(period_, w.edge);
    if (hi > lo) out.set(floor_mod(lo, period_), floor_mod(lo, period_) + (hi - lo), w.edge);
    const Win& nx = wins[(k + 1) % wins.size()];
    Time next_lo = nx.at + nx.dmin + (k + 1 == wins.size() ? period_ : 0);
    if (next_lo > hi) {
      out.set(floor_mod(hi, period_), floor_mod(hi, period_) + std::min(next_lo - hi, period_),
              w.after);
    }
  }

  // Boundaries whose shifted uncertainty windows [at+dmin, at+dmax] overlap
  // -- adjacent or not: asymmetric rise/fall delays reorder shifted windows
  // arbitrarily -- admit a delay realization in which a later-scheduled
  // event fires first and the earlier one lands after it, leaving a stale
  // value on the output. The stale value persists until the next event
  // *beyond* the overlapping cluster fires and settles (possibly across the
  // cycle wrap), so the span from the cluster's first possible event through
  // the following window's settle is demoted to CHANGE, or UNKNOWN when any
  // involved value is UNKNOWN.
  //
  // The sweep must run on the *unfolded* boundaries: skew shifts every
  // boundary by the same amount, so window overlap is shift-invariant, while
  // the folded form moves each region's exit to its latest position and can
  // hide an overlap that exists in every concrete shift. The stale span
  // found for shift 0 then exists shifted for every realization, so the
  // paint is widened by the skew.
  Waveform plain = *this;
  plain.skew_ = 0;
  const Time sk = std::max<Time>(0, std::min(skew_, period_));
  std::vector<Win> pwins = make_wins(plain.boundaries());

  struct Paint {
    Time start, end;
    Value v;
  };
  std::vector<Paint> paints;
  // Finds clusters of windows whose *event order* can differ from their
  // boundary order and records demotion paints. Walking windows in boundary
  // order, window k+1's event can fire at or before some event of the
  // running cluster whenever its lo does not clear the cluster's latest
  // possible event (cend) -- this covers plain overlap, touching windows
  // (simultaneous events resolve in an unspecified order), and windows
  // shifted wholly past their successors by asymmetric delays. Inside such
  // a cluster a stale value can end up on the output. With extend_follow,
  // the paint runs through the *following* window's settle, widened by
  // `widen` (the stale value persists until the first event certainly
  // beyond the cluster fires); otherwise it covers the cluster itself (a
  // settled value may not be claimed inside a colliding window's span).
  // Returns the constant the whole waveform degenerates to when a paint
  // wraps the full period, nullopt otherwise.
  auto sweep = [&](const std::vector<Win>& ws, Time widen,
                   bool extend_follow) -> std::optional<Value> {
    struct SWin {
      Time lo, hi;
      Value edge, after;
      bool orig;  // base copy (vs. the +period duplicate)
    };
    std::vector<SWin> sw;
    sw.reserve(ws.size() * 2);
    for (const Win& w : ws) {
      sw.push_back(SWin{w.at + w.dmin, w.at + w.dmax, w.edge, w.after, true});
    }
    // Unroll one extra period so clusters that wrap the cycle boundary are
    // seen contiguously; only clusters containing a base-copy window are
    // emitted (every wrap-spanning cluster has one, and its +period twin
    // has none).
    const std::size_t nw = sw.size();
    for (std::size_t k = 0; k < nw; ++k) {
      sw.push_back(SWin{sw[k].lo + period_, sw[k].hi + period_, sw[k].edge, sw[k].after, false});
    }

    std::size_t i = 0;
    while (i < sw.size()) {
      std::size_t j = i;
      Time clo = sw[i].lo, cend = sw[i].hi;
      bool has_u = sw[i].edge == Value::Unknown || sw[i].after == Value::Unknown;
      bool any_orig = sw[i].orig;
      while (j + 1 < sw.size() && sw[j + 1].lo <= cend) {
        ++j;
        clo = std::min(clo, sw[j].lo);
        cend = std::max(cend, sw[j].hi);
        has_u = has_u || sw[j].edge == Value::Unknown || sw[j].after == Value::Unknown;
        any_orig = any_orig || sw[j].orig;
      }
      if (j > i && any_orig) {
        Time end = cend;
        bool u = has_u;
        if (extend_follow) {
          if (j + 1 == sw.size()) {
            // The cluster swallowed every window including the wrapped
            // copies: no event ever certainly settles.
            return has_u ? Value::Unknown : Value::Change;
          }
          const SWin& follow = sw[j + 1];
          u = u || follow.edge == Value::Unknown || follow.after == Value::Unknown;
          end = follow.hi + widen;
        }
        if (end - clo >= period_) {
          return u ? Value::Unknown : Value::Change;
        }
        paints.push_back(Paint{clo, end, u ? Value::Unknown : Value::Change});
      }
      i = j + 1;
    }
    return std::nullopt;
  };
  if (auto v = sweep(pwins, sk, /*extend_follow=*/true)) return Waveform(period_, *v);
  if (auto v = sweep(wins, 0, /*extend_follow=*/false)) return Waveform(period_, *v);
  // UNKNOWN paints go last so they survive overlapping CHANGE paints.
  for (const Paint& p : paints) {
    if (p.v == Value::Change) {
      out.set(floor_mod(p.start, period_), floor_mod(p.start, period_) + (p.end - p.start), p.v);
    }
  }
  for (const Paint& p : paints) {
    if (p.v == Value::Unknown) {
      out.set(floor_mod(p.start, period_), floor_mod(p.start, period_) + (p.end - p.start), p.v);
    }
  }
  return out;
}

std::string Waveform::to_string(bool with_skew) const {
  std::string out;
  Time acc = 0;
  for (const Segment& s : segs_) {
    if (!out.empty()) out += ' ';
    out += format_ns(acc);
    out += ':';
    out += value_letter(s.value);
    acc += s.width;
  }
  if (with_skew && skew_ != 0) {
    out += " (skew ";
    out += format_ns(skew_);
    out += ")";
  }
  return out;
}

}  // namespace tv
