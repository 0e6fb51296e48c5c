#include "core/netlist.hpp"

#include <stdexcept>

#include "core/scc.hpp"

namespace tv {

std::string_view prim_kind_name(PrimKind k) {
  switch (k) {
    case PrimKind::Buf: return "BUF";
    case PrimKind::Not: return "NOT";
    case PrimKind::Or: return "OR";
    case PrimKind::And: return "AND";
    case PrimKind::Xor: return "XOR";
    case PrimKind::Chg: return "CHG";
    case PrimKind::Mux2: return "2 MUX";
    case PrimKind::Mux4: return "4 MUX";
    case PrimKind::Mux8: return "8 MUX";
    case PrimKind::Reg: return "REG";
    case PrimKind::RegSR: return "REG RS";
    case PrimKind::Latch: return "LATCH";
    case PrimKind::LatchSR: return "LATCH RS";
    case PrimKind::SetupHoldChk: return "SETUP HOLD CHK";
    case PrimKind::SetupRiseHoldFallChk: return "SETUP RISE HOLD FALL CHK";
    case PrimKind::MinPulseWidthChk: return "MIN PULSE WIDTH";
  }
  return "?";
}

bool prim_is_checker(PrimKind k) {
  return k == PrimKind::SetupHoldChk || k == PrimKind::SetupRiseHoldFallChk ||
         k == PrimKind::MinPulseWidthChk;
}

SignalId Netlist::add_signal(const SignalText& text, int width) {
  const NameIndex::Probe found = by_name_.probe(text.name);
  if (found.id != NameIndex::kAbsent) {
    widen(found.id, width);
    return found.id;
  }
  // Sec. 2.5.1: the assertion is *part of the name*, so all references to
  // one signal are consistent by definition -- and the same base name with
  // different assertions denotes different signals (Fig 2-5 uses both
  // "CK .P0-4" and "CK .P2-3 L" as distinct derived clocks).
  SignalId id = static_cast<SignalId>(signals_.size());
  Signal s;
  s.assertion = parse_assertion(text);
  s.full_name = std::string(text.name);
  s.base_name = std::string(text.base);
  s.scope = text.scope;
  s.width = width;
  by_name_.insert(found, s.full_name, id);
  signals_.push_back(std::move(s));
  return id;
}

void Netlist::widen(SignalId id, int width) {
  if (width > signals_[id].width) signals_[id].width = width;
}

SignalId Netlist::push_signal(Signal&& s) {
  SignalId id = static_cast<SignalId>(signals_.size());
  s.driver = kNoPrim;
  s.fanout.clear();
  s.wave = Waveform();
  s.eval_str.clear();
  by_name_.insert_if_absent(s.full_name, id);
  signals_.push_back(std::move(s));
  finalized_ = false;
  return id;
}

Ref Netlist::ref(std::string_view text, int width) {
  return ref(split_signal_text(text), width);
}

Ref Netlist::ref(const SignalText& text, int width) {
  Ref r;
  r.invert = text.complemented;
  r.directives = parse_directives(text);
  r.id = add_signal(text, width);
  return r;
}

SignalId Netlist::find(std::string_view full_name) const { return by_name_.find(full_name); }

void Netlist::set_wire_delay(SignalId id, Time dmin, Time dmax) {
  if (dmin < 0 || dmax < dmin) throw std::invalid_argument("invalid wire delay range");
  signals_[id].wire_delay = WireDelay{dmin, dmax};
}

void Netlist::clear_wire_delay(SignalId id) { signals_[id].wire_delay.reset(); }

void Netlist::retarget_input(PrimId pid, std::size_t input, SignalId sig, bool invert,
                             std::string directives) {
  if (pid >= prims_.size() || input >= prims_[pid].inputs.size() || sig >= signals_.size()) {
    throw std::invalid_argument("retarget_input: id out of range");
  }
  Pin& pin = prims_[pid].inputs[input];
  pin.sig = sig;
  pin.invert = invert;
  pin.directives = std::move(directives);
  finalized_ = false;  // fanout call lists are stale now
}

void Netlist::set_assertion(SignalId id, const Assertion& assertion, std::string base_name,
                            std::string full_name) {
  if (id >= signals_.size()) throw std::invalid_argument("set_assertion: id out of range");
  Signal& s = signals_[id];
  SignalId taken = by_name_.find(full_name);
  if (taken != NameIndex::kAbsent && taken != id) {
    throw std::invalid_argument("set_assertion: \"" + full_name +
                                "\" already names another signal");
  }
  // Drop the old name only when it still points at this signal (a synonym
  // merge may have redirected it to the surviving entry).
  if (by_name_.find(s.full_name) == id) by_name_.erase(s.full_name);
  s.assertion = assertion;
  s.base_name = std::move(base_name);
  s.full_name = std::move(full_name);
  by_name_.assign(s.full_name, id);
}

void Netlist::set_rise_fall(PrimId id, RiseFallDelay rf) {
  if (rf.rise_min < 0 || rf.rise_max < rf.rise_min || rf.fall_min < 0 ||
      rf.fall_max < rf.fall_min) {
    throw std::invalid_argument("invalid rise/fall delay range");
  }
  prims_[id].rise_fall = rf;
}

void Netlist::merge_signals(SignalId keep, SignalId drop) {
  if (keep == drop) return;
  Signal& k = signals_[keep];
  Signal& d = signals_[drop];
  if (k.assertion.kind != Assertion::Kind::None && d.assertion.kind != Assertion::Kind::None &&
      !(k.assertion == d.assertion)) {
    throw std::invalid_argument("synonym \"" + k.full_name + "\" = \"" + d.full_name +
                                "\": conflicting assertions");
  }
  if (k.assertion.kind == Assertion::Kind::None) k.assertion = d.assertion;
  k.width = std::max(k.width, d.width);
  if (!k.wire_delay) k.wire_delay = d.wire_delay;
  for (Primitive& p : prims_) {
    for (Pin& pin : p.inputs) {
      if (pin.sig == drop) pin.sig = keep;
    }
    if (p.output == drop) p.output = keep;
  }
  by_name_.assign(d.full_name, keep);
  d.fanout.clear();
  d.driver = kNoPrim;
  finalized_ = false;
}

PrimId Netlist::add_prim(Primitive&& p) {
  if (p.dmin < 0 || p.dmax < p.dmin) {
    throw std::invalid_argument("primitive \"" + p.name + "\": invalid delay range");
  }
  PrimId id = static_cast<PrimId>(prims_.size());
  prims_.push_back(std::move(p));
  finalized_ = false;
  return id;
}

namespace {
Pin to_pin(const Ref& r) { return Pin{r.id, r.invert, r.directives}; }

/// Appends `pid` to a call list once per primitive. A fresh list starts with
/// room for six ids, all that the smallest heap block holds anyway, so a
/// typical fanout is allocated once instead of regrowing from one.
void add_fanout(std::vector<PrimId>& fo, PrimId pid) {
  if (!fo.empty() && fo.back() == pid) return;
  if (fo.capacity() == 0) fo.reserve(6);
  fo.push_back(pid);
}
}  // namespace

PrimId Netlist::gate(PrimKind kind, std::string name, Time dmin, Time dmax,
                     std::vector<Ref> ins, Ref out, int width) {
  Primitive p;
  p.kind = kind;
  p.name = std::move(name);
  p.dmin = dmin;
  p.dmax = dmax;
  p.width = width;
  p.inputs.reserve(ins.size());
  for (Ref& r : ins) p.inputs.push_back(Pin{r.id, r.invert, std::move(r.directives)});
  p.output = out.id;
  if (out.invert) {
    throw std::invalid_argument("primitive \"" + p.name + "\": output connection cannot be complemented");
  }
  return add_prim(std::move(p));
}

PrimId Netlist::buf(std::string name, Time dmin, Time dmax, Ref in, Ref out, int width) {
  return gate(PrimKind::Buf, std::move(name), dmin, dmax, {in}, out, width);
}
PrimId Netlist::not_gate(std::string name, Time dmin, Time dmax, Ref in, Ref out, int width) {
  return gate(PrimKind::Not, std::move(name), dmin, dmax, {in}, out, width);
}
PrimId Netlist::or_gate(std::string name, Time dmin, Time dmax, std::vector<Ref> ins, Ref out,
                        int width) {
  return gate(PrimKind::Or, std::move(name), dmin, dmax, std::move(ins), out, width);
}
PrimId Netlist::and_gate(std::string name, Time dmin, Time dmax, std::vector<Ref> ins, Ref out,
                         int width) {
  return gate(PrimKind::And, std::move(name), dmin, dmax, std::move(ins), out, width);
}
PrimId Netlist::xor_gate(std::string name, Time dmin, Time dmax, std::vector<Ref> ins, Ref out,
                         int width) {
  return gate(PrimKind::Xor, std::move(name), dmin, dmax, std::move(ins), out, width);
}
PrimId Netlist::chg(std::string name, Time dmin, Time dmax, std::vector<Ref> ins, Ref out,
                    int width) {
  return gate(PrimKind::Chg, std::move(name), dmin, dmax, std::move(ins), out, width);
}
PrimId Netlist::mux2(std::string name, Time dmin, Time dmax, Ref sel, Ref d0, Ref d1, Ref out,
                     int width) {
  return gate(PrimKind::Mux2, std::move(name), dmin, dmax, {sel, d0, d1}, out, width);
}
PrimId Netlist::mux4(std::string name, Time dmin, Time dmax, Ref s0, Ref s1,
                     std::vector<Ref> data, Ref out, int width) {
  std::vector<Ref> ins = {s0, s1};
  ins.insert(ins.end(), data.begin(), data.end());
  return gate(PrimKind::Mux4, std::move(name), dmin, dmax, std::move(ins), out, width);
}
PrimId Netlist::mux8(std::string name, Time dmin, Time dmax, Ref s0, Ref s1, Ref s2,
                     std::vector<Ref> data, Ref out, int width) {
  std::vector<Ref> ins = {s0, s1, s2};
  ins.insert(ins.end(), data.begin(), data.end());
  return gate(PrimKind::Mux8, std::move(name), dmin, dmax, std::move(ins), out, width);
}
PrimId Netlist::reg(std::string name, Time dmin, Time dmax, Ref data, Ref clock, Ref out,
                    int width) {
  return gate(PrimKind::Reg, std::move(name), dmin, dmax, {data, clock}, out, width);
}
PrimId Netlist::reg_sr(std::string name, Time dmin, Time dmax, Ref data, Ref clock, Ref set,
                       Ref reset, Ref out, int width) {
  return gate(PrimKind::RegSR, std::move(name), dmin, dmax, {data, clock, set, reset}, out,
              width);
}
PrimId Netlist::latch(std::string name, Time dmin, Time dmax, Ref data, Ref enable, Ref out,
                      int width) {
  return gate(PrimKind::Latch, std::move(name), dmin, dmax, {data, enable}, out, width);
}
PrimId Netlist::latch_sr(std::string name, Time dmin, Time dmax, Ref data, Ref enable, Ref set,
                         Ref reset, Ref out, int width) {
  return gate(PrimKind::LatchSR, std::move(name), dmin, dmax, {data, enable, set, reset}, out,
              width);
}

PrimId Netlist::setup_hold_chk(std::string name, Time setup, Time hold, Ref i, Ref ck,
                               int width) {
  Primitive p;
  p.kind = PrimKind::SetupHoldChk;
  p.name = std::move(name);
  p.setup = setup;
  p.hold = hold;
  p.width = width;
  p.inputs = {to_pin(i), to_pin(ck)};
  return add_prim(std::move(p));
}

PrimId Netlist::setup_rise_hold_fall_chk(std::string name, Time setup, Time hold, Ref i, Ref ck,
                                         int width) {
  Primitive p;
  p.kind = PrimKind::SetupRiseHoldFallChk;
  p.name = std::move(name);
  p.setup = setup;
  p.hold = hold;
  p.width = width;
  p.inputs = {to_pin(i), to_pin(ck)};
  return add_prim(std::move(p));
}

PrimId Netlist::min_pulse_width_chk(std::string name, Time min_high, Time min_low, Ref i) {
  Primitive p;
  p.kind = PrimKind::MinPulseWidthChk;
  p.name = std::move(name);
  p.min_high = min_high;
  p.min_low = min_low;
  p.inputs = {to_pin(i)};
  return add_prim(std::move(p));
}

std::size_t prim_min_inputs(PrimKind k) {
  switch (k) {
    case PrimKind::Buf:
    case PrimKind::Not:
    case PrimKind::MinPulseWidthChk: return 1;
    case PrimKind::Or:
    case PrimKind::And:
    case PrimKind::Xor:
    case PrimKind::Chg: return 1;
    case PrimKind::Mux2: return 3;
    case PrimKind::Mux4: return 6;
    case PrimKind::Mux8: return 11;
    case PrimKind::Reg:
    case PrimKind::Latch:
    case PrimKind::SetupHoldChk:
    case PrimKind::SetupRiseHoldFallChk: return 2;
    case PrimKind::RegSR:
    case PrimKind::LatchSR: return 4;
  }
  return 1;
}

std::size_t prim_max_inputs(PrimKind k) {
  switch (k) {
    case PrimKind::Or:
    case PrimKind::And:
    case PrimKind::Xor:
    case PrimKind::Chg: return static_cast<std::size_t>(-1);
    default: return prim_min_inputs(k);
  }
}

void Netlist::finalize() {
  for (Signal& s : signals_) {
    s.fanout.clear();
    s.driver = kNoPrim;
  }
  for (PrimId pid = 0; pid < prims_.size(); ++pid) {
    Primitive& p = prims_[pid];
    if (p.inputs.size() < prim_min_inputs(p.kind) || p.inputs.size() > prim_max_inputs(p.kind)) {
      throw std::logic_error("primitive \"" + p.name + "\" (" +
                             std::string(prim_kind_name(p.kind)) + "): wrong input count " +
                             std::to_string(p.inputs.size()));
    }
    bool needs_output = !prim_is_checker(p.kind);
    if (needs_output && p.output == kNoSignal) {
      throw std::logic_error("primitive \"" + p.name + "\" has no output");
    }
    if (!needs_output && p.output != kNoSignal) {
      throw std::logic_error("checker \"" + p.name + "\" must not drive a signal");
    }
    for (const Pin& pin : p.inputs) {
      if (pin.sig == kNoSignal || pin.sig >= signals_.size()) {
        throw std::logic_error("primitive \"" + p.name + "\" has an unconnected input");
      }
      add_fanout(signals_[pin.sig].fanout, pid);
    }
    if (p.output != kNoSignal) {
      Signal& out = signals_[p.output];
      if (out.driver != kNoPrim) {
        throw std::logic_error("signal \"" + out.full_name + "\" has multiple drivers");
      }
      if (out.assertion.is_clock()) {
        // A clock assertion defines the waveform; driving it as well would
        // make the check circular. Stable assertions on driven signals are
        // fine: they are *checked* against the computed waveform (sec 2.5.2).
        throw std::logic_error("signal \"" + out.full_name +
                               "\" carries a clock assertion but is driven by \"" + p.name +
                               "\"");
      }
      out.driver = pid;
    }
  }
  finalized_ = true;
  ++structure_version_;
}

bool Netlist::finalize(diag::DiagnosticEngine& diags,
                       const std::vector<diag::SourceLoc>* prim_locs) {
  auto loc_of = [&](PrimId pid) -> diag::SourceLoc {
    if (prim_locs && pid < prim_locs->size()) return (*prim_locs)[pid];
    return diag::SourceLoc{};
  };
  bool ok = true;
  auto error = [&](PrimId pid, const char* code, const std::string& msg) {
    diags.report(diag::Severity::Error, code, loc_of(pid), msg);
    ok = false;
  };

  for (Signal& s : signals_) {
    s.fanout.clear();
    s.driver = kNoPrim;
  }
  for (PrimId pid = 0; pid < prims_.size(); ++pid) {
    Primitive& p = prims_[pid];
    if (p.inputs.size() < prim_min_inputs(p.kind) || p.inputs.size() > prim_max_inputs(p.kind)) {
      error(pid, diag::kErrPinCountFinal,
            "primitive \"" + p.name + "\" (" + std::string(prim_kind_name(p.kind)) +
                "): wrong input count " + std::to_string(p.inputs.size()));
    }
    bool needs_output = !prim_is_checker(p.kind);
    if (needs_output && p.output == kNoSignal) {
      error(pid, diag::kErrNoOutput, "primitive \"" + p.name + "\" has no output");
    }
    if (!needs_output && p.output != kNoSignal) {
      error(pid, diag::kErrCheckerDrives, "checker \"" + p.name + "\" must not drive a signal");
    }
    for (const Pin& pin : p.inputs) {
      if (pin.sig == kNoSignal || pin.sig >= signals_.size()) {
        error(pid, diag::kErrUnconnectedInput,
              "primitive \"" + p.name + "\" has an unconnected input");
        continue;
      }
      add_fanout(signals_[pin.sig].fanout, pid);
    }
    if (p.output != kNoSignal && p.output < signals_.size()) {
      Signal& out = signals_[p.output];
      if (out.driver != kNoPrim) {
        error(pid, diag::kErrMultipleDrivers,
              "signal \"" + out.full_name + "\" has multiple drivers");
      } else {
        if (out.assertion.is_clock()) {
          error(pid, diag::kErrClockDriven,
                "signal \"" + out.full_name + "\" carries a clock assertion but is driven by \"" +
                    p.name + "\"");
        }
        out.driver = pid;
      }
    }
  }
  if (!ok) return false;

  // Static loop check: a cycle of zero-delay combinational primitives (no
  // clocked element, no checker, no nonzero propagation or wire delay on the
  // way around) can never settle -- the evaluator's oscillation guard would
  // trip at run time. Warn now, naming the signal cycle.
  auto zero_delay_comb = [&](const Primitive& p) {
    if (prim_is_checker(p.kind)) return false;
    switch (p.kind) {
      case PrimKind::Reg:
      case PrimKind::RegSR:
      case PrimKind::Latch:
      case PrimKind::LatchSR: return false;
      default: break;
    }
    Time dmax = p.dmax;
    if (p.rise_fall) dmax = std::max(p.rise_fall->rise_max, p.rise_fall->fall_max);
    return dmax == 0;
  };
  std::vector<std::vector<std::uint32_t>> adj(prims_.size());
  for (PrimId pid = 0; pid < prims_.size(); ++pid) {
    const Primitive& p = prims_[pid];
    if (!zero_delay_comb(p) || p.output == kNoSignal) continue;
    const Signal& out = signals_[p.output];
    if (out.wire_delay && out.wire_delay->dmax > 0) continue;
    for (PrimId consumer : out.fanout) {
      if (zero_delay_comb(prims_[consumer])) adj[pid].push_back(consumer);
    }
  }
  for (const auto& comp : strongly_connected_components(adj)) {
    std::vector<std::uint32_t> cycle = cycle_through_component(adj, comp);
    if (cycle.empty()) continue;
    std::string msg = "zero-delay combinational loop: ";
    for (std::uint32_t pid : cycle) {
      msg += "\"" + signals_[prims_[pid].output].full_name + "\" -> ";
    }
    msg += "\"" + signals_[prims_[cycle[0]].output].full_name + "\"";
    diags.report(diag::Severity::Warning, diag::kWarnZeroDelayLoop, loc_of(cycle[0]), msg);
  }

  finalized_ = true;
  ++structure_version_;
  return true;
}

std::vector<SignalId> Netlist::undefined_unasserted() const {
  std::vector<SignalId> out;
  for (SignalId id = 0; id < signals_.size(); ++id) {
    const Signal& s = signals_[id];
    if (s.driver == kNoPrim && s.assertion.kind == Assertion::Kind::None && !s.fanout.empty()) {
      out.push_back(id);
    }
  }
  return out;
}

}  // namespace tv
