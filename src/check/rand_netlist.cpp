#include "check/rand_netlist.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace tv::check {

namespace {

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

// Assertion text for the toggling data input: stable from the settle time
// all the way around to the start of the next change window.
std::string data_assertion(const CircuitSpec& s) {
  return fmt("IN .S%d-%d", s.data_toggle_ns, s.data_toggle_ns + s.period_ns - s.data_change_ns);
}

std::string clock_assertion(const CircuitSpec& s) {
  std::string a = fmt("CK .%c%d-%d", s.clock.precision ? 'P' : 'C', s.clock.edge_units,
                      s.clock.edge_units + s.clock.high_units);
  if (s.clock.skew_minus_ns != 0 || s.clock.skew_plus_ns != 0) {
    a += fmt("(%d,%d)", s.clock.skew_minus_ns, s.clock.skew_plus_ns);
  }
  return a;
}

}  // namespace

CircuitSpec random_spec(std::uint64_t seed) {
  Rng rng(seed);
  CircuitSpec s;
  s.seed = seed;
  s.period_ns = rng.range(150, 250);
  s.data_change_ns = rng.range(2, 8);
  s.data_toggle_ns = s.data_change_ns + rng.range(2, 10);

  int levels = rng.range(1, 4);
  for (int i = 0; i < levels; ++i) {
    StageSpec st;
    int k = rng.range(0, 9);
    st.kind = k < 3   ? StageKind::Buf
              : k < 4 ? StageKind::Inv
              : k < 7 ? StageKind::MuxFastSlow
              : k < 8 ? StageKind::AndEnable
              : k < 9 ? StageKind::OrMask
                      : StageKind::Xor2;
    st.dmin_ns = rng.range(0, 3);
    st.dmax_ns = st.dmin_ns + rng.range(0, 6);
    st.slow_min_ns = rng.range(3, 8);
    st.slow_max_ns = st.slow_min_ns + rng.range(0, 6);
    if (rng.chance(25)) {
      st.rise_fall = true;
      st.fall_extra_ns = rng.range(1, 30);  // strong asymmetry on purpose
    }
    if (rng.chance(40)) st.wire_max_ns = rng.range(1, 3);
    s.stages.push_back(st);
  }

  int sk = rng.range(0, 3);
  s.sink = sk == 0 ? SinkKind::Reg : sk == 1 ? SinkKind::RegSR : sk == 2 ? SinkKind::Latch
                                                                         : SinkKind::LatchSR;
  s.sink_dmin_ns = rng.range(1, 2);
  s.sink_dmax_ns = s.sink_dmin_ns + rng.range(0, 2);
  s.setup_ns = rng.range(1, 6);
  s.hold_ns = rng.chance(40) ? rng.range(1, 3) : 0;

  // Place the nominal clock edge inside (and a little beyond) the data
  // arrival range so roughly half the circuits violate.
  int max_arrival = s.data_toggle_ns;
  for (const StageSpec& st : s.stages) {
    int worst = std::max(st.dmax_ns + (st.rise_fall ? st.fall_extra_ns : 0),
                         st.kind == StageKind::MuxFastSlow ? st.slow_max_ns : 0);
    max_arrival += worst + st.wire_max_ns;
  }
  s.clock.high_units = rng.range(3, 10);
  int lo = s.data_toggle_ns + 1;
  int hi = std::min(max_arrival + 8, s.period_ns - s.clock.high_units - 4);
  s.clock.edge_units = rng.range(lo, std::max(lo, hi));
  s.clock.precision = rng.chance(70);
  if (rng.chance(30)) {
    s.clock.skew_minus_ns = -rng.range(0, 2);
    s.clock.skew_plus_ns = rng.range(0, 2);
  }
  if (rng.chance(35)) {
    s.clock.gated = true;
    int d = rng.range(0, 3);
    s.clock.directive = d == 0 ? '\0' : d == 1 ? 'A' : d == 2 ? 'H' : 'Z';
    bool assume_enabling = s.clock.directive == 'A' || s.clock.directive == 'H';
    // Soundness contract (docs/engine_internals.md): without an enabling
    // directive the gate's enable must carry a definite assertion -- an
    // unasserted enable is "assumed always stable" (sec. 2.5) and the
    // symbolic clock then has no edges to check.
    if (assume_enabling) {
      s.clock.enable_from_path = rng.chance(35);
    } else {
      s.clock.enable_rise_units = rng.range(0, s.clock.edge_units);
      s.clock.enable_fall_units =
          s.clock.enable_rise_units +
          rng.range(2, std::max(2, s.period_ns / 2 - s.clock.enable_rise_units));
    }
  }

  s.second_stage = rng.chance(30);
  if (s.second_stage && rng.chance(50)) {
    s.stage2_edge_units = std::min(
        s.period_ns - 4, s.clock.edge_units + s.clock.high_units + rng.range(5, 40));
  }
  s.with_case = rng.chance(40);

  // Multi-letter evaluation strings, drawn last so every field above keeps
  // its per-seed value. Only letters that change nothing these circuits can
  // observe: E acts as no directive, and W zeroes a wire delay that the
  // clock nets do not have. The simulator's realities stay the same, while
  // every consumer down the chain sees a non-empty propagated string in its
  // memo key, its cone and its case overlays.
  if (s.clock.gated && rng.chance(60)) {
    for (int i = rng.range(1, 3); i > 0; --i) {
      s.clock_directive_tail += rng.chance(50) ? 'E' : 'W';
    }
  }
  if (!s.stages.empty() && rng.chance(50)) s.data_directives.assign(rng.range(2, 4), 'E');
  return s;
}

BuiltCircuit build(const CircuitSpec& spec) {
  BuiltCircuit c;
  c.opts.period = from_ns(spec.period_ns);
  c.opts.units = ClockUnits::from_ns_per_unit(1.0);
  c.opts.default_wire = WireDelay{0, 0};
  c.opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};
  Netlist& nl = c.nl;

  Ref in = nl.ref(data_assertion(spec));
  c.data_in = in.id;
  Ref cur = in;
  int n = 0;
  auto fresh_control = [&]() {
    Ref r = nl.ref(fmt("CTL%d", static_cast<int>(c.controls.size())));
    c.controls.push_back(r.id);
    return r;
  };
  auto apply_stage_extras = [&](const StageSpec& st, PrimId pid, Ref out) {
    if (st.rise_fall) {
      nl.set_rise_fall(pid, RiseFallDelay{from_ns(st.dmin_ns), from_ns(st.dmax_ns),
                                          from_ns(st.dmin_ns + st.fall_extra_ns),
                                          from_ns(st.dmax_ns + st.fall_extra_ns)});
    }
    if (st.wire_max_ns > 0) nl.set_wire_delay(out.id, 0, from_ns(st.wire_max_ns));
  };

  cur.directives = spec.data_directives;  // the first stage's data pin
  for (const StageSpec& st : spec.stages) {
    std::string tag = std::to_string(n++);
    Ref out = nl.ref("N" + tag);
    PrimId pid = kNoPrim;
    switch (st.kind) {
      case StageKind::Buf:
        pid = nl.buf("BUF" + tag, from_ns(st.dmin_ns), from_ns(st.dmax_ns), cur, out);
        break;
      case StageKind::Inv:
        pid = nl.not_gate("INV" + tag, from_ns(st.dmin_ns), from_ns(st.dmax_ns), cur, out);
        break;
      case StageKind::MuxFastSlow: {
        Ref fast = nl.ref("F" + tag);
        Ref slow = nl.ref("S" + tag);
        nl.buf("FB" + tag, from_ns(st.dmin_ns), from_ns(st.dmax_ns), cur, fast);
        nl.buf("SB" + tag, from_ns(st.slow_min_ns), from_ns(st.slow_max_ns), cur, slow);
        Ref sel = fresh_control();
        pid = nl.mux2("MX" + tag, 0, 0, sel, fast, slow, out);
        break;
      }
      case StageKind::AndEnable:
        pid = nl.and_gate("AG" + tag, from_ns(st.dmin_ns), from_ns(st.dmax_ns),
                          {cur, fresh_control()}, out);
        break;
      case StageKind::OrMask:
        pid = nl.or_gate("OG" + tag, from_ns(st.dmin_ns), from_ns(st.dmax_ns),
                         {cur, fresh_control()}, out);
        break;
      case StageKind::Xor2:
        pid = nl.xor_gate("XG" + tag, from_ns(st.dmin_ns), from_ns(st.dmax_ns),
                          {cur, fresh_control()}, out);
        break;
    }
    apply_stage_extras(st, pid, out);
    cur = out;
  }

  Ref ck = nl.ref(clock_assertion(spec));
  c.clock_in = ck.id;
  Ref sink_ck = ck;
  if (spec.clock.gated) {
    Ref gen;
    if (spec.clock.enable_from_path) {
      gen = cur;
    } else if (spec.clock.directive == 'A' || spec.clock.directive == 'H') {
      gen = fresh_control();
    } else {
      gen = nl.ref(fmt("GEN .C%d-%d", spec.clock.enable_rise_units, spec.clock.enable_fall_units));
      c.gate_enable = gen.id;
    }
    Ref ck_pin = ck;
    if (spec.clock.directive != '\0') ck_pin.directives = std::string(1, spec.clock.directive);
    ck_pin.directives += spec.clock_directive_tail;
    Ref ckg = nl.ref("CKG");
    nl.and_gate("GCLK", from_ns(1), from_ns(2), {ck_pin, gen}, ckg);
    sink_ck = ckg;
  }

  bool latch = spec.sink == SinkKind::Latch || spec.sink == SinkKind::LatchSR;
  if (latch) {
    nl.setup_rise_hold_fall_chk("CHK", from_ns(spec.setup_ns), from_ns(spec.hold_ns), cur,
                                sink_ck);
  } else {
    nl.setup_hold_chk("CHK", from_ns(spec.setup_ns), from_ns(spec.hold_ns), cur, sink_ck);
  }

  Ref q = nl.ref("Q");
  Time sdmin = from_ns(spec.sink_dmin_ns), sdmax = from_ns(spec.sink_dmax_ns);
  switch (spec.sink) {
    case SinkKind::Reg:
      nl.reg("RG", sdmin, sdmax, cur, sink_ck, q);
      break;
    case SinkKind::RegSR:
      nl.reg_sr("RG", sdmin, sdmax, cur, sink_ck, fresh_control(), fresh_control(), q);
      break;
    case SinkKind::Latch:
      nl.latch("LT", sdmin, sdmax, cur, sink_ck, q);
      break;
    case SinkKind::LatchSR:
      nl.latch_sr("LT", sdmin, sdmax, cur, sink_ck, fresh_control(), fresh_control(), q);
      break;
  }

  if (spec.second_stage) {
    Ref qb = nl.ref("QB");
    nl.buf("QBUF", from_ns(1), from_ns(3), q, qb);
    Ref ck2 = ck;
    if (spec.stage2_edge_units > 0) {
      ck2 = nl.ref(fmt("CK2 .P%d-%d", spec.stage2_edge_units,
                       spec.stage2_edge_units + spec.clock.high_units));
      c.clock2_in = ck2.id;
    }
    nl.setup_hold_chk("CHK2", from_ns(spec.setup_ns), from_ns(spec.hold_ns), qb, ck2);
    nl.reg("RG2", sdmin, sdmax, qb, ck2, nl.ref("Q2"));
  }

  nl.finalize();

  if (spec.with_case && !c.controls.empty()) {
    c.case_control = 0;
    SignalId pin = c.controls[0];
    c.cases.push_back(CaseSpec{"CTL0=0", {{pin, Value::Zero}}});
    c.cases.push_back(CaseSpec{"CTL0=1", {{pin, Value::One}}});
  }
  return c;
}

std::string to_cpp(const CircuitSpec& s) {
  std::string out;
  out += "    tv::check::CircuitSpec s;\n";
  out += fmt("    s.seed = %lluULL;\n", static_cast<unsigned long long>(s.seed));
  out += fmt("    s.period_ns = %d; s.data_toggle_ns = %d; s.data_change_ns = %d;\n",
             s.period_ns, s.data_toggle_ns, s.data_change_ns);
  for (const StageSpec& st : s.stages) {
    const char* kind = st.kind == StageKind::Buf           ? "Buf"
                       : st.kind == StageKind::Inv         ? "Inv"
                       : st.kind == StageKind::MuxFastSlow ? "MuxFastSlow"
                       : st.kind == StageKind::AndEnable   ? "AndEnable"
                       : st.kind == StageKind::OrMask      ? "OrMask"
                                                           : "Xor2";
    out += fmt(
        "    s.stages.push_back({tv::check::StageKind::%s, %d, %d, %d, %d, %s, %d, %d});\n",
        kind, st.dmin_ns, st.dmax_ns, st.slow_min_ns, st.slow_max_ns,
        st.rise_fall ? "true" : "false", st.fall_extra_ns, st.wire_max_ns);
  }
  const char* sink = s.sink == SinkKind::Reg     ? "Reg"
                     : s.sink == SinkKind::RegSR ? "RegSR"
                     : s.sink == SinkKind::Latch ? "Latch"
                                                 : "LatchSR";
  out += fmt("    s.sink = tv::check::SinkKind::%s;\n", sink);
  out += fmt(
      "    s.clock = {%d, %d, %d, %d, %s, %s, '%s', %s, %d, %d};\n", s.clock.edge_units,
      s.clock.high_units, s.clock.skew_minus_ns, s.clock.skew_plus_ns,
      s.clock.precision ? "true" : "false", s.clock.gated ? "true" : "false",
      s.clock.directive == '\0' ? "\\0" : std::string(1, s.clock.directive).c_str(),
      s.clock.enable_from_path ? "true" : "false", s.clock.enable_rise_units,
      s.clock.enable_fall_units);
  out += fmt("    s.sink_dmin_ns = %d; s.sink_dmax_ns = %d;\n", s.sink_dmin_ns, s.sink_dmax_ns);
  out += fmt("    s.setup_ns = %d; s.hold_ns = %d;\n", s.setup_ns, s.hold_ns);
  out += fmt("    s.second_stage = %s; s.stage2_edge_units = %d; s.with_case = %s;\n",
             s.second_stage ? "true" : "false", s.stage2_edge_units,
             s.with_case ? "true" : "false");
  if (!s.clock_directive_tail.empty() || !s.data_directives.empty()) {
    out += fmt("    s.clock_directive_tail = \"%s\"; s.data_directives = \"%s\";\n",
               s.clock_directive_tail.c_str(), s.data_directives.c_str());
  }
  return out;
}

}  // namespace tv::check
