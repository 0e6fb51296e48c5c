#include "core/export.hpp"

#include <algorithm>
#include <map>

#include "util/json.hpp"

namespace tv {

namespace {

char vcd_value(Value v) {
  switch (v) {
    case Value::Zero: return '0';
    case Value::One: return '1';
    case Value::Stable: return 'z';  // defined level, value unknown
    default: return 'x';             // may be changing / unknown
  }
}

// VCD identifier codes: printable ASCII starting at '!'.
std::string vcd_id(std::size_t index) {
  std::string id;
  do {
    id += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index != 0);
  return id;
}

}  // namespace

std::string export_vcd(const Netlist& nl, Time period, const std::string& design_name) {
  std::string out;
  out += "$timescale 1ps $end\n";
  out += "$scope module " + design_name + " $end\n";
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    std::string name = nl.signal(id).full_name;
    std::replace(name.begin(), name.end(), ' ', '_');
    out += "$var wire 1 " + vcd_id(id) + " " + name + " $end\n";
  }
  out += "$upscope $end\n$enddefinitions $end\n";

  // Gather all change times across signals (two cycles for periodicity).
  std::map<Time, std::string> dumps;
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Waveform& w = nl.signal(id).wave.with_skew_incorporated();
    Time acc = 0;
    for (const auto& seg : w.segments()) {
      for (int cycle = 0; cycle < 2; ++cycle) {
        Time t = acc + static_cast<Time>(cycle) * period;
        dumps[t] += vcd_value(seg.value);
        dumps[t] += vcd_id(id);
        dumps[t] += '\n';
      }
      acc += seg.width;
    }
  }
  for (const auto& [t, changes] : dumps) {
    out += "#" + std::to_string(t) + "\n";
    out += changes;
  }
  out += "#" + std::to_string(2 * period) + "\n";
  return out;
}

std::string export_dot(const Netlist& nl, const std::vector<SignalId>& highlight,
                       const std::string& design_name) {
  std::vector<char> hot(nl.num_signals(), 0);
  for (SignalId id : highlight) hot[id] = 1;

  std::string out = "digraph \"" + design_name + "\" {\n  rankdir=LR;\n";
  auto esc = [](std::string s) {
    std::string o;
    for (char c : s) {
      if (c == '"' || c == '\\') o += '\\';
      o += c;
    }
    return o;
  };
  for (PrimId pid = 0; pid < nl.num_prims(); ++pid) {
    const Primitive& p = nl.prim(pid);
    out += "  p" + std::to_string(pid) + " [label=\"" + esc(p.name) + "\", shape=" +
           (prim_is_checker(p.kind) ? "doubleoctagon" : "box") + "];\n";
  }
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    bool is_input = s.driver == kNoPrim;
    if (is_input && !s.fanout.empty()) {
      out += "  s" + std::to_string(id) + " [label=\"" + esc(s.full_name) +
             "\", shape=plaintext];\n";
    }
    std::string src = is_input ? "s" + std::to_string(id)
                               : "p" + std::to_string(s.driver);
    for (PrimId pid : s.fanout) {
      out += "  " + src + " -> p" + std::to_string(pid) + " [label=\"" + esc(s.base_name) +
             "\"" + (hot[id] ? ", color=red, penwidth=2" : "") + "];\n";
    }
  }
  out += "}\n";
  return out;
}

std::string export_json(const Netlist& nl, const VerifyResult& result, Time period,
                        const std::vector<SlackEntry>& slacks,
                        const std::string& design_name) {
  std::string out = "{\n";
  auto field = [&](const char* key, const std::string& value, bool quote, bool comma = true) {
    out += "  \"";
    out += key;
    out += "\": ";
    if (quote) {
      out += '"';
      json::escape_into(out, value);
      out += '"';
    } else {
      out += value;
    }
    if (comma) out += ',';
    out += '\n';
  };
  field("design", design_name, true);
  field("period_ns", format_ns(period), false);
  field("converged", result.converged ? "true" : "false", false);
  field("partial", result.partial ? "true" : "false", false);
  field("events", std::to_string(result.base_events), false);
  field("total_violations", std::to_string(result.total_violations()), false);

  out += "  \"degradations\": [\n";
  for (std::size_t i = 0; i < result.degradations.size(); ++i) {
    const Degradation& d = result.degradations[i];
    out += "    {\"code\": \"";
    json::escape_into(out, d.code);
    out += "\", \"message\": \"";
    json::escape_into(out, d.message);
    out += "\"}";
    if (i + 1 < result.degradations.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n";

  auto violation_json = [&](const Violation& v) {
    std::string j = "    {\"type\": \"" + violation_type_name(v.type) + "\", ";
    j += "\"checker\": \"";
    if (v.prim != kNoPrim) json::escape_into(j, nl.prim(v.prim).name);
    j += "\", \"signal\": \"";
    if (v.signal != kNoSignal) json::escape_into(j, nl.signal(v.signal).full_name);
    j += "\", \"missed_by_ns\": " + format_ns(v.missed_by) + ", \"message\": \"";
    json::escape_into(j, v.message);
    j += "\"}";
    return j;
  };

  out += "  \"violations\": [\n";
  for (std::size_t i = 0; i < result.violations.size(); ++i) {
    out += violation_json(result.violations[i]);
    if (i + 1 < result.violations.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n";

  out += "  \"cases\": [\n";
  for (std::size_t c = 0; c < result.cases.size(); ++c) {
    const auto& cr = result.cases[c];
    out += "    {\"name\": \"";
    json::escape_into(out, cr.name);
    out += "\", \"events\": " + std::to_string(cr.events) + ", \"violations\": [\n";
    for (std::size_t i = 0; i < cr.violations.size(); ++i) {
      out += "  " + violation_json(cr.violations[i]);
      if (i + 1 < cr.violations.size()) out += ',';
      out += '\n';
    }
    out += "    ]}";
    if (c + 1 < result.cases.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n";

  out += "  \"slacks\": [\n";
  for (std::size_t i = 0; i < slacks.size(); ++i) {
    const SlackEntry& e = slacks[i];
    out += "    {\"checker\": \"";
    json::escape_into(out, nl.prim(e.checker).name);
    out += "\"";
    if (e.has_setup) out += ", \"setup_slack_ns\": " + format_ns(e.setup_slack);
    if (e.has_hold) out += ", \"hold_slack_ns\": " + format_ns(e.hold_slack);
    out += "}";
    if (i + 1 < slacks.size()) out += ',';
    out += '\n';
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace tv
