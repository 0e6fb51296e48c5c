#include "core/incremental.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "core/batch_eval.hpp"
#include "core/checker.hpp"
#include "core/cone.hpp"
#include "core/verifier.hpp"
#include "util/fault.hpp"
#include "util/json.hpp"

namespace tv {

namespace {

[[noreturn]] void bad(const std::string& msg) {
  throw std::invalid_argument("netlist delta: " + msg);
}

void validate_netlist_edits(const Netlist& nl, const NetlistDelta& delta) {
  for (const NetlistDelta::PrimEdit& e : delta.prims) {
    if (e.prim >= nl.num_prims()) bad("primitive id out of range");
    const Primitive& p = nl.prim(e.prim);
    if (e.kind) {
      if (prim_is_checker(*e.kind) != prim_is_checker(p.kind)) {
        bad("primitive \"" + p.name + "\": a kind change cannot turn a checker into a "
            "functional primitive or back");
      }
      if (p.inputs.size() < prim_min_inputs(*e.kind) ||
          p.inputs.size() > prim_max_inputs(*e.kind)) {
        bad("primitive \"" + p.name + "\": " + std::string(prim_kind_name(*e.kind)) +
            " cannot take " + std::to_string(p.inputs.size()) + " inputs");
      }
    }
    if (e.delay && (e.delay->first < 0 || e.delay->second < e.delay->first)) {
      bad("primitive \"" + p.name + "\": invalid delay range");
    }
    if (e.set_rise_fall && e.clear_rise_fall) {
      bad("primitive \"" + p.name + "\": cannot both set and clear rise/fall delays");
    }
    if (e.set_rise_fall) {
      const RiseFallDelay& rf = e.rise_fall;
      if (rf.rise_min < 0 || rf.rise_max < rf.rise_min || rf.fall_min < 0 ||
          rf.fall_max < rf.fall_min) {
        bad("primitive \"" + p.name + "\": invalid rise/fall delay range");
      }
    }
    if (e.min_pulse && (e.min_pulse->first < 0 || e.min_pulse->second < 0)) {
      bad("primitive \"" + p.name + "\": negative minimum pulse width");
    }
  }
  for (const NetlistDelta::PinEdit& e : delta.pins) {
    if (e.prim >= nl.num_prims()) bad("pin edit: primitive id out of range");
    const Primitive& p = nl.prim(e.prim);
    if (e.input >= p.inputs.size()) {
      bad("primitive \"" + p.name + "\": input index " + std::to_string(e.input) +
          " out of range");
    }
    if (e.sig >= nl.num_signals()) {
      bad("primitive \"" + p.name + "\": pin retarget to unknown signal");
    }
  }
  for (const NetlistDelta::WireEdit& e : delta.wires) {
    if (e.sig >= nl.num_signals()) bad("wire edit: signal id out of range");
    if (e.wire && (e.wire->dmin < 0 || e.wire->dmax < e.wire->dmin)) {
      bad("signal \"" + nl.signal(e.sig).full_name + "\": invalid wire delay range");
    }
  }
  // Assertion edits rename signals; track names released and claimed by
  // earlier edits in this delta so sequential application never collides.
  std::unordered_map<std::string, SignalId> claimed;
  std::unordered_set<std::string> released;
  std::unordered_map<SignalId, std::string> current_name;
  for (const NetlistDelta::AssertionEdit& e : delta.assertions) {
    if (e.sig >= nl.num_signals()) bad("assertion edit: signal id out of range");
    const Signal& s = nl.signal(e.sig);
    // The driver set never changes under a delta (outputs are not editable),
    // so the construction-time driver field stays accurate here even when
    // pin edits have definalized the netlist.
    if (e.assertion.is_clock() && s.driver != kNoPrim) {
      bad("signal \"" + s.full_name + "\" is driven; it cannot carry a clock assertion");
    }
    if (e.full_name.empty()) bad("assertion edit: empty signal name");
    auto cl = claimed.find(e.full_name);
    if (cl != claimed.end()) {
      if (cl->second != e.sig) {
        bad("assertion edit: \"" + e.full_name + "\" already claimed by another edit");
      }
    } else {
      SignalId other = nl.find(e.full_name);
      if (other != kNoSignal && other != e.sig && !released.count(e.full_name)) {
        bad("assertion edit: \"" + e.full_name + "\" already names another signal");
      }
    }
    auto cur = current_name.find(e.sig);
    released.insert(cur != current_name.end() ? cur->second : s.full_name);
    released.erase(e.full_name);
    claimed[e.full_name] = e.sig;
    current_name[e.sig] = e.full_name;
  }
}

std::size_t find_case(const std::vector<CaseSpec>& cases, const std::string& name) {
  for (std::size_t i = 0; i < cases.size(); ++i) {
    if (cases[i].name == name) return i;
  }
  return cases.size();
}

/// Applies the case edits to working copies, validating as it goes, and
/// produces both the inverse edits (in application order; the caller
/// reverses them) and the new->prior origin map.
void apply_case_edits(const Netlist& nl, std::vector<CaseSpec>& cases,
                      std::vector<std::ptrdiff_t>& origin, const NetlistDelta& delta,
                      std::vector<NetlistDelta::CaseEdit>& inverse) {
  for (const NetlistDelta::CaseEdit& e : delta.cases) {
    if (e.name.empty()) bad("case edit: empty case name");
    std::size_t idx = find_case(cases, e.name);
    if (!e.spec) {
      if (idx == cases.size()) bad("case edit: no case named \"" + e.name + "\" to remove");
      NetlistDelta::CaseEdit inv;
      inv.name = e.name;
      inv.spec = cases[idx];
      inv.at = idx;
      inverse.push_back(std::move(inv));
      cases.erase(cases.begin() + static_cast<std::ptrdiff_t>(idx));
      origin.erase(origin.begin() + static_cast<std::ptrdiff_t>(idx));
      continue;
    }
    if (e.spec->name != e.name) {
      bad("case edit \"" + e.name + "\": spec carries a different name");
    }
    for (const auto& [sig, val] : e.spec->pins) {
      if (sig >= nl.num_signals()) {
        bad("case \"" + e.name + "\" pins an unknown signal");
      }
      if (val != Value::Zero && val != Value::One) {
        bad("case \"" + e.name + "\": pin values must be 0 or 1");
      }
    }
    if (idx != cases.size()) {
      // In-place replacement keeps the report block order stable.
      NetlistDelta::CaseEdit inv;
      inv.name = e.name;
      inv.spec = cases[idx];
      inverse.push_back(std::move(inv));
      cases[idx] = *e.spec;
      origin[idx] = -1;
      continue;
    }
    std::size_t at = e.at.value_or(cases.size());
    if (at > cases.size()) bad("case edit \"" + e.name + "\": insert position out of range");
    NetlistDelta::CaseEdit inv;
    inv.name = e.name;  // no spec: removal
    inverse.push_back(std::move(inv));
    cases.insert(cases.begin() + static_cast<std::ptrdiff_t>(at), *e.spec);
    origin.insert(origin.begin() + static_cast<std::ptrdiff_t>(at), -1);
  }
}

}  // namespace

AppliedDelta apply_delta(Netlist& nl, std::vector<CaseSpec>& cases,
                         const NetlistDelta& delta) {
  validate_netlist_edits(nl, delta);

  // Case edits run first, on working copies: they are the one edit family
  // whose validity depends on sequential state, so validation and
  // application are one pass. A thrown edit leaves `cases` untouched.
  std::vector<CaseSpec> new_cases = cases;
  AppliedDelta out;
  out.case_origin.resize(cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    out.case_origin[i] = static_cast<std::ptrdiff_t>(i);
  }
  std::vector<NetlistDelta::CaseEdit> case_inverse;
  apply_case_edits(nl, new_cases, out.case_origin, delta, case_inverse);

  // Netlist edits are all validated above; from here nothing throws, so the
  // netlist is never left half-edited.
  for (const NetlistDelta::PrimEdit& e : delta.prims) {
    Primitive& p = nl.prim(e.prim);
    NetlistDelta::PrimEdit inv;
    inv.prim = e.prim;
    if (e.kind) {
      inv.kind = p.kind;
      p.kind = *e.kind;
    }
    if (e.delay) {
      inv.delay = {p.dmin, p.dmax};
      p.dmin = e.delay->first;
      p.dmax = e.delay->second;
    }
    if (e.set_rise_fall) {
      if (p.rise_fall) {
        inv.set_rise_fall = true;
        inv.rise_fall = *p.rise_fall;
      } else {
        inv.clear_rise_fall = true;
      }
      p.rise_fall = e.rise_fall;
    } else if (e.clear_rise_fall && p.rise_fall) {
      inv.set_rise_fall = true;
      inv.rise_fall = *p.rise_fall;
      p.rise_fall.reset();
    }
    if (e.setup_hold) {
      inv.setup_hold = {p.setup, p.hold};
      p.setup = e.setup_hold->first;
      p.hold = e.setup_hold->second;
    }
    if (e.min_pulse) {
      inv.min_pulse = {p.min_high, p.min_low};
      p.min_high = e.min_pulse->first;
      p.min_low = e.min_pulse->second;
    }
    out.inverse.prims.push_back(std::move(inv));
  }
  for (const NetlistDelta::PinEdit& e : delta.pins) {
    const Pin& old = nl.prim(e.prim).inputs[e.input];
    NetlistDelta::PinEdit inv{e.prim, e.input, old.sig, old.invert, old.directives};
    nl.retarget_input(e.prim, e.input, e.sig, e.invert, e.directives);
    out.inverse.pins.push_back(std::move(inv));
  }
  for (const NetlistDelta::WireEdit& e : delta.wires) {
    NetlistDelta::WireEdit inv{e.sig, nl.signal(e.sig).wire_delay};
    if (e.wire) {
      nl.set_wire_delay(e.sig, e.wire->dmin, e.wire->dmax);
    } else {
      nl.clear_wire_delay(e.sig);
    }
    out.inverse.wires.push_back(std::move(inv));
  }
  for (const NetlistDelta::AssertionEdit& e : delta.assertions) {
    const Signal& s = nl.signal(e.sig);
    NetlistDelta::AssertionEdit inv{e.sig, s.assertion, s.base_name, s.full_name};
    nl.set_assertion(e.sig, e.assertion, e.base_name, e.full_name);
    out.inverse.assertions.push_back(std::move(inv));
  }

  // Each inverse family undoes its edits newest-first; families themselves
  // touch disjoint state, so field order is fine.
  std::reverse(out.inverse.prims.begin(), out.inverse.prims.end());
  std::reverse(out.inverse.pins.begin(), out.inverse.pins.end());
  std::reverse(out.inverse.wires.begin(), out.inverse.wires.end());
  std::reverse(out.inverse.assertions.begin(), out.inverse.assertions.end());
  std::reverse(case_inverse.begin(), case_inverse.end());
  out.inverse.cases = std::move(case_inverse);

  cases = std::move(new_cases);
  return out;
}

// ---------------------------------------------------------------------------
// JSON delta parsing (the scaldtv --reverify input; docs/incremental.md).
// ---------------------------------------------------------------------------

namespace {

struct DeltaParser {
  const Netlist& nl;
  std::string err;
  std::unordered_map<std::string, PrimId> prim_by_name;
  std::unordered_set<std::string> ambiguous;

  explicit DeltaParser(const Netlist& netlist) : nl(netlist) {
    for (PrimId pid = 0; pid < nl.num_prims(); ++pid) {
      const std::string& name = nl.prim(pid).name;
      if (!prim_by_name.emplace(name, pid).second) ambiguous.insert(name);
    }
  }

  bool fail(const std::string& msg) {
    if (err.empty()) err = msg;
    return false;
  }
  bool prim_id(const json::Value& obj, PrimId& out) {
    const json::Value* name = obj.get("prim");
    if (!name || name->type != json::Value::Str) return fail("edit needs a \"prim\" name");
    if (ambiguous.count(name->str)) {
      return fail("primitive name \"" + name->str + "\" is ambiguous");
    }
    auto it = prim_by_name.find(name->str);
    if (it == prim_by_name.end()) return fail("unknown primitive \"" + name->str + "\"");
    out = it->second;
    return true;
  }
  bool signal_id(const json::Value& obj, const char* key, SignalId& out) {
    const json::Value* name = obj.get(key);
    if (!name || name->type != json::Value::Str) {
      return fail(std::string("edit needs a \"") + key + "\" signal name");
    }
    SignalId id = nl.find(name->str);
    if (id == kNoSignal) return fail("unknown signal \"" + name->str + "\"");
    out = id;
    return true;
  }
  bool time_pair(const json::Value& obj, const char* a, const char* b,
                 std::optional<std::pair<Time, Time>>& out) {
    const json::Value* va = obj.get(a);
    const json::Value* vb = obj.get(b);
    if (!va && !vb) return true;
    std::optional<double> na = va ? va->as_double() : std::nullopt;
    std::optional<double> nb = vb ? vb->as_double() : std::nullopt;
    if (!na || !nb) {
      return fail(std::string("\"") + a + "\" and \"" + b + "\" must be set together");
    }
    out = {from_ns(*na), from_ns(*nb)};
    return true;
  }

  bool prim_edit(const json::Value& v, NetlistDelta::PrimEdit& e) {
    if (v.type != json::Value::Obj) return fail("\"prims\" entries must be objects");
    if (!prim_id(v, e.prim)) return false;
    if (const json::Value* kind = v.get("kind")) {
      if (kind->type != json::Value::Str) return fail("\"kind\" must be a string");
      bool found = false;
      for (int k = 0; k <= static_cast<int>(PrimKind::MinPulseWidthChk); ++k) {
        if (prim_kind_name(static_cast<PrimKind>(k)) == kind->str) {
          e.kind = static_cast<PrimKind>(k);
          found = true;
          break;
        }
      }
      if (!found) return fail("unknown primitive kind \"" + kind->str + "\"");
    }
    if (!time_pair(v, "dmin", "dmax", e.delay)) return false;
    if (const json::Value* rise = v.get("rise_fall")) {
      if (rise->type == json::Value::Null) {
        e.clear_rise_fall = true;
      } else if (rise->type == json::Value::Arr && rise->arr.size() == 4 &&
                 std::all_of(rise->arr.begin(), rise->arr.end(),
                             [](const json::Value& x) { return x.as_double().has_value(); })) {
        e.set_rise_fall = true;
        e.rise_fall = {from_ns(*rise->arr[0].as_double()), from_ns(*rise->arr[1].as_double()),
                       from_ns(*rise->arr[2].as_double()), from_ns(*rise->arr[3].as_double())};
      } else {
        return fail("\"rise_fall\" must be null or [rise_min, rise_max, fall_min, fall_max]");
      }
    }
    if (!time_pair(v, "setup", "hold", e.setup_hold)) return false;
    if (!time_pair(v, "min_high", "min_low", e.min_pulse)) return false;
    return true;
  }
  bool pin_edit(const json::Value& v, NetlistDelta::PinEdit& e) {
    if (v.type != json::Value::Obj) return fail("\"pins\" entries must be objects");
    if (!prim_id(v, e.prim)) return false;
    const json::Value* input = v.get("input");
    std::optional<std::int64_t> index = input ? input->as_int64() : std::nullopt;
    if (!index || *index < 0) return fail("pin edit needs an \"input\" index");
    e.input = static_cast<std::size_t>(*index);
    if (!signal_id(v, "signal", e.sig)) return false;
    if (const json::Value* inv = v.get("invert")) {
      if (inv->type != json::Value::Bool) return fail("\"invert\" must be a boolean");
      e.invert = inv->b;
    }
    if (const json::Value* dirs = v.get("directives")) {
      if (dirs->type != json::Value::Str) return fail("\"directives\" must be a string");
      e.directives = dirs->str;
    }
    return true;
  }
  bool wire_edit(const json::Value& v, NetlistDelta::WireEdit& e) {
    if (v.type != json::Value::Obj) return fail("\"wires\" entries must be objects");
    if (!signal_id(v, "signal", e.sig)) return false;
    const json::Value* clear = v.get("clear");
    if (clear && clear->type == json::Value::Bool && clear->b) return true;  // e.wire stays empty
    std::optional<std::pair<Time, Time>> range;
    if (!time_pair(v, "dmin", "dmax", range)) return false;
    if (!range) return fail("wire edit needs \"dmin\"/\"dmax\" or \"clear\": true");
    e.wire = WireDelay{range->first, range->second};
    return true;
  }
  bool assertion_edit(const json::Value& v, NetlistDelta::AssertionEdit& e) {
    if (v.type != json::Value::Obj) return fail("\"assertions\" entries must be objects");
    if (!signal_id(v, "signal", e.sig)) return false;
    const json::Value* text = v.get("new");
    if (!text || text->type != json::Value::Str) {
      return fail("assertion edit needs \"new\": the replacement SCALD signal name");
    }
    try {
      ParsedSignal parsed = parse_signal_name(text->str);
      if (parsed.complemented) return fail("assertion edit name cannot be complemented");
      e.assertion = parsed.assertion;
      e.base_name = parsed.base_name;
      e.full_name = parsed.full_name;
    } catch (const std::invalid_argument& ex) {
      return fail(std::string("assertion edit: ") + ex.what());
    }
    return true;
  }
  bool case_edit(const json::Value& v, NetlistDelta::CaseEdit& e) {
    if (v.type != json::Value::Obj) return fail("\"cases\" entries must be objects");
    const json::Value* name = v.get("name");
    if (!name || name->type != json::Value::Str) return fail("case edit needs a \"name\"");
    e.name = name->str;
    const json::Value* remove = v.get("remove");
    if (remove && remove->type == json::Value::Bool && remove->b) return true;
    const json::Value* pins = v.get("pins");
    if (!pins || pins->type != json::Value::Arr) {
      return fail("case edit needs \"pins\" (or \"remove\": true)");
    }
    CaseSpec spec;
    spec.name = e.name;
    for (const json::Value& pin : pins->arr) {
      if (pin.type != json::Value::Arr || pin.arr.size() != 2 ||
          pin.arr[0].type != json::Value::Str) {
        return fail("case pins must be [\"SIGNAL NAME\", 0-or-1] pairs");
      }
      SignalId sig = nl.find(pin.arr[0].str);
      if (sig == kNoSignal) return fail("case pins unknown signal \"" + pin.arr[0].str + "\"");
      std::optional<std::int64_t> val = pin.arr[1].as_int64();
      if (val != 0 && val != 1) return fail("case pin values must be 0 or 1");
      spec.pins.emplace_back(sig, *val == 0 ? Value::Zero : Value::One);
    }
    e.spec = std::move(spec);
    if (const json::Value* at = v.get("at")) {
      std::optional<std::int64_t> pos = at->as_int64();
      if (!pos || *pos < 0) return fail("\"at\" must be a position");
      e.at = static_cast<std::size_t>(*pos);
    }
    return true;
  }

  template <class Edit, class Fn>
  bool section(const json::Value& root, const char* key, std::vector<Edit>& out, Fn&& fn) {
    const json::Value* v = root.get(key);
    if (!v) return true;
    if (v->type != json::Value::Arr) return fail(std::string("\"") + key + "\" must be an array");
    for (const json::Value& entry : v->arr) {
      Edit e;
      if (!(this->*fn)(entry, e)) return false;
      out.push_back(std::move(e));
    }
    return true;
  }
};

}  // namespace

bool parse_delta_json(const std::string& text, const Netlist& nl, NetlistDelta* out,
                      std::string* error) {
  json::Value root;
  std::string json_error;
  if (!json::parse(text, root, &json_error)) {
    if (error) *error = "delta JSON: " + json_error;
    return false;
  }
  if (root.type != json::Value::Obj) {
    if (error) *error = "delta JSON: the top level must be an object";
    return false;
  }
  static const char* kSections[] = {"prims", "pins", "wires", "assertions", "cases"};
  for (const auto& [key, value] : root.obj) {
    if (std::find(std::begin(kSections), std::end(kSections), key) == std::end(kSections)) {
      if (error) *error = "delta JSON: unknown section \"" + key + "\"";
      return false;
    }
  }
  DeltaParser parser(nl);
  NetlistDelta delta;
  bool ok = parser.section(root, "prims", delta.prims, &DeltaParser::prim_edit) &&
            parser.section(root, "pins", delta.pins, &DeltaParser::pin_edit) &&
            parser.section(root, "wires", delta.wires, &DeltaParser::wire_edit) &&
            parser.section(root, "assertions", delta.assertions,
                           &DeltaParser::assertion_edit) &&
            parser.section(root, "cases", delta.cases, &DeltaParser::case_edit);
  if (!ok) {
    if (error) *error = "delta JSON: " + parser.err;
    return false;
  }
  *out = std::move(delta);
  return true;
}

// ---------------------------------------------------------------------------
// Verifier::reverify
// ---------------------------------------------------------------------------

VerifyResult Verifier::reverify(const NetlistDelta& delta, ReverifyStats* stats) {
  ReverifyStats local;
  ReverifyStats& st = stats ? *stats : local;
  st = ReverifyStats{};
  if (!has_baseline_) {
    throw std::logic_error("reverify: no baseline fixpoint; run verify() first");
  }
  fault::check("incremental.apply");

  if (delta.empty()) {
    // Nothing can change: the cached report is the answer, verbatim.
    st.incremental = true;
    return last_;
  }

  Netlist& nl = ev_.netlist();

  // A pin retarget can change which primitives a case's affected cone even
  // *contains* (the old edge is gone), so a prior case block computed on the
  // old cone may be stale although the new cone is disjoint from every edit.
  // Cone membership only changes when an edited-pin primitive sits in the
  // old cone or the new one; the new side falls out of the check-cone
  // intersection below, the old side must be recorded here, against the
  // still-unedited graph.
  std::vector<char> old_cone_dirty(last_cases_.size(), 0);
  if (delta.structural() && !last_cases_.empty()) {
    const ConeIndex& old_idx = cone_index();
    for (std::size_t i = 0; i < last_cases_.size(); ++i) {
      std::vector<SignalId> pins;
      pins.reserve(last_cases_[i].pins.size());
      for (const auto& [sig, val] : last_cases_[i].pins) pins.push_back(sig);
      std::shared_ptr<const Cone> cc = old_idx.cone_of(std::move(pins));
      for (const NetlistDelta::PinEdit& e : delta.pins) {
        if (e.prim < nl.num_prims() && cc->contains_prim(e.prim)) {
          old_cone_dirty[i] = 1;
          break;
        }
      }
    }
  }

  std::vector<CaseSpec> new_cases = last_cases_;
  // Throws std::invalid_argument with the netlist, case list, and baseline
  // all untouched.
  AppliedDelta applied = apply_delta(nl, new_cases, delta);
  st.inverse = applied.inverse;

  // The netlist is edited now: the cached report no longer describes it, so
  // the baseline is consumed whatever happens next.
  VerifyResult prior = std::move(last_);
  last_ = VerifyResult{};
  last_cases_.clear();
  has_baseline_ = false;

  if (delta.structural()) nl.finalize();  // recompute fanout call lists

  auto fallback = [&](const char* why) {
    st.incremental = false;
    st.fallback_reason = why;
    if (!nl.finalized()) nl.finalize();
    return verify(new_cases);  // records the new baseline itself
  };

  const VerifierOptions& opts = ev_.options();
  if (!prior.converged) return fallback("baseline fixpoint did not converge");
  if (prior.partial) return fallback("baseline is partial (resource-guard degraded)");
  if (opts.time_limit_seconds > 0 || opts.deadline.armed()) {
    // Deadline-degradation points depend on evaluation order, which an
    // incremental run cannot mirror.
    return fallback("wall-clock budget armed");
  }
  if (opts.max_evals_per_prim == 0) return fallback("oscillation guard disabled");

  // Collect the edit's seed pins (signals whose value could move), the
  // primitives to re-evaluate, and the signals whose seed function changed.
  std::vector<SignalId> seeds;
  std::vector<SignalId> reseed;
  std::vector<PrimId> reeval;
  std::vector<PrimId> edited_prims;  // includes checkers (check cone)
  std::vector<SignalId> recheck_signals;
  for (const NetlistDelta::PrimEdit& e : delta.prims) {
    const Primitive& p = nl.prim(e.prim);
    edited_prims.push_back(e.prim);
    if (prim_is_checker(p.kind)) continue;  // parameter edits move no waveform? no:
    // a delay/kind edit changes this primitive's output computation.
    if (p.output != kNoSignal) seeds.push_back(p.output);
    reeval.push_back(e.prim);
  }
  for (const NetlistDelta::PinEdit& e : delta.pins) {
    const Primitive& p = nl.prim(e.prim);
    edited_prims.push_back(e.prim);
    if (prim_is_checker(p.kind)) continue;
    if (p.output != kNoSignal) seeds.push_back(p.output);
    reeval.push_back(e.prim);
  }
  for (const NetlistDelta::WireEdit& e : delta.wires) {
    // The signal's own waveform is unchanged; its consumers see it through a
    // different interconnection delay and must re-evaluate.
    seeds.push_back(e.sig);
    recheck_signals.push_back(e.sig);
    for (PrimId pid : nl.signal(e.sig).fanout) reeval.push_back(pid);
  }
  for (const NetlistDelta::AssertionEdit& e : delta.assertions) {
    seeds.push_back(e.sig);
    recheck_signals.push_back(e.sig);
    reseed.push_back(e.sig);
  }

  fault::check("incremental.cone");

  // The *potential* dirty cone: everything the edit could reach through the
  // (new) fanout graph before event-driven propagation narrows it. This is
  // what the SCC gate must inspect -- the real touched set is only known
  // after propagation, too late to decide soundness.
  std::shared_ptr<const Cone> potential;
  if (!seeds.empty()) {
    potential = cone_index().cone_of(seeds);
    st.dirty_signals = potential->signals;
    st.dirty_prims = potential->prims;
  }
  for (PrimId pid : edited_prims) {
    if (!potential || !potential->contains_prim(pid)) st.dirty_prims.push_back(pid);
  }
  std::sort(st.dirty_prims.begin(), st.dirty_prims.end());
  st.dirty_prims.erase(std::unique(st.dirty_prims.begin(), st.dirty_prims.end()),
                       st.dirty_prims.end());

  if (potential) {
    const std::vector<char>& in_cycle = batch_schedule().in_cycle;
    for (PrimId pid : potential->prims) {
      if (in_cycle[pid]) {
        // Inside an unclocked feedback loop the fixpoint may depend on the
        // order values arrived (a combinational latch can hold a transient);
        // re-propagating from final upstream values is not provably
        // equivalent to a cold run there.
        return fallback("dirty cone touches an unclocked feedback loop");
      }
    }
  }

  std::size_t evals_before = ev_.evals_performed();
  st.events = ev_.propagate_incremental(reseed, reeval);
  st.evals = ev_.evals_performed() - evals_before;
  st.touched_signals = ev_.touched_signals().size();
  if (!ev_.converged()) return fallback("incremental propagation did not converge");
  if (ev_.degraded()) return fallback("resource guard fired during incremental propagation");

  VerifyResult r;
  r.converged = true;
  r.partial = false;
  // Cumulative evaluation effort: the baseline's cost plus this delta's.
  // These counters are the one place an incremental report legitimately
  // differs from a cold run -- identity comparisons must exclude them.
  r.base_events = prior.base_events + st.events;
  r.base_evals = prior.base_evals + st.evals;

  // The check cone: signals whose value/eval-string actually changed, plus
  // wire/assertion-edited signals (their checking context changed even when
  // their waveform did not), plus every edited primitive and every consumer
  // of an in-cone signal (their prepared inputs changed).
  Cone check_cone(nl.num_signals(), nl.num_prims());
  for (SignalId s : ev_.touched_signals()) check_cone.signal_slot.mark(s);
  for (SignalId s : recheck_signals) check_cone.signal_slot.mark(s);
  check_cone.signal_slot.finish(check_cone.signals);
  for (PrimId pid : edited_prims) check_cone.prim_slot.mark(pid);
  for (SignalId s : check_cone.signals) {
    for (PrimId pid : nl.signal(s).fanout) check_cone.prim_slot.mark(pid);
  }
  check_cone.prim_slot.finish(check_cone.prims);

  // Base findings: recheck inside the cone, splice the prior findings
  // everywhere else (their inputs are bit-identical to the prior fixpoint).
  std::vector<Degradation> check_degs;
  r.violations = run_checks_scoped(EvalView(nl, opts, true), check_cone, prior.violations,
                                  &check_degs);
  if (!check_degs.empty()) return fallback("checker budget degraded");
  r.cross_reference = nl.undefined_unasserted();

  // Case blocks: a case must re-run when it is new/edited, when its prior
  // block was not clean, or when its affected cone intersects the check cone
  // (either a case-cone primitive reads a changed signal, or the base
  // findings its block copied in the check-cone region changed). Disjoint
  // clean cases splice: drop the block's copied check-cone findings, merge
  // in the new ones, re-sort. The re-run cases are collected and go through
  // verify()'s case phase together, then scatter back by index.
  r.cases.resize(new_cases.size());
  std::vector<std::vector<Degradation>> case_degradations(new_cases.size());
  std::vector<std::size_t> rerun_at;
  std::vector<CaseSpec> rerun_specs;
  std::vector<std::shared_ptr<const Cone>> rerun_cones;
  const ConeIndex& cidx = cone_index();
  auto in_check_cone = [&](const Violation& v) {
    if (v.type == Violation::Type::StableAssertionViolated) {
      return v.signal != kNoSignal && check_cone.contains_signal(v.signal);
    }
    return v.prim != kNoPrim && check_cone.contains_prim(v.prim);
  };
  for (std::size_t i = 0; i < new_cases.size(); ++i) {
    std::vector<SignalId> pins;
    pins.reserve(new_cases[i].pins.size());
    for (const auto& [sig, val] : new_cases[i].pins) pins.push_back(sig);
    std::shared_ptr<const Cone> ccone = cidx.cone_of(std::move(pins));

    std::ptrdiff_t origin = applied.case_origin[i];
    bool rerun = origin < 0;
    if (!rerun) {
      const VerifyResult::CaseResult& pc = prior.cases[static_cast<std::size_t>(origin)];
      if (!pc.converged || pc.degraded) rerun = true;
      if (old_cone_dirty[static_cast<std::size_t>(origin)]) rerun = true;
    }
    if (!rerun) {
      for (SignalId s : ccone->signals) {
        if (check_cone.contains_signal(s)) {
          rerun = true;
          break;
        }
      }
    }
    if (!rerun) {
      for (PrimId pid : ccone->prims) {
        if (check_cone.contains_prim(pid)) {
          rerun = true;
          break;
        }
      }
    }

    if (rerun) {
      rerun_at.push_back(i);
      rerun_specs.push_back(new_cases[i]);
      rerun_cones.push_back(std::move(ccone));
    } else {
      ++st.cases_spliced;
      const VerifyResult::CaseResult& pc = prior.cases[static_cast<std::size_t>(origin)];
      VerifyResult::CaseResult cr;
      cr.name = pc.name;
      cr.events = pc.events;  // the case cone's baseline is untouched
      cr.converged = pc.converged;
      cr.degraded = false;
      // The prior block's findings in the check-cone region were copies of
      // the *prior* base findings there; replace them with the new ones.
      for (const Violation& v : pc.violations) {
        if (!in_check_cone(v)) cr.violations.push_back(v);
      }
      for (const Violation& v : r.violations) {
        if (in_check_cone(v) && !(v.type == Violation::Type::StableAssertionViolated
                                      ? ccone->contains_signal(v.signal)
                                      : v.prim != kNoPrim && ccone->contains_prim(v.prim))) {
          cr.violations.push_back(v);
        }
      }
      sort_violations(cr.violations);
      r.cases[i] = std::move(cr);
    }
  }
  st.cases_reevaluated = rerun_at.size();
  std::vector<VerifyResult::CaseResult> rerun_results;
  std::vector<std::vector<Degradation>> rerun_degradations;
  run_cases(rerun_specs, rerun_cones, r.violations, r.converged, r.partial, rerun_results,
            rerun_degradations);
  for (std::size_t k = 0; k < rerun_at.size(); ++k) {
    r.cases[rerun_at[k]] = std::move(rerun_results[k]);
    case_degradations[rerun_at[k]] = std::move(rerun_degradations[k]);
  }
  merge_case_degradations(r, case_degradations);

  st.incremental = true;
  last_ = r;
  last_cases_ = std::move(new_cases);
  has_baseline_ = true;
  return r;
}

}  // namespace tv
