#include "hdl/elaborate.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

#include "hdl/lexer.hpp"
#include "hdl/parser.hpp"
#include "util/strings.hpp"
#include "util/time.hpp"

namespace tv::hdl {

namespace {

/// Unwinds elaboration after an error has been reported through the
/// DiagnosticEngine (diagnostic mode only).
struct ElabBail {};

/// One frame of the macro-expansion backtrace: where the macro was
/// instantiated, and which source file the expansion's line numbers now
/// refer to (macros merged from other sources keep their own numbering).
struct MacroFrame {
  std::string macro;
  std::string site_file;  // file of the instantiation site
  int line = 0;
  int column = 0;
};

/// Diagnostic-mode state, threaded through the expansion walk without
/// touching every helper signature. A null `t_diag` = legacy throwing mode.
struct DiagState {
  diag::DiagnosticEngine* diags = nullptr;
  std::string current_file;  // file whose line numbers apply right now
  std::vector<MacroFrame> stack;
};
thread_local DiagState* t_diag = nullptr;

struct DiagScope {
  DiagState state;
  explicit DiagScope(diag::DiagnosticEngine& diags) {
    state.diags = &diags;
    state.current_file = diags.current_file();
    t_diag = &state;
  }
  ~DiagScope() { t_diag = nullptr; }
};

[[noreturn]] void fail(int line, int column, const char* code, const std::string& why) {
  if (t_diag) {
    diag::Diagnostic& d = t_diag->diags->report(
        diag::Severity::Error, code, diag::SourceLoc{t_diag->current_file, line, column},
        why);
    for (auto it = t_diag->stack.rbegin(); it != t_diag->stack.rend(); ++it) {
      d.notes.push_back(
          diag::Note{diag::SourceLoc{it->site_file, it->line, it->column},
                     "in expansion of macro \"" + it->macro + "\" instantiated here"});
    }
    throw ElabBail{};
  }
  throw std::invalid_argument("SHDL elaboration error at line " + std::to_string(line) + ": " +
                              why);
}

/// Evaluates an attribute/wire-delay operand; an unknown macro parameter
/// becomes a located SHDL-E021 in diagnostic mode.
double eval_operand(const Operand& o, const ParamEnv& env, int line, int column) {
  if (!o.expr) return o.value;
  try {
    return o.expr->eval(env, line);
  } catch (const std::invalid_argument& ex) {
    if (!t_diag) throw;
    std::string msg = ex.what();
    if (std::size_t p = msg.find(": "); p != std::string::npos) msg = msg.substr(p + 2);
    fail(line, column, diag::kErrUnknownParam, msg);
  }
}

// --- tiny arithmetic evaluator for "<0:SIZE-1>" range texts ----------------

class RangeExpr {
 public:
  RangeExpr(std::string_view s, const ParamEnv& env, int line)
      : s_(s), env_(env), line_(line) {}

  double eval() {
    double v = sum();
    skip_ws();
    if (pos_ != s_.size()) {
      fail(line_, 0, diag::kErrBadRange, "bad range expression \"" + std::string(s_) + "\"");
    }
    // A bound is a bit index, so a computed one must be whole as well.
    if (!std::isfinite(v) || v != std::trunc(v)) {
      char buf[32];
      const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
      fail(line_, 0, diag::kErrBadRange,
           "range bound \"" + std::string(trim(s_)) + "\" evaluates to " +
               std::string(buf, end) + ", not a whole number");
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && is_space(s_[pos_])) ++pos_;
  }
  char peek() {
    skip_ws();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }
  double sum() {
    double v = product();
    while (peek() == '+' || peek() == '-') {
      char op = s_[pos_++];
      double r = product();
      v = op == '+' ? v + r : v - r;
    }
    return v;
  }
  double product() {
    double v = atom();
    while (peek() == '*' || peek() == '/') {
      char op = s_[pos_++];
      double r = atom();
      v = op == '*' ? v * r : v / r;
    }
    return v;
  }
  double atom() {
    char c = peek();
    if (c == '(') {
      ++pos_;
      double v = sum();
      if (peek() != ')') {
        fail(line_, 0, diag::kErrBadRange, "missing ')' in range expression");
      }
      ++pos_;
      return v;
    }
    if (c == '-') {
      ++pos_;
      return -atom();
    }
    if (is_digit(c)) {
      // Range bounds are bit indices, so a literal's value is a whole
      // number.
      std::string_view text = s_.substr(pos_, number_length(s_.substr(pos_)));
      pos_ += text.size();
      std::optional<double> v = read_number(text);
      if (v && *v == std::trunc(*v)) return *v;
      fail(line_, 0, diag::kErrBadRange,
           "bad number \"" + std::string(text) + "\" in range expression");
    }
    if (is_alpha(c) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < s_.size() &&
             (is_alnum(s_[pos_]) || s_[pos_] == '_')) {
        ++pos_;
      }
      std::string_view name = s_.substr(start, pos_ - start);
      for (const auto& [formal, v] : env_) {
        if (formal == name) return v;
      }
      fail(line_, 0, diag::kErrUnknownParam,
           "unknown parameter \"" + std::string(name) + "\" in range");
    }
    fail(line_, 0, diag::kErrBadRange, "bad range expression \"" + std::string(s_) + "\"");
  }

  std::string_view s_;
  const ParamEnv& env_;
  int line_;
  std::size_t pos_ = 0;
};

// --- signal references ------------------------------------------------------

/// One resolved signal reference: its text split with the name rebuilt for
/// this scope, and its directive letters, checked and upper-cased. A
/// reference to a macro formal that adds no assertion forwards to the
/// actual's Resolved, which lives in an enclosing Scope's signal map: every
/// reference to one actual shares its name and, in pass 2, its id. A
/// forward's own `sig` and `directives` carry only its complement and
/// directives. The views point into the syntax tree or a NameStore, both of
/// which outlive the elaboration.
struct Resolved {
  SignalText sig;
  std::string directives;
  mutable SignalId id = kNoSignal;    // set by the first make_pin
  const Resolved* forward = nullptr;  // the actual a pass-through formal reuses
  int width = 1;
};

const Resolved& target(const Resolved& r) { return r.forward ? *r.forward : r; }

/// A copy of `r` that does not forward, for references kept past the
/// expansion of the scopes a forward points into.
Resolved own(const Resolved& r) {
  if (!r.forward) return r;
  Resolved o = *r.forward;
  o.sig.complemented = r.sig.complemented;
  o.sig.directives = r.sig.directives;
  o.directives = r.directives;
  o.width = r.width;
  return o;
}

/// Keeps the names the elaborator rebuilds ("/M" locals, evaluated ranges)
/// alive for the whole elaboration, packed into large blocks. A name that
/// comes out spelled as written is not copied: the view into the syntax tree
/// serves.
class NameStore {
 public:
  /// A cleared buffer to build one name in.
  std::string& buffer() {
    buffer_.clear();
    return buffer_;
  }
  /// The name just built in buffer(): `written` when it spells the same.
  std::string_view keep(std::string_view written) {
    if (buffer_ == written) return written;
    if (blocks_.empty() || blocks_.back().capacity() - blocks_.back().size() < buffer_.size()) {
      // A block never reallocates, so the views into it stay valid.
      blocks_.emplace_back().reserve(std::max<std::size_t>(kBlock, buffer_.size()));
    }
    std::string& block = blocks_.back();
    const std::size_t at = block.size();
    block += buffer_;
    return std::string_view(block).substr(at);
  }

 private:
  static constexpr std::size_t kBlock = 16 * 1024;
  std::string buffer_;
  std::deque<std::string> blocks_;
};

/// Appends " assertion" to a name, as written in a full SCALD name.
void append_assertion(std::string& name, std::string_view assertion) {
  if (assertion.empty()) return;
  if (!name.empty()) name += ' ';
  name += assertion;
}

/// Evaluates "lo:hi" (or a single index, lo == hi) in `env`; returns lo.
double eval_range(std::string_view range, const ParamEnv& env, int line, double* hi) {
  auto colon = range.find(':');
  double lo = RangeExpr(range.substr(0, colon), env, line).eval();
  *hi = colon == std::string_view::npos ? lo
                                        : RangeExpr(range.substr(colon + 1), env, line).eval();
  return lo;
}

// Environment of one macro instantiation.
struct Scope {
  ParamEnv env;  // numeric parameters
  /// Formal base name -> actual, in declaration order (formals are few).
  std::vector<std::pair<std::string_view, Resolved>> signal_map;
  std::string path;  // instance path for "/M" locals
};

const Resolved* find_formal(const Scope& scope, std::string_view head) {
  for (const auto& [formal, actual] : scope.signal_map) {
    if (formal == head) return &actual;
  }
  return nullptr;
}

/// Resolves one signal string in `scope` into `r`. Malformed directives and
/// ranges are reported at (line, column).
void resolve_signal(NameStore& names, std::string_view raw, const Scope& scope, int line,
                    int column, Resolved& r) {
  SignalText& t = r.sig;
  t = split_signal_text(raw);
  if (t.has_range && !t.range_closed) {
    fail(line, 0, diag::kErrBadRange, "unterminated vector range");
  }
  if (!t.directives.empty()) {
    try {
      r.directives = parse_directives(t);
    } catch (const std::invalid_argument& e) {
      fail(line, column, diag::kErrElab, e.what());
    }
  }
  double lo = 0, hi = 0;
  if (!t.range.empty()) {
    lo = eval_range(t.range, scope.env, line, &hi);
    r.width = static_cast<int>(std::llround(std::abs(hi - lo))) + 1;
  }

  if (const Resolved* formal = find_formal(scope, t.head)) {
    // Formal parameter: the actual's name; the actual's own assertion wins,
    // complements compose, the body's directives replace the actual's.
    const Resolved& a = target(*formal);
    r.width = std::max(r.width, formal->width);
    t.complemented ^= formal->sig.complemented;
    if (t.directives.empty()) {
      t.directives = formal->sig.directives;
      r.directives = formal->directives;
    }
    if (t.assertion.empty() || !a.sig.assertion.empty()) {
      r.forward = &a;
      return;
    }
    std::string& name = names.buffer();
    name += a.sig.name;
    append_assertion(name, t.assertion);
    t.name = names.keep(t.name);
    t.base = a.sig.name;
    t.scope = a.sig.scope;
    return;
  }
  if (t.scope == SignalScope::Parameter) {
    fail(line, 0, diag::kErrNotAParameter,
         "\"" + std::string(raw) + "\" is marked /P but is not a declared parameter");
  }

  // Global (unmarked) or instance-local ("/M") signal.
  std::string& name = names.buffer();
  if (t.scope == SignalScope::Local && !scope.path.empty()) {
    name += scope.path;
    name += '/';
  }
  name += t.head;
  if (!t.range.empty()) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "<%lld:%lld>", static_cast<long long>(std::llround(lo)),
                  static_cast<long long>(std::llround(hi)));
    name += buf;
  }
  std::size_t base_len = name.size();
  append_assertion(name, t.assertion);
  t.name = names.keep(t.name);
  t.base = t.name.substr(0, base_len);
}

Resolved resolve_signal(NameStore& names, std::string_view raw, const Scope& scope, int line,
                        int column) {
  Resolved r;
  resolve_signal(names, raw, scope, line, column, r);
  return r;
}

// --- expansion walk ---------------------------------------------------------

struct SynonymPair {
  Resolved a, b;
  int line = 0;
  int column = 0;
  std::string file;  // source attribution at resolution time
};

/// How much one expansion of a body adds to the netlist: primitives, and
/// signal references, which bound the signals it can create. The counts
/// only size a reservation: they saturate at 2^18, and a recursive macro
/// counts as empty below the cycle.
struct ExpansionSize {
  std::size_t prims = 0;
  std::size_t refs = 0;
};

/// What elaboration needs of a macro definition, worked out once per
/// elaboration instead of once per instantiation.
struct MacroPlan {
  /// The split text of each signal formal, in declaration order.
  std::vector<SignalText> formals;
  ExpansionSize size;
  bool sizing = false;
  bool sized = false;
};

struct ExpandCtx {
  ExpandCtx(const File& f, Netlist* n, std::vector<diag::SourceLoc>* locs)
      : file(f), nl(n), prim_locs(locs) {}

  const File& file;
  Netlist* nl = nullptr;  // null during pass 1
  std::vector<diag::SourceLoc>* prim_locs = nullptr;  // PrimId -> site
  ExpandSummary sum;
  /// Pass 1 counts the distinct names that primitives and wire_delay
  /// statements reference. Pass 2 counts the signals its primitives create
  /// plus the names in here: referenced, but not created by the end of the
  /// expansion (a wire_delay's own signal, a checker's output).
  std::unordered_set<std::string_view> names;
  NameStore store;
  std::vector<std::pair<std::string, std::vector<std::pair<Resolved, int>>>> raw_cases;
  std::vector<std::pair<Resolved, std::pair<Time, Time>>> wire_delays;
  std::vector<SynonymPair> synonyms;
  std::size_t inst_counter = 0;
  int depth = 0;
  std::unordered_map<const MacroDef*, MacroPlan> plans;
  /// ExpandSummary::prims_by_kind, tallied by view (kinds are few).
  std::vector<std::pair<std::string_view, std::size_t>> kind_counts;
  /// A primitive's resolved pins; primitives do not nest, so one buffer
  /// serves them all.
  std::vector<Resolved> prim_pins;
};

const MacroDef* find_macro(const ExpandCtx& ctx, const std::string& name) {
  auto it = ctx.file.macros.find(name);
  return it == ctx.file.macros.end() ? nullptr : &it->second;
}

/// The plan of `def`, splitting its formals' text on first use.
MacroPlan& plan_of(ExpandCtx& ctx, const MacroDef& def) {
  auto [it, fresh] = ctx.plans.try_emplace(&def);
  if (fresh) {
    for (const ParamDecl& d : def.body.params) {
      for (const std::string& n : d.names) it->second.formals.push_back(split_signal_text(n));
    }
  }
  return it->second;
}

/// The size of one expansion of `body`, `depth` macros down; as deep as the
/// expansion itself goes, and no deeper.
ExpansionSize expansion_size(ExpandCtx& ctx, const Body& body, int depth = 0) {
  constexpr std::size_t kCap = std::size_t{1} << 18;
  ExpansionSize n;
  if (depth > 65) return n;
  auto add = [&](std::size_t prims, std::size_t refs) {
    n.prims = std::min(kCap, n.prims + prims);
    n.refs = std::min(kCap, n.refs + refs);
  };
  for (const Instance& inst : body.instances) {
    if (const MacroDef* def = find_macro(ctx, inst.kind)) {
      MacroPlan& plan = plan_of(ctx, *def);
      if (!plan.sized && !plan.sizing) {
        plan.sizing = true;
        plan.size = expansion_size(ctx, def->body, depth + 1);
        plan.sizing = false;
        plan.sized = true;
      }
      add(plan.size.prims, plan.size.refs);
    } else if (!inst.is_macro) {
      add(1, inst.pins.size() + !inst.output.empty());
    }
  }
  add(0, body.wire_delays.size() + 2 * body.synonyms.size());
  for (const CaseDecl& c : body.cases) add(0, c.pins.size());
  return n;
}

/// "PATH/KIND#N", the name of the next instance under `path`.
std::string instance_name(ExpandCtx& ctx, std::string_view path, std::string_view kind) {
  char counter[24];
  char* end = std::to_chars(counter, counter + sizeof counter, ctx.inst_counter++).ptr;
  std::string name;
  name.reserve(path.size() + kind.size() + 2 + static_cast<std::size_t>(end - counter));
  if (!path.empty()) {
    name += path;
    name += '/';
  }
  name += kind;
  name += '#';
  name.append(counter, end);
  return name;
}

double attr_value(const Instance& inst, std::string_view name, const Scope& scope, double dflt,
                  bool* found = nullptr, double* hi = nullptr) {
  for (const Attr& a : inst.attrs) {
    if (a.name == name) {
      if (found) *found = true;
      double lo = eval_operand(a.lo, scope.env, a.line, a.column);
      if (hi) *hi = a.has_hi ? eval_operand(a.hi, scope.env, a.line, a.column) : lo;
      return lo;
    }
  }
  if (found) *found = false;
  if (hi) *hi = dflt;
  return dflt;
}

/// Counts `r`'s name for the summary (see ExpandCtx::names).
void note_name(ExpandCtx& ctx, const Resolved& r) {
  std::string_view name = target(r).sig.name;
  if (ctx.nl && ctx.nl->find(name) != kNoSignal) return;  // counted as a signal
  ctx.names.insert(name);
}

/// The pin `r` connects, creating its signal on first use.
Pin make_pin(ExpandCtx& ctx, const Resolved& r) {
  const Resolved& s = target(r);
  if (s.id == kNoSignal) {
    s.id = ctx.nl->add_signal(s.sig, r.width);
  } else {
    ctx.nl->widen(s.id, r.width);
  }
  return Pin{s.id, r.sig.complemented, r.directives};
}

/// Parses the assertion of a reference the netlist creates only after
/// expansion, so a malformed one is reported at its statement.
void check_assertion(const Resolved& r, int line, int column) {
  try {
    parse_assertion(target(r).sig);
  } catch (const std::invalid_argument& e) {
    fail(line, column, diag::kErrElab, e.what());
  }
}

/// A primitive as SHDL spells it. Its pins are `leading` fixed ones, then
/// `tail` more (kVariadic: one or more).
struct PrimSpec {
  std::string_view kind;
  PrimKind prim;
  std::uint8_t leading;
  std::uint8_t tail;
  bool rise_fall;  // takes [rise=..., fall=...] (combinational elements)
};
constexpr std::uint8_t kVariadic = 0xff;

constexpr PrimSpec kPrimSpecs[] = {
    {"buf", PrimKind::Buf, 1, 0, true},
    {"wire", PrimKind::Buf, 1, 0, true},
    {"not", PrimKind::Not, 1, 0, true},
    {"or", PrimKind::Or, 0, kVariadic, true},
    {"and", PrimKind::And, 0, kVariadic, true},
    {"xor", PrimKind::Xor, 0, kVariadic, true},
    {"chg", PrimKind::Chg, 0, kVariadic, true},
    {"mux2", PrimKind::Mux2, 3, 0, true},
    {"mux4", PrimKind::Mux4, 2, 4, true},
    {"mux8", PrimKind::Mux8, 3, 8, true},
    {"reg", PrimKind::Reg, 2, 0, false},
    {"reg_sr", PrimKind::RegSR, 4, 0, false},
    {"latch", PrimKind::Latch, 2, 0, false},
    {"latch_sr", PrimKind::LatchSR, 4, 0, false},
    {"setup_hold", PrimKind::SetupHoldChk, 2, 0, false},
    {"setup_rise_hold_fall", PrimKind::SetupRiseHoldFallChk, 2, 0, false},
    {"min_pulse_width", PrimKind::MinPulseWidthChk, 1, 0, false},
};

const PrimSpec* find_prim_spec(std::string_view kind) {
  for (const PrimSpec& spec : kPrimSpecs) {
    if (spec.kind == kind) return &spec;
  }
  return nullptr;
}

void build_primitive(ExpandCtx& ctx, const Instance& inst, const Scope& scope,
                     const std::vector<Resolved>& pins, const Resolved* out, std::string name,
                     int width) {
  const std::string& k = inst.kind;
  double dmax_ns = 0;
  double dmin_ns = attr_value(inst, "delay", scope, 0, nullptr, &dmax_ns);
  if (t_diag && (dmin_ns < 0 || dmax_ns < dmin_ns)) {
    // Legacy mode leaves this to Netlist::add_prim (same condition, but a
    // location-free exception); here we can name the instantiation site.
    fail(inst.line, inst.column, diag::kErrBadDelay,
         "\"" + k + "\": invalid delay range " + format_ns(from_ns(dmin_ns)) + ":" +
             format_ns(from_ns(dmax_ns)) + " (need 0 <= min <= max)");
  }
  const PrimSpec* spec = find_prim_spec(k);
  if (!spec) {
    fail(inst.line, inst.column, diag::kErrUnknownPrimitive,
         "unknown primitive \"" + k + "\" (and no such macro)");
  }
  if (spec->tail == kVariadic) {
    if (pins.empty()) {
      fail(inst.line, inst.column, diag::kErrPinCount,
           "\"" + k + "\" needs at least one input");
    }
  } else if (std::size_t n = spec->leading + spec->tail; pins.size() != n) {
    fail(inst.line, inst.column, diag::kErrPinCount,
         "\"" + k + "\" needs " + std::to_string(n) + " inputs, got " +
             std::to_string(pins.size()));
  }

  // Signals are created in the order that fixes their ids (and the .tvc
  // bytes): the output, the tail pins first to last, then the leading pins
  // last to first.
  Primitive p;
  p.kind = spec->prim;
  p.name = std::move(name);
  bool out_inverted = false;
  if (!prim_is_checker(spec->prim)) {
    if (!out) {
      fail(inst.line, inst.column, diag::kErrPinCount,
           "\"" + k + "\" needs an output ('-> \"SIG\"')");
    }
    Pin o = make_pin(ctx, *out);
    p.output = o.sig;
    out_inverted = o.invert;
  }
  p.inputs.resize(pins.size());
  for (std::size_t i = spec->leading; i < pins.size(); ++i) p.inputs[i] = make_pin(ctx, pins[i]);
  for (std::size_t i = spec->leading; i-- > 0;) p.inputs[i] = make_pin(ctx, pins[i]);

  switch (spec->prim) {
    case PrimKind::SetupHoldChk:
    case PrimKind::SetupRiseHoldFallChk:
      p.hold = from_ns(attr_value(inst, "hold", scope, 0));
      p.setup = from_ns(attr_value(inst, "setup", scope, 0));
      p.width = width;
      break;
    case PrimKind::MinPulseWidthChk:
      p.min_low = from_ns(attr_value(inst, "min_low", scope, 0));
      p.min_high = from_ns(attr_value(inst, "min_high", scope, 0));
      break;
    default:
      p.dmin = from_ns(dmin_ns);
      p.dmax = from_ns(dmax_ns);
      p.width = width;
      if (out_inverted) {
        throw std::invalid_argument("primitive \"" + p.name +
                                    "\": output connection cannot be complemented");
      }
  }
  Netlist& nl = *ctx.nl;
  PrimId made = nl.add_prim(std::move(p));

  // Optional polarity-dependent delays (sec. 4.2.2 extension):
  // [rise=min:max, fall=min:max] on any combinational primitive.
  bool has_rise = false, has_fall = false;
  double rise_hi = 0, fall_hi = 0;
  double rise_lo = attr_value(inst, "rise", scope, 0, &has_rise, &rise_hi);
  double fall_lo = attr_value(inst, "fall", scope, 0, &has_fall, &fall_hi);
  if (has_rise != has_fall) {
    fail(inst.line, inst.column, diag::kErrRiseFallPair,
         "\"" + k + "\": rise and fall delays must be given together");
  }
  if (has_rise && spec->rise_fall) {
    nl.set_rise_fall(made, RiseFallDelay{from_ns(rise_lo), from_ns(rise_hi), from_ns(fall_lo),
                                         from_ns(fall_hi)});
  }
}

void expand_body(ExpandCtx& ctx, const Body& body, const Scope& scope);

void expand_instance(ExpandCtx& ctx, const Instance& inst, const Scope& scope) {
  const MacroDef* def = find_macro(ctx, inst.kind);
  const bool macro = inst.is_macro || def;
  std::vector<Resolved> macro_pins;
  std::vector<Resolved>& pins = macro ? macro_pins : ctx.prim_pins;
  pins.clear();
  pins.resize(inst.pins.size());
  for (std::size_t i = 0; i < inst.pins.size(); ++i) {
    resolve_signal(ctx.store, inst.pins[i], scope, inst.line, inst.column, pins[i]);
  }

  if (macro) {
    if (!def) {
      fail(inst.line, inst.column, diag::kErrUnknownMacro,
           "unknown macro \"" + inst.kind + "\"");
    }
    if (ctx.depth > 64) {
      fail(inst.line, inst.column, diag::kErrMacroRecursion,
           "macro recursion too deep (cycle?)");
    }

    // While evaluating inside the macro's own source, diagnostics get a
    // backtrace frame ("in expansion of macro ... instantiated here") and
    // line numbers are attributed to the definition's file.
    struct FrameGuard {
      bool active = false;
      std::string saved_file;
      FrameGuard(const MacroDef& d, const Instance& i) {
        if (!t_diag) return;
        active = true;
        t_diag->stack.push_back(MacroFrame{d.name, t_diag->current_file, i.line, i.column});
        saved_file = t_diag->current_file;
        if (!d.file.empty()) t_diag->current_file = d.file;
      }
      ~FrameGuard() {
        if (!active) return;
        t_diag->stack.pop_back();
        t_diag->current_file = std::move(saved_file);
      }
    };
    struct DepthGuard {
      int& d;
      explicit DepthGuard(int& depth) : d(depth) { ++d; }
      ~DepthGuard() { --d; }
    };

    Scope inner;
    inner.path = instance_name(ctx, scope.path, inst.kind);
    // Numeric parameters from attributes (evaluated at the *call* site,
    // before entering the macro's source scope).
    inner.env.reserve(def->formals.size());
    for (const std::string& formal : def->formals) {
      bool found = false;
      double v = attr_value(inst, formal, scope, 0, &found);
      if (!found) {
        fail(inst.line, inst.column, diag::kErrMacroParams,
             "macro \"" + def->name + "\": parameter " + formal + " not given");
      }
      inner.env.emplace_back(formal, v);
    }
    // Signal parameters: declaration order (ins and outs as declared) maps
    // positionally to the instance pins. Widths evaluate in the macro's
    // source scope (they reference the definition's lines).
    const std::vector<SignalText>& formals = plan_of(ctx, *def).formals;
    {
      FrameGuard frame(*def, inst);
      for (std::size_t i = 0; i < formals.size(); ++i) {
        const SignalText& t = formals[i];
        if (t.has_range && !t.range_closed) {
          fail(def->line, 0, diag::kErrBadRange, "unterminated vector range");
        }
        if (t.range.find(':') != std::string_view::npos) {
          double hi = 0;
          double lo = eval_range(t.range, inner.env, def->line, &hi);
          int w = static_cast<int>(std::llround(std::abs(hi - lo))) + 1;
          if (i < pins.size()) pins[i].width = std::max(pins[i].width, w);
        }
      }
    }
    if (formals.size() != pins.size()) {
      fail(inst.line, inst.column, diag::kErrMacroParams,
           "macro \"" + def->name + "\" declares " + std::to_string(formals.size()) +
               " parameters but " + std::to_string(pins.size()) + " were connected");
    }
    inner.signal_map.reserve(formals.size());
    for (std::size_t i = 0; i < formals.size(); ++i) {
      inner.signal_map.emplace_back(formals[i].head, std::move(pins[i]));
    }
    ++ctx.sum.macro_instances;
    {
      DepthGuard depth(ctx.depth);
      FrameGuard frame(*def, inst);
      expand_body(ctx, def->body, inner);
    }
    return;
  }

  // Primitive instance.
  ++ctx.sum.primitives;
  int width = static_cast<int>(attr_value(inst, "width", scope, 1));
  ctx.sum.total_bits += static_cast<std::size_t>(width);
  auto kind = std::find_if(ctx.kind_counts.begin(), ctx.kind_counts.end(),
                           [&](const auto& kc) { return kc.first == inst.kind; });
  if (kind == ctx.kind_counts.end()) {
    ctx.kind_counts.emplace_back(inst.kind, 1);
  } else {
    ++kind->second;
  }
  Resolved out;
  bool has_out = !inst.output.empty();
  if (has_out) resolve_signal(ctx.store, inst.output, scope, inst.line, inst.column, out);
  if (!ctx.nl) {
    for (const Resolved& r : pins) note_name(ctx, r);
    if (has_out) note_name(ctx, out);
  } else {
    std::size_t before = ctx.nl->num_prims();
    try {
      build_primitive(ctx, inst, scope, pins, has_out ? &out : nullptr,
                      instance_name(ctx, scope.path, inst.kind), width);
    } catch (const ElabBail&) {
      throw;
    } catch (const std::exception& e) {
      // Netlist builders throw on semantic violations (conflicting
      // assertions, bad delay ranges); give them the instance's location.
      if (!t_diag) throw;
      fail(inst.line, inst.column, diag::kErrElab, e.what());
    }
    if (has_out && target(out).id == kNoSignal) note_name(ctx, out);  // a checker's
    if (ctx.prim_locs) {
      if (ctx.prim_locs->size() < ctx.nl->num_prims()) {
        ctx.prim_locs->resize(ctx.nl->num_prims());
      }
      diag::SourceLoc loc{t_diag->current_file, inst.line, inst.column};
      for (std::size_t p = before; p < ctx.nl->num_prims(); ++p) (*ctx.prim_locs)[p] = loc;
    }
  }
}

void expand_body(ExpandCtx& ctx, const Body& body, const Scope& scope) {
  for (const Instance& inst : body.instances) {
    // At the design's top level in diagnostic mode, a bad instance is
    // reported and the walk continues with the next statement, so one run
    // surfaces every elaboration error (capped by --max-errors).
    if (t_diag && ctx.depth == 0) {
      try {
        expand_instance(ctx, inst, scope);
      } catch (const ElabBail&) {
        if (t_diag->diags->error_limit_reached()) throw;
      }
    } else {
      expand_instance(ctx, inst, scope);
    }
  }
  // The netlist creates these references' signals after expansion, so
  // their text is checked here, where the macro backtrace is still known.
  for (const WireDelayDecl& d : body.wire_delays) {
    Resolved r = resolve_signal(ctx.store, d.signal, scope, d.line, d.column);
    check_assertion(r, d.line, d.column);
    note_name(ctx, r);
    Time lo = from_ns(eval_operand(d.dmin, scope.env, d.line, d.column));
    Time hi = from_ns(eval_operand(d.dmax, scope.env, d.line, d.column));
    if (lo < 0 || hi < lo) {
      fail(d.line, d.column, diag::kErrBadDelay,
           "wire_delay \"" + d.signal + "\": invalid delay range " + format_ns(lo) + ":" +
               format_ns(hi) + " (need 0 <= min <= max)");
    }
    ctx.wire_delays.emplace_back(own(r), std::make_pair(lo, hi));
  }
  for (const SynonymDecl& d : body.synonyms) {
    ctx.synonyms.push_back(SynonymPair{
        own(resolve_signal(ctx.store, d.a, scope, d.line, d.column)),
        own(resolve_signal(ctx.store, d.b, scope, d.line, d.column)), d.line, d.column,
        t_diag ? t_diag->current_file : std::string()});
  }
  for (const CaseDecl& c : body.cases) {
    std::vector<std::pair<Resolved, int>> pins;
    for (const auto& [sig, val] : c.pins) {
      Resolved r = resolve_signal(ctx.store, sig, scope, c.line, c.column);
      check_assertion(r, c.line, c.column);
      pins.emplace_back(own(r), val);
    }
    ctx.raw_cases.emplace_back(c.name, std::move(pins));
  }
}

ExpandCtx run_expansion(const File& file, Netlist* nl,
                        std::vector<diag::SourceLoc>* prim_locs = nullptr) {
  if (!file.has_design) {
    if (t_diag) {
      fail(file.end_line, 0, diag::kErrNoDesign, "SHDL file has no design block");
    }
    throw std::invalid_argument("SHDL file has no design block");
  }
  ExpandCtx ctx(file, nl, prim_locs);
  if (nl) {
    ExpansionSize size = expansion_size(ctx, file.design);
    nl->reserve(size.refs, size.prims);
  }
  Scope top;
  expand_body(ctx, file.design, top);
  for (const auto& [kind, count] : ctx.kind_counts) {
    ctx.sum.prims_by_kind.emplace(std::string(kind), count);
  }
  if (nl) {
    std::erase_if(ctx.names, [&](std::string_view n) { return nl->find(n) != kNoSignal; });
    ctx.sum.unique_signals = nl->num_signals() + ctx.names.size();
  } else {
    ctx.sum.unique_signals = ctx.names.size();
  }
  return ctx;
}

ElaboratedDesign elaborate_impl(const File& file) {
  ElaboratedDesign out;
  out.name = file.design_name;

  ExpandCtx ctx = run_expansion(file, &out.netlist,
                                t_diag ? &out.prim_locs : nullptr);
  out.summary = ctx.sum;

  // Don't pile structural errors on top of expansion errors: the netlist is
  // incomplete once any instance failed to build.
  if (t_diag && t_diag->diags->has_errors()) throw ElabBail{};

  const Body& d = file.design;
  if (d.period_ns <= 0) {
    if (t_diag) {
      int line = d.period_line > 0 ? d.period_line : (d.line > 0 ? d.line : file.design_line);
      int column = d.period_line > 0 ? d.period_column : 0;
      fail(line, column, diag::kErrBadPeriod, "design must specify a positive period");
    }
    throw std::invalid_argument("design must specify a positive period");
  }
  out.options.period = from_ns(d.period_ns);
  out.options.units = ClockUnits::from_ns_per_unit(d.clock_unit_ns > 0 ? d.clock_unit_ns : 1.0);
  if (d.wire_min_ns >= 0) {
    out.options.default_wire = WireDelay{from_ns(d.wire_min_ns), from_ns(d.wire_max_ns)};
  }
  if (d.precision_skew[0] <= d.precision_skew[1]) {
    out.options.assertion_defaults.precision_skew_minus_ns = d.precision_skew[0];
    out.options.assertion_defaults.precision_skew_plus_ns = d.precision_skew[1];
  }
  if (d.clock_skew[0] <= d.clock_skew[1]) {
    out.options.assertion_defaults.clock_skew_minus_ns = d.clock_skew[0];
    out.options.assertion_defaults.clock_skew_plus_ns = d.clock_skew[1];
  }

  for (const SynonymPair& syn : ctx.synonyms) {
    try {
      SignalId a = out.netlist.add_signal(syn.a.sig, syn.a.width);
      SignalId b = out.netlist.add_signal(syn.b.sig, syn.b.width);
      out.netlist.merge_signals(a, b);
    } catch (const std::exception& e) {
      if (!t_diag) throw;
      t_diag->current_file = syn.file;
      fail(syn.line, syn.column, diag::kErrElab, e.what());
    }
  }
  for (const auto& [resolved, range] : ctx.wire_delays) {
    SignalId id = out.netlist.add_signal(resolved.sig, resolved.width);
    out.netlist.set_wire_delay(id, range.first, range.second);
  }
  for (const auto& [name, pins] : ctx.raw_cases) {
    CaseSpec spec;
    spec.name = name;
    for (const auto& [sig, val] : pins) {
      spec.pins.emplace_back(out.netlist.add_signal(sig.sig),
                             val ? Value::One : Value::Zero);
    }
    out.cases.push_back(std::move(spec));
  }
  if (t_diag) {
    if (!out.netlist.finalize(*t_diag->diags, &out.prim_locs)) throw ElabBail{};
  } else {
    out.netlist.finalize();
  }
  return out;
}

}  // namespace

ExpandSummary expand_summary(const File& file) { return run_expansion(file, nullptr).sum; }

ElaboratedDesign elaborate(const File& file) { return elaborate_impl(file); }

ElaboratedDesign elaborate_source(std::string_view src) {
  return elaborate(parse(src));
}

std::optional<ElaboratedDesign> elaborate(const File& file, diag::DiagnosticEngine& diags) {
  DiagScope scope(diags);
  try {
    ElaboratedDesign out = elaborate_impl(file);
    if (diags.has_errors()) return std::nullopt;
    return out;
  } catch (const ElabBail&) {
    return std::nullopt;
  } catch (const std::exception& e) {
    diags.report(diag::Severity::Error, diag::kErrInternal, diag::SourceLoc{},
                 std::string("internal elaboration error: ") + e.what());
    return std::nullopt;
  }
}

std::optional<ElaboratedDesign> elaborate_source(std::string_view src,
                                                 diag::DiagnosticEngine& diags) {
  File f = parse(src, diags);
  if (diags.has_errors()) return std::nullopt;
  return elaborate(f, diags);
}

}  // namespace tv::hdl
