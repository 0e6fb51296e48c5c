#include "core/assertion.hpp"

#include <stdexcept>

#include "util/strings.hpp"

namespace tv {

namespace {

[[noreturn]] void fail(std::string_view text, const std::string& why) {
  throw std::invalid_argument("bad signal assertion in \"" + std::string(text) + "\": " + why);
}

// Cursor-based parser over the assertion spec with whitespace removed.
class SpecParser {
 public:
  SpecParser(std::string spec, std::string_view original)
      : spec_(std::move(spec)), original_(original) {}

  bool done() const { return pos_ >= spec_.size(); }
  char peek() const { return pos_ < spec_.size() ? spec_[pos_] : '\0'; }
  char take() { return spec_[pos_++]; }

  double number() {
    size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < spec_.size() &&
           (is_digit(spec_[pos_]) || spec_[pos_] == '.')) {
      ++pos_;
    }
    double out;
    if (start == pos_ || !parse_double(std::string_view(spec_).substr(start, pos_ - start), out)) {
      fail(original_, "expected a number at \"" + spec_.substr(start) + "\"");
    }
    return out;
  }

 private:
  std::string spec_;
  std::string_view original_;
  size_t pos_ = 0;
};

Assertion parse_spec(Assertion::Kind kind, std::string_view spec_text, std::string_view original) {
  Assertion a;
  a.kind = kind;
  std::string spec;
  for (char c : spec_text) {
    if (!is_space(c)) spec += c;
  }
  SpecParser p(std::move(spec), original);

  // <value specification>: comma-separated time ranges.
  while (!p.done() && (is_digit(p.peek()) || p.peek() == '.')) {
    Assertion::Range r;
    r.begin = p.number();
    if (p.peek() == '-') {
      p.take();
      r.end = p.number();
    } else if (p.peek() == '+') {
      // "t+w": second number is a width in nanoseconds, not scaling with
      // the cycle time (sec. 2.5.1).
      p.take();
      r.width_ns = p.number();
      r.end = r.begin;
    } else {
      // Single time: an interval of one clock unit is assumed.
      r.end = r.begin + 1.0;
    }
    a.ranges.push_back(r);
    if (p.peek() == ',') {
      p.take();
      continue;
    }
    break;
  }
  if (a.ranges.empty()) fail(original, "assertion has no time ranges");

  // Optional <skew specification> "(minus, plus)".
  if (p.peek() == '(') {
    p.take();
    double minus = p.number();
    if (p.peek() != ',') fail(original, "expected ',' in skew specification");
    p.take();
    double plus = p.number();
    if (p.peek() != ')') fail(original, "expected ')' in skew specification");
    p.take();
    if (minus > 0 || plus < 0) fail(original, "skew must satisfy minus <= 0 <= plus");
    a.skew_ns = {minus, plus};
  }

  // Optional polarity assertion "L".
  if (p.peek() == 'L' || p.peek() == 'l') {
    p.take();
    a.active_low = true;
  }
  if (!p.done()) fail(original, "trailing characters in assertion");
  return a;
}

}  // namespace

SignalText split_signal_text(std::string_view text) {
  SignalText t;
  t.text = text;
  std::string_view rest = trim(text);

  // Leading "-": complement of the signal (Fig 3-5's "- WE").
  if (!rest.empty() && rest[0] == '-' &&
      (rest.size() == 1 || rest[1] == ' ' || is_alpha(rest[1]))) {
    t.complemented = true;
    rest = trim(rest.substr(1));
  }

  // Trailing "&..." evaluation directive string (sec. 2.6), when its '&'
  // begins a token ("CLOCK &HZ").
  if (size_t amp = rest.rfind('&');
      amp != std::string_view::npos && (amp == 0 || rest[amp - 1] == ' ')) {
    t.directives = trim(rest.substr(amp + 1));
    rest = trim(rest.substr(0, amp));
  }

  // Scope markers "/M" (macro-local) and "/P" (parameter), sec. 3.1. They
  // follow the name proper.
  if (rest.size() >= 2 && rest[rest.size() - 2] == '/') {
    char m = to_upper(rest.back());
    if (m == 'M' || m == 'P') {
      t.scope = (m == 'M') ? SignalScope::Local : SignalScope::Parameter;
      rest = trim(rest.substr(0, rest.size() - 2));
    }
  }
  t.name = rest;
  t.base = rest;

  // The assertion: a '.' at a word boundary followed by P/C/S and a spec.
  // Assertions are "given at the end of signal names" (sec. 2.5.1).
  for (size_t i = 0; i + 1 < rest.size(); ++i) {
    if (rest[i] != '.') continue;
    if (i > 0 && rest[i - 1] != ' ') continue;  // must start a token
    char k = to_upper(rest[i + 1]);
    if (k != 'P' && k != 'C' && k != 'S') continue;
    char next = (i + 2 < rest.size()) ? rest[i + 2] : ' ';
    if (next == ' ' || is_digit(next) || next == '.') {
      t.assertion = rest.substr(i);
      t.base = trim(rest.substr(0, i));
      break;
    }
  }

  // Vector range "<a:b>" in the base.
  t.head = t.base;
  if (size_t lt = t.base.find('<'); lt != std::string_view::npos) {
    t.has_range = true;
    size_t gt = t.base.rfind('>');
    if (gt != std::string_view::npos && gt > lt) {
      t.range_closed = true;
      t.range = t.base.substr(lt + 1, gt - lt - 1);
      t.head = trim(t.base.substr(0, lt));
    }
  }
  return t;
}

std::string parse_directives(const SignalText& t) {
  std::string out;
  for (char c : t.directives) {
    char u = to_upper(c);
    if (u != 'E' && u != 'W' && u != 'Z' && u != 'A' && u != 'H') {
      fail(t.text, std::string("unknown evaluation directive letter '") + c + "'");
    }
    out += u;
  }
  return out;
}

Assertion parse_assertion(const SignalText& t) {
  if (t.assertion.empty()) return Assertion{};
  char k = to_upper(t.assertion[1]);
  Assertion::Kind kind = k == 'P'   ? Assertion::Kind::PrecisionClock
                         : k == 'C' ? Assertion::Kind::Clock
                                    : Assertion::Kind::Stable;
  return parse_spec(kind, t.assertion.substr(2), t.text);
}

ParsedSignal parse_signal_name(std::string_view text) {
  SignalText t = split_signal_text(text);
  ParsedSignal out;
  out.complemented = t.complemented;
  out.directives = parse_directives(t);
  out.scope = t.scope;
  out.full_name = std::string(t.name);
  out.base_name = std::string(t.base);
  out.assertion = parse_assertion(t);
  return out;
}

std::string assertion_to_text(const Assertion& a) {
  if (a.kind == Assertion::Kind::None) return "";
  std::string out = ".";
  out += a.kind == Assertion::Kind::PrecisionClock ? 'P'
         : a.kind == Assertion::Kind::Clock        ? 'C'
                                                   : 'S';
  char buf[64];
  bool first = true;
  for (const Assertion::Range& r : a.ranges) {
    if (!first) out += ',';
    first = false;
    if (r.width_ns) {
      std::snprintf(buf, sizeof buf, "%g+%g", r.begin, *r.width_ns);
    } else {
      std::snprintf(buf, sizeof buf, "%g-%g", r.begin, r.end);
    }
    out += buf;
  }
  if (a.skew_ns) {
    std::snprintf(buf, sizeof buf, "(%g,%g)", a.skew_ns->first, a.skew_ns->second);
    out += buf;
  }
  if (a.active_low) out += " L";
  return out;
}

Waveform assertion_waveform(const Assertion& a, Time period, const ClockUnits& units,
                            const AssertionDefaults& defaults) {
  if (a.kind == Assertion::Kind::None) return Waveform(period, Value::Unknown);

  bool stable = a.kind == Assertion::Kind::Stable;
  Waveform w(period, stable ? Value::Change : Value::Zero);
  for (const Assertion::Range& r : a.ranges) {
    Time begin = floor_mod(units.to_time(r.begin), period);
    Time width;
    if (r.width_ns) {
      width = from_ns(*r.width_ns);
    } else {
      width = floor_mod(units.to_time(r.end) - units.to_time(r.begin), period);
      // "0-8" in an 8-unit cycle means the whole period, not nothing.
      if (width == 0 && r.end != r.begin) width = period;
    }
    w.set(begin, begin + width, stable ? Value::Stable : Value::One);
  }

  if (stable) return w;  // polarity does not alter stable/changing windows

  if (a.active_low) w = w.map(value_not);

  double minus, plus;
  if (a.skew_ns) {
    minus = a.skew_ns->first;
    plus = a.skew_ns->second;
  } else if (a.kind == Assertion::Kind::PrecisionClock) {
    minus = defaults.precision_skew_minus_ns;
    plus = defaults.precision_skew_plus_ns;
  } else {
    minus = defaults.clock_skew_minus_ns;
    plus = defaults.clock_skew_plus_ns;
  }
  if (minus != 0 || plus != 0) {
    // Shift the nominal waveform to the earliest possible position and keep
    // the total uncertainty (plus - minus) in the skew field.
    Time shift = floor_mod(from_ns(minus), period);
    w = w.delayed(shift, shift);
    w.set_skew(from_ns(plus - minus));
  }
  return w;
}

}  // namespace tv
