// Signal assertions (thesis sec. 2.5).
//
// Assertions are written at the end of signal names, preceded by a period,
// and are considered part of the name by the rest of the SCALD system (which
// guarantees consistency of all assertions on one signal by construction):
//
//   MEM CLK .P2-3 L        precision clock, high 2-3 (L: stated low 2-3)
//   SYS CLK .C 4-6 L       non-precision clock
//   W DATA .S0-6           stable from clock-unit 0 to 6, changing 6..8
//   CK .P2+10.0            rises at unit 2, stays high 10.0 ns (does not
//                          scale with cycle time)
//   X .C2,5(-0.5,0.5)      explicit skew specification in ns
//
// Times in assertions are in user clock units (sec. 2.3) and are taken
// modulo the cycle time (sec. 3.2). Precision vs non-precision clocks differ
// only in the *default* skew applied when none is given (sec. 2.5.1).
// A leading "-" complements the signal, and a trailing "&" string carries
// evaluation directives (sec. 2.6), e.g. "CK .P0-4 &HZ".
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/waveform.hpp"
#include "util/time.hpp"

namespace tv {

struct Assertion {
  enum class Kind {
    None,           // plain signal, no timing assertion
    PrecisionClock, // .P
    Clock,          // .C (non-precision)
    Stable          // .S
  };

  /// One <time range>. Times are clock units (fractional allowed). When
  /// `width_ns` is set, the range was written "t+w": it begins at `begin`
  /// clock units and lasts `*width_ns` nanoseconds (does not scale).
  struct Range {
    double begin = 0;
    double end = 0;
    std::optional<double> width_ns;
    bool operator==(const Range&) const = default;
  };

  Kind kind = Kind::None;
  std::vector<Range> ranges;
  bool active_low = false;  // trailing "L" polarity assertion
  /// Explicit skew specification "(minus, plus)" in ns; minus <= 0 <= plus.
  std::optional<std::pair<double, double>> skew_ns;

  bool is_clock() const { return kind == Kind::PrecisionClock || kind == Kind::Clock; }
  bool operator==(const Assertion&) const = default;
};

/// Signal scope markers (sec. 3.1): "/M" marks a signal local to its macro,
/// "/P" marks a macro parameter; unmarked signals are global. Local signals
/// never participate in cross-section interface checking.
enum class SignalScope : std::uint8_t { Global, Local, Parameter };

/// A signal reference split into its pieces, as views into the text it was
/// split from. For "- CK<0:3> .P0-4 /M &HZ":
///
///   complemented  true            (leading "-")
///   name          "CK<0:3> .P0-4" (the identity: assertion included)
///   base          "CK<0:3>"       (name before the assertion)
///   head, range   "CK", "0:3"     (base split at a "<range>")
///   assertion     ".P0-4"         (from the '.', unparsed)
///   scope         Local           ("/M"; "/P" is Parameter)
///   directives    "HZ"            (letters after a token-initial '&',
///                                  unchecked)
///
/// The '&' of a directive string must begin a token: an embedded '&' is
/// part of the name proper (drawing systems allow "A&B").
struct SignalText {
  std::string_view text;  // the whole reference, quoted in error messages
  bool complemented = false;
  std::string_view name;
  std::string_view base;
  std::string_view head;
  std::string_view range;
  bool has_range = false;     // base holds a '<'
  bool range_closed = false;  // ... and a '>' after it
  std::string_view assertion;
  std::string_view directives;
  SignalScope scope = SignalScope::Global;
};

/// Splits a signal reference as written on a drawing. Never throws: the
/// pieces are checked by parse_directives / parse_assertion.
SignalText split_signal_text(std::string_view text);

/// The directive letters, upper-cased. Throws std::invalid_argument naming
/// `t.text` on a letter other than E, W, Z, A or H (sec. 2.6).
std::string parse_directives(const SignalText& t);

/// The parsed assertion (Kind::None when `t.assertion` is empty). Throws
/// std::invalid_argument naming `t.text` on a malformed specification.
Assertion parse_assertion(const SignalText& t);

/// The decomposition of a full SCALD signal name.
struct ParsedSignal {
  std::string base_name;    // name up to (not including) the assertion
  std::string full_name;    // assertion included (the true signal identity)
  bool complemented = false;  // leading "-": use the complement of the signal
  Assertion assertion;
  std::string directives;   // evaluation string, e.g. "HZ" from "&HZ"
  SignalScope scope = SignalScope::Global;
};

/// split_signal_text + parse_directives + parse_assertion. Throws
/// std::invalid_argument with a description on malformed assertions.
ParsedSignal parse_signal_name(std::string_view text);

/// Default skews used when an assertion carries none (sec. 3.3: the Mark IIA
/// rules were +-1.0 ns for precision clocks and +-5.0 ns for non-precision
/// clocks). Stable assertions default to zero skew.
struct AssertionDefaults {
  double precision_skew_minus_ns = -1.0;
  double precision_skew_plus_ns = 1.0;
  double clock_skew_minus_ns = -5.0;
  double clock_skew_plus_ns = 5.0;
};

/// Renders an assertion in canonical SCALD text (".P2.0-3.0 (-1.0,1.0) L");
/// returns "" for Kind::None. parse -> to_text -> parse is the identity on
/// the materialized waveform (round-trip property, tested).
std::string assertion_to_text(const Assertion& a);

/// Materializes an assertion as the seed waveform for evaluation
/// (sec. 2.9 step 1):
///  * clock assertions: 1 during the asserted ranges and 0 elsewhere
///    (inverted for "L"), shifted/skewed per the skew specification;
///  * stable assertions: STABLE during the ranges, CHANGE elsewhere;
///  * Kind::None: UNKNOWN everywhere (the caller decides whether to treat
///    the signal as always-stable per sec. 2.5's undefined-signal rule).
Waveform assertion_waveform(const Assertion& a, Time period, const ClockUnits& units,
                            const AssertionDefaults& defaults = {});

}  // namespace tv
