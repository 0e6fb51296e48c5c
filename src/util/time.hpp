// Time representation for the SCALD Timing Verifier reproduction.
//
// The paper (sec. 2.3) distinguishes two sets of units: absolute time
// (nanoseconds, used for component timing properties) and user-defined clock
// units (used for clock and stable assertions, scaling with the cycle time).
// Internally every time is an exact integer count of picoseconds so that
// interval arithmetic over the clock period never accumulates rounding error
// and waveform widths can be required to sum *exactly* to the period
// (sec. 2.8's consistency rule).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace tv {

/// Picosecond count. Signed so that skews and hold times may be negative
/// (the paper's register-file example uses a hold time of -1.0 nsec).
using Time = std::int64_t;

inline constexpr Time kPsPerNs = 1000;

/// Converts nanoseconds (the unit of every number printed in the paper) to
/// the internal picosecond Time. Rounds to the nearest picosecond.
constexpr Time from_ns(double ns) {
  return static_cast<Time>(ns * static_cast<double>(kPsPerNs) + (ns >= 0 ? 0.5 : -0.5));
}

/// Converts an internal Time back to nanoseconds for reporting.
constexpr double to_ns(Time t) { return static_cast<double>(t) / static_cast<double>(kPsPerNs); }

/// Formats a Time as the paper prints times: nanoseconds with a single
/// decimal place when fractional ("11.5"), no decimals when whole ("12.0"
/// is still printed as "12.0" to match Fig 3-10's fixed-point listing).
std::string format_ns(Time t);

/// Euclidean (always non-negative) remainder; used for circular waveform
/// arithmetic where delays and assertion times are taken modulo the period
/// (sec. 3.2: "the assertion specification is taken to be modulo the cycle
/// time").
constexpr Time floor_mod(Time a, Time m) {
  Time r = a % m;
  return r < 0 ? r + m : r;
}

/// A closed-open time range [begin, end). Ranges describing assertion
/// intervals may wrap around the period boundary once reduced modulo the
/// cycle time; wrap handling lives in the waveform code.
struct TimeRange {
  Time begin = 0;
  Time end = 0;
  constexpr Time width() const { return end - begin; }
  constexpr bool operator==(const TimeRange&) const = default;
};

/// A wall-clock budget shared across verification phases. One Deadline is
/// armed when the run starts (Verifier::verify) and every phase -- the base
/// fixpoint, each case snapshot, and the constraint checker -- polls the
/// *same* point in time, so a run with N cases cannot stretch a --time-limit
/// of S seconds into (N+2)*S. Default-constructed deadlines are unarmed and
/// never expire.
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  Deadline() = default;

  /// Budgets of kForeverSeconds or more (and NaN) saturate at the clock's
  /// last instant: the nanosecond cast of a budget beyond ~292 years would
  /// overflow into the past and expire at once.
  static Deadline after_seconds(double seconds) {
    Deadline d;
    d.armed_ = true;
    d.at_ = seconds < kForeverSeconds
                ? Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds))
                : Clock::time_point::max();
    return d;
  }

  static constexpr double kForeverSeconds = 1e9;  // ~31 years

  bool armed() const { return armed_; }
  bool expired() const { return armed_ && Clock::now() >= at_; }

 private:
  bool armed_ = false;
  Clock::time_point at_{};
};

/// Scale for user clock units (sec. 2.3). E.g. the Fig 2-5 example uses
/// 6.25 ns per clock unit, 8 units per 50 ns cycle.
class ClockUnits {
 public:
  ClockUnits() = default;
  explicit ClockUnits(Time ps_per_unit) : ps_per_unit_(ps_per_unit) {}
  static ClockUnits from_ns_per_unit(double ns) { return ClockUnits(from_ns(ns)); }

  Time ps_per_unit() const { return ps_per_unit_; }
  /// Converts a (possibly fractional) clock-unit count to picoseconds.
  Time to_time(double units) const {
    return static_cast<Time>(units * static_cast<double>(ps_per_unit_) +
                             (units >= 0 ? 0.5 : -0.5));
  }
  double from_time(Time t) const {
    return static_cast<double>(t) / static_cast<double>(ps_per_unit_);
  }

 private:
  Time ps_per_unit_ = kPsPerNs;  // default: 1 clock unit == 1 ns
};

}  // namespace tv
