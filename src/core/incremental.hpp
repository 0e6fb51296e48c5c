// Incremental re-verification (ROADMAP item 2; thesis sec. 1.2's workflow).
//
// The paper's Timing Verifier lived inside a day-by-day edit loop: a designer
// changes a handful of delays or connections, then re-verifies the whole
// design. A NetlistDelta captures exactly those edits -- primitive parameter
// changes, input retargets, wire-delay overrides, assertion changes, and
// case-map edits -- and Verifier::reverify(delta) applies them against the
// previous fixpoint: it reseeds/requeues only the edited elements, lets the
// event-driven worklist run until the disturbance dies out (registers absorb
// small delay shifts, so propagation usually stops at the next stage
// boundary), re-checks only assertions whose support intersects the touched
// set, and splices fresh findings into the prior report.
//
// Identity guarantee: the spliced report is byte-identical to a cold
// verify() of the edited design (the incr pair of tvfuzz --matrix
// replays K-step edit scripts both ways and shrinks divergences). The one
// asymmetry is the evaluation-effort counters (base_events/base_evals) --
// the speedup itself -- which identity comparisons must exclude. Edits the
// engine cannot prove safe fall back to a cold run silently (see
// docs/incremental.md for the invalidation rules).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/netlist.hpp"

namespace tv {

/// An edit script against a finalized netlist + case list. Edits are applied
/// in field order: prims, pins, wires, assertions, cases (each vector in
/// order). All ids refer to the *current* netlist; deltas never add or
/// remove signals or primitives (the artifact's id space is fixed).
struct NetlistDelta {
  /// Parameter edits on one primitive. Only the engaged fields change.
  struct PrimEdit {
    PrimId prim = kNoPrim;
    /// New kind; must preserve checker-ness and the pin-count contract.
    std::optional<PrimKind> kind;
    std::optional<std::pair<Time, Time>> delay;  // dmin, dmax
    bool set_rise_fall = false;
    bool clear_rise_fall = false;
    RiseFallDelay rise_fall{};                       // used when set_rise_fall
    std::optional<std::pair<Time, Time>> setup_hold; // checker params
    std::optional<std::pair<Time, Time>> min_pulse;  // min_high, min_low
  };
  /// Reconnects input pin `input` of `prim` to `sig` (a structural edit:
  /// fanout call lists are recomputed).
  struct PinEdit {
    PrimId prim = kNoPrim;
    std::size_t input = 0;
    SignalId sig = kNoSignal;
    bool invert = false;
    std::string directives;
  };
  /// Sets (engaged) or clears (nullopt) one signal's wire-delay override.
  struct WireEdit {
    SignalId sig = kNoSignal;
    std::optional<WireDelay> wire;
  };
  /// Replaces one signal's assertion. The assertion is part of the SCALD
  /// name, so the edit renames the signal; `full_name` must be fresh or the
  /// signal's own.
  struct AssertionEdit {
    SignalId sig = kNoSignal;
    Assertion assertion;
    std::string base_name;
    std::string full_name;
  };
  /// Case-map edit, matched by name: `spec` engaged replaces the existing
  /// case or -- when no case has that name -- inserts it (at position `at`,
  /// default append); `spec` empty removes it. The first name match wins.
  struct CaseEdit {
    std::string name;
    std::optional<CaseSpec> spec;
    std::optional<std::size_t> at;
  };

  std::vector<PrimEdit> prims;
  std::vector<PinEdit> pins;
  std::vector<WireEdit> wires;
  std::vector<AssertionEdit> assertions;
  std::vector<CaseEdit> cases;

  bool empty() const {
    return prims.empty() && pins.empty() && wires.empty() && assertions.empty() &&
           cases.empty();
  }
  /// True when the fanout graph changes (pin retargets): the netlist must be
  /// re-finalized and cone indexes rebuilt.
  bool structural() const { return !pins.empty(); }
};

/// What apply_delta did, sufficient to undo it and to splice case reports.
struct AppliedDelta {
  /// The exact inverse edit script: applying it restores the pre-delta
  /// netlist and case list (and, via reverify, the pre-delta report bytes).
  NetlistDelta inverse;
  /// For each case in the *new* case list: its index in the prior list, or
  /// -1 when it was added or its spec changed (so its prior report block, if
  /// any, cannot be reused).
  std::vector<std::ptrdiff_t> case_origin;
};

/// Validates every edit up front (throwing std::invalid_argument with the
/// netlist and case list untouched), then applies the delta in order. The
/// netlist is left definalized when the delta was structural; the caller
/// re-finalizes. Checked invariants: ids in range; a kind change preserves
/// checker-ness and the pin-count contract; delay/wire/rise-fall ranges
/// valid; a clock assertion never lands on a driven signal; an assertion
/// rename never collides with another signal; case pins are in-range 0/1.
AppliedDelta apply_delta(Netlist& nl, std::vector<CaseSpec>& cases,
                         const NetlistDelta& delta);

/// Parses the scaldtv --reverify JSON delta format (docs/incremental.md).
/// Signals are named by full SCALD name, primitives by instance name, times
/// in nanoseconds. Returns false and sets *error on malformed input or
/// unresolved names; name->id resolution uses `nl`.
bool parse_delta_json(const std::string& text, const Netlist& nl, NetlistDelta* out,
                      std::string* error);

/// Instrumentation from one Verifier::reverify call.
struct ReverifyStats {
  /// False when the engine fell back to a cold verify().
  bool incremental = false;
  /// Why it fell back ("" when incremental).
  std::string fallback_reason;
  /// The *potential* dirty cone: the ConeIndex fanout closure of every seed
  /// the delta could disturb, before event-driven propagation narrows it.
  /// This is what the property suite predicts from the netlist's structure.
  std::vector<SignalId> dirty_signals;
  std::vector<PrimId> dirty_prims;
  /// Signals whose value actually changed during incremental propagation
  /// (subset of dirty_signals' closure; empty on fallback).
  std::size_t touched_signals = 0;
  /// Case-report accounting: re-evaluated on a snapshot vs. spliced from
  /// the prior report untouched.
  std::size_t cases_reevaluated = 0;
  std::size_t cases_spliced = 0;
  /// Events/evaluations spent by the incremental base re-propagation.
  std::size_t events = 0;
  std::size_t evals = 0;
  /// The inverse edit script (AppliedDelta::inverse): reverify(inverse)
  /// restores the pre-delta report byte-for-byte. Warm servers use this to
  /// return a resident worker to its artifact baseline after a reverify job.
  NetlistDelta inverse;
};

}  // namespace tv
