// Circuit data model for the Timing Verifier (thesis secs. 2.4, 2.8, 3.1).
//
// A design is a set of *signals* and *primitives*. Primitives are the
// built-in parameterized models the Macro Expander targets: gates, CHG
// gates, multiplexers, registers, latches, and the three constraint
// checkers. Each primitive represents an arbitrarily wide data path (the
// thesis exploits this symmetry: 8 282 primitives instead of 53 833); since
// symbolic values are identical across the bits of a bus, a vector signal
// carries a single value list and a `width` attribute used for statistics.
//
// Signals own the evaluation state: the current waveform (the VALUE BASE /
// VALUE record list of Fig 2-7), the propagated evaluation-directive string
// (EVAL STR PTR), and the fanout "call list" saying which primitives must be
// reevaluated when the signal changes (the CALL LIST ARRAY of Table 3-3).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/assertion.hpp"
#include "core/name_index.hpp"
#include "core/waveform.hpp"
#include "diag/diagnostic.hpp"

namespace tv {

using PrimId = std::uint32_t;
inline constexpr SignalId kNoSignal = static_cast<SignalId>(-1);
inline constexpr PrimId kNoPrim = static_cast<PrimId>(-1);

enum class PrimKind : std::uint8_t {
  Buf,     // 1-input buffer (also used for deliberate delay insertion)
  Not,     // inverter
  Or,      // n-input inclusive OR
  And,     // n-input AND
  Xor,     // n-input exclusive OR
  Chg,     // n-input CHANGE function (adders, parity trees, RAM data paths)
  Mux2,    // inputs: SEL, D0, D1
  Mux4,    // inputs: S0, S1, D0..D3 (S0 is the low select bit)
  Mux8,    // inputs: S0, S1, S2, D0..D7
  Reg,     // inputs: DATA, CLOCK (rising-edge register, Fig 2-1)
  RegSR,   // inputs: DATA, CLOCK, SET, RESET
  Latch,   // inputs: DATA, ENABLE (transparent-high latch, Fig 2-2)
  LatchSR, // inputs: DATA, ENABLE, SET, RESET
  SetupHoldChk,          // inputs: I, CK (Fig 2-3, first checker)
  SetupRiseHoldFallChk,  // inputs: I, CK (Fig 2-3, second checker)
  MinPulseWidthChk,      // inputs: I (Fig 2-4)
};

/// Human-readable primitive-type name, e.g. "2 OR" style names are the
/// macro layer's business; these are the engine-level names.
std::string_view prim_kind_name(PrimKind k);
bool prim_is_checker(PrimKind k);

/// Structural pin-count contract of a primitive kind (what finalize()
/// enforces). Exposed so netlist deltas (core/incremental.hpp) can validate
/// a kind change *before* mutating anything.
std::size_t prim_min_inputs(PrimKind k);
std::size_t prim_max_inputs(PrimKind k);

/// Interconnection delay range (sec. 2.5.3): minimum/maximum wire delay from
/// the driving output to the inputs of a signal's consumers.
struct WireDelay {
  Time dmin = 0;
  Time dmax = 0;
};

struct Signal {
  std::string full_name;   // identity: includes any assertion text
  std::string base_name;
  Assertion assertion;
  SignalScope scope = SignalScope::Global;  // "/M" local, "/P" parameter
  int width = 1;           // bits in the vector (statistics only)
  /// Per-signal interconnection delay override (sec. 2.5.3); when absent the
  /// verifier's default wire delay applies.
  std::optional<WireDelay> wire_delay;
  PrimId driver = kNoPrim;
  std::vector<PrimId> fanout;  // call list: primitives reading this signal

  // --- evaluation state (owned by the Evaluator) ---
  Waveform wave;
  std::string eval_str;    // propagated evaluation directives (sec. 2.6/2.8)
};

/// One input connection of a primitive.
struct Pin {
  SignalId sig = kNoSignal;
  bool invert = false;       // "-" complement on the connection
  std::string directives;    // "&" evaluation string attached here
};

/// Polarity-dependent propagation delays (the sec. 4.2.2 extension for
/// technologies such as nMOS): the rise delays apply to output changes
/// toward 1, the fall delays to changes toward 0.
struct RiseFallDelay {
  Time rise_min = 0, rise_max = 0;
  Time fall_min = 0, fall_max = 0;
};

struct Primitive {
  PrimKind kind = PrimKind::Buf;
  std::string name;        // instance name for reporting
  Time dmin = 0, dmax = 0; // propagation delay (all inputs; sec. 2.4.3)
  /// When set, combinational outputs use polarity-dependent delays instead
  /// of [dmin, dmax] (sec. 4.2.2); clocked elements ignore it.
  std::optional<RiseFallDelay> rise_fall;
  Time setup = 0, hold = 0;          // checker parameters
  Time min_high = 0, min_low = 0;    // MIN PULSE WIDTH parameters
  int width = 1;           // data-path width (statistics)
  std::vector<Pin> inputs;
  SignalId output = kNoSignal;  // checkers drive nothing
};

/// A parsed connection reference: "- WE", "CK .P0-4 &HZ", ...
struct Ref {
  SignalId id = kNoSignal;
  bool invert = false;
  std::string directives;
};

class Netlist {
 public:
  /// Parses `text` as a SCALD signal reference, creating the signal on
  /// first use. The *full name* (assertion included) is the identity.
  /// Throws std::invalid_argument on a malformed assertion or directive.
  Ref ref(std::string_view text, int width = 1);
  /// The same for a reference already split by split_signal_text.
  Ref ref(const SignalText& text, int width = 1);
  /// Get-or-create by `text.name`, widening to `width`. The assertion is
  /// parsed only when the signal is new.
  SignalId add_signal(const SignalText& text, int width = 1);
  /// Widens a signal to at least `width` bits (statistics only).
  void widen(SignalId id, int width);
  /// Appends a signal record verbatim, preserving its index -- the
  /// compiled-artifact loader (core/compiled.cpp) uses this to rebuild a
  /// signal table that may contain synonym-merge orphans whose full names
  /// resolve to another id. The name is registered for find() only when not
  /// already taken; evaluation state (wave, eval_str, driver, fanout) is
  /// reset and recomputed by finalize()/initialize().
  SignalId push_signal(Signal&& s);
  /// Points `full_name` at signal `id`: the loader restores a synonym that
  /// merge_signals redirected to its keeper.
  void alias(std::string_view full_name, SignalId id) { by_name_.assign(full_name, id); }
  SignalId find(std::string_view full_name) const;
  /// The full-name index find() reads (exposed for its size accounting).
  const NameIndex& name_index() const { return by_name_; }

  Signal& signal(SignalId id) { return signals_[id]; }
  const Signal& signal(SignalId id) const { return signals_[id]; }
  Primitive& prim(PrimId id) { return prims_[id]; }
  const Primitive& prim(PrimId id) const { return prims_[id]; }
  std::size_t num_signals() const { return signals_.size(); }
  std::size_t num_prims() const { return prims_.size(); }

  /// Overrides the interconnection delay for one signal (sec. 2.5.3).
  void set_wire_delay(SignalId id, Time dmin, Time dmax);
  /// Removes a signal's override so the verifier default applies again.
  void clear_wire_delay(SignalId id);

  /// Reconnects one input pin of a primitive to a different signal
  /// (a netlist-delta edit, core/incremental.hpp). Fanout call lists go
  /// stale, so the netlist must be finalize()d again before evaluation.
  void retarget_input(PrimId pid, std::size_t input, SignalId sig, bool invert,
                      std::string directives);

  /// Replaces a signal's assertion, renaming it (the assertion is part of
  /// the SCALD name, sec. 2.5.1). Throws std::invalid_argument when
  /// `full_name` already names a different signal. Fanout lists are
  /// unaffected; seeding changes, so the evaluator must re-seed it.
  void set_assertion(SignalId id, const Assertion& assertion, std::string base_name,
                     std::string full_name);

  /// Gives a combinational primitive polarity-dependent delays (sec. 4.2.2).
  void set_rise_fall(PrimId id, RiseFallDelay rf);

  /// Declares two names to be the same signal (the SCALD Macro Expander's
  /// Pass 1 "resolves all synonyms between different signals"): every
  /// connection to `drop` is rewritten to `keep`, name lookups of either
  /// resolve to `keep`, and the dropped entry is orphaned. Throws if both
  /// signals carry different assertions.
  void merge_signals(SignalId keep, SignalId drop);

  // --- builders -----------------------------------------------------------
  /// Room for `signals` signals and `prims` primitives in all, so a builder
  /// that can bound its counts up front adds them without regrowth.
  void reserve(std::size_t signals, std::size_t prims) {
    signals_.reserve(signals);
    prims_.reserve(prims);
  }
  /// Room in the name index for `names` more names. Only a builder that
  /// knows its count exactly should ask: the index is sized at three slots
  /// per name.
  void reserve_names(std::size_t names) { by_name_.reserve(names); }
  PrimId add_prim(Primitive&& p);
  PrimId gate(PrimKind kind, std::string name, Time dmin, Time dmax,
              std::vector<Ref> ins, Ref out, int width = 1);
  PrimId buf(std::string name, Time dmin, Time dmax, Ref in, Ref out, int width = 1);
  PrimId not_gate(std::string name, Time dmin, Time dmax, Ref in, Ref out, int width = 1);
  PrimId or_gate(std::string name, Time dmin, Time dmax, std::vector<Ref> ins, Ref out,
                 int width = 1);
  PrimId and_gate(std::string name, Time dmin, Time dmax, std::vector<Ref> ins, Ref out,
                  int width = 1);
  PrimId xor_gate(std::string name, Time dmin, Time dmax, std::vector<Ref> ins, Ref out,
                  int width = 1);
  PrimId chg(std::string name, Time dmin, Time dmax, std::vector<Ref> ins, Ref out,
             int width = 1);
  PrimId mux2(std::string name, Time dmin, Time dmax, Ref sel, Ref d0, Ref d1, Ref out,
              int width = 1);
  PrimId mux4(std::string name, Time dmin, Time dmax, Ref s0, Ref s1, std::vector<Ref> data,
              Ref out, int width = 1);
  PrimId mux8(std::string name, Time dmin, Time dmax, Ref s0, Ref s1, Ref s2,
              std::vector<Ref> data, Ref out, int width = 1);
  PrimId reg(std::string name, Time dmin, Time dmax, Ref data, Ref clock, Ref out,
             int width = 1);
  PrimId reg_sr(std::string name, Time dmin, Time dmax, Ref data, Ref clock, Ref set, Ref reset,
                Ref out, int width = 1);
  PrimId latch(std::string name, Time dmin, Time dmax, Ref data, Ref enable, Ref out,
               int width = 1);
  PrimId latch_sr(std::string name, Time dmin, Time dmax, Ref data, Ref enable, Ref set,
                  Ref reset, Ref out, int width = 1);
  PrimId setup_hold_chk(std::string name, Time setup, Time hold, Ref i, Ref ck, int width = 1);
  PrimId setup_rise_hold_fall_chk(std::string name, Time setup, Time hold, Ref i, Ref ck,
                                  int width = 1);
  PrimId min_pulse_width_chk(std::string name, Time min_high, Time min_low, Ref i);

  /// Computes fanout call lists and validates the structure: exactly one
  /// driver per driven signal, checker primitives drive nothing, pin counts
  /// match the primitive kind. Throws std::logic_error on violations.
  void finalize();
  /// Diagnostic form: reports *every* structural violation through `diags`
  /// (codes SHDL-E040..E045) instead of throwing on the first, attributing
  /// each to its primitive's instantiation site when `prim_locs` (indexed by
  /// PrimId) provides one. Returns true -- and marks the netlist finalized --
  /// only when no error was reported. On a clean structure it additionally
  /// scans for zero-delay combinational loops (cycles not cut by a clocked
  /// element, a checker, or any nonzero delay) and reports each as an
  /// SHDL-W050 warning naming the signal cycle.
  bool finalize(diag::DiagnosticEngine& diags,
                const std::vector<diag::SourceLoc>* prim_locs = nullptr);
  bool finalized() const { return finalized_; }
  /// Monotone counter bumped every time finalize() succeeds: derived
  /// structures (ConeIndex, the Verifier's batch schedule) capture it and
  /// compare to detect a changed fanout graph. Starts at 0 (never
  /// finalized).
  std::uint64_t structure_version() const { return structure_version_; }

  /// Signals that are read by some primitive but neither driven nor
  /// asserted: the thesis treats them as always stable and lists them on a
  /// cross-reference listing for the designer (sec. 2.5).
  std::vector<SignalId> undefined_unasserted() const;

 private:
  std::vector<Signal> signals_;
  std::vector<Primitive> prims_;
  NameIndex by_name_;
  bool finalized_ = false;
  std::uint64_t structure_version_ = 0;
};

}  // namespace tv
