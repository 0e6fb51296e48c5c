#include "core/verifier.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "core/batch_eval.hpp"
#include "core/cone.hpp"
#include "core/snapshot.hpp"

namespace tv {

std::size_t VerifyResult::total_violations() const {
  std::size_t n = violations.size();
  for (const auto& c : cases) n += c.violations.size();
  return n;
}

namespace {

unsigned effective_jobs(unsigned requested, std::size_t num_units) {
  if (requested == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    requested = hw ? hw : 1;
  }
  if (requested > num_units) requested = static_cast<unsigned>(num_units);
  return requested ? requested : 1;
}

/// Runs fn(0) .. fn(n-1) on effective_jobs(requested_jobs, n) workers:
/// inline when that is one, otherwise each thread claims the next unit in
/// order from a shared counter. The first exception drains the queue so
/// siblings stop claiming units, and is rethrown once every worker joined.
/// Callers write each unit's result into its own slot, so the merge is
/// deterministic for every job count.
template <class Fn>
void for_each_unit(std::size_t n, unsigned requested_jobs, const Fn& fn) {
  const unsigned jobs = effective_jobs(requested_jobs, n);
  if (jobs <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(jobs);
  std::vector<std::thread> pool;
  pool.reserve(jobs);
  for (unsigned t = 0; t < jobs; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
      } catch (...) {
        errors[t] = std::current_exception();
        next.store(n);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace

VerifyResult::CaseResult Verifier::run_case(const CaseSpec& spec,
                                            const std::shared_ptr<const Cone>& cone,
                                            const std::vector<Violation>& base_violations,
                                            bool base_converged,
                                            std::vector<Degradation>& degradations) const {
  const VerifierOptions& opts = ev_.options();
  // Workers share the evaluator's shard-locked arena + memo; the baseline
  // refs let the snapshot start from ref compares without re-interning.
  EvalSnapshot snap(ev_.netlist(), cone, ev_.intern_context().get(), &ev_.wave_refs());
  CaseRunStats stats = run_case_on_snapshot(snap, spec, opts);
  VerifyResult::CaseResult cr;
  cr.name = spec.name;
  cr.events = snap.disturbed_signals();
  cr.converged = base_converged && stats.converged;
  cr.degraded = stats.degraded;
  degradations = std::move(stats.degradations);
  std::vector<Degradation> check_degs;
  cr.violations = run_checks_scoped(EvalView(snap, opts, cr.converged), *cone,
                                    base_violations, &check_degs);
  for (Degradation& d : check_degs) {
    cr.degraded = true;
    degradations.push_back(std::move(d));
  }
  sort_violations(cr.violations);
  return cr;
}

void Verifier::merge_case_degradations(VerifyResult& r,
                                       std::vector<std::vector<Degradation>>& per_case) {
  for (std::size_t i = 0; i < r.cases.size(); ++i) {
    if (r.cases[i].degraded) r.partial = true;
    for (Degradation& d : per_case[i]) r.degradations.push_back(std::move(d));
  }
}

VerifyResult Verifier::verify(const std::vector<CaseSpec>& cases) {
  // Any exception leaves no baseline: a half-evaluated netlist must not be
  // spliced against by a later reverify().
  has_baseline_ = false;
  VerifyResult r = verify_impl(cases);
  last_ = r;
  last_cases_ = cases;
  has_baseline_ = true;
  return r;
}

const ConeIndex& Verifier::cone_index() {
  if (!cone_index_ || !cone_index_->is_current()) {
    cone_index_ = std::make_shared<ConeIndex>(ev_.netlist());
  }
  return *cone_index_;
}

std::size_t Verifier::resolved_cones() const {
  return cone_index_ && cone_index_->is_current() ? cone_index_->cache_size() : 0;
}

const BatchSchedule& Verifier::batch_schedule() {
  const Netlist& nl = ev_.netlist();
  if (!schedule_ || schedule_version_ != nl.structure_version()) {
    schedule_ = std::make_shared<const BatchSchedule>(build_batch_schedule(nl));
    schedule_version_ = nl.structure_version();
  }
  return *schedule_;
}

VerifyResult Verifier::verify_impl(const std::vector<CaseSpec>& cases) {
  VerifyResult r;
  // Arm one wall-clock deadline for the entire run: the base fixpoint, the
  // constraint checker, and every case snapshot poll this same point in
  // time, so --time-limit bounds the whole verification, not each phase.
  // A deadline armed *here* is also disarmed on every exit path: a warm
  // worker reuses one Verifier across jobs, and without the reset the next
  // verify() would inherit this run's already-expired deadline and degrade
  // the entire result at t=0. An externally armed deadline is the caller's
  // to manage and is left untouched.
  struct DeadlineGuard {
    Evaluator& ev;
    bool armed_here = false;
    ~DeadlineGuard() {
      if (armed_here) ev.arm_deadline(Deadline{});
    }
  } deadline_guard{ev_};
  if (ev_.options().time_limit_seconds > 0 && !ev_.options().deadline.armed()) {
    ev_.arm_deadline(Deadline::after_seconds(ev_.options().time_limit_seconds));
    deadline_guard.armed_here = true;
  }
  ev_.initialize();
  r.base_events = ev_.propagate();
  r.base_evals = ev_.evals_performed();
  r.converged = ev_.converged();
  r.partial = ev_.degraded();
  r.degradations = ev_.degradations();
  std::vector<Degradation> check_degradations;
  r.violations = run_checks(ev_, &check_degradations);
  for (Degradation& d : check_degradations) {
    r.partial = true;
    r.degradations.push_back(std::move(d));
  }
  r.cross_reference = ev_.netlist().undefined_unasserted();
  if (cases.empty()) return r;

  // Validate every case up front, in order, so the first bad case throws
  // the same error at every job count and no worker throws mid-flight.
  // Cones are resolved later, only for the cases that run per case.
  const std::size_t num_signals = ev_.netlist().num_signals();
  for (const CaseSpec& c : cases) {
    for (const auto& pin : c.pins) {
      if (pin.second != Value::Zero && pin.second != Value::One) {
        throw std::invalid_argument("case values must be 0 or 1");
      }
    }
    for (const auto& pin : c.pins) {
      if (pin.first >= num_signals) throw std::out_of_range("case pins unknown signal");
    }
  }
  std::vector<std::vector<Degradation>> case_degradations;
  run_cases(cases, {}, r.violations, r.converged, r.partial, r.cases, case_degradations);
  merge_case_degradations(r, case_degradations);
  return r;
}

void Verifier::run_cases(const std::vector<CaseSpec>& cases,
                         const std::vector<std::shared_ptr<const Cone>>& cones,
                         const std::vector<Violation>& base_violations, bool base_converged,
                         bool base_partial, std::vector<VerifyResult::CaseResult>& results,
                         std::vector<std::vector<Degradation>>& degradations) {
  // Each case evaluates on its own copy-on-write snapshot of the baseline
  // fixpoint: workers share only the immutable netlist, and results (and
  // their degradation records) land in their input slot, merging after the
  // pool joins in input order -- deterministic by construction.
  results.assign(cases.size(), VerifyResult::CaseResult{});
  degradations.assign(cases.size(), {});
  if (cases.empty()) return;
  const Netlist& nl = ev_.netlist();
  const VerifierOptions& opts = ev_.options();
  // Without caller-supplied cones, a per-case run resolves its own through
  // the memoized index (thread-safe; one BFS per distinct pin set), built
  // once by whichever worker needs it first. A batch-eligible run whose
  // blocks all complete never builds it.
  std::once_flag index_built;
  const ConeIndex* index = nullptr;
  auto cone_for = [&](std::size_t i) -> std::shared_ptr<const Cone> {
    if (!cones.empty()) return cones[i];
    std::call_once(index_built, [&] { index = &cone_index(); });
    std::vector<SignalId> pins;
    pins.reserve(cases[i].pins.size());
    for (const auto& pin : cases[i].pins) pins.push_back(pin.first);
    return index->cone_of(std::move(pins));
  };
  auto run_one = [&](std::size_t i) {
    results[i] = run_case(cases[i], cone_for(i), base_violations, base_converged,
                          degradations[i]);
  };

  // Batch engine eligibility (docs/batch_eval.md): the lockstep sweep
  // needs a converged, non-degraded baseline and no wall-clock budget
  // (deadline-degradation points are inherently order-dependent, so those
  // runs keep the reference path's exact behavior).
  InternContext* ctx = ev_.intern_context().get();
  const bool use_batch = opts.batch_eval && !base_partial && base_converged &&
                         !opts.deadline.armed() && opts.time_limit_seconds <= 0 &&
                         opts.max_evals_per_prim > 0;
  if (use_batch) {
    const std::size_t lanes =
        std::clamp<std::size_t>(opts.batch_lanes ? opts.batch_lanes : 64, 1, 4096);
    const std::size_t num_blocks = (cases.size() + lanes - 1) / lanes;
    const BatchSchedule& sched = batch_schedule();
    auto run_block = [&](std::size_t b) {
      const std::size_t first = b * lanes;
      const std::size_t count = std::min(lanes, cases.size() - first);
      // Lane snapshots hold no cone: the sweep proves containment itself.
      std::vector<EvalSnapshot> snaps;
      snaps.reserve(count);
      for (std::size_t l = 0; l < count; ++l) {
        snaps.emplace_back(nl, nullptr, ctx, &ev_.wave_refs());
      }
      BatchBlockResult br = run_case_block(nl, opts, sched, *ctx, ev_.wave_refs(),
                                           cases, first, count, {}, snaps);
      if (!br.completed) {
        // The sweep aborted (waveform table filled mid-block): this block's
        // cases re-run on the per-case path, which re-derives the identical
        // degradation records.
        for (std::size_t l = 0; l < count; ++l) run_one(first + l);
        return;
      }
      // Lane-batched constraint checking: each lane re-runs the checks its
      // diverged cells feed and copies the baseline findings of the rest.
      // Byte-identical to per-lane run_checks_scoped.
      std::vector<const EvalSnapshot*> snap_ptrs(count);
      std::vector<char> conv(count);
      for (std::size_t l = 0; l < count; ++l) {
        snap_ptrs[l] = &snaps[l];
        conv[l] = static_cast<char>(base_converged && br.lanes[l].converged);
      }
      std::vector<std::vector<Violation>> lane_violations = run_checks_batch(
          opts, snap_ptrs, {}, conv, ev_.wave_refs(), base_violations);
      for (std::size_t l = 0; l < count; ++l) {
        BatchLaneStats& ls = br.lanes[l];
        VerifyResult::CaseResult cr;
        cr.name = cases[first + l].name;
        cr.events = snaps[l].disturbed_signals();
        cr.converged = static_cast<bool>(conv[l]);
        cr.degraded = ls.degraded;
        degradations[first + l] = std::move(ls.degradations);
        cr.violations = std::move(lane_violations[l]);
        sort_violations(cr.violations);
        results[first + l] = std::move(cr);
      }
    };
    for_each_unit(num_blocks, opts.jobs, run_block);
  } else {
    for_each_unit(cases.size(), opts.jobs, run_one);
  }
}

std::string timing_summary(const Netlist& nl) {
  std::string out = "TIMING VERIFIER SIGNAL VALUE SUMMARY\n";
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    out += "  ";
    out += s.full_name;
    // Pad to a fixed column for readability of the listing.
    if (s.full_name.size() < 32) out.append(32 - s.full_name.size(), ' ');
    out += "  ";
    out += s.wave.to_string();
    out += "\n";
  }
  return out;
}

std::string violations_report(const std::vector<Violation>& violations) {
  if (violations.empty()) return "NO TIMING ERRORS DETECTED\n";
  std::string out = "SETUP, HOLD AND MINIMUM PULSE WIDTH ERRORS\n";
  for (const Violation& v : violations) {
    out += v.message;
    out += "\n";
  }
  return out;
}

std::string where_used_listing(const Netlist& nl) {
  std::string out = "SIGNAL CROSS REFERENCE (defined by / used by)\n";
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    out += "  " + s.full_name + "\n";
    if (s.driver != kNoPrim) {
      out += "    defined by " + nl.prim(s.driver).name + "\n";
    } else if (s.assertion.kind != Assertion::Kind::None) {
      out += "    defined by assertion\n";
    } else {
      out += "    UNDEFINED (assumed stable)\n";
    }
    for (PrimId pid : s.fanout) {
      out += "    used by    " + nl.prim(pid).name + "\n";
    }
  }
  return out;
}

std::string ascii_waveform(const Waveform& w, std::size_t columns) {
  std::string out;
  out.reserve(columns);
  for (std::size_t c = 0; c < columns; ++c) {
    Time t = static_cast<Time>(static_cast<__int128>(w.period()) * static_cast<Time>(c) /
                               static_cast<Time>(columns));
    switch (w.at(t)) {
      case Value::Zero: out += '_'; break;
      case Value::One: out += '#'; break;
      case Value::Stable: out += '='; break;
      case Value::Change: out += 'x'; break;
      case Value::Rise: out += '/'; break;
      case Value::Fall: out += '\\'; break;
      case Value::Unknown: out += '?'; break;
    }
  }
  return out;
}

std::string timing_summary_waves(const Netlist& nl, std::size_t columns) {
  std::string out = "TIMING VERIFIER SIGNAL WAVEFORMS (one cycle)\n";
  for (SignalId id = 0; id < nl.num_signals(); ++id) {
    const Signal& s = nl.signal(id);
    out += "  ";
    out += s.full_name;
    if (s.full_name.size() < 32) out.append(32 - s.full_name.size(), ' ');
    out += " |";
    out += ascii_waveform(s.wave.with_skew_incorporated(), columns);
    out += "|\n";
  }
  return out;
}

std::string cross_reference_listing(const Netlist& nl, const std::vector<SignalId>& ids) {
  if (ids.empty()) return "";
  std::string out = "UNDEFINED SIGNALS (assumed always stable):\n";
  for (SignalId id : ids) {
    out += "  ";
    out += nl.signal(id).full_name;
    out += "\n";
  }
  return out;
}

}  // namespace tv
