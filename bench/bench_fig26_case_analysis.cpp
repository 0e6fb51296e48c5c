// Reproduces Fig 2-6: the circuit requiring case analysis. Analyzed with
// CONTROL SIGNAL symbolic (STABLE) the input-to-output delay reads 40 ns;
// analyzed case-by-case (CONTROL = 0, CONTROL = 1) both cases give 30 ns,
// because the complementary multiplexer selects can never route the two
// slow paths at once. Also measures the incremental cost of case-to-case
// reevaluation (sec. 2.7: "only those parts of the circuit that are
// affected by the case analysis are reevaluated").
#include "bench_util.hpp"
#include "core/cone.hpp"
#include "core/snapshot.hpp"
#include "core/verifier.hpp"

using namespace tv;

namespace {

struct Circuit {
  Netlist nl;
  VerifierOptions opts;
  SignalId control, output;
};

Circuit build() {
  Circuit c;
  c.opts.period = from_ns(100.0);
  c.opts.units = ClockUnits::from_ns_per_unit(1.0);
  c.opts.default_wire = WireDelay{0, 0};
  c.opts.assertion_defaults = AssertionDefaults{0, 0, 0, 0};
  Netlist& nl = c.nl;
  Ref in = nl.ref("INPUT .S10-105");
  Ref control = nl.ref("CONTROL SIGNAL");
  Ref slow1 = nl.ref("SLOW1");
  nl.buf("EXTRA DELAY 1", from_ns(10), from_ns(10), in, slow1);
  Ref m1 = nl.ref("M1");
  nl.mux2("MUX 1", from_ns(10), from_ns(10), control, in, slow1, m1);
  Ref slow2 = nl.ref("SLOW2");
  nl.buf("EXTRA DELAY 2", from_ns(10), from_ns(10), m1, slow2);
  Ref out = nl.ref("OUTPUT");
  nl.mux2("MUX 2", from_ns(10), from_ns(10), nl.ref("- CONTROL SIGNAL"), m1, slow2, out);
  c.control = control.id;
  c.output = out.id;
  nl.finalize();
  return c;
}

double settle_delay(const Waveform& w) {
  Time t = 0;
  if (!w.settles(from_ns(10), from_ns(90), t)) return -1;
  return to_ns(t) - 10.0;  // the input settles at 10 ns
}

}  // namespace

int main() {
  Circuit c = build();
  Verifier v(c.nl, c.opts);
  std::size_t base_events = v.verify().base_events;
  double no_cases = settle_delay(c.nl.signal(c.output).wave);

  // Each case runs on its own cone-scoped snapshot of the baseline -- the
  // per-case engine of Verifier::verify -- and its event count (pin
  // included) is the incremental cost of the case.
  const Evaluator& ev = v.evaluator();
  ConeIndex cones(c.nl);
  auto run_case = [&](const CaseSpec& spec, double& delay) {
    EvalSnapshot snap(c.nl, cones.cone_of({c.control}), ev.intern_context().get(),
                      &ev.wave_refs());
    std::size_t events = run_case_on_snapshot(snap, spec, c.opts).events;
    delay = settle_delay(snap.wave(c.output));
    return events;
  };
  double case1 = 0, case0 = 0;
  std::size_t ev1 = run_case(CaseSpec{"CONTROL=1", {{c.control, Value::One}}}, case1);
  std::size_t ev0 = run_case(CaseSpec{"CONTROL=0", {{c.control, Value::Zero}}}, case0);

  bench::header("Fig 2-6: circuit requiring case analysis");
  bench::row("delay without case analysis [ns]", 40.0, no_cases, "%.0f");
  bench::row("delay, case CONTROL=1 [ns]", 30.0, case1, "%.0f");
  bench::row("delay, case CONTROL=0 [ns]", 30.0, case0, "%.0f");
  bench::row("events, base evaluation", -1, static_cast<double>(base_events), "%.0f");
  bench::row("events, incremental case 1", -1, static_cast<double>(ev1), "%.0f");
  bench::row("events, incremental case 0", -1, static_cast<double>(ev0), "%.0f");
  bench::note("the paper gives the 40 vs 30 ns delays; event counts (-1) are ours,");
  bench::note("showing each case costs a fraction of the base evaluation.");
  return 0;
}
