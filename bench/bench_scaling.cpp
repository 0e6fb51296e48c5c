// Scaling behaviour (secs. 2.7, 3.3.2, 4.1): verification cost is linear in
// design size (events ~ primitives), each additional case costs only the
// affected cone, and memory follows the Table 3-3 record model. Sweeps the
// synthetic S-1 pipeline from 8 to 128 stages.
#include <chrono>

#include "bench_util.hpp"
#include "core/cone.hpp"
#include "core/snapshot.hpp"
#include "core/storage_stats.hpp"
#include "core/verifier.hpp"
#include "gen/s1_design.hpp"

using namespace tv;
using Clock = std::chrono::steady_clock;

int main() {
  std::printf("Scaling sweep: synthetic S-1 pipeline\n");
  std::printf("  %7s %8s %8s %10s %12s %12s %14s\n", "stages", "chips", "prims", "events",
              "evts/prim", "verify ms", "storage KB");
  for (int stages : {8, 16, 32, 64, 128}) {
    gen::S1Params p;
    p.stages = stages;
    p.clock_tree_bufs = 0;
    hdl::ElaboratedDesign d = gen::build_s1_design(p);
    Verifier v(d.netlist, d.options);
    v.verify();  // warmup: touch all allocations once, populate the memo
    auto t0 = Clock::now();
    VerifyResult r = v.verify();
    auto t1 = Clock::now();
    StorageBreakdown b = compute_storage(d.netlist);
    std::printf("  %7d %8zu %8zu %10zu %12.2f %12.2f %14zu\n", stages, gen::s1_chip_count(p),
                d.summary.primitives, r.base_events,
                static_cast<double>(r.base_events) / d.summary.primitives,
                std::chrono::duration<double, std::milli>(t1 - t0).count(), b.total() >> 10);
  }

  std::printf("\nIncremental case analysis vs full reevaluation (32 stages)\n");
  {
    gen::S1Params p;
    p.stages = 32;
    p.clock_tree_bufs = 0;
    hdl::ElaboratedDesign d = gen::build_s1_design(p);
    Verifier v(d.netlist, d.options);
    std::size_t base = v.verify().base_events;

    // Case on one stage's control input, on a cone-scoped snapshot of the
    // baseline: only its cone reevaluates.
    SignalId ctl = d.netlist.find("S10 CTL0 .S4-8.5");
    const Evaluator& ev = v.evaluator();
    ConeIndex cones(d.netlist);
    EvalSnapshot snap(d.netlist, cones.cone_of({ctl}), ev.intern_context().get(),
                      &ev.wave_refs());
    std::size_t case_events =
        run_case_on_snapshot(snap, CaseSpec{"S10 CTL0 = 1", {{ctl, Value::One}}}, d.options)
            .events;
    std::printf("  base evaluation events:        %zu\n", base);
    std::printf("  incremental case events:       %zu (%.2f%% of base)\n", case_events,
                100.0 * static_cast<double>(case_events) / base);
    std::printf("  (sec. 2.7: \"only those parts of the circuit that are affected by\n"
                "   the case analysis are reevaluated\"; the Mark IIA rarely needed\n"
                "   case analysis at all, sec. 3.3.2)\n");
  }
  return 0;
}
