// tvfuzz: differential self-checking fuzzer for the Timing Verifier.
//
// Runs two oracles over seeded random inputs:
//   * conservatism: every violation the value-level logic simulator exposes
//     under sampled realities must be covered by a symbolic violation
//     (src/check/oracles.hpp);
//   * wave-algebra: structural and refinement invariants of the sec. 2.8
//     waveform algebra, including a concrete-replay check of
//     delayed_rise_fall.
//
// On failure the counterexample is shrunk and printed as a paste-into-gtest
// repro; the exit code is nonzero.
//
// --matrix [PAIR] runs the differential pipeline matrix
// (src/check/pipeline_diff.hpp): each random circuit goes through the memo,
// batch and compile pairs, the incr and snapshot pairs on both front ends,
// and two pairs drawn from the seed over all 32 paths -- every pair over the
// same K-step random edit script (--steps K) and diffed through one
// canonical render -- plus the degradation column, which re-runs the first
// path with a seed-chosen resource guard armed and fails if degradation
// hides a violation or leaves the result unmarked. PAIR (memo, batch,
// compile, incr, snapshot, random or degrade) runs only that entry.
//
// --parser-fuzz mutates valid SHDL sources (byte- and token-level, seeded)
// and feeds them to the diagnostic front end: it must never crash, never
// let an exception escape, and always report at least one error
// diagnostic when it rejects an input.
//
// --serve-chaos pushes seeded batches of generated designs with random
// fault specs through a real scaldtvd worker pool and asserts every job
// ends in a terminal state, retries are visible in attempt counts, and the
// manifest is byte-stable across identical runs. The mode also runs the
// drain, kill/resume and overload scenarios (memory-budget breach, bounded
// admission, poison-design quarantine + kill/resume, and the ENOSPC sweep
// over every durable write) once each. The daemon comes from --scaldtvd or
// TV_SCALDTVD; the memory-breach and reverify scenarios also diff it
// against the fork/exec reference, whose scaldtv comes from --scaldtv or
// TV_SCALDTV.
//
// Usage:
//   tvfuzz [--seeds N] [--wave N] [--start S] [--smoke] [--matrix [PAIR]]
//          [--steps K] [--parser-fuzz] [--serve-chaos] [--scaldtvd PATH]
//          [--scaldtv PATH] [--no-shrink] [-v]
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "check/oracles.hpp"
#include "check/parser_fuzz.hpp"
#include "check/pipeline_diff.hpp"
#include "check/serve_chaos.hpp"
#include "check/shrinker.hpp"

namespace {

struct Options {
  std::uint64_t start = 1;
  int circuit_seeds = 500;
  int wave_seeds = 500;
  bool matrix = false;
  std::string matrix_pair;  // empty = every pair and the degradation column
  int steps = 4;
  bool parser_fuzz = false;
  bool serve_chaos = false;
  bool seeds_set = false;
  std::string scaldtvd_path;
  std::string scaldtv_path;
  bool shrink = true;
  bool verbose = false;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--wave N] [--start S] [--smoke] [--matrix [PAIR]] "
               "[--steps K] [--parser-fuzz] [--serve-chaos] [--scaldtvd P] [--scaldtv P] "
               "[--no-shrink] [-v]\n"
               "  --seeds N     differential circuit cases to run (default 500)\n"
               "  --wave N      waveform-algebra cases to run (default 500)\n"
               "  --start S     first seed (default 1)\n"
               "  --smoke       quick CI gate: 120 circuit + 250 wave cases\n"
               "  --matrix [PAIR] run each circuit through the pipeline matrix (memo,\n"
               "                batch, compile, incr, snapshot and two seeded random\n"
               "                pairs, plus the degradation column) and fail on any\n"
               "                divergence; PAIR runs only that entry (or 'degrade')\n"
               "  --steps K     edit-script steps per --matrix check (default 4)\n"
               "  --parser-fuzz mutate valid SHDL sources and assert the front end\n"
               "                never crashes and always diagnoses rejected input\n"
               "  --serve-chaos run seeded faulted batches through scaldtvd and assert\n"
               "                every job ends terminal with retries observable\n"
               "  --scaldtvd P  daemon binary for --serve-chaos (or TV_SCALDTVD)\n"
               "  --scaldtv P   scaldtv for --serve-chaos's fork/exec reference (or\n"
               "                TV_SCALDTV)\n"
               "  --no-shrink   print raw failing specs without minimizing\n"
               "  -v            per-case progress output\n",
               argv0);
}

bool known_pair(const std::string& name) {
  if (name == "degrade") return true;
  for (const tv::check::MatrixPair& p : tv::check::matrix_pairs(1)) {
    if (p.name == name) return true;
  }
  return false;
}

using CircuitOracle =
    std::function<std::optional<tv::check::Failure>(const tv::check::CircuitSpec&)>;

/// Prints one circuit-oracle failure and a paste-into-gtest repro that
/// re-runs `call`, shrinking the spec first (under the same failure kind)
/// unless --no-shrink.
void report_circuit_failure(const Options& opt, const std::string& label,
                            const tv::check::CircuitSpec& spec,
                            const tv::check::Failure& fail, const CircuitOracle& oracle,
                            const std::string& call) {
  std::printf("FAIL %s seed %llu [%s]\n  %s\n", label.c_str(),
              static_cast<unsigned long long>(spec.seed), fail.kind.c_str(),
              fail.detail.c_str());
  if (!opt.shrink) {
    std::printf("repro:\n%s\n", tv::check::gtest_repro(spec, fail.kind, call).c_str());
    return;
  }
  tv::check::CircuitSpec small =
      tv::check::shrink_circuit(spec, [&](const tv::check::CircuitSpec& s) {
        auto f = oracle(s);
        return f && f->kind == fail.kind;
      });
  std::printf("shrunk repro:\n%s\n", tv::check::gtest_repro(small, fail.kind, call).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next_int = [&](int& out) {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      out = std::atoi(argv[++i]);
    };
    if (a == "--seeds") {
      next_int(opt.circuit_seeds);
      opt.seeds_set = true;
    } else if (a == "--wave") {
      next_int(opt.wave_seeds);
    } else if (a == "--start") {
      int s = 0;
      next_int(s);
      opt.start = static_cast<std::uint64_t>(s);
    } else if (a == "--smoke") {
      opt.circuit_seeds = 120;
      opt.wave_seeds = 250;
    } else if (a == "--matrix") {
      opt.matrix = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        opt.matrix_pair = argv[++i];
        if (!known_pair(opt.matrix_pair)) {
          usage(argv[0]);
          return 2;
        }
      }
    } else if (a == "--steps") {
      next_int(opt.steps);
      if (opt.steps < 1) {
        usage(argv[0]);
        return 2;
      }
    } else if (a == "--parser-fuzz") {
      opt.parser_fuzz = true;
    } else if (a == "--serve-chaos") {
      opt.serve_chaos = true;
    } else if (a == "--scaldtvd" && i + 1 < argc) {
      opt.scaldtvd_path = argv[++i];
    } else if (a == "--scaldtv" && i + 1 < argc) {
      opt.scaldtv_path = argv[++i];
    } else if (a == "--no-shrink") {
      opt.shrink = false;
    } else if (a == "-v" || a == "--verbose") {
      opt.verbose = true;
    } else {
      usage(argv[0]);
      return 2;
    }
  }

  int failures = 0;
  long long sim_runs = 0, sim_violating = 0;
  int tv_found = 0;

  if (opt.serve_chaos) {
    // Serving-layer chaos mode: each "case" is one full batch of faulted
    // jobs through a real scaldtvd + worker pool (run twice for the
    // byte-stability check), so the default count is small.
    int batches = opt.seeds_set ? opt.circuit_seeds : 2;
    tv::check::ServeChaosOptions sc;
    sc.scaldtvd_path = opt.scaldtvd_path;
    sc.scaldtv_path = opt.scaldtv_path;
    if (sc.scaldtvd_path.empty()) {
      if (const char* env = std::getenv("TV_SCALDTVD")) sc.scaldtvd_path = env;
    }
    if (sc.scaldtv_path.empty()) {
      if (const char* env = std::getenv("TV_SCALDTV")) sc.scaldtv_path = env;
    }
    sc.verbose = opt.verbose;
    sc.seed = opt.start;
    // The fixed scenarios, each run once against the daemon's warm pool:
    //   drain-requeue     SIGTERM mid-hang and mid-backoff must requeue,
    //                     not crash;
    //   kill-restart      SIGKILL the daemon at every journal transition;
    //                     --resume must finish byte-identically;
    //   shed, quarantine-resume, write-fail
    //                     bounded admission, the poison-design breaker with
    //                     its kill/resume sweep, and ENOSPC at every write;
    //   mem-breach, reverify
    //                     the RSS watchdog's classification and faulted
    //                     delta applications, each diffed byte for byte
    //                     against the fork/exec reference.
    const struct {
      const char* name;
      std::optional<tv::check::ServeChaosFailure> (*run)(
          const tv::check::ServeChaosOptions&);
    } scenarios[] = {
        {"drain-requeue", tv::check::check_drain_requeue},
        {"kill-restart", tv::check::check_kill_restart},
        {"shed", tv::check::check_shed},
        {"quarantine-resume", tv::check::check_quarantine_resume},
        {"write-fail", tv::check::check_write_fail},
        {"mem-breach", tv::check::check_mem_breach},
        {"reverify", tv::check::check_reverify_chaos},
    };
    for (const auto& scenario : scenarios) {
      auto fail = scenario.run(sc);
      if (opt.verbose) {
        std::printf("serve-chaos %s: %s\n", scenario.name, fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL serve-chaos %s [%s]\n  %s\n", scenario.name, fail->kind.c_str(),
                  fail->detail.c_str());
    }
    // Seeded chaos batches: random fault mixes through the warm pool.
    for (int i = 0; i < batches; ++i) {
      sc.seed = opt.start + static_cast<std::uint64_t>(i);
      auto fail = tv::check::check_serve_chaos(sc);
      if (opt.verbose) {
        std::printf("serve-chaos seed %llu: %s\n", static_cast<unsigned long long>(sc.seed),
                    fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL serve-chaos seed %llu [%s]\n  %s\n",
                  static_cast<unsigned long long>(sc.seed), fail->kind.c_str(),
                  fail->detail.c_str());
    }
    std::printf("tvfuzz --serve-chaos: %d batch(es) + drain/overload scenarios, "
                "%d failure%s\n",
                batches, failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  if (opt.parser_fuzz) {
    // Front-end robustness mode: mutated SHDL must never crash the parser
    // stack and every rejection must carry at least one error diagnostic.
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      auto fail = tv::check::check_parser_robustness(seed);
      if (opt.verbose) {
        std::printf("parser seed %llu: %s\n", static_cast<unsigned long long>(seed),
                    fail ? "FAIL" : "ok");
      }
      if (!fail) continue;
      ++failures;
      std::printf("FAIL parser seed %llu [%s]\n  %s\ninput:\n%s\n<<<end of input>>>\n",
                  static_cast<unsigned long long>(seed), fail->kind.c_str(),
                  fail->detail.c_str(), fail->input.c_str());
    }
    std::printf("tvfuzz --parser-fuzz: %d cases, %d failure%s\n", opt.circuit_seeds,
                failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  if (opt.matrix) {
    // Differential pipeline matrix: every pair of the seed, then the
    // degradation column on the first pair's reference path, all over the
    // seed's edit script (pinned, so shrinking keeps it fixed).
    int checks = 0;
    auto selected = [&](const std::string& name) {
      return opt.matrix_pair.empty() || opt.matrix_pair == name;
    };
    for (int i = 0; i < opt.circuit_seeds; ++i) {
      std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
      tv::check::CircuitSpec spec = tv::check::random_spec(seed);
      const tv::check::PipelineOptions po{tv::check::default_edit_seed(seed), opt.steps};
      auto run = [&](const std::string& label, const CircuitOracle& oracle,
                     const std::string& call) {
        ++checks;
        auto fail = oracle(spec);
        if (opt.verbose) {
          std::printf("%s seed %llu: %s\n", label.c_str(),
                      static_cast<unsigned long long>(seed), fail ? "FAIL" : "ok");
        }
        if (!fail) return;
        ++failures;
        report_circuit_failure(opt, label, spec, *fail, oracle, call);
      };
      const std::vector<tv::check::MatrixPair> pairs = tv::check::matrix_pairs(seed);
      for (const tv::check::MatrixPair& p : pairs) {
        if (!selected(p.name)) continue;
        run("matrix " + p.name + " " + tv::check::describe(p.a) + " vs " +
                tv::check::describe(p.b),
            [&](const tv::check::CircuitSpec& s) {
              return tv::check::check_pipeline_equivalence(s, p.a, p.b, po);
            },
            tv::check::pipeline_call(p.a, p.b, po));
      }
      if (!selected("degrade")) continue;
      const tv::check::Path& path = pairs.front().a;
      const tv::check::Guard guard = tv::check::random_guard(seed);
      run("matrix degrade " + tv::check::describe(path) + " under " +
              tv::check::describe(guard),
          [&](const tv::check::CircuitSpec& s) {
            return tv::check::check_degradation_conservatism(s, path, guard, po);
          },
          tv::check::degradation_call(path, guard, po));
    }
    std::printf("tvfuzz --matrix: %d circuit cases, %d checks x %d steps, %d failure%s\n",
                opt.circuit_seeds, checks, opt.steps, failures, failures == 1 ? "" : "s");
    return failures ? 1 : 0;
  }

  for (int i = 0; i < opt.circuit_seeds; ++i) {
    std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
    tv::check::CircuitSpec spec = tv::check::random_spec(seed);
    tv::check::ConservatismStats stats;
    auto fail = tv::check::check_conservatism(spec, &stats);
    sim_runs += stats.sim_runs;
    sim_violating += stats.sim_violating_runs;
    if (stats.tv_found) ++tv_found;
    if (opt.verbose) {
      std::printf("circuit seed %llu: %d sim runs, %d violating, tv %s\n",
                  static_cast<unsigned long long>(seed), stats.sim_runs,
                  stats.sim_violating_runs, stats.tv_found ? "flags" : "clean");
    }
    if (!fail) continue;
    ++failures;
    report_circuit_failure(
        opt, "circuit", spec, *fail,
        [](const tv::check::CircuitSpec& s) { return tv::check::check_conservatism(s); },
        tv::check::kConservatismCall);
  }

  for (int i = 0; i < opt.wave_seeds; ++i) {
    std::uint64_t seed = opt.start + static_cast<std::uint64_t>(i);
    tv::check::WaveCase wc = tv::check::random_wave_case(seed);
    auto fail = tv::check::check_wave_algebra(wc);
    if (opt.verbose) {
      std::printf("wave seed %llu: %s\n", static_cast<unsigned long long>(seed),
                  fail ? "FAIL" : "ok");
    }
    if (!fail) continue;
    ++failures;
    std::printf("FAIL wave seed %llu [%s]\n  %s\n", static_cast<unsigned long long>(seed),
                fail->kind.c_str(), fail->detail.c_str());
    if (opt.shrink) {
      std::string kind = fail->kind;
      tv::check::WaveCase small =
          tv::check::shrink_wave(wc, [&](const tv::check::WaveCase& w) {
            auto f = tv::check::check_wave_algebra(w);
            return f && f->kind == kind;
          });
      std::printf("shrunk repro:\n%s\n", tv::check::gtest_repro(small, kind).c_str());
    } else {
      std::printf("repro:\n%s\n", tv::check::gtest_repro(wc, fail->kind).c_str());
    }
  }

  std::printf(
      "tvfuzz: %d circuit cases (%lld sim runs, %lld violating, verifier flagged %d), "
      "%d wave cases, %d failure%s\n",
      opt.circuit_seeds, sim_runs, sim_violating, tv_found, opt.wave_seeds, failures,
      failures == 1 ? "" : "s");
  return failures ? 1 : 0;
}
