#include "check/shrinker.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>
#include <vector>

namespace tv::check {

namespace {

template <typename Spec, typename Pred>
bool safe_fails(const Spec& s, const Pred& pred, int& budget) {
  if (budget <= 0) return false;
  --budget;
  try {
    return pred(s);
  } catch (...) {
    return false;
  }
}

/// Shrink candidates for one integer field: toward zero (or the given
/// floor), by halving and by decrement.
void int_candidates(int v, int floor_val, std::vector<int>& out) {
  out.clear();
  if (v <= floor_val) return;
  out.push_back(floor_val);
  if ((floor_val + v) / 2 != v && (floor_val + v) / 2 != floor_val) {
    out.push_back((floor_val + v) / 2);
  }
  out.push_back(v - 1);
}

}  // namespace

CircuitSpec shrink_circuit(const CircuitSpec& failing, const CircuitPred& still_fails,
                           int max_checks) {
  CircuitSpec best = failing;
  int budget = max_checks;
  bool improved = true;
  std::vector<int> cands;

  auto try_spec = [&](CircuitSpec s) {
    if (safe_fails(s, still_fails, budget)) {
      best = std::move(s);
      improved = true;
      return true;
    }
    return false;
  };
  auto try_int = [&](int CircuitSpec::* field, int floor_val) {
    int_candidates(best.*field, floor_val, cands);
    for (int v : cands) {
      CircuitSpec s = best;
      s.*field = v;
      if (try_spec(std::move(s))) return;
    }
  };

  while (improved && budget > 0) {
    improved = false;

    // Structural simplifications first: they remove the most at once.
    for (std::size_t i = 0; i < best.stages.size(); ++i) {
      CircuitSpec s = best;
      s.stages.erase(s.stages.begin() + static_cast<std::ptrdiff_t>(i));
      if (try_spec(std::move(s))) break;
    }
    for (std::size_t i = 0; i < best.stages.size(); ++i) {
      if (best.stages[i].kind == StageKind::Buf) continue;
      CircuitSpec s = best;
      s.stages[i].kind = StageKind::Buf;
      if (try_spec(std::move(s))) break;
    }
    if (best.second_stage) {
      CircuitSpec s = best;
      s.second_stage = false;
      s.stage2_edge_units = 0;
      try_spec(std::move(s));
    }
    if (best.with_case) {
      CircuitSpec s = best;
      s.with_case = false;
      try_spec(std::move(s));
    }
    if (best.clock.gated) {
      CircuitSpec s = best;
      s.clock.gated = false;
      s.clock.directive = '\0';
      s.clock_directive_tail.clear();
      s.clock.enable_from_path = false;
      try_spec(std::move(s));
    }
    if (best.clock.directive != '\0') {
      CircuitSpec s = best;
      s.clock.directive = '\0';
      s.clock.enable_from_path = false;
      try_spec(std::move(s));
    }
    if (!best.clock_directive_tail.empty()) {
      CircuitSpec s = best;
      s.clock_directive_tail.clear();
      try_spec(std::move(s));
    }
    if (!best.data_directives.empty()) {
      CircuitSpec s = best;
      s.data_directives.clear();
      try_spec(std::move(s));
    }
    if (best.clock.enable_from_path) {
      CircuitSpec s = best;
      s.clock.enable_from_path = false;
      try_spec(std::move(s));
    }
    if (best.sink != SinkKind::Reg) {
      CircuitSpec s = best;
      s.sink = best.sink == SinkKind::LatchSR ? SinkKind::Latch : SinkKind::Reg;
      try_spec(std::move(s));
    }
    if (best.clock.skew_minus_ns != 0 || best.clock.skew_plus_ns != 0) {
      CircuitSpec s = best;
      s.clock.skew_minus_ns = 0;
      s.clock.skew_plus_ns = 0;
      try_spec(std::move(s));
    }
    if (!best.clock.precision) {
      CircuitSpec s = best;
      s.clock.precision = true;
      try_spec(std::move(s));
    }

    // Per-stage field simplifications.
    for (std::size_t i = 0; i < best.stages.size(); ++i) {
      StageSpec st = best.stages[i];
      std::vector<StageSpec> variants;
      if (st.rise_fall) {
        StageSpec v = st;
        v.rise_fall = false;
        v.fall_extra_ns = 0;
        variants.push_back(v);
      }
      if (st.fall_extra_ns > 0) {
        StageSpec v = st;
        v.fall_extra_ns /= 2;
        variants.push_back(v);
      }
      if (st.wire_max_ns > 0) {
        StageSpec v = st;
        v.wire_max_ns = 0;
        variants.push_back(v);
      }
      if (st.dmax_ns > st.dmin_ns) {
        StageSpec v = st;
        v.dmax_ns = v.dmin_ns;
        variants.push_back(v);
      }
      if (st.dmin_ns > 0) {
        StageSpec v = st;
        v.dmin_ns = 0;
        v.dmax_ns = std::max(0, v.dmax_ns - st.dmin_ns);
        variants.push_back(v);
      }
      if (st.slow_max_ns > st.slow_min_ns) {
        StageSpec v = st;
        v.slow_max_ns = v.slow_min_ns;
        variants.push_back(v);
      }
      bool took = false;
      for (const StageSpec& v : variants) {
        CircuitSpec s = best;
        s.stages[i] = v;
        if (try_spec(std::move(s))) {
          took = true;
          break;
        }
      }
      if (took) break;
    }

    // Plain integer fields.
    try_int(&CircuitSpec::hold_ns, 0);
    try_int(&CircuitSpec::setup_ns, 1);
    try_int(&CircuitSpec::sink_dmax_ns, 1);
    try_int(&CircuitSpec::sink_dmin_ns, 1);
    try_int(&CircuitSpec::data_change_ns, 1);
    try_int(&CircuitSpec::data_toggle_ns, 2);
    try_int(&CircuitSpec::stage2_edge_units, 0);
    try_int(&CircuitSpec::period_ns, 40);
    {
      int_candidates(best.clock.edge_units, 3, cands);
      for (int v : cands) {
        CircuitSpec s = best;
        s.clock.edge_units = v;
        if (try_spec(std::move(s))) break;
      }
      int_candidates(best.clock.high_units, 2, cands);
      for (int v : cands) {
        CircuitSpec s = best;
        s.clock.high_units = v;
        if (try_spec(std::move(s))) break;
      }
      int_candidates(best.clock.enable_fall_units, 0, cands);
      for (int v : cands) {
        CircuitSpec s = best;
        s.clock.enable_fall_units = v;
        if (try_spec(std::move(s))) break;
      }
      int_candidates(best.clock.enable_rise_units, 0, cands);
      for (int v : cands) {
        CircuitSpec s = best;
        s.clock.enable_rise_units = v;
        if (try_spec(std::move(s))) break;
      }
    }
  }
  return best;
}

WaveCase shrink_wave(const WaveCase& failing, const WavePred& still_fails, int max_checks) {
  WaveCase best = failing;
  int budget = max_checks;
  bool improved = true;
  std::vector<int> cands;

  auto try_case = [&](WaveCase w) {
    if (safe_fails(w, still_fails, budget)) {
      best = std::move(w);
      improved = true;
      return true;
    }
    return false;
  };
  auto try_int = [&](int WaveCase::* field, int floor_val) {
    int_candidates(best.*field, floor_val, cands);
    for (int v : cands) {
      WaveCase w = best;
      w.*field = v;
      if (try_case(std::move(w))) return;
    }
  };

  while (improved && budget > 0) {
    improved = false;
    for (std::size_t i = 0; i < best.base.ops.size(); ++i) {
      WaveCase w = best;
      w.base.ops.erase(w.base.ops.begin() + static_cast<std::ptrdiff_t>(i));
      if (try_case(std::move(w))) break;
    }
    for (std::size_t i = 0; i < best.base.ops.size(); ++i) {
      const WaveOp& op = best.base.ops[i];
      std::vector<WaveOp> variants;
      if (op.value != 'S') {
        WaveOp v = op;
        v.value = 'S';
        variants.push_back(v);
      }
      if (op.width_ns > 1) {
        WaveOp v = op;
        v.width_ns /= 2;
        variants.push_back(v);
        v = op;
        v.width_ns = 1;
        variants.push_back(v);
      }
      if (op.at_ns > 0) {
        WaveOp v = op;
        v.at_ns /= 2;
        variants.push_back(v);
      }
      bool took = false;
      for (const WaveOp& v : variants) {
        WaveCase w = best;
        w.base.ops[i] = v;
        if (try_case(std::move(w))) {
          took = true;
          break;
        }
      }
      if (took) break;
    }
    if (best.base.fill != 'S') {
      WaveCase w = best;
      w.base.fill = 'S';
      try_case(std::move(w));
    }
    {
      int_candidates(best.base.skew_ns, 0, cands);
      for (int v : cands) {
        WaveCase w = best;
        w.base.skew_ns = v;
        if (try_case(std::move(w))) break;
      }
      int_candidates(best.base.period_ns, 15, cands);
      for (int v : cands) {
        WaveCase w = best;
        w.base.period_ns = v;
        if (try_case(std::move(w))) break;
      }
    }
    // Collapse each delay range toward its minimum, then the minima toward 0.
    if (best.rise_max_ns > best.rise_min_ns) {
      WaveCase w = best;
      w.rise_max_ns = w.rise_min_ns;
      try_case(std::move(w));
    }
    if (best.fall_max_ns > best.fall_min_ns) {
      WaveCase w = best;
      w.fall_max_ns = w.fall_min_ns;
      try_case(std::move(w));
    }
    try_int(&WaveCase::rise_min_ns, 0);
    try_int(&WaveCase::rise_max_ns, 0);
    try_int(&WaveCase::fall_min_ns, 0);
    try_int(&WaveCase::fall_max_ns, 0);
    try_int(&WaveCase::d1_min_ns, 0);
    try_int(&WaveCase::d1_max_ns, 0);
    try_int(&WaveCase::d2_min_ns, 0);
    try_int(&WaveCase::d2_max_ns, 0);
  }
  // Keep ranges well-formed for the emitted repro.
  best.rise_max_ns = std::max(best.rise_max_ns, best.rise_min_ns);
  best.fall_max_ns = std::max(best.fall_max_ns, best.fall_min_ns);
  best.d1_max_ns = std::max(best.d1_max_ns, best.d1_min_ns);
  best.d2_max_ns = std::max(best.d2_max_ns, best.d2_min_ns);
  return best;
}

namespace {
std::string test_name(const std::string& kind) {
  std::string out;
  bool cap = true;
  for (char ch : kind) {
    if (ch == '-' || ch == '_' || ch == ' ') {
      cap = true;
      continue;
    }
    out += cap ? static_cast<char>(std::toupper(static_cast<unsigned char>(ch))) : ch;
    cap = false;
  }
  return out.empty() ? "Oracle" : out;
}
}  // namespace

std::string gtest_repro(const CircuitSpec& spec, const std::string& oracle_kind,
                        const std::string& oracle_call) {
  std::ostringstream os;
  os << "TEST(CheckRegression, " << test_name(oracle_kind) << "Seed" << spec.seed << ") {\n";
  os << to_cpp(spec);
  os << "    auto fail = " << oracle_call << ";\n";
  os << "    ASSERT_FALSE(fail.has_value()) << fail->kind << \": \" << fail->detail;\n";
  os << "}\n";
  return os.str();
}

std::string gtest_repro(const WaveCase& wc, const std::string& oracle_kind) {
  std::ostringstream os;
  os << "TEST(CheckRegression, " << test_name(oracle_kind) << "Seed" << wc.seed << ") {\n";
  os << to_cpp(wc);
  os << "    auto fail = tv::check::check_wave_algebra(w);\n";
  os << "    ASSERT_FALSE(fail.has_value()) << fail->kind << \": \" << fail->detail;\n";
  os << "}\n";
  return os.str();
}

}  // namespace tv::check
