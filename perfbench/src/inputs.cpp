#include "inputs.hpp"

#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "diag/render.hpp"
#include "gen/s1_design.hpp"
#include "hdl/parser.hpp"

namespace perfbench {

std::string s1_source(int stages, Rng* rng, int slowed) {
  tv::gen::S1Params p;
  p.stages = stages;
  std::string src = tv::gen::generate_s1_shdl(p);
  if (!rng || slowed <= 0) return src;

  // Decode-chain gates are the top-level gate statements on "S<n> CH<j>"
  // nets; each becomes one primitive.
  std::vector<std::string> lines;
  std::istringstream in(src);
  for (std::string line; std::getline(in, line);) lines.push_back(std::move(line));
  std::vector<std::size_t> chain;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& l = lines[i];
    bool gate = l.rfind("  and [delay=", 0) == 0 || l.rfind("  or [delay=", 0) == 0 ||
                l.rfind("  xor [delay=", 0) == 0 || l.rfind("  not [delay=", 0) == 0;
    if (gate && l.find(" CH") != std::string::npos) chain.push_back(i);
  }
  rng->shuffle(chain);
  for (int k = 0; k < slowed && k < static_cast<int>(chain.size()); ++k) {
    std::string& l = lines[chain[static_cast<std::size_t>(k)]];
    std::size_t at = l.find("delay=") + 6;
    std::size_t end = l.find(']', at);
    double dmin = 0, dmax = 0;
    std::sscanf(l.c_str() + at, "%lf:%lf", &dmin, &dmax);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1f:%.1f", dmin, dmax + rng->uniform(8.0, 14.0));
    l.replace(at, end - at, buf);
  }
  std::string out;
  out.reserve(src.size() + 64);
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

std::string s1_section_source(int first, int count) {
  tv::gen::S1Params p;
  p.stages = first + count;
  p.clock_tree_bufs = 4;
  return tv::gen::generate_s1_section_shdl(p, first, count, /*include_clock_tree=*/true);
}

tv::hdl::ElaboratedDesign parse_and_elaborate(std::string_view src, Tracer* t) {
  std::unique_ptr<tv::hdl::File> file;
  {
    Span s(t, "hdl.parse");
    file = std::make_unique<tv::hdl::File>(tv::hdl::parse(src));
  }
  Span s(t, "hdl.elaborate");
  tv::hdl::ElaboratedDesign d = tv::hdl::elaborate(*file);
  file.reset();  // the syntax tree is the front end's to free
  return d;
}

std::string control_name(int stage, int ctl) {
  return "S" + std::to_string(stage) + " CTL" + std::to_string(ctl) + " .S4-8.5";
}

tv::CaseSpec control_case(const tv::Netlist& nl, int stage, int ctl, bool one) {
  tv::CaseSpec c;
  c.name = "S" + std::to_string(stage) + ".CTL" + std::to_string(ctl) + (one ? "=1" : "=0");
  c.pins = {{nl.find(control_name(stage, ctl)), one ? tv::Value::One : tv::Value::Zero}};
  return c;
}

tv::VerifyResult base_run(tv::Evaluator& ev, Tracer* t) {
  tv::VerifyResult r;
  {
    Span s(t, "core.base_fixpoint");
    ev.initialize();
    r.base_events = ev.propagate();
  }
  r.base_evals = ev.evals_performed();
  r.converged = ev.converged();
  r.partial = ev.degraded();
  r.degradations = ev.degradations();
  Span s(t, "core.check");
  std::vector<tv::Degradation> check_degs;
  r.violations = tv::run_checks(ev, &check_degs);
  for (tv::Degradation& d : check_degs) {
    r.partial = true;
    r.degradations.push_back(std::move(d));
  }
  r.cross_reference = ev.netlist().undefined_unasserted();
  return r;
}

std::string render_report(const std::string& design, const tv::Netlist& nl,
                          const tv::VerifyResult& r) {
  char head[256];
  std::snprintf(head, sizeof head,
                "design %s: %zu primitives, %zu signals, %zu events, %zu case(s)\n",
                design.c_str(), nl.num_prims(), nl.num_signals(), r.base_events, r.cases.size());
  std::string out = head;
  out += "\n" + tv::violations_report(r.violations);
  for (const auto& c : r.cases) {
    if (c.violations.empty()) continue;
    out += "\ncase \"" + c.name + "\" (" + std::to_string(c.events) + " events):\n" +
           tv::violations_report(c.violations);
  }
  if (!r.converged) out += "WARNING: evaluation did not converge (combinational loop?)\n";
  return out;
}

std::string render_state(const tv::Netlist& nl, const tv::VerifyResult& r) {
  std::string out;
  out += r.converged ? "C" : "c";
  out += r.partial ? "P\n" : "p\n";
  out += tv::timing_summary(nl) + tv::violations_report(r.violations);
  for (const auto& c : r.cases) {
    out += c.name + ":" + std::to_string(c.events) + (c.converged ? "+c" : "-c") +
           (c.degraded ? "+d" : "-d") + "\n" + tv::violations_report(c.violations);
  }
  return out;
}

namespace {

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001b3ull;
  }
  void num(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    num(s.size());
    bytes(s.data(), s.size());
  }
  void violations(const std::vector<tv::Violation>& vs) {
    num(vs.size());
    for (const tv::Violation& v : vs) {
      num(static_cast<std::uint64_t>(v.type));
      num(v.prim);
      num(v.signal);
      num(static_cast<std::uint64_t>(v.missed_by));
      str(v.message);
    }
  }
};

}  // namespace

std::uint64_t fingerprint(const tv::VerifyResult& r) {
  Fnv f;
  f.num(r.converged);
  f.num(r.partial);
  f.num(r.base_events);
  f.num(r.base_evals);
  f.violations(r.violations);
  f.num(r.degradations.size());
  for (const tv::Degradation& d : r.degradations) {
    f.str(d.code);
    f.str(d.message);
  }
  f.num(r.cases.size());
  for (const auto& c : r.cases) {
    f.str(c.name);
    f.num(c.events);
    f.num(c.converged);
    f.num(c.degraded);
    f.violations(c.violations);
  }
  for (tv::SignalId id : r.cross_reference) f.num(id);
  return f.h;
}

int verdict(const tv::VerifyResult& r) {
  return tv::diag::exit_code(false, r.partial, r.total_violations() != 0);
}

}  // namespace perfbench
