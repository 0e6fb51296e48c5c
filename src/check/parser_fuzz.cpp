#include "check/parser_fuzz.hpp"

#include <array>
#include <random>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "diag/diagnostic.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/stdlib.hpp"

namespace tv::check {

namespace {

// Small valid designs exercising the grammar's surface: macros, parameters,
// vector ranges, cases, wire delays, checkers. Mutations start from these
// (or from the standard chip library) so they reach deep into the parser
// instead of dying at the first token.
constexpr std::string_view kSeedDesigns[] = {
    R"(design TINY {
  period 50.0;
  clock_unit 6.25;
  reg [delay=1.5:4.5] ("D .S0-6", "CK .P8-9") -> "Q";
  setup_hold [setup=2.5, hold=1.5] ("D .S0-6", "CK .P8-9");
}
)",
    R"(macro PIPE(SIZE) {
  param in "I<0:SIZE-1>", "CK";
  param out "Q<0:SIZE-1>";
  reg [delay=1.5:4.5, width=SIZE] ("I<0:SIZE-1>", "CK") -> "Q<0:SIZE-1>";
  setup_hold [setup=2.5, hold=1.5, width=SIZE] ("I<0:SIZE-1>", "CK");
}
design PAIR {
  period 40.0;
  clock_unit 5.0;
  default_wire 0.0:2.0;
  use PIPE [SIZE=4] ("D<0:3> .S0-5", "CK .P6-7", "M<0:3>");
  wire_delay "M<0:3>" 0.5:1.5;
  use PIPE [SIZE=4] ("M<0:3>", "CK .P6-7", "Q<0:3>");
}
)",
    R"(design CASES {
  period 60.0;
  clock_unit 7.5;
  default_wire 0.0:2.0;
  buf [delay=0.5:2.0] ("SEL") -> "SELB";
  wire_delay "SELB" 0:0;
  mux2 [delay=1.2:3.3] ("SELB", "A .S0-6", "B .S0-6") -> "OUT";
  case "sel low" { "SEL" = 0; }
  case "sel high" { "SEL" = 1; }
}
)",
};

// Tokens spliced in by the token-level mutator: keywords, punctuation and
// fragments the grammar cares about.
constexpr std::string_view kSpliceTokens[] = {
    "macro", "design", "param", "use", "case", "period", "clock_unit",
    "default_wire", "precision_skew", "synonym", "wire_delay", "setup_hold",
    "reg", "->", "{", "}", "(", ")", "[", "]", "<0:SIZE-1>", "\"", ";", ",",
    "=", ":", "0", "-1", "1e9", "delay=", "width=", "/P", "/M", "--", "\n",
    ".P0-4", ".S0-6", "&Z",
};

std::string mutate(std::string src, std::mt19937_64& rng) {
  auto rnd = [&](std::size_t n) -> std::size_t {
    return n ? static_cast<std::size_t>(rng() % n) : 0;
  };
  int rounds = 1 + static_cast<int>(rnd(8));
  for (int r = 0; r < rounds; ++r) {
    if (src.empty()) src = "x";
    switch (rnd(6)) {
      case 0: {  // flip one byte to a random printable (or newline)
        char c = "\n\t !\"#$%&'()*+,-./0123456789:;<=>?@AZaz{|}~"[rnd(43)];
        src[rnd(src.size())] = c;
        break;
      }
      case 1: {  // delete a span
        std::size_t at = rnd(src.size());
        std::size_t len = 1 + rnd(16);
        src.erase(at, len);
        break;
      }
      case 2: {  // duplicate a span
        std::size_t at = rnd(src.size());
        std::size_t len = 1 + rnd(24);
        std::string span = src.substr(at, len);
        src.insert(rnd(src.size() + 1), span);
        break;
      }
      case 3: {  // truncate
        src.resize(rnd(src.size() + 1));
        break;
      }
      case 4: {  // splice in a grammar token
        std::string_view tok =
            kSpliceTokens[rnd(std::size(kSpliceTokens))];
        src.insert(rnd(src.size() + 1), std::string(tok));
        break;
      }
      case 5: {  // swap two chunks
        if (src.size() < 4) break;
        std::size_t a = rnd(src.size() / 2);
        std::size_t b = src.size() / 2 + rnd(src.size() - src.size() / 2);
        std::size_t len = 1 + rnd(12);
        std::string sa = src.substr(a, std::min(len, b - a));
        std::string sb = src.substr(b, len);
        src.replace(b, sb.size(), sa);
        src.replace(a, sa.size(), sb);
        break;
      }
    }
  }
  return src;
}

/// (offset, length) spans of a source text.
using Spans = std::vector<std::pair<std::size_t, std::size_t>>;

/// The bounds of every vector range ("<lo:hi>" inside a quoted signal
/// name) in `src`, as (offset, length) spans. Each seed design expands
/// every macro it defines, so every bound is evaluated.
Spans range_bounds(std::string_view src) {
  Spans bounds;
  bool quoted = false;
  for (std::size_t i = 0; i < src.size(); ++i) {
    if (src[i] == '"') quoted = !quoted;
    if (!quoted || src[i] != '<') continue;
    const std::size_t close = src.find('>', i);
    const std::size_t colon = src.find(':', i);
    if (close == std::string_view::npos || colon > close) continue;
    bounds.emplace_back(i + 1, colon - i - 1);
    bounds.emplace_back(colon + 1, close - colon - 1);
    i = close;
  }
  return bounds;
}

/// The numeric actuals of every macro instance ("use M [SIZE=4]") in `src`,
/// as (offset, length) spans. The seed designs use each macro parameter in
/// a vector-range bound.
Spans param_actuals(std::string_view src) {
  Spans actuals;
  for (std::size_t use = src.find("use "); use != std::string_view::npos;
       use = src.find("use ", use + 1)) {
    const std::size_t open = src.find('[', use);
    const std::size_t close = src.find(']', use);
    if (open == std::string_view::npos || close < open || src.find('\n', use) < close) continue;
    for (std::size_t eq = src.find('=', open); eq < close; eq = src.find('=', eq + 1)) {
      std::size_t end = eq + 1;
      while (end < close && src[end] != ',') ++end;
      actuals.emplace_back(eq + 1, end - eq - 1);
    }
  }
  return actuals;
}

// Malformed range numbers: the lexer's number scan takes all of each.
constexpr std::string_view kBadRangeNumbers[] = {"1.2.3", "1..5", "1.5"};
// Fractional parameter actuals: a bound such as SIZE-1 computed from one is
// fractional too.
constexpr std::string_view kFractionalActuals[] = {"2.5", "4.5", "0.5", "1.25"};

/// Replaces one seeded span of a seed design that has such spans with a
/// seeded pick of `values`.
std::string replace_one(std::mt19937_64& rng, Spans (*spans)(std::string_view),
                        std::span<const std::string_view> values) {
  std::vector<std::size_t> with;
  for (std::size_t i = 0; i < std::size(kSeedDesigns); ++i) {
    if (!spans(kSeedDesigns[i]).empty()) with.push_back(i);
  }
  std::string src(kSeedDesigns[with[rng() % with.size()]]);
  const auto all = spans(src);
  const auto [at, len] = all[rng() % all.size()];
  src.replace(at, len, values[rng() % values.size()]);
  return src;
}

/// A vector-range bound that is not a whole number, whether written as a
/// malformed or fractional literal or computed from a fractional macro
/// parameter, must be rejected with a located SHDL-E022. The mutator rarely
/// writes such a bound, and an input accepted silently breaks no robustness
/// contract, so this targets the case directly: one seed design with a
/// literal bound replaced, and one with a parameter actual replaced.
std::optional<ParserFuzzFailure> check_bad_range_number(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0xC2B2AE3D27D4EB4Full + 7);
  const std::pair<std::string, const char*> cases[] = {
      {replace_one(rng, range_bounds, kBadRangeNumbers), "a malformed range number"},
      {replace_one(rng, param_actuals, kFractionalActuals),
       "a range bound computed from a fractional parameter"},
  };
  for (const auto& [src, what] : cases) {
    diag::DiagnosticEngine diags;
    diags.set_current_file("<fuzz>");
    std::optional<hdl::ElaboratedDesign> d = hdl::elaborate_source(src, diags);
    bool located = false;
    for (const diag::Diagnostic& diag : diags.diagnostics()) {
      located = located || (diag.code == diag::kErrBadRange && diag.loc.line > 0);
    }
    if (!located) {
      return ParserFuzzFailure{seed, "silent-acceptance",
                               std::string(d ? "front end accepted " : "front end rejected ") +
                                   what + " without a located " + diag::kErrBadRange,
                               src};
    }
  }
  return std::nullopt;
}

}  // namespace

std::optional<ParserFuzzFailure> check_parser_robustness(std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  std::size_t corpus = std::size(kSeedDesigns) + 1;
  std::size_t pick = static_cast<std::size_t>(rng() % corpus);
  std::string base = pick < std::size(kSeedDesigns)
                         ? std::string(kSeedDesigns[pick])
                         : std::string(hdl::std_chip_library()) +
                               std::string(kSeedDesigns[0]);
  std::string mutated = mutate(std::move(base), rng);

  diag::DiagnosticEngine diags;
  diags.set_current_file("<fuzz>");
  auto fail = [&](std::string kind, std::string detail) {
    return ParserFuzzFailure{seed, std::move(kind), std::move(detail), mutated};
  };
  try {
    std::optional<hdl::ElaboratedDesign> d = hdl::elaborate_source(mutated, diags);
    if (!d && !diags.has_errors()) {
      return fail("silent-rejection",
                  "front end rejected the input without reporting any error "
                  "diagnostic");
    }
    if (d && diags.has_errors()) {
      return fail("accepted-with-errors",
                  "front end produced a design despite reporting errors");
    }
    // Malformed input is a located user error: SHDL-E099 means the front
    // end failed in a way it did not expect.
    for (const diag::Diagnostic& diag : diags.diagnostics()) {
      if (diag.code == diag::kErrInternal) return fail("internal-error", diag.message);
    }
    if (std::optional<ParserFuzzFailure> f = check_bad_range_number(seed)) return f;
  } catch (const std::exception& e) {
    return fail("uncaught-exception", e.what());
  } catch (...) {
    return fail("uncaught-exception", "non-standard exception escaped the front end");
  }
  return std::nullopt;
}

std::size_t seed_design_count() { return std::size(kSeedDesigns); }

std::string seed_design(std::size_t index) {
  return std::string(kSeedDesigns[index % std::size(kSeedDesigns)]);
}

std::string mutate_source(std::string src, std::uint64_t seed) {
  std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
  return mutate(std::move(src), rng);
}

}  // namespace tv::check
