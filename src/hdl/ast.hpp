// Abstract syntax for SHDL (the textual SCALD stand-in of sec. 3.1).
//
// The grammar:
//
//   file        := (macro_def | design_def)*
//   macro_def   := 'macro' NAME '(' [ids] ')' '{' stmt* '}'
//   design_def  := 'design' NAME '{' stmt* '}'
//   stmt        := 'period' NUM ';' | 'clock_unit' NUM ';'
//                | 'default_wire' NUM ':' NUM ';'
//                | 'precision_skew' NUM ':' NUM ';'  (signs included)
//                | 'clock_skew' NUM ':' NUM ';'
//                | 'param' ('in'|'out') STRING {',' STRING} ';'
//                | 'wire_delay' STRING expr ':' expr ';'
//                | 'case' STRING '{' (STRING '=' NUM ';')* '}'
//                | 'use' NAME [attrs] pins ';'           -- macro instance
//                | PRIM  [attrs] pins ['->' STRING] ';'  -- primitive
//   pins        := '(' STRING {',' STRING} ')'
//   attrs       := '[' NAME '=' expr [':' expr] {',' ...} ']'
//   expr        := integer/real arithmetic over numbers and macro
//                  parameters (+ - * /)
//
// Signal strings use the full SCALD name syntax: assertions, "-" complement,
// "&" directive strings, "/M" local and "/P" parameter scope markers, and
// "<a:b>" vector ranges whose bounds may be parameter expressions
// ("I<0:SIZE-1>").
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace tv::hdl {

/// The numeric parameters of one macro instantiation, by name. A macro has
/// few formals, so lookup is a scan.
using ParamEnv = std::vector<std::pair<std::string_view, double>>;

/// Arithmetic expression over numbers and named macro parameters.
struct Expr {
  enum class Op { Const, Param, Add, Sub, Mul, Div, Neg };
  Op op = Op::Const;
  double value = 0;          // Const
  std::string param;         // Param
  std::unique_ptr<Expr> lhs, rhs;

  double eval(const ParamEnv& env, int line) const;
};
using ExprPtr = std::unique_ptr<Expr>;

/// An attribute or delay operand: a plain (optionally negated) number is
/// held inline; anything else is an expression tree.
struct Operand {
  double value = 0;  // when expr is null
  ExprPtr expr;
};

struct Attr {
  std::string name;
  Operand lo;            // single value or range low
  Operand hi;            // range high (when has_hi)
  bool has_hi = false;
  int line = 0;
  int column = 0;
};

struct Instance {
  std::string kind;                 // primitive name or macro name (for 'use')
  bool is_macro = false;
  std::vector<Attr> attrs;
  std::vector<std::string> pins;    // signal strings, inputs in order
  std::string output;               // "-> STRING" (empty for checkers/macros)
  int line = 0;
  int column = 0;
};

struct ParamDecl {
  bool is_output = false;
  std::vector<std::string> names;   // full signal strings, e.g. "I<0:SIZE-1>"
};

struct WireDelayDecl {
  std::string signal;
  Operand dmin, dmax;
  int line = 0;
  int column = 0;
};

/// "synonym \"A\" = \"B\";" -- two names for one signal (Pass 1).
struct SynonymDecl {
  std::string a, b;
  int line = 0;
  int column = 0;
};

struct CaseDecl {
  std::string name;
  std::vector<std::pair<std::string, int>> pins;  // signal -> 0/1
  int line = 0;
  int column = 0;
};

struct Body {
  std::vector<ParamDecl> params;
  std::vector<Instance> instances;
  std::vector<WireDelayDecl> wire_delays;
  std::vector<SynonymDecl> synonyms;
  std::vector<CaseDecl> cases;
  // design-level settings (ns); negative period means "not set"
  double period_ns = -1;
  double clock_unit_ns = -1;
  double wire_min_ns = -1, wire_max_ns = -1;
  double precision_skew[2] = {1, -1};  // invalid marker (min > max)
  double clock_skew[2] = {1, -1};
  // Source spans for design-level diagnostics: the body's opening line and
  // the 'period' statement (0 = absent).
  int line = 0;
  int period_line = 0;
  int period_column = 0;
};

struct MacroDef {
  std::string name;
  std::vector<std::string> formals;  // numeric parameters (SIZE, ...)
  Body body;
  int line = 0;
  int column = 0;
  std::string file;  // source attribution when merged across sources
};

struct File {
  std::map<std::string, MacroDef> macros;
  std::string design_name;
  Body design;
  bool has_design = false;
  int design_line = 0;  // 'design' keyword line (0 when has_design is false)
  int end_line = 1;     // line of end-of-input, for whole-file diagnostics
};

}  // namespace tv::hdl
