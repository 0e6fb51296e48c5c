#include "hdl/parser.hpp"

#include <stdexcept>

#include "hdl/lexer.hpp"

namespace tv::hdl {

double Expr::eval(const ParamEnv& env, int line) const {
  switch (op) {
    case Op::Const: return value;
    case Op::Param: {
      for (const auto& [name, v] : env) {
        if (name == param) return v;
      }
      throw std::invalid_argument("SHDL error at line " + std::to_string(line) +
                                  ": unknown parameter \"" + param + "\"");
    }
    case Op::Add: return lhs->eval(env, line) + rhs->eval(env, line);
    case Op::Sub: return lhs->eval(env, line) - rhs->eval(env, line);
    case Op::Mul: return lhs->eval(env, line) * rhs->eval(env, line);
    case Op::Div: return lhs->eval(env, line) / rhs->eval(env, line);
    case Op::Neg: return -lhs->eval(env, line);
  }
  return 0;
}

namespace {

/// Thrown on a syntax error in recovery mode: unwinds to the nearest
/// statement-boundary handler, which resynchronizes and continues.
struct ParseBail {};
/// Thrown when the error cap is reached: unwinds the whole parse.
struct ParseAbort {};

class Parser {
 public:
  Parser(std::vector<Token> toks, diag::DiagnosticEngine* diags)
      : toks_(std::move(toks)), diags_(diags) {}

  File parse_file() {
    File f;
    if (!toks_.empty()) f.end_line = toks_.back().line;
    try {
      while (peek().kind != Tok::End) {
        if (diags_) {
          try {
            parse_top_level(f);
          } catch (const ParseBail&) {
            if (diags_->error_limit_reached()) throw ParseAbort{};
            sync_top_level();
          }
        } else {
          parse_top_level(f);
        }
      }
    } catch (const ParseAbort&) {
      // Error cap reached: return what parsed so far.
    }
    return f;
  }

 private:
  void parse_top_level(File& f) {
    const Token& t = expect(Tok::Ident, "'macro' or 'design'");
    if (t.text() == "macro") {
      MacroDef m = parse_macro();
      if (f.macros.count(m.name)) {
        // Recovery (via the bail/sync path) keeps the first definition.
        fail(m.line, m.column, diag::kErrDuplicateMacro,
             "duplicate macro \"" + m.name + "\"",
             Note{f.macros[m.name].line, "previous definition is here"});
      }
      f.macros.emplace(m.name, std::move(m));
    } else if (t.text() == "design") {
      if (f.has_design) {
        // Recovery (via the bail/sync path) skips the extra design body.
        fail(t.line, t.column, diag::kErrMultipleDesigns, "multiple design blocks",
             Note{f.design_line, "previous design block is here"});
      }
      int design_line = t.line;
      f.design_name = expect(Tok::Ident, "design name").text();
      f.design = parse_body();
      f.has_design = true;
      f.design_line = design_line;
    } else {
      fail(t.line, t.column, diag::kErrExpectedToken,
           "expected 'macro' or 'design', got \"" + std::string(t.text()) + "\"");
    }
  }

  const Token& peek(int ahead = 0) const {
    std::size_t i = pos_ + static_cast<std::size_t>(ahead);
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& take() { return toks_[pos_ < toks_.size() - 1 ? pos_++ : pos_]; }
  bool accept(Tok k) {
    if (peek().kind == k) {
      take();
      return true;
    }
    return false;
  }
  const Token& expect(Tok k, const char* what) {
    if (peek().kind != k) expected(what);
    return take();
  }
  [[noreturn]] void expected(const char* what) {
    fail(peek().line, peek().column, diag::kErrExpectedToken,
         std::string("expected ") + what + ", got " + std::string(tok_name(peek().kind)) +
             (peek().size == 0 ? "" : " \"" + std::string(peek().text()) + "\""));
  }

  /// expect() for a string token, copied out of the source.
  std::string take_string(const char* what) {
    return std::string(expect(Tok::String, what).text());
  }

  struct Note {
    int line;
    const char* message;
  };

  /// Reports or throws, depending on mode. In recovery mode this reports
  /// the diagnostic and throws ParseBail so the statement handler can
  /// resynchronize; note that non-fatal duplicate-definition errors call it
  /// and then continue via their own recovery path only when it returns --
  /// so in recovery mode it never returns.
  [[noreturn]] void fail(int line, int column, const char* code, const std::string& why,
                         Note note = Note{0, ""}) {
    if (diags_) {
      diag::Diagnostic& d = diags_->report(diag::Severity::Error, code, line, column, why);
      if (note.line > 0) {
        d.notes.push_back(diag::Note{
            diag::SourceLoc{diags_->current_file(), note.line, 0}, note.message});
      }
      throw ParseBail{};
    }
    throw std::invalid_argument("SHDL parse error at line " + std::to_string(line) + ": " +
                                why);
  }

  // --- recovery synchronization --------------------------------------------

  /// Skips to the next plausible top-level definition: an Ident "macro" /
  /// "design" outside any brace nesting, or end of input.
  void sync_top_level() {
    int depth = 0;
    while (peek().kind != Tok::End) {
      const Token& t = peek();
      if (t.kind == Tok::LBrace) {
        ++depth;
      } else if (t.kind == Tok::RBrace) {
        if (depth > 0) --depth;
        // A top-level '}' most likely closes the block we bailed out of.
        if (depth == 0) {
          take();
          return;
        }
      } else if (depth == 0 && t.kind == Tok::Ident &&
                 (t.text() == "macro" || t.text() == "design")) {
        return;
      }
      take();
    }
  }

  /// Skips to the end of the current statement: past the next ';' at this
  /// nesting level, or up to (not past) the '}' that closes the enclosing
  /// body. Nested braces (case bodies) are skipped whole.
  void sync_statement() {
    int depth = 0;
    while (peek().kind != Tok::End) {
      const Token& t = peek();
      if (t.kind == Tok::LBrace) {
        ++depth;
      } else if (t.kind == Tok::RBrace) {
        if (depth == 0) return;  // let parse_body consume the closer
        --depth;
      } else if (t.kind == Tok::Semi && depth == 0) {
        take();
        return;
      }
      take();
    }
  }

  MacroDef parse_macro() {
    MacroDef m;
    m.line = peek().line;
    m.column = peek().column;
    m.name = expect(Tok::Ident, "macro name").text();
    expect(Tok::LParen, "'('");
    if (peek().kind == Tok::Ident) {
      m.formals.emplace_back(take().text());
      while (accept(Tok::Comma)) m.formals.emplace_back(expect(Tok::Ident, "parameter").text());
    }
    expect(Tok::RParen, "')'");
    m.body = parse_body();
    return m;
  }

  // expr := term (('+'|'-') term)* ; term := factor (('*'|'/') factor)* ;
  // factor := NUMBER | IDENT | '-' factor | '(' expr ')'
  ExprPtr parse_expr() {
    ExprPtr e = parse_term();
    while (peek().kind == Tok::Plus || peek().kind == Tok::Minus) {
      bool add = take().kind == Tok::Plus;
      auto n = std::make_unique<Expr>();
      n->op = add ? Expr::Op::Add : Expr::Op::Sub;
      n->lhs = std::move(e);
      n->rhs = parse_term();
      e = std::move(n);
    }
    return e;
  }
  ExprPtr parse_term() {
    ExprPtr e = parse_factor();
    while (peek().kind == Tok::Star || peek().kind == Tok::Slash) {
      bool mul = take().kind == Tok::Star;
      auto n = std::make_unique<Expr>();
      n->op = mul ? Expr::Op::Mul : Expr::Op::Div;
      n->lhs = std::move(e);
      n->rhs = parse_factor();
      e = std::move(n);
    }
    return e;
  }
  ExprPtr parse_factor() {
    auto n = std::make_unique<Expr>();
    if (accept(Tok::Minus)) {
      n->op = Expr::Op::Neg;
      n->lhs = parse_factor();
      return n;
    }
    if (peek().kind == Tok::Number) {
      n->op = Expr::Op::Const;
      n->value = take().number;
      return n;
    }
    if (peek().kind == Tok::Ident) {
      n->op = Expr::Op::Param;
      n->param = take().text();
      return n;
    }
    if (accept(Tok::LParen)) {
      ExprPtr inner = parse_expr();
      expect(Tok::RParen, "')'");
      return inner;
    }
    fail(peek().line, peek().column, diag::kErrExpectedToken, "expected an expression");
  }

  /// An operand: a number, or a negated one, that no operator follows is
  /// held inline; anything else parses as an expression.
  Operand parse_operand() {
    const bool neg = peek().kind == Tok::Minus;
    const Tok next = peek(neg ? 2 : 1).kind;
    if (peek(neg ? 1 : 0).kind != Tok::Number || next == Tok::Plus || next == Tok::Minus ||
        next == Tok::Star || next == Tok::Slash) {
      return Operand{0, parse_expr()};
    }
    if (neg) take();
    const double v = take().number;
    return Operand{neg ? -v : v, nullptr};
  }

  double signed_number(const char* what) {
    bool neg = accept(Tok::Minus);
    double v = expect(Tok::Number, what).number;
    return neg ? -v : v;
  }

  /// Items in the comma-separated list that starts at the next token and
  /// ends at `close`, counted ahead to size its vector. Stops early, and so
  /// only undercounts, at a statement or block boundary.
  std::size_t list_length(Tok close) const {
    std::size_t n = 1;
    for (std::size_t i = pos_; i < toks_.size(); ++i) {
      const Tok k = toks_[i].kind;
      if (k == Tok::Comma) {
        ++n;
      } else if (k == close || k == Tok::Semi || k == Tok::LBrace || k == Tok::RBrace ||
                 k == Tok::End) {
        break;
      }
    }
    return n;
  }

  std::vector<Attr> parse_attrs() {
    std::vector<Attr> attrs;
    if (!accept(Tok::LBracket)) return attrs;
    if (accept(Tok::RBracket)) return attrs;  // "[]": no attributes
    attrs.reserve(list_length(Tok::RBracket));
    do {
      Attr a;
      a.line = peek().line;
      a.column = peek().column;
      a.name = expect(Tok::Ident, "attribute name").text();
      expect(Tok::Equal, "'='");
      a.lo = parse_operand();
      a.has_hi = accept(Tok::Colon);
      if (a.has_hi) a.hi = parse_operand();
      attrs.push_back(std::move(a));
    } while (accept(Tok::Comma));
    expect(Tok::RBracket, "']'");
    return attrs;
  }

  std::vector<std::string> parse_pins() {
    std::vector<std::string> pins;
    expect(Tok::LParen, "'('");
    if (peek().kind == Tok::String) {
      pins.reserve(list_length(Tok::RParen));
      pins.push_back(take_string("signal string"));
      while (accept(Tok::Comma)) pins.push_back(take_string("signal string"));
    }
    expect(Tok::RParen, "')'");
    return pins;
  }

  Body parse_body() {
    Body b;
    b.line = peek().line;
    expect(Tok::LBrace, "'{'");
    while (!accept(Tok::RBrace)) {
      if (diags_) {
        if (peek().kind == Tok::End) {
          // Unterminated body: report once and stop (End never syncs away).
          fail(peek().line, peek().column, diag::kErrExpectedToken,
               "expected a statement or '}', got end of input");
        }
        try {
          parse_statement(b);
        } catch (const ParseBail&) {
          if (diags_->error_limit_reached()) throw ParseAbort{};
          sync_statement();
        }
      } else {
        parse_statement(b);
      }
    }
    return b;
  }

  void parse_statement(Body& b) {
    const Token& t = expect(Tok::Ident, "statement");
    const std::string_view word = t.text();
    if (word == "period") {
      b.period_line = t.line;
      b.period_column = t.column;
      b.period_ns = expect(Tok::Number, "period in ns").number;
      expect(Tok::Semi, "';'");
    } else if (word == "clock_unit") {
      b.clock_unit_ns = expect(Tok::Number, "clock unit in ns").number;
      expect(Tok::Semi, "';'");
    } else if (word == "default_wire") {
      b.wire_min_ns = expect(Tok::Number, "min wire delay").number;
      expect(Tok::Colon, "':'");
      b.wire_max_ns = expect(Tok::Number, "max wire delay").number;
      expect(Tok::Semi, "';'");
    } else if (word == "precision_skew" || word == "clock_skew") {
      double* dst = word == "precision_skew" ? b.precision_skew : b.clock_skew;
      dst[0] = signed_number("skew minus");
      expect(Tok::Colon, "':'");
      dst[1] = signed_number("skew plus");
      expect(Tok::Semi, "';'");
    } else if (word == "param") {
      ParamDecl d;
      const Token& dir = expect(Tok::Ident, "'in' or 'out'");
      if (dir.text() == "out") {
        d.is_output = true;
      } else if (dir.text() != "in") {
        fail(dir.line, dir.column, diag::kErrExpectedToken, "expected 'in' or 'out'");
      }
      d.names.push_back(take_string("parameter signal"));
      while (accept(Tok::Comma)) {
        d.names.push_back(take_string("parameter signal"));
      }
      expect(Tok::Semi, "';'");
      b.params.push_back(std::move(d));
    } else if (word == "synonym") {
      SynonymDecl d;
      d.line = t.line;
      d.column = t.column;
      d.a = take_string("signal string");
      expect(Tok::Equal, "'='");
      d.b = take_string("signal string");
      expect(Tok::Semi, "';'");
      b.synonyms.push_back(std::move(d));
    } else if (word == "wire_delay") {
      WireDelayDecl d;
      d.line = t.line;
      d.column = t.column;
      d.signal = take_string("signal string");
      d.dmin = parse_operand();
      expect(Tok::Colon, "':'");
      d.dmax = parse_operand();
      expect(Tok::Semi, "';'");
      b.wire_delays.push_back(std::move(d));
    } else if (word == "case") {
      CaseDecl c;
      c.line = t.line;
      c.column = t.column;
      c.name = take_string("case name");
      expect(Tok::LBrace, "'{'");
      while (!accept(Tok::RBrace)) {
        std::string sig = take_string("signal string");
        expect(Tok::Equal, "'='");
        const Token& vt = peek();
        double v = expect(Tok::Number, "0 or 1").number;
        if (v != 0 && v != 1) {
          fail(vt.line, vt.column, diag::kErrBadCaseValue, "case values must be 0 or 1");
        }
        expect(Tok::Semi, "';'");
        c.pins.emplace_back(std::move(sig), static_cast<int>(v));
      }
      b.cases.push_back(std::move(c));
    } else if (word == "use") {
      Instance inst;
      inst.is_macro = true;
      inst.line = t.line;
      inst.column = t.column;
      inst.kind = expect(Tok::Ident, "macro name").text();
      inst.attrs = parse_attrs();
      inst.pins = parse_pins();
      expect(Tok::Semi, "';'");
      b.instances.push_back(std::move(inst));
    } else {
      // Primitive instance.
      Instance inst;
      inst.line = t.line;
      inst.column = t.column;
      inst.kind = word;
      inst.attrs = parse_attrs();
      inst.pins = parse_pins();
      if (accept(Tok::Arrow)) inst.output = take_string("output signal");
      expect(Tok::Semi, "';'");
      b.instances.push_back(std::move(inst));
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
  diag::DiagnosticEngine* diags_ = nullptr;
};

}  // namespace

File parse(std::string_view src) { return Parser(lex(src), nullptr).parse_file(); }

File parse(std::string_view src, diag::DiagnosticEngine& diags) {
  return Parser(lex(src, diags), &diags).parse_file();
}

}  // namespace tv::hdl
