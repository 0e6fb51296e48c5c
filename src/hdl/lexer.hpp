// Lexer for the SHDL hardware description language -- a textual stand-in
// for the graphics-based SCALD Hardware Description Language (thesis
// sec. 3.1). Signal names (which contain spaces, assertions, directives and
// scope markers) are written as double-quoted strings; everything else is a
// conventional identifier/number/punctuation token stream. Comments run
// from "--" to end of line.
//
// Tokens are spans: a token's text points into the source it was lexed
// from, so the source must outlive the token vector. The parser copies the
// text it keeps into the syntax tree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "diag/diagnostic.hpp"

namespace tv::hdl {

enum class Tok : std::uint8_t {
  Ident,    // macro, design, period, reg, SIZE, ...
  Number,   // 50.0, 2, -1.0
  String,   // "W DATA .S0-6"
  LBrace, RBrace, LParen, RParen, LBracket, RBracket,
  Comma, Semi, Colon, Equal, Arrow,  // ->
  Plus, Minus, Star, Slash,
  End
};

struct Token {
  double number = 0;            // valid when kind == Number
  const char* data = nullptr;   // identifier/string contents, number spelling
  std::uint32_t size = 0;
  int line = 0;
  int column = 0;               // 1-based column of the token's first character
  Tok kind = Tok::End;

  std::string_view text() const { return {data, size}; }
};

/// Tokenizes the whole input. Throws std::invalid_argument (with a line
/// number) on unterminated strings or unexpected characters.
std::vector<Token> lex(std::string_view src);

/// Recovering form: lexical errors are reported through `diags` (with
/// line:column spans) and skipped -- an unterminated string yields the rest
/// of the line, a stray character is dropped, a malformed number becomes 0
/// -- so the parser always receives a complete token stream and can report
/// every error in one run.
std::vector<Token> lex(std::string_view src, diag::DiagnosticEngine& diags);

std::string_view tok_name(Tok t);

/// Length of the number spelling that starts `s`: its run of digits and
/// '.'s. The lexer and the vector-range evaluator both scan numbers so.
std::size_t number_length(std::string_view s);

/// The one reader of SHDL number spellings: the value of `spelling`, or
/// nothing when it is malformed (not digits with at most one '.') or out of
/// range. Out of range is a magnitude that overflows, or a nonzero spelling
/// that would read as 0 or as a subnormal.
std::optional<double> read_number(std::string_view spelling);

}  // namespace tv::hdl
