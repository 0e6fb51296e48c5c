#include "hdl/lexer.hpp"

#include <cctype>
#include <stdexcept>

namespace tv::hdl {

std::string_view tok_name(Tok t) {
  switch (t) {
    case Tok::Ident: return "identifier";
    case Tok::Number: return "number";
    case Tok::String: return "string";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBracket: return "'['";
    case Tok::RBracket: return "']'";
    case Tok::Comma: return "','";
    case Tok::Semi: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Equal: return "'='";
    case Tok::Arrow: return "'->'";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::End: return "end of input";
  }
  return "?";
}

namespace {

// One implementation for both entry points: with a DiagnosticEngine errors
// are reported and recovered from; without one the first error throws the
// legacy std::invalid_argument.
std::vector<Token> lex_impl(std::string_view src, diag::DiagnosticEngine* diags) {
  std::vector<Token> out;
  // SHDL runs about one token per 9 bytes; reserving skips the regrowth
  // copies, and the pages a short source leaves unused are never touched.
  out.reserve(src.size() / 8 + 1);
  int line = 1;
  std::size_t i = 0;
  std::size_t line_start = 0;
  auto column_of = [&](std::size_t pos) { return static_cast<int>(pos - line_start) + 1; };
  auto error = [&](std::size_t pos, const char* code, const std::string& why) {
    if (diags) {
      diags->report(diag::Severity::Error, code, line, column_of(pos), why);
      return;
    }
    throw std::invalid_argument("SHDL lex error at line " + std::to_string(line) + ": " + why);
  };
  auto push = [&](Tok k, std::string text = {}) {
    out.push_back(Token{k, std::move(text), 0, line, column_of(i)});
  };

  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '-') {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '>') {
      push(Tok::Arrow);
      i += 2;
      continue;
    }
    if (c == '"') {
      std::size_t open = i;
      std::size_t start = ++i;
      while (i < src.size() && src[i] != '"' && src[i] != '\n') ++i;
      if (i >= src.size() || src[i] != '"') {
        error(open, diag::kErrUnterminatedString, "unterminated string");
        // Recovery: use the rest of the line as the string contents.
        out.push_back(
            Token{Tok::String, std::string(src.substr(start, i - start)), 0, line,
                  column_of(open)});
        continue;
      }
      out.push_back(Token{Tok::String, std::string(src.substr(start, i - start)), 0, line,
                          column_of(open)});
      ++i;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < src.size() && std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t start = i;
      while (i < src.size() &&
             (std::isdigit(static_cast<unsigned char>(src[i])) || src[i] == '.')) {
        ++i;
      }
      Token t;
      t.kind = Tok::Number;
      t.text = std::string(src.substr(start, i - start));
      t.line = line;
      t.column = column_of(start);
      // std::stod rejects multi-dot spellings ("1.2.3" parses the prefix but
      // we require the whole token) and throws on out-of-range magnitudes.
      try {
        std::size_t used = 0;
        t.number = std::stod(t.text, &used);
        if (used != t.text.size()) {
          error(start, diag::kErrMalformedNumber, "malformed number \"" + t.text + "\"");
          t.number = 0;
        }
      } catch (const std::exception&) {
        error(start, diag::kErrMalformedNumber, "malformed number \"" + t.text + "\"");
        t.number = 0;
      }
      out.push_back(std::move(t));
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < src.size() && (std::isalnum(static_cast<unsigned char>(src[i])) ||
                                src[i] == '_')) {
        ++i;
      }
      out.push_back(Token{Tok::Ident, std::string(src.substr(start, i - start)), 0, line,
                          column_of(start)});
      continue;
    }
    switch (c) {
      case '{': push(Tok::LBrace); break;
      case '}': push(Tok::RBrace); break;
      case '(': push(Tok::LParen); break;
      case ')': push(Tok::RParen); break;
      case '[': push(Tok::LBracket); break;
      case ']': push(Tok::RBracket); break;
      case ',': push(Tok::Comma); break;
      case ';': push(Tok::Semi); break;
      case ':': push(Tok::Colon); break;
      case '=': push(Tok::Equal); break;
      case '+': push(Tok::Plus); break;
      case '-': push(Tok::Minus); break;
      case '*': push(Tok::Star); break;
      case '/': push(Tok::Slash); break;
      default:
        error(i, diag::kErrUnexpectedChar,
              std::string("unexpected character '") + c + "'");
        // Recovery: drop the character.
    }
    ++i;
  }
  push(Tok::End);
  return out;
}

}  // namespace

std::vector<Token> lex(std::string_view src) { return lex_impl(src, nullptr); }

std::vector<Token> lex(std::string_view src, diag::DiagnosticEngine& diags) {
  return lex_impl(src, &diags);
}

}  // namespace tv::hdl
