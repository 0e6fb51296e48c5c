#include "hdl/lexer.hpp"

#include <charconv>
#include <limits>
#include <stdexcept>

#include "util/strings.hpp"

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

std::size_t number_length(std::string_view s) {
  std::size_t n = 0;
  while (n < s.size() && (is_digit(s[n]) || s[n] == '.')) ++n;
  return n;
}

std::optional<double> read_number(std::string_view spelling) {
  double v = 0;
  const char* end = spelling.data() + spelling.size();
  auto [used, ec] = std::from_chars(spelling.data(), end, v, std::chars_format::fixed);
  // from_chars reports overflow, and underflow to zero, as out of range; a
  // subnormal result is out of range too, as strtod's ERANGE has it.
  if (ec != std::errc() || used != end) return std::nullopt;
  if (v != 0 && v < std::numeric_limits<double>::min()) return std::nullopt;
  return v;
}

namespace {

// One implementation for both entry points: with a DiagnosticEngine errors
// are reported and recovered from; without one the first error throws the
// legacy std::invalid_argument.
std::vector<Token> lex_impl(std::string_view src, diag::DiagnosticEngine* diags) {
  std::vector<Token> out;
  // SHDL runs about one token per 5 bytes; reserving skips the regrowth
  // copies, and the pages a short source leaves unused are never touched.
  out.reserve(src.size() / 4 + 1);
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
  // A token spelled by src[start, start + size), reported at `at`.
  auto push = [&](Tok k, std::size_t start, std::size_t size, std::size_t at) -> Token& {
    Token& t = out.emplace_back();
    t.kind = k;
    t.data = src.data() + start;
    t.size = static_cast<std::uint32_t>(size);
    t.line = line;
    t.column = column_of(at);
    return t;
  };

  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      line_start = i;
      continue;
    }
    if (is_space(c)) {
      ++i;
      continue;
    }
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '-') {
      while (i < src.size() && src[i] != '\n') ++i;
      continue;
    }
    if (c == '-' && i + 1 < src.size() && src[i + 1] == '>') {
      push(Tok::Arrow, i, 0, i);
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
        push(Tok::String, start, i - start, open);
        continue;
      }
      push(Tok::String, start, i - start, open);
      ++i;
      continue;
    }
    if (is_digit(c) ||
        (c == '.' && i + 1 < src.size() && is_digit(src[i + 1]))) {
      std::size_t start = i;
      i += number_length(src.substr(i));
      Token& t = push(Tok::Number, start, i - start, start);
      if (std::optional<double> v = read_number(t.text())) {
        t.number = *v;
      } else {
        error(start, diag::kErrMalformedNumber,
              "malformed number \"" + std::string(t.text()) + "\"");
      }
      continue;
    }
    if (is_alpha(c) || c == '_') {
      std::size_t start = i;
      while (i < src.size() && (is_alnum(src[i]) ||
                                src[i] == '_')) {
        ++i;
      }
      push(Tok::Ident, start, i - start, start);
      continue;
    }
    Tok k = Tok::End;
    switch (c) {
      case '{': k = Tok::LBrace; break;
      case '}': k = Tok::RBrace; break;
      case '(': k = Tok::LParen; break;
      case ')': k = Tok::RParen; break;
      case '[': k = Tok::LBracket; break;
      case ']': k = Tok::RBracket; break;
      case ',': k = Tok::Comma; break;
      case ';': k = Tok::Semi; break;
      case ':': k = Tok::Colon; break;
      case '=': k = Tok::Equal; break;
      case '+': k = Tok::Plus; break;
      case '-': k = Tok::Minus; break;
      case '*': k = Tok::Star; break;
      case '/': k = Tok::Slash; break;
      default:
        error(i, diag::kErrUnexpectedChar,
              std::string("unexpected character '") + c + "'");
        // Recovery: drop the character.
    }
    if (k != Tok::End) push(k, i, 0, i);
    ++i;
  }
  push(Tok::End, i, 0, i);
  return out;
}

}  // namespace

std::vector<Token> lex(std::string_view src) { return lex_impl(src, nullptr); }

std::vector<Token> lex(std::string_view src, diag::DiagnosticEngine& diags) {
  return lex_impl(src, &diags);
}

}  // namespace tv::hdl
