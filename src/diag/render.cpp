#include "diag/render.hpp"

#include "util/json.hpp"

namespace tv::diag {

namespace {

void loc_into(std::string& out, const SourceLoc& loc) {
  if (!loc.file.empty()) {
    out += loc.file;
    out += ':';
  }
  if (loc.line > 0) {
    out += std::to_string(loc.line);
    out += ':';
    if (loc.column > 0) {
      out += std::to_string(loc.column);
      out += ':';
    }
  }
  if (!out.empty() && out.back() == ':') out += ' ';
}

void loc_json_into(std::string& out, const SourceLoc& loc) {
  out += "{\"file\": \"";
  json::escape_into(out, loc.file);
  out += "\", \"line\": " + std::to_string(loc.line) +
         ", \"column\": " + std::to_string(loc.column) + "}";
}

}  // namespace

std::string render_text(const Diagnostic& d) {
  std::string out;
  loc_into(out, d.loc);
  out += severity_name(d.severity);
  out += ": ";
  out += d.message;
  if (!d.code.empty()) {
    out += " [";
    out += d.code;
    out += ']';
  }
  out += '\n';
  for (const Note& n : d.notes) {
    out += "  ";
    loc_into(out, n.loc);
    out += "note: ";
    out += n.message;
    out += '\n';
  }
  return out;
}

std::string render_text(const DiagnosticEngine& engine) {
  std::string out;
  for (const Diagnostic& d : engine.diagnostics()) out += render_text(d);
  std::size_t e = engine.error_count(), w = engine.warning_count();
  if (e || w) {
    if (e) out += std::to_string(e) + (e == 1 ? " error" : " errors");
    if (e && w) out += ", ";
    if (w) out += std::to_string(w) + (w == 1 ? " warning" : " warnings");
    out += " generated.\n";
  }
  return out;
}

std::string render_json(const DiagnosticEngine& engine) {
  std::string out = "{\n  \"diagnostics\": [\n";
  const auto& ds = engine.diagnostics();
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const Diagnostic& d = ds[i];
    out += "    {\"severity\": \"";
    out += severity_name(d.severity);
    out += "\", \"code\": \"";
    json::escape_into(out, d.code);
    out += "\", \"loc\": ";
    loc_json_into(out, d.loc);
    out += ", \"message\": \"";
    json::escape_into(out, d.message);
    out += "\", \"notes\": [";
    for (std::size_t j = 0; j < d.notes.size(); ++j) {
      out += "{\"loc\": ";
      loc_json_into(out, d.notes[j].loc);
      out += ", \"message\": \"";
      json::escape_into(out, d.notes[j].message);
      out += "\"}";
      if (j + 1 < d.notes.size()) out += ", ";
    }
    out += "]}";
    if (i + 1 < ds.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n";
  out += "  \"errors\": " + std::to_string(engine.error_count()) + ",\n";
  out += "  \"warnings\": " + std::to_string(engine.warning_count()) + "\n";
  out += "}\n";
  return out;
}

int exit_code(bool input_errors, bool degraded, bool violations) {
  if (input_errors) return 2;
  if (degraded) return 3;
  if (violations) return 1;
  return 0;
}

}  // namespace tv::diag
