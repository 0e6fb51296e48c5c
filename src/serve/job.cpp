#include "serve/job.hpp"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <unordered_set>

#include "util/fault.hpp"

namespace tv::serve {

namespace {

// Minimal recursive-descent scanner for the flat JSON objects job lines
// use: string, number, and boolean values only (no nesting, no arrays --
// the job schema is deliberately flat). Returns false on any deviation.
struct JsonScanner {
  const std::string& s;
  std::size_t i = 0;
  std::string error;

  explicit JsonScanner(const std::string& text) : s(text) {}

  bool fail(const std::string& why) {
    error = why + " at offset " + std::to_string(i);
    return false;
  }
  void skip_ws() {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
  }
  bool expect(char c) {
    skip_ws();
    if (i >= s.size() || s[i] != c) return fail(std::string("expected '") + c + "'");
    ++i;
    return true;
  }
  bool parse_string(std::string& out) {
    skip_ws();
    if (i >= s.size() || s[i] != '"') return fail("expected string");
    ++i;
    out.clear();
    while (i < s.size() && s[i] != '"') {
      char c = s[i++];
      if (c == '\\') {
        if (i >= s.size()) return fail("bad escape");
        char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          default: return fail("unsupported escape");
        }
      } else {
        out += c;
      }
    }
    if (i >= s.size()) return fail("unterminated string");
    ++i;  // closing quote
    return true;
  }
  // Value as text: "str", number, or true/false. `is_string` reports which.
  bool parse_value(std::string& out, bool& is_string) {
    skip_ws();
    if (i >= s.size()) return fail("expected value");
    if (s[i] == '"') {
      is_string = true;
      return parse_string(out);
    }
    is_string = false;
    std::size_t start = i;
    while (i < s.size() && (std::isalnum(static_cast<unsigned char>(s[i])) ||
                            s[i] == '-' || s[i] == '+' || s[i] == '.')) {
      ++i;
    }
    if (i == start) return fail("expected value");
    out = s.substr(start, i - start);
    return true;
  }
};

bool parse_double(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end && *end == '\0';
}

bool parse_long(const std::string& text, long& out) {
  char* end = nullptr;
  out = std::strtol(text.c_str(), &end, 10);
  return end && *end == '\0';
}

}  // namespace

std::optional<JobSpec> parse_job_line(const std::string& line, std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<JobSpec> {
    if (error) *error = why;
    return std::nullopt;
  };
  JsonScanner sc(line);
  if (!sc.expect('{')) return fail(sc.error);
  JobSpec job;
  bool first = true;
  for (;;) {
    sc.skip_ws();
    if (sc.i < sc.s.size() && sc.s[sc.i] == '}') {
      ++sc.i;
      break;
    }
    if (!first && !sc.expect(',')) return fail(sc.error);
    first = false;
    std::string key, value;
    bool is_string = false;
    if (!sc.parse_string(key)) return fail(sc.error);
    if (!sc.expect(':')) return fail(sc.error);
    if (!sc.parse_value(value, is_string)) return fail(sc.error);

    if (key == "id") {
      job.id = value;
    } else if (key == "design") {
      job.design = value;
    } else if (key == "stdlib") {
      if (value != "true" && value != "false") return fail("\"stdlib\" must be a boolean");
      job.stdlib = value == "true";
    } else if (key == "compiled") {
      if (value != "true" && value != "false") return fail("\"compiled\" must be a boolean");
      job.compiled = value == "true";
    } else if (key == "time_limit") {
      double v = 0;
      if (is_string || !parse_double(value, v) || v < 0) {
        return fail("\"time_limit\" must be a non-negative number");
      }
      job.time_limit = v;
    } else if (key == "jobs") {
      long v = 0;
      if (is_string || !parse_long(value, v) || v < 0) {
        return fail("\"jobs\" must be a non-negative integer");
      }
      job.jobs = static_cast<unsigned>(v);
    } else if (key == "reverify") {
      if (!is_string || value.empty()) {
        return fail("\"reverify\" must be a non-empty delta file path");
      }
      job.reverify = value;
    } else if (key == "fault") {
      // A typo'd chaos spec must fail the batch load, not run every worker
      // clean: check it with the parser the worker itself configures from.
      std::string spec_error;
      if (!fault::validate(value, &spec_error)) return fail("\"fault\": " + spec_error);
      job.fault = value;
    } else if (key == "fault_attempts") {
      long v = 0;
      if (is_string || !parse_long(value, v) || v < 0) {
        return fail("\"fault_attempts\" must be a non-negative integer");
      }
      job.fault_attempts = static_cast<int>(v);
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
  sc.skip_ws();
  if (sc.i != sc.s.size()) return fail("trailing characters after object");
  if (job.id.empty()) return fail("missing \"id\"");
  if (job.design.empty()) return fail("missing \"design\"");
  return job;
}

std::optional<std::vector<JobSpec>> parse_job_file(const std::string& path,
                                                   std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<std::vector<JobSpec>> {
    if (error) *error = path + ": " + why;
    return std::nullopt;
  };
  std::ifstream in(path);
  if (!in) return fail("cannot open");
  if (fault::should_fail("io.read")) return fail("injected read failure");
  std::vector<JobSpec> jobs;
  std::unordered_set<std::string> seen;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    std::string line_error;
    std::optional<JobSpec> job = parse_job_line(line, &line_error);
    if (!job) return fail("line " + std::to_string(lineno) + ": " + line_error);
    if (!seen.insert(job->id).second) {
      return fail("line " + std::to_string(lineno) + ": duplicate job id \"" +
                  job->id + "\"");
    }
    jobs.push_back(std::move(*job));
  }
  return jobs;
}

}  // namespace tv::serve
