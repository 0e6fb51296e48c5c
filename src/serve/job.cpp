#include "serve/job.hpp"

#include <fstream>
#include <limits>
#include <unordered_set>

#include "util/fault.hpp"
#include "util/json.hpp"

namespace tv::serve {

std::optional<JobSpec> parse_job_line(const std::string& line, std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<JobSpec> {
    if (error) *error = why;
    return std::nullopt;
  };
  json::Value root;
  std::string json_error;
  if (!json::parse(line, root, &json_error)) return fail(json_error);
  if (root.type != json::Value::Obj) return fail("a job line must be a JSON object");
  JobSpec job;
  for (const auto& [key, value] : root.obj) {
    auto must_be = [&](const char* what) { return fail("\"" + key + "\" must be " + what); };
    const bool is_str = value.type == json::Value::Str;
    const std::optional<std::int64_t> count = value.as_int64();
    if (key == "id" || key == "design") {
      if (!is_str) return must_be("a string");
      (key == "id" ? job.id : job.design) = value.str;
    } else if (key == "stdlib" || key == "compiled") {
      if (value.type != json::Value::Bool) return must_be("a boolean");
      (key == "stdlib" ? job.stdlib : job.compiled) = value.b;
    } else if (key == "time_limit") {
      std::optional<double> v = value.as_double();
      if (!v || *v < 0) return must_be("a non-negative number");
      job.time_limit = *v;
    } else if (key == "jobs") {
      if (!count || *count < 0 || *count > std::numeric_limits<unsigned>::max()) {
        return must_be("a non-negative integer");
      }
      job.jobs = static_cast<unsigned>(*count);
    } else if (key == "reverify") {
      if (!is_str || value.str.empty()) return must_be("a non-empty delta file path");
      job.reverify = value.str;
    } else if (key == "fault") {
      if (!is_str) return must_be("a string");
      // A typo'd chaos spec must fail the batch load, not run every worker
      // clean: check it with the parser the worker itself configures from.
      std::string spec_error;
      if (!fault::validate(value.str, &spec_error)) return fail("\"fault\": " + spec_error);
      job.fault = value.str;
    } else if (key == "fault_attempts") {
      if (!count || *count < 0 || *count > std::numeric_limits<int>::max()) {
        return must_be("a non-negative integer");
      }
      job.fault_attempts = static_cast<int>(*count);
    } else {
      return fail("unknown key \"" + key + "\"");
    }
  }
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
