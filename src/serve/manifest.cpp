#include "serve/manifest.hpp"

#include <algorithm>

#include "util/json.hpp"

namespace tv::serve {

const char* job_state_name(JobState s) {
  switch (s) {
    case JobState::Done: return "done";
    case JobState::Violations: return "violations";
    case JobState::InputError: return "input-error";
    case JobState::Degraded: return "degraded";
    case JobState::Crashed: return "crashed";
    case JobState::ResourceExhausted: return "resource-exhausted";
    case JobState::Shed: return "shed";
    case JobState::Quarantined: return "quarantined";
    case JobState::Requeued: return "requeued";
  }
  return "unknown";
}

int job_state_exit_code(JobState s) {
  switch (s) {
    case JobState::Done: return 0;
    case JobState::Violations: return 1;
    case JobState::InputError: return 2;
    case JobState::Degraded: return 3;
    case JobState::Crashed: return 4;
    case JobState::ResourceExhausted: return 6;
    case JobState::Shed: return 7;
    case JobState::Quarantined: return 8;
    case JobState::Requeued: return -1;
  }
  return -1;
}

std::size_t Manifest::count(JobState state) const {
  std::size_t n = 0;
  for (const JobRecord& j : jobs) {
    if (j.state == state) ++n;
  }
  return n;
}

int Manifest::exit_code() const {
  if (count(JobState::InputError)) return 2;
  if (count(JobState::Crashed)) return 4;
  if (count(JobState::ResourceExhausted)) return 6;
  if (count(JobState::Quarantined)) return 8;
  if (count(JobState::Shed)) return 7;
  if (count(JobState::Degraded)) return 3;
  if (count(JobState::Violations)) return 1;
  return 0;
}

std::string Manifest::to_json() const {
  std::vector<const JobRecord*> sorted;
  sorted.reserve(jobs.size());
  for (const JobRecord& j : jobs) sorted.push_back(&j);
  std::sort(sorted.begin(), sorted.end(),
            [](const JobRecord* a, const JobRecord* b) { return a->id < b->id; });

  std::string out = "{\n  \"jobs\": [\n";
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const JobRecord& j = *sorted[i];
    out += "    {\"id\": ";
    out += json::quote(j.id);
    out += ", \"design\": ";
    out += json::quote(j.design);
    out += ", \"state\": \"";
    out += job_state_name(j.state);
    out += "\", \"exit_code\": ";
    out += std::to_string(job_state_exit_code(j.state));
    out += ", \"attempts\": ";
    out += std::to_string(j.attempts);
    out += ", \"outcomes\": [";
    for (std::size_t k = 0; k < j.outcomes.size(); ++k) {
      if (k) out += ", ";
      out += json::quote(j.outcomes[k]);
    }
    out += "]}";
    if (i + 1 < sorted.size()) out += ',';
    out += '\n';
  }
  out += "  ],\n  \"counts\": {";
  const JobState order[] = {JobState::Done,
                            JobState::Violations,
                            JobState::InputError,
                            JobState::Degraded,
                            JobState::Crashed,
                            JobState::ResourceExhausted,
                            JobState::Shed,
                            JobState::Quarantined,
                            JobState::Requeued};
  bool first = true;
  for (JobState s : order) {
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += job_state_name(s);
    out += "\": ";
    out += std::to_string(count(s));
  }
  out += "},\n  \"evictions\": ";
  out += std::to_string(evictions);
  out += ",\n  \"durability_degraded\": ";
  out += std::to_string(durability_degraded);
  out += ",\n  \"exit_code\": ";
  out += std::to_string(exit_code());
  out += "\n}\n";
  return out;
}

}  // namespace tv::serve
