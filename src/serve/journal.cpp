#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/fault.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"

namespace tv::serve {

namespace {

std::uint64_t fnv1a_str(const std::string& s, std::uint64_t h) {
  // Length-prefixed so adjacent fields cannot alias ("ab"+"c" vs "a"+"bc").
  std::uint64_t n = s.size();
  h = fnv1a(&n, sizeof n, h);
  return fnv1a(s.data(), s.size(), h);
}

bool parse_hex64(const std::string& s, std::uint64_t& out) {
  if (s.empty() || s.size() > 16) return false;
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), out, 16);
  return ec == std::errc{} && end == s.data() + s.size();
}

JobState state_from_name(const std::string& name, bool* ok) {
  *ok = true;
  if (name == "done") return JobState::Done;
  if (name == "violations") return JobState::Violations;
  if (name == "input-error") return JobState::InputError;
  if (name == "degraded") return JobState::Degraded;
  if (name == "crashed") return JobState::Crashed;
  if (name == "resource-exhausted") return JobState::ResourceExhausted;
  if (name == "shed") return JobState::Shed;
  if (name == "quarantined") return JobState::Quarantined;
  if (name == "requeued") return JobState::Requeued;
  *ok = false;
  return JobState::Requeued;
}

bool write_all(int fd, const char* data, std::size_t len) {
  while (len > 0) {
    ssize_t n = write(fd, data, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

std::string header_line(const std::vector<JobSpec>& jobs, std::uint64_t seed,
                        int max_attempts, const BatchPolicy& policy) {
  std::string line = "{\"journal\": \"scaldtvd\", \"version\": ";
  line += std::to_string(kJournalVersion);
  line += ", \"jobs\": " + std::to_string(jobs.size());
  line += ", \"jobs_digest\": ";
  line += json::quote(hex64(jobs_digest(jobs)));
  line += ", \"seed\": " + std::to_string(seed);
  line += ", \"max_attempts\": " + std::to_string(max_attempts);
  line += ", \"mem_limit_mb\": " + std::to_string(policy.mem_limit_mb);
  line += ", \"mem_retry\": " + std::to_string(policy.mem_retry ? 1 : 0);
  line += ", \"max_queue\": " + std::to_string(policy.max_queue);
  line += ", \"quarantine_after\": " + std::to_string(policy.quarantine_after);
  line += "}\n";
  return line;
}

}  // namespace

std::uint64_t jobs_digest(const std::vector<JobSpec>& jobs) {
  std::uint64_t h = kFnv1aBasis;
  std::uint64_t n = jobs.size();
  h = fnv1a(&n, sizeof n, h);
  for (const JobSpec& j : jobs) {
    h = fnv1a_str(j.id, h);
    h = fnv1a_str(j.design, h);
    unsigned char flags = static_cast<unsigned char>((j.compiled ? 1 : 0) |
                                                     (j.stdlib ? 2 : 0));
    h = fnv1a(&flags, sizeof flags, h);
    h = fnv1a(&j.time_limit, sizeof j.time_limit, h);
    h = fnv1a(&j.jobs, sizeof j.jobs, h);
    h = fnv1a_str(j.reverify, h);
    h = fnv1a_str(j.fault, h);
    h = fnv1a(&j.fault_attempts, sizeof j.fault_attempts, h);
  }
  return h;
}

Journal::~Journal() {
  if (fd_ >= 0) close(fd_);
}

std::unique_ptr<Journal> Journal::create(const std::string& path,
                                         const std::vector<JobSpec>& jobs,
                                         std::uint64_t seed, int max_attempts,
                                         const BatchPolicy& policy,
                                         std::string* error) {
  int fd = open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    if (error) *error = path + ": " + std::strerror(errno);
    return nullptr;
  }
  std::unique_ptr<Journal> j(new Journal(fd));
  j->append(header_line(jobs, seed, max_attempts, policy));
  if (!j->ok()) {
    if (error) *error = j->error();
    return nullptr;
  }
  return j;
}

std::unique_ptr<Journal> Journal::reopen(const std::string& path, std::string* error) {
  int fd = open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd < 0) {
    if (error) *error = path + ": " + std::strerror(errno);
    return nullptr;
  }
  return std::unique_ptr<Journal>(new Journal(fd));
}

void Journal::append(const std::string& line) {
  if (!ok_) return;
  // Disk-pressure injection point: a planned io.write fault here behaves
  // like ENOSPC on the journal device -- the record never lands (not even
  // partially), the failure latches, and the daemon must wind down loudly
  // with the on-disk journal still a clean resumable prefix.
  if (fault::should_fail("io.write")) {
    ok_ = false;
    error_ = "journal append failed: injected io.write fault (ENOSPC)";
    return;
  }
  if (!write_all(fd_, line.data(), line.size()) || fsync(fd_) != 0) {
    ok_ = false;
    error_ = std::string("journal append failed: ") + std::strerror(errno);
  }
}

void Journal::record_launch(const std::string& job_id, int attempt) {
  std::string line = "{\"job\": ";
  line += json::quote(job_id);
  line += ", \"attempt\": " + std::to_string(attempt);
  line += ", \"event\": \"launch\"}\n";
  append(line);
}

void Journal::record_outcome(const std::string& job_id, int attempt,
                             const std::string& outcome) {
  std::string line = "{\"job\": ";
  line += json::quote(job_id);
  line += ", \"attempt\": " + std::to_string(attempt);
  line += ", \"event\": \"outcome\", \"outcome\": ";
  line += json::quote(outcome);
  line += "}\n";
  append(line);
}

void Journal::record_settle(const std::string& job_id, JobState state) {
  std::string line = "{\"job\": ";
  line += json::quote(job_id);
  line += ", \"event\": \"settle\", \"state\": \"";
  line += job_state_name(state);
  line += "\"}\n";
  append(line);
}

void Journal::record_quarantine(const std::string& key_hex) {
  std::string line = "{\"event\": \"quarantine\", \"key\": ";
  line += json::quote(key_hex);
  line += "}\n";
  append(line);
}

bool derive_settlement(const std::vector<std::string>& outcomes, int max_attempts,
                       bool mem_retry, JobState* out) {
  // Mirrors the live reap path exactly (serve/supervisor.cpp): exits 0/1/3
  // are verdicts, exit 5 / signals / timeouts / spawn failures are
  // transient (retried), a mem-limit breach is terminal ResourceExhausted
  // (immediately, or after max_attempts under --mem-retry), everything
  // else is a permanent input error.
  for (const std::string& o : outcomes) {
    if (o.rfind("exit:", 0) == 0) {
      long code = 0;
      auto [end, ec] = std::from_chars(o.data() + 5, o.data() + o.size(), code);
      if (ec != std::errc{} || end != o.data() + o.size()) code = 127;
      switch (code) {
        case 0: *out = JobState::Done; return true;
        case 1: *out = JobState::Violations; return true;
        case 3: *out = JobState::Degraded; return true;
        case 5: break;  // transient
        default: *out = JobState::InputError; return true;
      }
    } else if (o == "mem-limit" && !mem_retry) {
      *out = JobState::ResourceExhausted;
      return true;
    }
    // "signal:N", "timeout", "spawn-failed" (and "mem-limit" under
    // --mem-retry): transient, keep walking.
  }
  if (static_cast<int>(outcomes.size()) >= max_attempts) {
    *out = (!outcomes.empty() && outcomes.back() == "mem-limit")
               ? JobState::ResourceExhausted
               : JobState::Crashed;
    return true;
  }
  return false;
}

std::optional<JournalReplay> replay_journal(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& why) -> std::optional<JournalReplay> {
    if (error) *error = path + ": " + why;
    return std::nullopt;
  };
  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open");
  std::stringstream buf;
  buf << in.rdbuf();
  std::string text = buf.str();

  JournalReplay replay;
  bool saw_header = false;
  std::size_t lineno = 0;
  std::size_t from = 0;
  while (from < text.size()) {
    std::size_t nl = text.find('\n', from);
    bool torn = nl == std::string::npos;  // no newline: crash tore this line
    std::string line = text.substr(from, torn ? std::string::npos : nl - from);
    from = torn ? text.size() : nl + 1;
    ++lineno;
    if (line.empty()) continue;

    json::Value record;
    std::string perror;
    if (!json::parse(line, record, &perror) || record.type != json::Value::Obj) {
      if (torn) break;  // a torn final record is the expected crash artifact
      if (perror.empty()) perror = "a record must be an object";
      return fail("line " + std::to_string(lineno) + ": " + perror);
    }
    if (torn) {
      // Parsed, but unterminated: still a torn write (the record is only
      // durable once its newline hit the disk). Drop it -- the attempt it
      // described will simply re-run.
      break;
    }

    auto str_field = [&](const char* key) -> const std::string* {
      const json::Value* v = record.get(key);
      return v && v->type == json::Value::Str ? &v->str : nullptr;
    };
    auto num_field = [&](const char* key, long& out) {
      const json::Value* v = record.get(key);
      std::optional<std::int64_t> n = v ? v->as_int64() : std::nullopt;
      if (n) out = *n;
      return n.has_value();
    };

    if (!saw_header) {
      const std::string* kind = str_field("journal");
      if (!kind || *kind != "scaldtvd") return fail("not a scaldtvd journal");
      long version = 0, njobs = 0, seed = 0, max_attempts = 0;
      const std::string* digest = str_field("jobs_digest");
      if (!num_field("version", version) || !num_field("jobs", njobs) ||
          !num_field("seed", seed) || !num_field("max_attempts", max_attempts) ||
          !digest || njobs < 0 || seed < 0 || max_attempts < 1 ||
          !parse_hex64(*digest, replay.digest)) {
        return fail("malformed journal header");
      }
      if (version != kJournalVersion) {
        return fail("journal version " + std::to_string(version) +
                    " (this build reads version " + std::to_string(kJournalVersion) + ")");
      }
      long mem_limit_mb = 0, mem_retry = 0, max_queue = 0, quarantine_after = 0;
      if (!num_field("mem_limit_mb", mem_limit_mb) ||
          !num_field("mem_retry", mem_retry) ||
          !num_field("max_queue", max_queue) ||
          !num_field("quarantine_after", quarantine_after) ||
          mem_limit_mb < 0 || (mem_retry != 0 && mem_retry != 1) ||
          max_queue < 0 || quarantine_after < 0) {
        return fail("malformed journal header (overload policy)");
      }
      replay.version = static_cast<std::uint32_t>(version);
      replay.num_jobs = static_cast<std::size_t>(njobs);
      replay.seed = static_cast<std::uint64_t>(seed);
      replay.max_attempts = static_cast<int>(max_attempts);
      replay.policy.mem_limit_mb = mem_limit_mb;
      replay.policy.mem_retry = mem_retry == 1;
      replay.policy.max_queue = max_queue;
      replay.policy.quarantine_after = static_cast<int>(quarantine_after);
      saw_header = true;
      continue;
    }

    const std::string* event = str_field("event");
    if (event && *event == "quarantine") {
      const std::string* key = str_field("key");
      if (!key) return fail("line " + std::to_string(lineno) + ": quarantine without key");
      replay.quarantined_keys.push_back(*key);
      continue;
    }

    const std::string* job = str_field("job");
    if (!job || !event) {
      return fail("line " + std::to_string(lineno) + ": record without job/event");
    }
    ReplayedJob& rj = replay.jobs[*job];
    if (*event == "launch") {
      long attempt = 0;
      if (!num_field("attempt", attempt) ||
          attempt != static_cast<long>(rj.outcomes.size()) + 1) {
        // A relaunch of the same attempt after an earlier kill is legal
        // (same number); a gap or regression is not.
        return fail("line " + std::to_string(lineno) + ": launch attempt " +
                    std::to_string(attempt) + " out of order for job \"" +
                    *job + "\"");
      }
    } else if (*event == "outcome") {
      long attempt = 0;
      const std::string* outcome = str_field("outcome");
      if (!outcome || !num_field("attempt", attempt) ||
          attempt != static_cast<long>(rj.outcomes.size()) + 1) {
        return fail("line " + std::to_string(lineno) + ": outcome out of order for job \"" +
                    *job + "\"");
      }
      rj.outcomes.push_back(*outcome);
    } else if (*event == "settle") {
      const std::string* state = str_field("state");
      bool ok = false;
      JobState st = state ? state_from_name(*state, &ok) : JobState::Requeued;
      if (!ok) {
        return fail("line " + std::to_string(lineno) + ": unknown settle state");
      }
      rj.settled = true;
      rj.state = st;
    } else {
      return fail("line " + std::to_string(lineno) + ": unknown event \"" +
                  *event + "\"");
    }
  }
  if (!saw_header) return fail("missing journal header");
  return replay;
}

}  // namespace tv::serve
