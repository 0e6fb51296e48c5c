#include "util/fault.hpp"

#include <atomic>
#include <cctype>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

namespace tv::fault {

namespace {

enum class Action { Fail, Abort, Hang, Kill9, Bloat };

struct Entry {
  std::string site;
  std::uint64_t nth = 1;  // 1-based hit at which the fault fires
  Action action = Action::Fail;
  std::uint64_t hits = 0;
  bool fired = false;
};

// The plan is tiny (a handful of entries) and sites are checked by linear
// scan under one mutex; the disabled fast path below never takes it.
std::mutex g_mu;
std::vector<Entry> g_plan;
std::atomic<bool> g_enabled{false};

bool parse_entry(const std::string& text, Entry& e, std::string* error) {
  auto fail = [&](const std::string& why) {
    if (error) *error = "bad fault entry \"" + text + "\": " + why;
    return false;
  };
  std::size_t at = text.find('@');
  if (at == std::string::npos || at == 0) return fail("expected site@N:action");
  std::size_t colon = text.find(':', at);
  if (colon == std::string::npos) return fail("expected site@N:action");
  e.site = text.substr(0, at);
  // A dotted identifier only: warm workers receive the spec as one
  // whitespace-delimited protocol token, so a blank inside it must be
  // rejected here rather than split the command line.
  for (char c : e.site) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '.' && c != '_') {
      return fail("site must be a dotted identifier");
    }
  }
  std::string nth = text.substr(at + 1, colon - at - 1);
  if (nth.empty()) return fail("missing hit count");
  char* end = nullptr;
  unsigned long long n = std::strtoull(nth.c_str(), &end, 10);
  if (!end || *end != '\0' || n == 0) return fail("hit count must be a positive integer");
  e.nth = n;
  std::string action = text.substr(colon + 1);
  if (action == "fail") {
    e.action = Action::Fail;
  } else if (action == "abort") {
    e.action = Action::Abort;
  } else if (action == "hang") {
    e.action = Action::Hang;
  } else if (action == "kill9") {
    e.action = Action::Kill9;
  } else if (action == "bloat") {
    e.action = Action::Bloat;
  } else {
    return fail("action must be fail, abort, hang, kill9, or bloat");
  }
  return true;
}

bool parse_plan(const std::string& spec, std::vector<Entry>& plan, std::string* error) {
  std::size_t from = 0;
  while (from < spec.size()) {
    std::size_t comma = spec.find(',', from);
    if (comma == std::string::npos) comma = spec.size();
    std::string part = spec.substr(from, comma - from);
    from = comma + 1;
    if (part.empty()) continue;
    Entry e;
    if (!parse_entry(part, e, error)) return false;
    plan.push_back(std::move(e));
  }
  return true;
}

}  // namespace

bool validate(const std::string& spec, std::string* error) {
  std::vector<Entry> plan;
  return parse_plan(spec, plan, error);
}

bool configure(const std::string& spec, std::string* error) {
  std::vector<Entry> plan;
  if (!parse_plan(spec, plan, error)) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  g_plan = std::move(plan);
  g_enabled.store(!g_plan.empty(), std::memory_order_release);
  return true;
}

void configure_from_env() {
  const char* spec = std::getenv("TV_FAULT");
  if (!spec || !*spec) return;
  std::string error;
  if (!configure(spec, &error)) {
    std::fprintf(stderr, "TV_FAULT ignored: %s\n", error.c_str());
  }
}

void reset() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_plan.clear();
  g_enabled.store(false, std::memory_order_release);
}

bool enabled() { return g_enabled.load(std::memory_order_acquire); }

bool plan_only_site(const char* site) {
  if (!g_enabled.load(std::memory_order_acquire)) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_plan.empty()) return false;
  for (const Entry& e : g_plan) {
    if (e.site != site) return false;
  }
  return true;
}

bool should_fail(const char* site) {
  if (!g_enabled.load(std::memory_order_acquire)) return false;
  Action action;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    Entry* hit = nullptr;
    for (Entry& e : g_plan) {
      if (e.site == site) {
        ++e.hits;
        if (!e.fired && e.hits == e.nth) {
          e.fired = true;
          hit = &e;
        }
        break;  // first entry for a site wins; one entry per site expected
      }
    }
    if (!hit) return false;
    action = hit->action;
  }
  switch (action) {
    case Action::Fail:
      return true;
    case Action::Abort:
      std::abort();
    case Action::Hang:
      // Parked, not spinning: the process stays alive and idle until the
      // supervisor's watchdog delivers SIGKILL.
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    case Action::Kill9:
      // Instant, uncatchable death -- no atexit handlers, no flushes. The
      // kill/restart chaos tests use this to prove the write-ahead journal
      // alone is enough to resume a batch (docs/recovery.md).
      raise(SIGKILL);
      return false;  // unreachable
    case Action::Bloat: {
      // Grow RSS steadily: allocate, touch, and leak 4 MiB chunks with a
      // short pause between them so a supervisor-side watchdog sampling
      // /proc/<pid>/statm sees the climb. Capped at 1 GiB as a safety net
      // against the kernel OOM killer; past the cap the thread parks like
      // `hang` and the watchdog (memory or time) reaps the worker.
      constexpr std::size_t kChunk = 4u << 20;
      constexpr std::size_t kCapBytes = 1u << 30;
      std::size_t grown = 0;
      while (grown < kCapBytes) {
        char* p = static_cast<char*>(std::malloc(kChunk));
        if (p) {
          std::memset(p, 0x5a, kChunk);  // touch every page: VA -> RSS
          grown += kChunk;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
    }
  }
  return false;
}

void check(const char* site) {
  if (should_fail(site)) {
    throw InjectedFault(std::string("injected fault at site \"") + site + "\"");
  }
}

std::uint64_t hits(const char* site) {
  std::lock_guard<std::mutex> lock(g_mu);
  for (const Entry& e : g_plan) {
    if (e.site == site) return e.hits;
  }
  return 0;
}

std::string describe() {
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_plan.empty()) return "off";
  std::string out;
  for (const Entry& e : g_plan) {
    if (!out.empty()) out += ',';
    out += e.site + "@" + std::to_string(e.nth) + ":";
    switch (e.action) {
      case Action::Fail: out += "fail"; break;
      case Action::Abort: out += "abort"; break;
      case Action::Hang: out += "hang"; break;
      case Action::Kill9: out += "kill9"; break;
      case Action::Bloat: out += "bloat"; break;
    }
  }
  return out;
}

}  // namespace tv::fault
