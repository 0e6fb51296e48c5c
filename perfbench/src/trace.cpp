#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>

#include "bench.hpp"

namespace perfbench {

namespace {

int thread_index() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1);
  return id;
}

}  // namespace

Tracer::Tracer() : t0_(Clock::now()) {}

double Tracer::now() const { return seconds_since(t0_); }

int Tracer::open(const char* name) {
  Span s{name, now(), 0, stack_.empty() ? -1 : stack_.back(), op_, thread_index()};
  spans_.push_back(s);
  int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end = now();
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

void Tracer::count(const char* name, double value) { counts_.push_back({name, op_, value}); }

void Tracer::op_wall(int op, double seconds) { op_wall_.emplace_back(op, seconds); }

double Tracer::reduce(const std::vector<std::pair<int, double>>& per_op_values) const {
  std::map<int, double> sums;
  for (const auto& [op, v] : per_op_values) sums[op] += v;
  bool in_timed = false;
  for (const auto& [op, v] : sums) in_timed = in_timed || op > 0;
  std::vector<double> xs;
  if (in_timed) {
    for (const auto& [op, wall] : op_wall_) {
      auto it = sums.find(op);
      xs.push_back(it == sums.end() ? 0.0 : it->second);
    }
  } else {
    for (const auto& [op, v] : sums) {
      if (op < 0) xs.push_back(v);
    }
  }
  return median(std::move(xs));
}

double Tracer::self_time(const char* name) const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<std::pair<int, double>> vals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0) {
      vals.emplace_back(spans_[i].op, spans_[i].end - spans_[i].start - child[i]);
    }
  }
  return reduce(vals);
}

double Tracer::counter(const char* name) const {
  std::vector<std::pair<int, double>> vals;
  for (const Count& c : counts_) {
    if (std::strcmp(c.name, name) == 0) vals.emplace_back(c.op, c.value);
  }
  return reduce(vals);
}

Tracer::SpanStats Tracer::span_stats(const char* name) const {
  std::map<int, double> per_op;
  std::vector<double> durs;
  for (const Span& s : spans_) {
    if (s.op > 0 && std::strcmp(s.name, name) == 0) {
      per_op[s.op] += 1;
      durs.push_back(s.end - s.start);
    }
  }
  SpanStats st;
  if (durs.empty()) return st;
  std::vector<double> counts;
  for (const auto& [op, wall] : op_wall_) counts.push_back(per_op.count(op) ? per_op[op] : 0);
  st.per_op = median(counts);
  st.max = *std::max_element(durs.begin(), durs.end());
  st.p50 = median(std::move(durs));
  return st;
}

double Tracer::coverage() const {
  std::set<int> timed;
  double wall = 0;
  for (const auto& [op, w] : op_wall_) {
    timed.insert(op);
    wall += w;
  }
  double covered = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && timed.count(s.op)) covered += s.end - s.start;
  }
  return wall > 0 ? covered / wall : 0;
}

bool Tracer::write_json(const std::string& path, std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    *error = "cannot write " + path;
    return false;
  }
  std::fprintf(f, "{\"spans\": [");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\n {\"id\": %zu, \"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                    "\"parent\": %d, \"op\": %d, \"thread\": %d}",
                 i ? "," : "", i, s.name, s.start, s.end, s.parent, s.op, s.thread);
  }
  std::fprintf(f, "],\n\"counts\": [");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const Count& c = counts_[i];
    std::fprintf(f, "%s\n {\"name\": \"%s\", \"op\": %d, \"value\": %.17g}", i ? "," : "",
                 c.name, c.op, c.value);
  }
  std::fprintf(f, "],\n\"ops\": [");
  for (std::size_t i = 0; i < op_wall_.size(); ++i) {
    std::fprintf(f, "%s\n {\"op\": %d, \"wall\": %.9f}", i ? "," : "", op_wall_[i].first,
                 op_wall_[i].second);
  }
  std::fprintf(f, "]}\n");
  bool ok = std::fclose(f) == 0;
  if (!ok) *error = "cannot write " + path;
  return ok;
}

}  // namespace perfbench
