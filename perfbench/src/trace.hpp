// Span recorder for the benchmark's traced runs.
//
// The benchmark times each layer from the outside: it wraps its own calls
// into the verifier's public functions in spans. A span records its name,
// start and end, the span open around it (its parent), the operation it
// belongs to and the thread that ran it. Spans stay in memory and are
// written out as JSON when the run ends; the reductions below turn them
// into per-layer self times.
//
// Operations are numbered: 0 is "outside any operation", -1, -2, ... are
// the set-up repetitions and 1, 2, ... the timed operations.
#pragma once

#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  Tracer();

  void set_op(int op) { op_ = op; }
  int op() const { return op_; }

  int open(const char* name);
  void close(int span);
  /// Adds `value` to counter `name` of the current operation.
  void count(const char* name, double value);
  /// Wall time of timed operation `op`, measured by the caller around it.
  void op_wall(int op, double seconds);

  /// Median over the timed operations of a layer's self time per operation
  /// (an operation without the span counts 0). When no timed operation ran
  /// the span, the median over set-up repetitions; 0 when it never ran.
  double self_time(const char* name) const;
  /// Same rule for a counter.
  double counter(const char* name) const;
  struct SpanStats {
    double per_op = 0;  // median number of spans per timed operation
    double p50 = 0;     // median span duration
    double max = 0;     // longest span
  };
  /// Distribution of one span's durations over the timed operations.
  SpanStats span_stats(const char* name) const;
  /// Share of the timed operations' wall time covered by top-level spans.
  double coverage() const;

  bool write_json(const std::string& path, std::string* error) const;

 private:
  struct Span {
    const char* name;
    double start, end;
    int parent;
    int op;
    int thread;
  };
  struct Count {
    const char* name;
    int op;
    double value;
  };
  double now() const;
  /// Median over timed ops (or set-up reps as a fallback) of per-op sums.
  double reduce(const std::vector<std::pair<int, double>>& per_op_values) const;

  std::chrono::steady_clock::time_point t0_;
  int op_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<Count> counts_;
  std::vector<std::pair<int, double>> op_wall_;
};

/// RAII span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* t, const char* name) : t_(t), id_(t ? t->open(name) : -1) {}
  ~Span() {
    if (t_) t_->close(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
  int id_;
};

}  // namespace perfbench
