#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  std::size_t n = xs.size();
  return n % 2 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tail_of(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.empty()) return t;
  std::sort(xs.begin(), xs.end());
  if (xs.size() < 20) {  // the percentile would sit near the median
    t.value = xs.back();
    return t;
  }
  // p90, or lower when fewer than ten samples would lie beyond it.
  const std::size_t at = std::min(xs.size() * 9 / 10, xs.size() - 11);
  t.value = xs[at];
  t.beyond = xs.size() - 1 - at;
  t.percentile = static_cast<int>(100 * (at + 1) / xs.size());
  return t;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<double> best_of(const std::vector<std::vector<double>>& reps) {
  std::vector<double> best;
  for (const std::vector<double>& r : reps) {
    if (!r.empty()) best.push_back(*std::min_element(r.begin(), r.end()));
  }
  return best;
}

double rate(const std::vector<double>& secs) {
  double total = 0;
  for (double x : secs) total += x;
  return total > 0 ? static_cast<double>(secs.size()) / total : 0;
}

void report_latency(Outcome& out, const LatencyNames& names, const std::vector<double>& samples,
                    const char* what, double throughput_per_s,
                    const std::vector<double>& setup_times, const LoopTimes& lt) {
  const double p50 = median(samples);
  const Tail tail = tail_of(samples);
  out.set("latency_p50_s", p50, "s");
  out.set("latency_tail_s", tail.value, "s");
  out.set("throughput_per_s", throughput_per_s, "1/s");
  out.set("setup_s", median(setup_times), "s");
  out.note("speed probe: reference job median %.6f s over %zu probes in the timed loop; times "
           "below are wall times scaled to a %.3f s reference job",
           median(lt.probes), lt.probes.size(), kProbeSeconds);
  out.note("%s = %.6f s (latency_p50_s; median of %zu %s)", names.p50, p50, samples.size(), what);
  if (tail.percentile == 100) {
    out.note("%s = %.6f s (latency_tail_s; the slowest of %zu, too few for a percentile)",
             names.tail, tail.value, tail.samples);
  } else {
    out.note("%s = %.6f s (latency_tail_s; p%d of %zu, %zu beyond it)", names.tail, tail.value,
             tail.percentile, tail.samples, tail.beyond);
  }
  out.note("%s = %.3f 1/s (throughput_per_s)", names.throughput, throughput_per_s);
  out.note("setup_s = %.6f s (median of %zu set-ups)", median(setup_times), setup_times.size());
}

void report_trace(Outcome& out, const Tracer& tracer, const LoopTimes& lt) {
  out.set("trace.coverage", tracer.coverage(), "ratio");
  const double untraced = best_of({lt.untraced}).front();
  out.set("trace.overhead", best_of({lt.traced}).front() / untraced - 1, "ratio");
}

}  // namespace perfbench
