// The host's speed, probed. A shared host's speed drifts by a quarter and
// more over minutes as its other tenants come and go, and every timing
// drifts with it. The probe times one fixed reference job (string hashing,
// sorting and pointer chasing over 8 MB, the kinds of work the verifier
// does) in a child process forked at start-up, so that its memory stays out
// of the measured process, pinned for each job to the CPU the caller is on.
// Reported times are wall times scaled by kProbeSeconds / (probe time
// around them): seconds on a host where the reference job takes
// kProbeSeconds.
#pragma once

#include <sys/types.h>

namespace perfbench {

/// The reference job's time on the reference host.
inline constexpr double kProbeSeconds = 0.05;

/// The factor that scales a wall time measured between two probes.
inline double probe_scale(double before, double after) {
  return 2 * kProbeSeconds / (before + after);
}

class SpeedProbe {
 public:
  SpeedProbe();   // forks the child; call before any thread starts
  ~SpeedProbe();  // stops the child and waits for it
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// Runs the reference job once in the child, on the caller's CPU;
  /// returns its seconds.
  double run();

 private:
  pid_t pid_ = -1;
  int request_ = -1;  // to the child: the CPU to run each job on
  int reply_ = -1;    // from the child: each job's seconds
};

}  // namespace perfbench
