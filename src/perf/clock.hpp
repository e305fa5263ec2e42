#pragma once
// The one monotonic clock in the repository. Every measurement —
// BenchRunner samples (the bench/ scaffolding's and the tuner's trials
// alike), warmup detection, the frequency sanity probe and the tuner's
// wall-clock cap — reads this clock and no other, so two numbers from
// different benches (or from a bench and a tuning run) are always
// comparable.

#include <functional>

namespace augem::perf {

/// Seconds on a monotonic clock with an arbitrary epoch (steady_clock).
double monotonic_now_s();

/// Stopwatch on the monotonic clock.
class Stopwatch {
 public:
  Stopwatch() : start_(monotonic_now_s()) {}
  double elapsed_s() const { return monotonic_now_s() - start_; }
  void reset() { start_ = monotonic_now_s(); }

 private:
  double start_;
};

/// Times one invocation of `fn` in seconds.
double time_call(const std::function<void()>& fn);

/// Spins the FPU for `seconds` of wall time. Run once before a suite's
/// first measurement so it is not taken during the CPU's clock ramp
/// (observed: the first binary of a suite run can otherwise measure at
/// half frequency).
void spin_fpu(double seconds);

/// A fixed-size dependent floating-point workload, used as the frequency
/// probe: its wall time is proportional to 1/clock, so running it before
/// and after a measurement and comparing the two times detects frequency
/// or thermal drift *during* the measurement. Returns elapsed seconds
/// (~1 ms on a ~GHz machine).
double frequency_probe_s();

}  // namespace augem::perf
