#include "perf/bench_runner.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "perf/clock.hpp"
#include "support/error.hpp"

namespace augem::perf {

namespace {

/// A warmup run within this fraction of the best time seen so far means
/// the workload has stopped improving and measurement can begin.
constexpr double kWarmupTolerance = 0.10;
/// Frequency drift beyond this fraction marks the measurement unstable.
constexpr double kMaxFreqDrift = 0.10;

}  // namespace

RunnerOptions RunnerOptions::from_env() { return from_env(RunnerOptions{}); }

RunnerOptions RunnerOptions::from_env(RunnerOptions base) {
  if (const char* env = std::getenv("AUGEM_BENCH_REPS")) {
    const int r = std::atoi(env);
    if (r > 0) {
      base.min_reps = r;
      base.max_reps = r;
      base.warmup_min_reps = 1;
      base.warmup_max_reps = 1;
      base.max_seconds = 1e9;  // fixed-rep mode: the rep count is the budget
      base.check_frequency = false;
    }
  }
  return base;
}

double Measurement::gflops() const {
  return seconds.median > 0.0 ? flops / seconds.median / 1.0e9 : 0.0;
}

double Measurement::gflops_lo() const {
  const double slow = seconds.median + seconds.ci_half;
  return slow > 0.0 ? flops / slow / 1.0e9 : 0.0;
}

double Measurement::gflops_hi() const {
  const double fast = seconds.median - seconds.ci_half;
  return fast > 0.0 ? flops / fast / 1.0e9 : gflops();
}

BenchRunner::BenchRunner(RunnerOptions options) : options_(options) {
  AUGEM_CHECK(options_.min_reps >= 1, "BenchRunner needs at least one rep");
  AUGEM_CHECK(options_.max_reps >= options_.min_reps,
              "BenchRunner rep budget below the rep floor");
}

Measurement BenchRunner::run(double flops,
                             const std::function<void()>& fn) const {
  Measurement m;
  m.flops = flops;

  const double probe_before =
      options_.check_frequency ? frequency_probe_s() : 0.0;

  // Warmup: run until a repetition stops beating the best time by more
  // than the tolerance — i.e. first-touch paging and cache/branch state
  // have stopped paying off — bounded by warmup_max_reps.
  double best = 0.0;
  for (int i = 0; i < options_.warmup_max_reps; ++i) {
    const double s = time_call(fn);
    ++m.warmup_runs;
    if (i > 0 && i + 1 >= options_.warmup_min_reps &&
        s <= best * (1.0 + kWarmupTolerance))
      break;
    best = (i == 0) ? s : std::min(best, s);
  }

  // Adaptive sampling: collect until the relative CI converges or a
  // budget runs out.
  const double t0 = monotonic_now_s();
  while (true) {
    m.samples_s.push_back(time_call(fn));
    if (static_cast<int>(m.samples_s.size()) >= options_.min_reps) {
      m.seconds = summarize(m.samples_s);
      if (m.seconds.rel_ci() <= options_.target_rel_ci &&
          m.seconds.median > 0.0) {
        m.hit_target_ci = true;
        break;
      }
      if (static_cast<int>(m.samples_s.size()) >= options_.max_reps) break;
      if (monotonic_now_s() - t0 >= options_.max_seconds) break;
    }
  }
  m.seconds = summarize(m.samples_s);

  if (options_.check_frequency) {
    const double probe_after = frequency_probe_s();
    if (probe_before > 0.0)
      m.freq_drift = std::abs(probe_after / probe_before - 1.0);
    m.frequency_stable = m.freq_drift <= kMaxFreqDrift;
  }
  return m;
}

}  // namespace augem::perf
