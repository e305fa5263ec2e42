#pragma once
// BenchRunner: the one way this repository measures a kernel.
//
//   1. warmup until run-to-run improvement stops (first-touch paging, JIT
//      residency, branch/cache warm state) — detected, not guessed;
//   2. adaptive repetition: sample until the 95% CI on the median is
//      within a target fraction of the median, subject to rep and wall
//      budgets;
//   3. robust statistics (median/MAD, see stats.hpp);
//   4. a frequency probe before and after the samples flags measurements
//      taken while the clock was ramping or thermal-throttling.
//
// Every bench/ target, tools/bench_gate, `augemc --run` and the tuner's
// trials measure through this class (generated kernels bound by
// tuning::KernelProbe), so a GFLOPS number anywhere in the repository
// carries the same semantics: *median of post-warmup repetitions with a
// known confidence interval*. The tuner runs it with no warm-up
// (docs/tuning.md, "Measuring a trial"). Whether one closure is faster
// than another is perf::compare's question (compare.hpp), not two runs of
// this class. (docs/benchmarking.md is the methodology reference.)

#include <functional>
#include <vector>

#include "perf/stats.hpp"

namespace augem::perf {

struct RunnerOptions {
  int min_reps = 5;     ///< floor: CI needs a few samples to mean anything
  int max_reps = 40;    ///< rep budget when the CI refuses to converge
  double target_rel_ci = 0.03;  ///< stop when ci_half/median drops below
  double max_seconds = 2.0;     ///< wall budget per measurement (post-warmup)
  int warmup_min_reps = 1;
  int warmup_max_reps = 8;
  /// Run the frequency probe around the samples (off for sub-microsecond
  /// workloads where the probe itself would dominate).
  bool check_frequency = true;

  /// Honors AUGEM_BENCH_REPS=n (the historical quick-smoke knob): fixed n
  /// reps, one warmup run, no frequency probe. Returns the options
  /// unchanged when the variable is unset.
  static RunnerOptions from_env(RunnerOptions base);
  static RunnerOptions from_env();
};

/// One measurement: the post-warmup timing samples and their summary.
struct Measurement {
  std::vector<double> samples_s;  ///< post-warmup, in run order
  Summary seconds;                ///< robust summary of samples_s
  int warmup_runs = 0;
  bool hit_target_ci = false;  ///< CI converged within the budgets
  double freq_drift = 0.0;     ///< |probe_after/probe_before - 1|
  bool frequency_stable = true;
  double flops = 0.0;  ///< per-run flop count the caller supplied

  double median_s() const { return seconds.median; }
  /// GFLOPS at the median / the CI edges (lo pairs with the slow edge).
  double gflops() const;
  double gflops_lo() const;
  double gflops_hi() const;
  double mflops() const { return gflops() * 1000.0; }
};

class BenchRunner {
 public:
  explicit BenchRunner(RunnerOptions options = RunnerOptions::from_env());

  /// Measures `fn`, a closure performing `flops` floating-point operations
  /// per invocation (0 when GFLOPS is not meaningful, e.g. latency
  /// benches).
  Measurement run(double flops, const std::function<void()>& fn) const;

  const RunnerOptions& options() const { return options_; }

 private:
  RunnerOptions options_;
};

}  // namespace augem::perf
