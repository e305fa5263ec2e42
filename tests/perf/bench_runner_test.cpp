#include "perf/bench_runner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "perf/clock.hpp"
#include "support/error.hpp"

namespace augem::perf {
namespace {

/// Keeps AUGEM_BENCH_REPS out of the adaptive-mode tests and restores the
/// caller's value afterwards (the test runner itself may be under a smoke
/// harness that sets it).
class EnvGuard {
 public:
  explicit EnvGuard(const char* name) : name_(name) {
    if (const char* v = std::getenv(name)) saved_ = v;
    ::unsetenv(name);
  }
  ~EnvGuard() {
    if (saved_.empty())
      ::unsetenv(name_);
    else
      ::setenv(name_, saved_.c_str(), 1);
  }

 private:
  const char* name_;
  std::string saved_;
};

RunnerOptions quiet_options() {
  RunnerOptions o;  // deliberately NOT from_env: deterministic budgets
  o.min_reps = 5;
  o.max_reps = 12;
  o.max_seconds = 5.0;
  o.check_frequency = false;  // the probe adds ~2ms/run for no test value
  return o;
}

TEST(BenchRunner, RespectsRepBudgets) {
  EnvGuard guard("AUGEM_BENCH_REPS");
  RunnerOptions o = quiet_options();
  // Unreachable: no CI is negative (identical samples give a 0 CI, which
  // would meet a 0.0 target), so the runner must stop at max_reps exactly.
  o.target_rel_ci = -1.0;
  const Measurement m = BenchRunner(o).run(0.0, [] { spin_fpu(1e-5); });
  EXPECT_EQ(static_cast<int>(m.samples_s.size()), o.max_reps);
  EXPECT_FALSE(m.hit_target_ci);
  EXPECT_GE(m.warmup_runs, o.warmup_min_reps);
  EXPECT_LE(m.warmup_runs, o.warmup_max_reps);
}

TEST(BenchRunner, StopsEarlyWhenCiConverges) {
  EnvGuard guard("AUGEM_BENCH_REPS");
  RunnerOptions o = quiet_options();
  o.target_rel_ci = 1e9;  // any CI qualifies: must stop at min_reps
  const Measurement m = BenchRunner(o).run(0.0, [] { spin_fpu(1e-5); });
  EXPECT_EQ(static_cast<int>(m.samples_s.size()), o.min_reps);
  EXPECT_TRUE(m.hit_target_ci);
}

TEST(BenchRunner, GflopsFromMedianAndCiEdges) {
  EnvGuard guard("AUGEM_BENCH_REPS");
  const Measurement m =
      BenchRunner(quiet_options()).run(1.0e6, [] { spin_fpu(1e-4); });
  ASSERT_GT(m.median_s(), 0.0);
  EXPECT_NEAR(m.gflops(), 1.0e6 / m.median_s() / 1e9, 1e-9);
  // lo pairs with the slow CI edge, hi with the fast edge.
  EXPECT_LE(m.gflops_lo(), m.gflops());
  EXPECT_GE(m.gflops_hi(), m.gflops());
  EXPECT_NEAR(m.mflops(), m.gflops() * 1000.0, 1e-9);
}

TEST(BenchRunner, FixedRepEnvModeOverridesBudgets) {
  EnvGuard guard("AUGEM_BENCH_REPS");
  ::setenv("AUGEM_BENCH_REPS", "3", 1);
  const RunnerOptions o = RunnerOptions::from_env();
  EXPECT_EQ(o.min_reps, 3);
  EXPECT_EQ(o.max_reps, 3);
  EXPECT_EQ(o.warmup_max_reps, 1);
  EXPECT_FALSE(o.check_frequency);

  const Measurement m = BenchRunner(o).run(0.0, [] { spin_fpu(1e-5); });
  EXPECT_EQ(m.samples_s.size(), 3u);
  EXPECT_EQ(m.warmup_runs, 1);
  // No probe ran, so the measurement cannot be flagged unstable.
  EXPECT_TRUE(m.frequency_stable);
  EXPECT_DOUBLE_EQ(m.freq_drift, 0.0);
}

TEST(BenchRunner, FromEnvIgnoresInvalidValues) {
  EnvGuard guard("AUGEM_BENCH_REPS");
  ::setenv("AUGEM_BENCH_REPS", "0", 1);
  EXPECT_EQ(RunnerOptions::from_env().min_reps, RunnerOptions{}.min_reps);
  ::setenv("AUGEM_BENCH_REPS", "nope", 1);
  EXPECT_EQ(RunnerOptions::from_env().max_reps, RunnerOptions{}.max_reps);
}

TEST(BenchRunner, RejectsNonsenseBudgets) {
  RunnerOptions o;
  o.min_reps = 0;
  EXPECT_THROW(BenchRunner{o}, Error);
  o.min_reps = 10;
  o.max_reps = 5;
  EXPECT_THROW(BenchRunner{o}, Error);
}

TEST(Clock, StopwatchAndTimeCallAreMonotonic) {
  Stopwatch sw;
  spin_fpu(1e-4);
  const double s = sw.elapsed_s();
  EXPECT_GT(s, 0.0);
  EXPECT_GT(time_call([] { spin_fpu(1e-4); }), 0.0);
  EXPECT_GT(monotonic_now_s(), 0.0);
}

}  // namespace
}  // namespace augem::perf
