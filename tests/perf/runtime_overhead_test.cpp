// The perf-harness contract applied to the kernel runtime: a DGEMM served
// through RuntimeBlas is measured cold (first call pays tuning + assembly +
// caching) and warm (code-cache hits only) through BenchRunner, and the
// warm per-call cost must be a small fraction of the cold one. The bounds
// are deliberately generous — this is a functional guard against the
// dispatch path accidentally re-tuning or re-assembling per call, not a
// microbenchmark (bench/bench_dispatch_overhead.cpp is that).

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "perf/bench_runner.hpp"
#include "perf/clock.hpp"
#include "runtime/dispatch.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/rng.hpp"

namespace augem::perf {
namespace {

class RuntimeOverheadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/augem_perf_runtime_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    runtime::TuningDatabase(dir_).purge();
    ::rmdir(dir_.c_str());
  }

  runtime::RuntimeConfig config() const {
    runtime::RuntimeConfig cfg;
    cfg.cache_dir = dir_;
    cfg.use_persistent = true;
    cfg.workload_override = tuning::kQuickTuneWorkload;
    return cfg;
  }

  std::string dir_;
};

TEST_F(RuntimeOverheadTest, WarmDispatchCostIsFarBelowColdResolve) {
  runtime::KernelRuntime rt(config());
  auto lib = runtime::make_runtime_blas(rt);

  const blas::index_t m = 64, n = 64, k = 64;
  Rng rng(11);
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  std::vector<double> c(static_cast<std::size_t>(m * n));
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);

  auto call = [&] {
    lib->gemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.0, a.data(), m,
              b.data(), k, 0.0, c.data(), m);
  };

  // Cold: the very first call tunes, generates, assembles and stores.
  const double cold_s = time_call(call);
  ASSERT_GT(cold_s, 0.0);
  EXPECT_GE(rt.counters().tuner_runs, 1u);

  // Warm: steady-state calls through the full dispatch path, measured with
  // the same harness every bench uses.
  RunnerOptions o;
  o.min_reps = 5;
  o.max_reps = 20;
  o.max_seconds = 2.0;
  o.check_frequency = false;
  const Measurement warm = BenchRunner(o).run(0.0, call);
  ASSERT_GT(warm.median_s(), 0.0);

  // A warm call must not re-enter the tuner and must cost a small fraction
  // of the cold resolve (generous 20% bound: cold includes an empirical
  // tuning run, JIT assembly and database I/O; a warm call is a hash-map
  // hit plus the kernel itself).
  EXPECT_EQ(rt.counters().tuner_runs, 1u)
      << "steady-state dgemm calls re-entered the tuner";
  EXPECT_LT(warm.median_s(), 0.20 * cold_s)
      << "warm dispatch cost " << warm.median_s() << "s vs cold " << cold_s
      << "s — the dispatch path is doing per-call work it should cache";
}

}  // namespace
}  // namespace augem::perf
