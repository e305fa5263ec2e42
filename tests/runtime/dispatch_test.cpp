#include "runtime/dispatch.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "runtime/runtime_blas.hpp"
#include "support/rng.hpp"

namespace augem::runtime {
namespace {

using frontend::KernelKind;

/// Private cache directory per test; the tiny workload keeps each cold
/// tuner run at CI speed.
class DispatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/augem_dispatch_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    TuningDatabase(dir_).purge();
    ::rmdir(dir_.c_str());
  }

  RuntimeConfig config() const {
    RuntimeConfig cfg;
    cfg.cache_dir = dir_;
    cfg.use_persistent = true;
    cfg.workload_override = tuning::kQuickTuneWorkload;
    return cfg;
  }

  std::string dir_;
};

/// Drives all four primitive kernels through a runtime-backed Blas on
/// fixed seeds and packs every output into one vector, so two drivers can
/// be compared bit-for-bit with a single memcmp.
std::vector<double> drive_all_kinds(blas::Blas& lib) {
  std::vector<double> out;

  {  // DGEMM, ragged to exercise the padded tile edges.
    const blas::index_t m = 37, n = 29, k = 23;
    Rng rng(3);
    std::vector<double> a(static_cast<std::size_t>(m * k));
    std::vector<double> b(static_cast<std::size_t>(k * n));
    std::vector<double> c(static_cast<std::size_t>(m * n));
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    for (double& v : b) v = rng.uniform(-1.0, 1.0);
    for (double& v : c) v = rng.uniform(-1.0, 1.0);
    lib.gemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.5, a.data(), m,
             b.data(), k, -0.5, c.data(), m);
    out.insert(out.end(), c.begin(), c.end());
  }
  {  // DGEMV.
    const blas::index_t m = 53, n = 41;
    Rng rng(5);
    std::vector<double> a(static_cast<std::size_t>(m * n));
    std::vector<double> x(static_cast<std::size_t>(n));
    std::vector<double> y(static_cast<std::size_t>(m));
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    for (double& v : y) v = rng.uniform(-1.0, 1.0);
    lib.gemv(m, n, 2.0, a.data(), m, x.data(), 0.5, y.data());
    out.insert(out.end(), y.begin(), y.end());
  }
  {  // DAXPY.
    const blas::index_t n = 1001;
    Rng rng(7);
    std::vector<double> x(static_cast<std::size_t>(n));
    std::vector<double> y(static_cast<std::size_t>(n));
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    for (double& v : y) v = rng.uniform(-1.0, 1.0);
    lib.axpy(n, 1.25, x.data(), y.data());
    out.insert(out.end(), y.begin(), y.end());
  }
  {  // DDOT.
    const blas::index_t n = 777;
    Rng rng(9);
    std::vector<double> x(static_cast<std::size_t>(n));
    std::vector<double> y(static_cast<std::size_t>(n));
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    for (double& v : y) v = rng.uniform(-1.0, 1.0);
    out.push_back(lib.dot(n, x.data(), y.data()));
  }
  return out;
}

TEST_F(DispatchTest, ColdThenWarmAcrossRuntimesBitIdenticalAllKinds) {
  // Cold runtime: empty directory, so every kind tunes, builds, stores.
  KernelRuntime cold(config());
  auto cold_blas = make_runtime_blas(cold);
  const std::vector<double> cold_out = drive_all_kinds(*cold_blas);
  EXPECT_GE(cold.counters().tuner_runs, 4u);  // gemm + gemv + axpy + dot
  EXPECT_GE(cold.counters().builds, 4u);

  // Warm runtime on the same directory (a second process): the database
  // serves every variant and regeneration from the persisted parameters
  // must reproduce bit-identical numerics for all four kernel kinds.
  KernelRuntime warm(config());
  auto warm_blas = make_runtime_blas(warm);
  const std::vector<double> warm_out = drive_all_kinds(*warm_blas);
  EXPECT_EQ(warm.counters().tuner_runs, 0u);
  EXPECT_GE(warm.counters().db_hits, 4u);
  ASSERT_EQ(warm_out.size(), cold_out.size());
  EXPECT_EQ(std::memcmp(warm_out.data(), cold_out.data(),
                        cold_out.size() * sizeof(double)),
            0);

  // And the dispatched numerics are right, not merely reproducible: spot
  // check the DDOT tail against a plain scalar accumulation.
  const blas::index_t n = 777;
  Rng rng(9);
  std::vector<double> x(static_cast<std::size_t>(n));
  std::vector<double> y(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  for (double& v : y) v = rng.uniform(-1.0, 1.0);
  double ref = 0.0;
  for (blas::index_t i = 0; i < n; ++i) ref += x[i] * y[i];
  EXPECT_NEAR(cold_out.back(), ref, 1e-9 * std::abs(ref) + 1e-12);
}

TEST_F(DispatchTest, RepeatedCallsServeTheCodeCache) {
  KernelRuntime rt(config());
  const auto first = rt.resolve(KernelKind::kAxpy, ShapeClass::kSmall);
  const auto before = rt.code_stats();
  const auto second = rt.resolve(KernelKind::kAxpy, ShapeClass::kSmall);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(rt.code_stats().hits, before.hits + 1);
  EXPECT_EQ(rt.counters().builds, 1u);
}

TEST_F(DispatchTest, ShapeClassesGetDistinctEntries) {
  KernelRuntime rt(config());
  const auto small = rt.resolve(KernelKind::kGemm, ShapeClass::kSmall);
  const auto large = rt.resolve(KernelKind::kGemm, ShapeClass::kLarge);
  EXPECT_NE(small.get(), large.get());
  EXPECT_EQ(small->key.shape, ShapeClass::kSmall);
  EXPECT_EQ(large->key.shape, ShapeClass::kLarge);
  EXPECT_GE(small->mr, 1);  // GEMM kernels carry their register tile
  EXPECT_GE(small->nr, 1);
  ASSERT_NE(rt.database(), nullptr);
  EXPECT_EQ(rt.database()->entries().size(), 2u);
}

TEST_F(DispatchTest, ConcurrentResolveOneBuildPerKey) {
  // The whole-stack version of the code-cache dedup test: many threads hit
  // one cold key, exactly one tuner run and one build happen, and every
  // thread gets the same module. Run under -DAUGEM_SANITIZE=thread this is
  // the subsystem's race gate.
  KernelRuntime rt(config());
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CachedKernel>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      results[t] = rt.resolve(KernelKind::kDot, ShapeClass::kLarge);
    });
  for (auto& th : threads) th.join();
  for (int t = 1; t < kThreads; ++t)
    EXPECT_EQ(results[t].get(), results[0].get());
  EXPECT_EQ(rt.counters().builds, 1u);
  EXPECT_EQ(rt.counters().tuner_runs, 1u);
}

TEST_F(DispatchTest, TuneOnMissFalseServesDefaultsWithoutTuner) {
  RuntimeConfig cfg = config();
  cfg.tune_on_miss = false;
  KernelRuntime rt(cfg);
  const auto kernel = rt.resolve(KernelKind::kGemv, ShapeClass::kLarge);
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(rt.counters().tuner_runs, 0u);
  EXPECT_EQ(rt.counters().builds, 1u);
}

TEST_F(DispatchTest, MemoryOnlyRuntimeWritesNothing) {
  RuntimeConfig cfg = config();
  cfg.use_persistent = false;
  KernelRuntime rt(cfg);
  (void)rt.resolve(KernelKind::kAxpy, ShapeClass::kSmall);
  EXPECT_EQ(rt.database(), nullptr);
  // No database file appears in the directory.
  TuningDatabase observer(dir_);
  EXPECT_EQ(observer.entries().size(), 0u);
}

TEST_F(DispatchTest, DispatchIsaIsNativelyExecutable) {
  KernelRuntime rt(config());
  EXPECT_TRUE(host_arch().supports(rt.dispatch_isa()));
  EXPECT_EQ(rt.dispatch_isa(), select_dispatch_isa(host_arch()));
}

TEST(TuneWorkloadFor, ShapeAwareWorkloads) {
  // The small-regime workload must time smaller blocks than the large one,
  // or the stored variant would not reflect the regime it serves.
  const auto small = tune_workload_for(KernelKind::kGemm, ShapeClass::kSmall);
  const auto large = tune_workload_for(KernelKind::kGemm, ShapeClass::kLarge);
  EXPECT_LT(small.mc * small.nc * small.kc, large.mc * large.nc * large.kc);
  const auto vec_small =
      tune_workload_for(KernelKind::kAxpy, ShapeClass::kSmall);
  const auto vec_large =
      tune_workload_for(KernelKind::kAxpy, ShapeClass::kLarge);
  EXPECT_LT(vec_small.vec_len, vec_large.vec_len);
}

}  // namespace
}  // namespace augem::runtime
