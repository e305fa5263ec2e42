#include "runtime/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "augem/augem.hpp"
#include "blas/reference.hpp"
#include "runtime/dispatch.hpp"
#include "runtime/retune.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/rng.hpp"

namespace augem::runtime {
namespace {

namespace fs = std::filesystem;
using frontend::KernelKind;

/// Private cache directory per test; the tiny workload keeps each cold
/// tuner run at CI speed.
class SharedCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/augem_artifact_test_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  static tuning::TuneWorkload quick_workload() {
    tuning::TuneWorkload w;
    w.mc = 32;
    w.nc = 32;
    w.kc = 64;
    w.vec_len = 2048;
    w.reps = 1;
    return w;
  }

  RuntimeConfig config() const {
    RuntimeConfig cfg;
    cfg.cache_dir = dir_;
    cfg.use_persistent = true;
    cfg.workload_override = quick_workload();
    return cfg;
  }

  std::string artifact(KernelKind kind) const {
    return key_file(TuningDatabase(dir_), host_kernel_key(kind, kShape),
                    ".so");
  }

  static std::string read(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }
  static void write(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
  }

  /// AXPY through `rt`'s kernel on fixed seeds: a bit-exact fingerprint.
  static std::vector<double> run_axpy(KernelRuntime& rt) {
    const auto k = rt.resolve(KernelKind::kAxpy, kShape);
    std::vector<double> x(1001), y(1001);
    Rng rng(7);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    for (double& v : y) v = rng.uniform(-1.0, 1.0);
    k->fn<void(long, double, const double*, double*)>()(1001, 1.25, x.data(),
                                                        y.data());
    return y;
  }

  /// A bad input to the warm path: after `corrupt` runs on a published
  /// AXPY artifact, the next runtime rebuilds from the record (no tuner,
  /// no artifact mapped) with the same numerics, and the runtime after it
  /// maps the republished file.
  void expect_rebuilt_then_reloaded(const std::function<void()>& corrupt) {
    std::vector<double> cold_out;
    {
      KernelRuntime cold(config());
      cold_out = run_axpy(cold);
      (void)cold.resolve(KernelKind::kDot, kShape);
    }
    corrupt();

    KernelRuntime rebuilt(config());
    EXPECT_EQ(run_axpy(rebuilt), cold_out);
    EXPECT_EQ(rebuilt.counters().builds, 1u);
    EXPECT_EQ(rebuilt.counters().artifact_loads, 0u);
    EXPECT_EQ(rebuilt.counters().tuner_runs, 0u);

    KernelRuntime next(config());
    EXPECT_EQ(run_axpy(next), cold_out);
    EXPECT_EQ(next.counters().builds, 0u);
    EXPECT_EQ(next.counters().artifact_loads, 1u);
  }

  static constexpr ShapeClass kShape = ShapeClass::kLarge;
  std::string dir_;
};

TEST_F(SharedCacheTest, KeyFilesLiveInsideTheKernelsDir) {
  // The documented layout: <dir>/kernels/k<16 hex of fnv1a64(key)><suffix>,
  // one name per key.
  const TuningDatabase db(dir_);
  const KernelKey key = host_kernel_key(KernelKind::kGemm, kShape);
  char name[20];
  std::snprintf(name, sizeof(name), "k%016llx",
                static_cast<unsigned long long>(fnv1a64(key.to_string())));
  EXPECT_EQ(db.kernels_dir(), dir_ + "/kernels");
  EXPECT_EQ(key_file(db, key, ".so"), dir_ + "/kernels/" + name + ".so");
  EXPECT_EQ(key_file(db, key, ".lock"), dir_ + "/kernels/" + name + ".lock");
  EXPECT_NE(key_file(db, host_kernel_key(KernelKind::kGemm,
                                         ShapeClass::kSmall), ".so"),
            key_file(db, key, ".so"));
}

TEST_F(SharedCacheTest, SecondRuntimeMapsArtifactsBitIdentical) {
  // Cold runtime: tunes, builds, publishes one artifact per key.
  KernelRuntime cold(config());
  auto cold_blas = make_runtime_blas(cold);
  const blas::index_t m = 37, n = 29, k = 23;
  Rng rng(3);
  std::vector<double> a(m * k), b(k * n), c0(m * n);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (double& v : c0) v = rng.uniform(-1.0, 1.0);
  std::vector<double> c_cold = c0;
  cold_blas->gemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.5, a.data(),
                  m, b.data(), k, -0.5, c_cold.data(), m);
  const std::vector<double> axpy_cold = run_axpy(cold);
  EXPECT_EQ(cold.counters().builds, 2u);
  EXPECT_EQ(cold.counters().tuner_runs, 2u);

  // Warm runtime on the same directory (a second process): maps both
  // verified artifacts, builds nothing, and computes the same bits.
  KernelRuntime warm(config());
  auto warm_blas = make_runtime_blas(warm);
  std::vector<double> c_warm = c0;
  warm_blas->gemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.5, a.data(),
                  m, b.data(), k, -0.5, c_warm.data(), m);
  EXPECT_EQ(run_axpy(warm), axpy_cold);
  EXPECT_EQ(std::memcmp(c_warm.data(), c_cold.data(),
                        c_cold.size() * sizeof(double)),
            0);
  EXPECT_EQ(warm.counters().builds, 0u);
  EXPECT_EQ(warm.counters().tuner_runs, 0u);
  EXPECT_EQ(warm.counters().artifact_loads, 2u);
  EXPECT_EQ(warm.counters().db_hits, 2u);  // an artifact load is a db hit
}

TEST_F(SharedCacheTest, TruncatedArtifactIsRebuilt) {
  expect_rebuilt_then_reloaded([&] {
    const std::string so = artifact(KernelKind::kAxpy);
    fs::resize_file(so, fs::file_size(so) / 2);
  });
}

TEST_F(SharedCacheTest, FlippedByteIsRebuilt) {
  expect_rebuilt_then_reloaded([&] {
    const std::string so = artifact(KernelKind::kAxpy);
    std::string bytes = read(so);
    bytes[bytes.size() / 2] ^= 0x01;
    write(so, bytes);
  });
}

TEST_F(SharedCacheTest, AnotherKeysArtifactIsRebuilt) {
  expect_rebuilt_then_reloaded([&] {
    fs::copy_file(artifact(KernelKind::kDot), artifact(KernelKind::kAxpy),
                  fs::copy_options::overwrite_existing);
  });
}

TEST_F(SharedCacheTest, RecordWithoutArtifactIsRebuilt) {
  // A record written before artifacts existed: last entry wins, so the
  // re-appended record hides the published one.
  expect_rebuilt_then_reloaded([&] {
    TuningDatabase db(dir_);
    const KernelKey key = host_kernel_key(KernelKind::kAxpy, kShape);
    TunedVariant v;
    ASSERT_TRUE(db.lookup(key, v));
    v.artifact.reset();
    db.store(key, v);
  });
}

TEST_F(SharedCacheTest, SchemaOneGemmRecordIsRebuiltNotLoaded) {
  // A cache directory from before B went column-major: a schema-1 GEMM
  // record and its artifact, a row-panel kernel whose bytes still pass the
  // hash check. Served to today's driver it would compute wrong results,
  // so the runtime must build instead of replaying it.
  const blas::index_t m = 96, n = 88, k = 72;
  const KernelKey key =
      host_kernel_key(KernelKind::kGemm, classify_gemm_shape(m, n, k));
  GenerateOptions row_panel = default_options(KernelKind::kGemm, key.isa);
  row_panel.layout = frontend::BLayout::kRowPanel;
  const asmgen::GeneratedKernel gen =
      generate_kernel(KernelKind::kGemm, row_panel);
  CachedKernel old_kernel;
  old_kernel.symbol = gen.name;
  old_kernel.module =
      std::make_shared<jit::CompiledModule>(jit::assemble(gen.asm_text));
  TunedVariant old_variant;
  old_variant.params = row_panel.params;
  old_variant.strategy = row_panel.config.strategy;
  RuntimeConfig cfg = config();
  cfg.tune_on_miss = false;
  TuningDatabase db(dir_);
  {
    const KeyLock lock(db, key);
    ASSERT_TRUE(publish_and_store(db, key, old_variant, old_kernel).artifact);
  }
  {
    // Under the current schema the record and artifact would be served.
    KernelRuntime control(cfg);
    (void)control.resolve(KernelKind::kGemm, key.shape);
    ASSERT_EQ(control.counters().artifact_loads, 1u);
  }
  // Relabel the record and its file as schema 1, as the row-panel builds
  // wrote them.
  std::string record = read(db.file_path());
  const std::string tag = "\"schema\":" + std::to_string(kTuneDbSchema);
  const std::size_t pos = record.find(tag);
  ASSERT_NE(pos, std::string::npos);
  record.replace(pos, tag.size(), "\"schema\":1");
  fs::remove(db.file_path());
  write(dir_ + "/tunedb-v1.jsonl", record);

  KernelRuntime rt(cfg);
  auto rblas = make_runtime_blas(rt);
  Rng rng(4);
  std::vector<double> a(m * k), b(k * n), c(m * n);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  for (double& v : c) v = rng.uniform(-1.0, 1.0);
  std::vector<double> c_ref = c;
  rblas->gemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.5, a.data(), m,
              b.data(), k, -0.5, c.data(), m);
  blas::ref::gemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.5, a.data(),
                  m, b.data(), k, -0.5, c_ref.data(), m);
  EXPECT_EQ(rt.counters().builds, 1u);
  EXPECT_EQ(rt.counters().artifact_loads, 0u);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], 1e-11 * k) << i;
}

// The promotion gate, end to end: a strictly better candidate replaces the
// stored entry and republishes its artifact, an identical one is a no-op,
// a strictly worse one is rejected by the noise-aware diff and the
// incumbent survives.
TEST_F(SharedCacheTest, PromotionReplacesServedEntryOnlyWhenDiffSaysImproved) {
  TuningDatabase db(dir_);
  const KernelKey key = host_kernel_key(KernelKind::kGemm, kShape);
  perf::RunnerOptions runner;
  runner.min_reps = 1;
  runner.max_reps = 3;
  runner.max_seconds = 0.25;
  runner.warmup_max_reps = 1;
  runner.check_frequency = false;

  // Incumbent: the deliberately pessimized scalar configuration (the same
  // one bench_gate --selftest uses — several times slower than any SIMD
  // strategy, so the verdict is deterministic even on a noisy machine).
  TunedVariant slow;
  slow.params.mr = 4;
  slow.params.nr = 2;
  slow.params.ku = 1;
  slow.params.prefetch.enabled = false;
  slow.strategy = opt::VecStrategy::kScalar;
  slow.mflops = 1.0;
  db.store(key, slow);

  // Candidate: a vectorized tile from the tuner's own search space.
  const int word = isa_vector_doubles(key.isa);
  TunedVariant fast;
  fast.params.mr = word;
  fast.params.nr = word;
  fast.params.ku = 2;
  fast.params.prefetch.enabled = false;
  fast.strategy = opt::VecStrategy::kVdup;

  ASSERT_EQ(retune(db, key, quick_workload(), runner, fast),
            RetuneOutcome::kPromoted);
  TunedVariant now;
  ASSERT_TRUE(db.lookup(key, now));
  EXPECT_EQ(now.params.mr, fast.params.mr);
  EXPECT_EQ(now.params.nr, fast.params.nr);
  EXPECT_EQ(now.strategy, opt::VecStrategy::kVdup);
  EXPECT_GT(now.mflops, 0.0);  // rewritten with the measured score
  // The artifact was republished from the winner, and a later process maps
  // it instead of building.
  ASSERT_TRUE(now.artifact.has_value());
  EXPECT_EQ(fnv1a64(read(artifact(KernelKind::kGemm))), now.artifact->fnv);
  KernelRuntime later(config());
  EXPECT_EQ(later.resolve(KernelKind::kGemm, kShape)->mr, fast.params.mr);
  EXPECT_EQ(later.counters().artifact_loads, 1u);
  EXPECT_EQ(later.counters().builds, 0u);

  // Re-offering the stored configuration gates nothing.
  EXPECT_EQ(retune(db, key, quick_workload(), runner, fast),
            RetuneOutcome::kUnchanged);

  // A worse candidate is measured, loses the diff, and changes nothing.
  EXPECT_EQ(retune(db, key, quick_workload(), runner, slow),
            RetuneOutcome::kRejected);
  TunedVariant still;
  ASSERT_TRUE(db.lookup(key, still));
  EXPECT_EQ(still.params.mr, fast.params.mr);
  EXPECT_EQ(still.strategy, opt::VecStrategy::kVdup);

  // No incumbent in the database: nothing to promote against.
  const KernelKey other = host_kernel_key(KernelKind::kDot, kShape);
  EXPECT_EQ(retune(db, other, quick_workload(), runner, fast),
            RetuneOutcome::kError);
  EXPECT_EQ(retune(db, other, quick_workload(), runner),
            RetuneOutcome::kError);
}

}  // namespace
}  // namespace augem::runtime
