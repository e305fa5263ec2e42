// runtime_dispatch_smoke — the CI gate for the kernel runtime
// (docs/runtime.md): runs one DGEMM through a cold dispatch (empty cache
// directory → tuner → database store → assemble) and again through a warm
// one (fresh store instance on the same directory → database hit, no
// tuner), asserting
//
//   * both dispatched results are bit-identical to the serial reference
//     driver running the same resolved kernel,
//   * the cold runtime recorded tuner runs and the warm one recorded none
//     (warm start across store instances), and
//   * a repeated call inside one runtime is served from the code cache
//     (recorded hit, no additional build).
//
// The cache is redirected to a private mkdtemp directory so the gate
// neither reads nor pollutes the user's ~/.cache/augem.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "augem/augem_blas.hpp"
#include "blas/driver.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/buffer.hpp"
#include "support/rng.hpp"

namespace {

using augem::DoubleBuffer;
using augem::KernelSet;
using augem::Rng;
using augem::blas::index_t;
using augem::blas::Trans;
namespace rt = augem::runtime;

int g_failures = 0;

void check(bool ok, const char* what) {
  std::printf("%-64s %s\n", what, ok ? "ok" : "FAIL");
  if (!ok) ++g_failures;
}

rt::RuntimeConfig test_config(const std::string& dir) {
  rt::RuntimeConfig cfg;
  cfg.cache_dir = dir;
  cfg.use_persistent = true;  // the point of the smoke test
  cfg.workload_override = augem::tuning::kQuickTuneWorkload;  // CI speed
  return cfg;
}

/// One fixed ragged DGEMM through `blas`, returning C.
std::vector<double> run_gemm(augem::blas::Blas& blas) {
  const index_t m = 97, n = 83, k = 61, lda = m + 3, ldb = k + 1, ldc = m + 2;
  Rng rng(7);
  DoubleBuffer a(static_cast<std::size_t>(lda * k));
  DoubleBuffer b(static_cast<std::size_t>(ldb * n));
  rng.fill(a.span());
  rng.fill(b.span());
  std::vector<double> c(static_cast<std::size_t>(ldc * n));
  Rng crng(11);
  for (double& v : c) v = crng.uniform(-1.0, 1.0);
  blas.gemm(Trans::kNo, Trans::kNo, m, n, k, 1.25, a.data(), lda, b.data(),
            ldb, 0.75, c.data(), ldc);
  return c;
}

/// The serial reference path for the same problem: the *same* resolved
/// kernel through the serial blocked driver with the same shape-clamped
/// block sizes.
std::vector<double> run_gemm_reference(rt::KernelRuntime& runtime) {
  const index_t m = 97, n = 83, k = 61, lda = m + 3, ldb = k + 1, ldc = m + 2;
  const auto kernel = runtime.resolve(augem::frontend::KernelKind::kGemm,
                                      rt::classify_gemm_shape(m, n, k));
  Rng rng(7);
  DoubleBuffer a(static_cast<std::size_t>(lda * k));
  DoubleBuffer b(static_cast<std::size_t>(ldb * n));
  rng.fill(a.span());
  rng.fill(b.span());
  std::vector<double> c(static_cast<std::size_t>(ldc * n));
  Rng crng(11);
  for (double& v : c) v = crng.uniform(-1.0, 1.0);
  augem::blas::blocked_gemm(
      Trans::kNo, Trans::kNo, m, n, k, 1.25, a.data(), lda, b.data(), ldb,
      0.75, c.data(), ldc,
      augem::blas::serial_gemm_context(augem::blas::block_sizes_for_shape(
          augem::host_arch(), m, n, k)),
      augem::padded_gemm_block_kernel(kernel->fn<KernelSet::GemmFn>(),
                                      kernel->mr, kernel->nr));
  return c;
}

}  // namespace

int main() {
  char dir_template[] = "/tmp/augem_smoke_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  // Cold: empty directory, so the resolution must tune and store.
  rt::KernelRuntime cold(test_config(dir));
  auto cold_blas = rt::make_runtime_blas(cold);
  const std::vector<double> c_cold = run_gemm(*cold_blas);
  check(cold.counters().tuner_runs >= 1, "cold dispatch invoked the tuner");
  check(cold.counters().builds >= 1, "cold dispatch assembled a kernel");

  const std::vector<double> c_ref = run_gemm_reference(cold);
  check(c_cold.size() == c_ref.size() &&
            std::memcmp(c_cold.data(), c_ref.data(),
                        c_cold.size() * sizeof(double)) == 0,
        "cold dispatched GEMM bit-identical to serial reference");

  // Same runtime again: the kernel must come from the code cache.
  const auto stats_before = cold.code_stats();
  const std::vector<double> c_again = run_gemm(*cold_blas);
  const auto stats_after = cold.code_stats();
  check(stats_after.hits > stats_before.hits,
        "repeated call recorded a code-cache hit");
  check(cold.counters().builds == 1, "repeated call did not rebuild");
  check(std::memcmp(c_again.data(), c_cold.data(),
                    c_cold.size() * sizeof(double)) == 0,
        "repeated call bit-identical");

  // Warm: a second store instance on the same directory must serve the
  // tuned kernel from the database without re-tuning.
  rt::KernelRuntime warm(test_config(dir));
  auto warm_blas = rt::make_runtime_blas(warm);
  const std::vector<double> c_warm = run_gemm(*warm_blas);
  check(warm.counters().tuner_runs == 0,
        "warm store instance did not invoke the tuner");
  check(warm.counters().db_hits >= 1, "warm store instance hit the database");
  check(std::memcmp(c_warm.data(), c_cold.data(),
                    c_cold.size() * sizeof(double)) == 0,
        "warm dispatched GEMM bit-identical to cold");

  // Clean up the private cache directory.
  rt::TuningDatabase(dir).purge();
  ::remove(dir);

  if (g_failures > 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("runtime_dispatch_smoke: all checks passed\n");
  return 0;
}
