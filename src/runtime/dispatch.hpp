#pragma once
// The kernel runtime's dispatcher (docs/runtime.md): the serving layer
// that turns "I need a GEMM kernel for this machine and this problem
// shape" into a callable function pointer, amortizing tuning and assembly
// across calls and processes.
//
// Resolution order for a key (CPU signature, kind, ISA, dtype, shape):
//
//   1. in-memory code cache — hit: return the resident module;
//   2. persistent tuning database — a record with an artifact whose bytes
//      hash to the record: map that .so, no build (runtime/artifact.hpp);
//   3. otherwise, under the key's lock file in the cache directory, with
//      the database re-read: 2 if another process published meanwhile;
//      else regenerate the stored variant, or on a miss run the empirical
//      tuner first, through the full mirlint-verified generation pipeline,
//      assemble, publish the artifact and store the record.
//
// A memory-only runtime (use_persistent == false) skips 2 and 3's
// directory steps: it tunes or picks defaults, builds and caches.
//
// The ISA is chosen once per process from CPUID feature bits
// (FMA3 > AVX > SSE2); the shape class is chosen per call by the
// runtime-backed BLAS (runtime_blas.hpp).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "runtime/codecache.hpp"
#include "runtime/key.hpp"
#include "runtime/tunedb.hpp"
#include "tuning/tuner.hpp"

namespace augem::runtime {

struct RuntimeConfig {
  /// Database directory; empty → default_cache_dir() (which honors
  /// AUGEM_CACHE_DIR).
  std::string cache_dir;
  /// Persist tuning results across processes. Defaults to the inverse of
  /// AUGEM_DISABLE_TUNE_CACHE; set false for a memory-only runtime.
  bool use_persistent = !tune_cache_disabled();
  /// On a database miss, run the empirical tuner (true) or fall back to
  /// the per-ISA default configuration without tuning (false — cheap
  /// cold start, e.g. for short-lived tools).
  bool tune_on_miss = true;
  /// Bound of the in-memory code cache (resident kernels).
  std::size_t code_cache_capacity = 32;
  /// Overrides the per-shape-class tuning workload (tests use a tiny one;
  /// unset picks tune_workload_for(kind, shape)).
  std::optional<tuning::TuneWorkload> workload_override;
  /// Unused: nothing reads it since the tuning daemon was replaced by
  /// per-key locks in the cache directory. Kept only because the
  /// repository benchmark (perfbench/main.cpp) still assigns it.
  bool use_daemon = true;
};

/// Serving-path counters (monotone, per-runtime).
struct RuntimeCounters {
  std::uint64_t db_hits = 0;     ///< database served a tuned variant
  std::uint64_t db_misses = 0;   ///< no usable database entry
  std::uint64_t tuner_runs = 0;  ///< empirical searches performed
  std::uint64_t builds = 0;      ///< generate+assemble cycles performed
  std::uint64_t artifact_loads = 0; ///< verified artifact mapped, no build
};

/// The timing workload the tuner uses for a (kind, shape class): small
/// shapes are tuned on small packed blocks / short vectors so the winner
/// reflects the overhead-bound regime it will serve.
tuning::TuneWorkload tune_workload_for(frontend::KernelKind kind,
                                       ShapeClass shape);

/// True when (m, n, k) should be served by a shape-specialized fully
/// unrolled small-GEMM kernel instead of the blocked driver. Only the
/// batched serving path (gemm_batch_strided) routes through this: the
/// shape repeats thousands of times there, so the one-time generation cost
/// amortizes; a single dgemm call keeps the blocked path.
bool use_small_gemm_kernel(std::int64_t m, std::int64_t n, std::int64_t k);

/// Generates `variant` for `key` through the mirlint-verified pipeline,
/// assembles and loads it. Throws augem::Error when generation fails.
std::shared_ptr<CachedKernel> build_variant(const KernelKey& key,
                                            const TunedVariant& variant);

class KernelRuntime {
 public:
  explicit KernelRuntime(RuntimeConfig config = {});
  ~KernelRuntime();

  /// The process-wide runtime used by make_runtime_blas() and the public
  /// BLAS entry points. Constructed on first use with default config.
  static KernelRuntime& global();

  /// Resolves the kernel for (kind, shape) on the host CPU, running the
  /// cold-miss pipeline if needed. Thread-safe; concurrent calls for the
  /// same key perform one build. Throws augem::Error when generation is
  /// impossible (e.g. no toolchain).
  std::shared_ptr<const CachedKernel> resolve(frontend::KernelKind kind,
                                              ShapeClass shape);

  /// Resolves the shape-specialized small-GEMM kernel for `spec` on the
  /// host CPU. The spec (extents + fused epilogue) is part of the cache
  /// key, so each variant is generated, verified, and assembled exactly
  /// once; the empirical tuner is skipped (the register tile follows
  /// directly from the baked-in extents).
  std::shared_ptr<const CachedKernel> resolve_small(
      const frontend::SmallGemmSpec& spec);

  /// The ISA every resolution targets (FMA3 > AVX > SSE2 from CPUID).
  Isa dispatch_isa() const { return isa_; }

  CacheStats code_stats() const { return cache_.stats(); }
  RuntimeCounters counters() const;

  /// The persistent store, or nullptr when the runtime is memory-only.
  TuningDatabase* database() { return db_.get(); }
  const RuntimeConfig& config() const { return config_; }

 private:
  std::shared_ptr<const CachedKernel> build_kernel(const KernelKey& key);
  std::shared_ptr<const CachedKernel> load_published(const KernelKey& key);
  TunedVariant choose_variant(const KernelKey& key);

  RuntimeConfig config_;
  Isa isa_;
  std::unique_ptr<TuningDatabase> db_;  ///< null when memory-only
  CodeCache cache_;
  std::atomic<std::uint64_t> db_hits_{0};
  std::atomic<std::uint64_t> db_misses_{0};
  std::atomic<std::uint64_t> tuner_runs_{0};
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> artifact_loads_{0};
};

}  // namespace augem::runtime
