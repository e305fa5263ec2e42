#include "runtime/dispatch.hpp"

#include "augem/augem.hpp"
#include "jit/jit.hpp"
#include "runtime/artifact.hpp"
#include "support/error.hpp"

namespace augem::runtime {

using frontend::KernelKind;

tuning::TuneWorkload tune_workload_for(KernelKind kind, ShapeClass shape) {
  tuning::TuneWorkload w;
  if (kind == KernelKind::kGemm) {
    switch (shape) {
      case ShapeClass::kSmall:
        // One L1-resident block: the regime where loop overhead and tile
        // edge handling dominate.
        w.mc = 32;
        w.nc = 32;
        w.kc = 64;
        break;
      case ShapeClass::kSkinny:
        // Panel-shaped: deep k, starved n — B-element reuse is minimal.
        w.mc = 128;
        w.nc = 32;
        w.kc = 256;
        break;
      case ShapeClass::kLarge:
        // The classic cache-blocked regime (the tuner's default).
        w.mc = 128;
        w.nc = 128;
        w.kc = 256;
        break;
    }
  } else {
    w.vec_len = shape == ShapeClass::kSmall ? 2048 : 32768;
  }
  return w;
}

bool use_small_gemm_kernel(std::int64_t m, std::int64_t n, std::int64_t k) {
  // Fully unrolled code: the instruction count grows with m*n*k, so the
  // window is capped where the straight-line body would stop fitting the
  // uop cache / L1I and the blocked kernel catches up anyway.
  return m >= 1 && m <= 32 && n >= 1 && n <= 32 && k >= 1 && k <= 32;
}

namespace {

/// Wraps a loaded module as the cache entry for `key`.
std::shared_ptr<CachedKernel> make_kernel(
    const KernelKey& key, const TunedVariant& variant, std::string symbol,
    std::shared_ptr<jit::CompiledModule> module) {
  auto kernel = std::make_shared<CachedKernel>();
  kernel->key = key;
  kernel->variant = variant;
  if (key.kind == KernelKind::kGemm) {
    kernel->mr = variant.params.mr;
    kernel->nr = variant.params.nr;
  }
  kernel->entry = module->raw_symbol(symbol);
  kernel->symbol = std::move(symbol);
  kernel->module = std::move(module);
  return kernel;
}

}  // namespace

std::shared_ptr<CachedKernel> build_variant(const KernelKey& key,
                                            const TunedVariant& variant) {
  // Regeneration goes through the same pipeline as direct use of the
  // public API: generate_kernel attaches the calling contract and demands
  // a clean mirlint analysis (memory-safety proofs included) before any
  // text is assembled.
  GenerateOptions options = key.small
                                ? default_small_gemm_options(*key.small, key.isa)
                                : default_options(key.kind, key.isa);
  options.params = variant.params;
  options.config.isa = key.isa;
  options.config.strategy = variant.strategy;
  const asmgen::GeneratedKernel gen =
      key.small ? generate_small_gemm_kernel(*key.small, options)
                : generate_kernel(key.kind, options);
  return make_kernel(
      key, variant, gen.name,
      std::make_shared<jit::CompiledModule>(jit::assemble(gen.asm_text)));
}

KernelRuntime::KernelRuntime(RuntimeConfig config)
    : config_(std::move(config)),
      isa_(select_dispatch_isa(host_arch())),
      cache_(config_.code_cache_capacity) {
  if (config_.use_persistent)
    db_ = std::make_unique<TuningDatabase>(config_.cache_dir);
}

KernelRuntime::~KernelRuntime() = default;

KernelRuntime& KernelRuntime::global() {
  static KernelRuntime runtime{RuntimeConfig{}};
  return runtime;
}

RuntimeCounters KernelRuntime::counters() const {
  RuntimeCounters c;
  c.db_hits = db_hits_.load(std::memory_order_relaxed);
  c.db_misses = db_misses_.load(std::memory_order_relaxed);
  c.tuner_runs = tuner_runs_.load(std::memory_order_relaxed);
  c.builds = builds_.load(std::memory_order_relaxed);
  c.artifact_loads = artifact_loads_.load(std::memory_order_relaxed);
  return c;
}

TunedVariant KernelRuntime::choose_variant(const KernelKey& key) {
  TunedVariant v;
  if (db_ != nullptr && db_->lookup(key, v)) {
    db_hits_.fetch_add(1, std::memory_order_relaxed);
    return v;
  }
  db_misses_.fetch_add(1, std::memory_order_relaxed);
  if (key.small) {
    // Small-GEMM variants skip the empirical tuner: with every extent a
    // compile-time constant the register tile follows from the shape, and
    // the batched serving path cannot afford a search per (shape, epilogue).
    // mflops 0 marks the entry as untimed.
    const GenerateOptions o = default_small_gemm_options(*key.small, key.isa);
    v.params = o.params;
    v.strategy = o.config.strategy;
  } else if (config_.tune_on_miss) {
    tuner_runs_.fetch_add(1, std::memory_order_relaxed);
    const tuning::TuneWorkload w = config_.workload_override
                                       ? *config_.workload_override
                                       : tune_workload_for(key.kind, key.shape);
    const tuning::TuneResult r =
        key.kind == KernelKind::kGemm
            ? tuning::tune_gemm(key.isa, w)
            : tuning::tune_level1(key.kind, key.isa, w);
    v = TunedVariant::from_tune_result(r);
  } else {
    // No search: the per-ISA default configuration (what an untuned
    // KernelSet would build). mflops 0 marks the entry as untimed.
    const GenerateOptions o = default_options(key.kind, key.isa);
    v.params = o.params;
    v.strategy = o.config.strategy;
  }
  return v;
}

std::shared_ptr<const CachedKernel> KernelRuntime::load_published(
    const KernelKey& key) {
  TunedVariant v;
  if (!db_->lookup(key, v) || !v.artifact) return nullptr;
  auto module = load_artifact(*db_, key, *v.artifact);
  if (module == nullptr) return nullptr;
  db_hits_.fetch_add(1, std::memory_order_relaxed);
  artifact_loads_.fetch_add(1, std::memory_order_relaxed);
  return make_kernel(key, v, v.artifact->symbol, std::move(module));
}

std::shared_ptr<const CachedKernel> KernelRuntime::build_kernel(
    const KernelKey& key) {
  if (db_ == nullptr) {
    builds_.fetch_add(1, std::memory_order_relaxed);
    return build_variant(key, choose_variant(key));
  }
  // Warm path: a published artifact whose bytes match the record.
  if (auto kernel = load_published(key)) return kernel;

  // Cold path, one tune and one build per key machine-wide: the holder of
  // the key's lock builds, and every other process resolving the key waits
  // here, re-reads the database and finds the holder's artifact. A missing,
  // torn or foreign artifact also lands here and is rebuilt from the record.
  const KeyLock lock(*db_, key);
  db_->reload();
  if (auto kernel = load_published(key)) return kernel;
  const TunedVariant variant = choose_variant(key);
  builds_.fetch_add(1, std::memory_order_relaxed);
  auto kernel = build_variant(key, variant);
  kernel->variant = publish_and_store(*db_, key, variant, *kernel);
  return kernel;
}

std::shared_ptr<const CachedKernel> KernelRuntime::resolve(KernelKind kind,
                                                           ShapeClass shape) {
  KernelKey key = host_kernel_key(kind, shape);
  key.isa = isa_;
  return cache_.get_or_build(key, [&] { return build_kernel(key); });
}

std::shared_ptr<const CachedKernel> KernelRuntime::resolve_small(
    const frontend::SmallGemmSpec& spec) {
  KernelKey key = host_kernel_key(KernelKind::kGemm, ShapeClass::kSmall);
  key.isa = isa_;
  key.small = spec;
  return cache_.get_or_build(key, [&] { return build_kernel(key); });
}

}  // namespace augem::runtime
