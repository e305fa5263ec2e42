#include "perf/suites.hpp"

#include <algorithm>

#include "augem/augem.hpp"
#include "augem/augem_blas.hpp"
#include "blas/level3.hpp"
#include "perf/clock.hpp"
#include "runtime/dispatch.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"
#include "tuning/probe.hpp"

namespace augem::perf {

using frontend::KernelKind;

namespace {

KernelSet make_suite_kernels(bool pessimize) {
  const Isa isa = host_arch().best_native_isa();
  if (!pessimize) return KernelSet(isa);
  // The deliberately slow configuration: scalar GEMM (the §3.1-3.3
  // optimizers without SIMD — several× slower than Vdup on any SIMD
  // machine) and unroll-1 level-1 kernels.
  transform::CGenParams gemm;
  gemm.mr = 4;
  gemm.nr = 2;
  gemm.ku = 1;
  gemm.prefetch.enabled = false;
  transform::CGenParams level1;
  level1.unroll = 1;
  level1.prefetch.enabled = false;
  return KernelSet(isa, gemm, opt::VecStrategy::kScalar, level1);
}

struct Sizes {
  long gemm_mc, gemm_nc, gemm_kc;
  long gemv_mn;
  long vec_n;
  int vec_batch;  ///< calls per timed run (amortizes timer resolution)
};

Sizes sizes_for(bool quick) {
  if (quick) return {128, 128, 128, 256, 20000, 8};
  return {384, 384, 256, 1024, 100000, 16};
}

RunnerOptions runner_for(const SuiteOptions& options) {
  RunnerOptions r = options.runner;
  if (options.quick) {
    // Tier-1 budget: looser CI, tighter wall clock. Fixed-rep mode
    // (AUGEM_BENCH_REPS) already pinned the budgets in from_env().
    r.target_rel_ci = std::max(r.target_rel_ci, 0.08);
    r.max_seconds = std::min(r.max_seconds, 0.5);
    r.max_reps = std::min(r.max_reps, 20);
  }
  return r;
}

}  // namespace

namespace {

/// The batched small-GEMM serving path (docs/runtime.md): dispatch is
/// resolved once per (shape, epilogue) variant and thousands of instances
/// stream through the cached shape-specialized kernel. Pessimize mode
/// re-pays dispatch per instance (batch-of-1 calls through the same API),
/// which is exactly the overhead the fast path exists to amortize — so a
/// normal-config baseline vs a pessimized run must gate as regressed.
BenchReport run_batch_small(const SuiteOptions& options,
                            const BenchRunner& runner) {
  using runtime::KernelRuntime;
  using runtime::RuntimeConfig;

  RuntimeConfig cfg;
  cfg.use_persistent = false;  // hermetic: no cross-process tuning state
  cfg.tune_on_miss = false;
  KernelRuntime rt(cfg);
  const std::unique_ptr<blas::Blas> lib = runtime::make_runtime_blas(rt);

  const long batch = options.quick ? 256 : 2048;
  struct Point {
    int d;          ///< m = n = k (the square small-kernel shapes)
    bool fused;     ///< bias + relu epilogue fused into the kernel
    const char* name;
  };
  const Point points[] = {
      {16, false, "batch_gemm"},
      {8, false, "batch_gemm"},
      {16, true, "batch_gemm_bias_relu"},
  };

  BenchReport report = make_host_report("batch_small");
  Rng rng(101);
  for (const Point& pt : points) {
    const long d = pt.d;
    const long stride = d * d;
    DoubleBuffer a(static_cast<std::size_t>(batch * stride));
    DoubleBuffer b(static_cast<std::size_t>(batch * stride));
    DoubleBuffer c(static_cast<std::size_t>(batch * stride));
    DoubleBuffer bias(static_cast<std::size_t>(d));
    rng.fill(a.span());
    rng.fill(b.span());
    rng.fill(c.span());
    rng.fill(bias.span());
    const double* bias_p = pt.fused ? bias.data() : nullptr;
    const bool relu = pt.fused;

    auto run_batched = [&] {
      lib->gemm_batch_strided(d, d, d, 1.0, a.data(), d, stride, b.data(), d,
                              stride, 1.0, c.data(), d, stride, batch, bias_p,
                              0, relu);
    };
    auto run_per_instance = [&] {
      for (long p = 0; p < batch; ++p)
        lib->gemm_batch_strided(d, d, d, 1.0, a.data() + p * stride, d, stride,
                                b.data() + p * stride, d, stride, 1.0,
                                c.data() + p * stride, d, stride, 1, bias_p, 0,
                                relu);
    };
    run_batched();  // warm: generate + JIT the variant outside the timing
    const double flops = gemm_flops(d, d, d) * static_cast<double>(batch);
    const Measurement m =
        options.pessimize ? runner.run(flops, run_per_instance)
                          : runner.run(flops, run_batched);
    report.rows.push_back(
        BenchRow::from_measurement(m, pt.name, d, d, d));
  }
  return report;
}

/// The blocked GEMM driver and the Level-3 engine (blas/level3.hpp) on it:
/// GEMM, SYMM, SYRK and TRSM through the prepacked-panel driver on the
/// generated block kernel, at dense square sizes. Pessimize mode pairs the
/// scalar GEMM kernel with a serial context — the two optimizations this
/// suite guards (SIMD block kernels under the driver, parallel panel
/// GEMMs) — so a normal-config baseline vs a pessimized run must gate as
/// regressed.
BenchReport run_level3(const SuiteOptions& options, const BenchRunner& runner) {
  KernelSet set = make_suite_kernels(options.pessimize);
  const long d = options.quick ? 128 : 256;

  blas::BlockSizes sizes;
  blas::GemmContext ctx = options.pessimize
                              ? blas::serial_gemm_context(sizes)
                              : blas::threaded_gemm_context(sizes);
  const blas::Level3Config cfg{
      ctx,
      augem::padded_gemm_block_kernel(set.gemm(), set.gemm_mr(),
                                      set.gemm_nr()),
      128, nullptr};

  BenchReport report = make_host_report("level3");
  Rng rng(101);
  DoubleBuffer a(static_cast<std::size_t>(d * d));
  DoubleBuffer b(static_cast<std::size_t>(d * d));
  DoubleBuffer c(static_cast<std::size_t>(d * d));
  rng.fill(a.span());
  rng.fill(b.span());

  const Measurement gm = runner.run(gemm_flops(d, d, d), [&] {
    blas::blocked_gemm(blas::Trans::kNo, blas::Trans::kNo, d, d, d, 1.0,
                       a.data(), d, b.data(), d, 0.0, c.data(), d, cfg.ctx,
                       cfg.kernel);
  });
  report.rows.push_back(BenchRow::from_measurement(gm, "gemm", d, d, d));

  const Measurement sm = runner.run(symm_flops(d, d), [&] {
    blas::level3_symm(cfg, blas::Side::kLeft, blas::Uplo::kLower, d, d, 1.0,
                      a.data(), d, b.data(), d, 0.0, c.data(), d);
  });
  report.rows.push_back(BenchRow::from_measurement(sm, "symm", d, d));

  const Measurement km = runner.run(syrk_flops(d, d), [&] {
    blas::level3_syrk(cfg, blas::Uplo::kLower, blas::Trans::kNo, d, d, 1.0,
                      a.data(), d, 0.0, c.data(), d);
  });
  report.rows.push_back(BenchRow::from_measurement(km, "syrk", d, d));

  // Well-conditioned triangle: repeated timed solves stay finite.
  for (long i = 0; i < d; ++i)
    a.data()[i * d + i] = 4.0 + static_cast<double>(i % 3);
  DoubleBuffer b0(static_cast<std::size_t>(d * d));
  std::copy(b.data(), b.data() + d * d, b0.data());
  const Measurement tm = runner.run(trsm_flops(d, d), [&] {
    // Restore B first: TRSM overwrites it, and back-to-back solves of the
    // previous solution would decay toward denormals. The copy is O(d^2)
    // against the O(d^3) solve.
    std::copy(b0.data(), b0.data() + d * d, b.data());
    blas::level3_trsm(cfg, blas::Side::kLeft, blas::Uplo::kLower,
                      blas::Trans::kNo, d, d, 1.0, a.data(), d, b.data(), d);
  });
  report.rows.push_back(BenchRow::from_measurement(tm, "trsm", d, d));
  return report;
}

}  // namespace

std::vector<std::string> suite_names() {
  return {"micro", "level1", "batch_small", "level3"};
}

bool is_suite_name(const std::string& name) {
  const auto names = suite_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

BenchReport run_suite(const std::string& name, const SuiteOptions& options) {
  AUGEM_CHECK(is_suite_name(name), "unknown bench suite '"
                                       << name
                                       << "' (known: micro, level1, "
                                          "batch_small, level3)");
  const Sizes sz = sizes_for(options.quick);
  const BenchRunner runner(runner_for(options));
  if (name == "batch_small") return run_batch_small(options, runner);
  if (name == "level3") return run_level3(options, runner);
  KernelSet set = make_suite_kernels(options.pessimize);
  BenchReport report = make_host_report(name);

  const auto probe = [&](KernelKind kind, auto* fn, tuning::ProbeExtents e) {
    return tuning::KernelProbe(kind, reinterpret_cast<void*>(fn), e,
                               set.gemm_mr(), set.gemm_nr());
  };
  const auto add_row = [&](const char* row, const tuning::KernelProbe& p,
                           int calls = 1) {
    const tuning::ProbeExtents& e = p.extents();
    report.rows.push_back(BenchRow::from_measurement(
        p.measure(runner, calls), row, e.m, e.n, e.k));
  };
  if (name == "micro") {
    // GEMM on packed blocks (the inner kernel the whole system exists
    // for), sized to the resident working set the blocked driver creates.
    add_row("gemm", probe(KernelKind::kGemm, set.gemm(),
                          {sz.gemm_mc, sz.gemm_nc, sz.gemm_kc}));
    add_row("gemv",
            probe(KernelKind::kGemv, set.gemv(), {sz.gemv_mn, sz.gemv_mn}));
  }

  // The streaming level-1 kernels, in both suites ("micro" tracks them at
  // in-cache-ish sizes; "level1" is the memory-bound figure regime), each
  // timed sz.vec_batch calls at a time.
  const long n = name == "level1" && !options.quick ? 200000 : sz.vec_n;
  add_row("axpy", probe(KernelKind::kAxpy, set.axpy(), {n}), sz.vec_batch);
  add_row("dot", probe(KernelKind::kDot, set.dot(), {n}), sz.vec_batch);
  add_row("scal", probe(KernelKind::kScal, set.scal(), {n}), sz.vec_batch);
  return report;
}

}  // namespace augem::perf
