// Serving cost of the kernel runtime (docs/runtime.md): how much latency
// the dispatch layers add to a BLAS call, stage by stage.
//
//   cold_resolve      empty cache dir: tuner + generate + assemble, then
//                     publish the artifact and store the record
//   db_warm_resolve   fresh runtime, same dir: database hit, hash-check and
//                     map the published artifact, no build
//   code_cache_hit    resolve again inside one runtime: in-memory hit
//   dispatched_call   full runtime-BLAS DGEMM call, warm caches
//   direct_call       same problem through a pre-resolved kernel (floor)
//
// One JSON object per line, like the scaling benchmarks, plus a table.
// The cold rows use the real per-shape tuning workload, so they show the
// cost `augem_tunedb prewarm` amortizes away; set AUGEM_BENCH_QUICK=1 to
// use the reduced CI workload instead.

#include "common.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <cstring>

#include "augem/augem_blas.hpp"
#include "blas/driver.hpp"
#include "runtime/runtime_blas.hpp"

namespace {

using namespace augem;
using namespace augem::bench;
namespace rt = augem::runtime;

rt::RuntimeConfig dir_config(const std::string& dir) {
  rt::RuntimeConfig cfg;
  cfg.cache_dir = dir;
  cfg.use_persistent = true;
  if (const char* env = std::getenv("AUGEM_BENCH_QUICK");
      env != nullptr && env[0] == '1')
    cfg.workload_override = tuning::kQuickTuneWorkload;
  return cfg;
}

void print_json(const char* stage, const char* kind, double ms) {
  std::printf("{\"bench\":\"dispatch_overhead\",\"stage\":\"%s\","
              "\"kind\":\"%s\",\"ms\":%.6f}\n",
              stage, kind, ms);
}

void print_row(const char* stage, const char* kind, double ms) {
  std::printf("%-18s %-5s %14.3f ms\n", stage, kind, ms);
}

}  // namespace

int main() {
  print_platform("Dispatch overhead: kernel-runtime serving cost per stage");

  char dir_template[] = "/tmp/augem_bench_dispatch_XXXXXX";
  const char* dir = mkdtemp(dir_template);
  if (dir == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    return 1;
  }

  const struct {
    frontend::KernelKind kind;
    const char* name;
  } kinds[] = {{frontend::KernelKind::kGemm, "gemm"},
               {frontend::KernelKind::kGemv, "gemv"},
               {frontend::KernelKind::kAxpy, "axpy"},
               {frontend::KernelKind::kDot, "dot"}};
  const rt::ShapeClass shape = rt::ShapeClass::kLarge;

  SuiteReporter reporter("dispatch_overhead");
  const perf::BenchRunner runner;
  // Latency rows carry median_s only (gflops = 0): one-shot stages cannot
  // be re-measured, so they are recorded as informational trajectory rows.
  auto record = [&](const char* stage, const char* kind, double ms,
                    int reps) {
    print_row(stage, kind, ms);
    print_json(stage, kind, ms);
    perf::BenchRow row;
    row.name = std::string(stage) + "/" + kind;
    row.median_s = ms / 1e3;
    row.reps = reps;
    reporter.add_row(row);
  };

  // Stage 1+2: resolve latency, cold then database-warm. The second
  // runtime replays the database the first one wrote, so its resolve
  // skips the tuner and the build: it verifies and maps the artifact.
  rt::KernelRuntime cold(dir_config(dir));
  for (const auto& k : kinds) {
    perf::Stopwatch t;
    (void)cold.resolve(k.kind, shape);
    record("cold_resolve", k.name, t.elapsed_s() * 1e3, 1);
  }
  rt::KernelRuntime warm(dir_config(dir));
  for (const auto& k : kinds) {
    perf::Stopwatch t;
    (void)warm.resolve(k.kind, shape);
    record("db_warm_resolve", k.name, t.elapsed_s() * 1e3, 1);
  }

  // Stage 3: in-memory hit. Batched — a single hit is below timer
  // resolution — then measured like any kernel: median of adaptive reps.
  for (const auto& k : kinds) {
    const int batch = 10000;
    const auto meas = runner.run(0.0, [&] {
      for (int i = 0; i < batch; ++i) (void)warm.resolve(k.kind, shape);
    });
    record("code_cache_hit", k.name, meas.seconds.median * 1e3 / batch,
           static_cast<int>(meas.seconds.n));
  }

  // Stage 4 vs floor: a dispatched DGEMM call with every cache warm,
  // against the same problem through the already-resolved kernel. The
  // difference is the steady-state tax of going through the runtime.
  {
    const blas::index_t mn = 256;
    Rng rng(17);
    DoubleBuffer a(static_cast<std::size_t>(mn * mn));
    DoubleBuffer b(static_cast<std::size_t>(mn * mn));
    DoubleBuffer c(static_cast<std::size_t>(mn * mn));
    rng.fill(a.span());
    rng.fill(b.span());

    auto lib = rt::make_runtime_blas(warm);
    auto dispatched = [&] {
      lib->gemm(blas::Trans::kNo, blas::Trans::kNo, mn, mn, mn, 1.0, a.data(),
                mn, b.data(), mn, 0.0, c.data(), mn);
    };
    const auto dispatched_meas =
        runner.run(gemm_flops(mn, mn, mn), dispatched);
    reporter.add_row(perf::BenchRow::from_measurement(
        dispatched_meas, "dispatched_call/gemm", mn, mn, mn));
    print_row("dispatched_call", "gemm", dispatched_meas.seconds.median * 1e3);
    print_json("dispatched_call", "gemm", dispatched_meas.seconds.median * 1e3);

    const auto kernel =
        warm.resolve(frontend::KernelKind::kGemm,
                     rt::classify_gemm_shape(mn, mn, mn));
    const auto ctx = blas::serial_gemm_context(
        blas::block_sizes_for_shape(host_arch(), mn, mn, mn));
    const auto block_fn = padded_gemm_block_kernel(
        kernel->fn<KernelSet::GemmFn>(), kernel->mr, kernel->nr);
    auto direct = [&] {
      blas::blocked_gemm(blas::Trans::kNo, blas::Trans::kNo, mn, mn, mn, 1.0,
                         a.data(), mn, b.data(), mn, 0.0, c.data(), mn, ctx,
                         block_fn);
    };
    const auto direct_meas = runner.run(gemm_flops(mn, mn, mn), direct);
    reporter.add_row(perf::BenchRow::from_measurement(
        direct_meas, "direct_call/gemm", mn, mn, mn));
    print_row("direct_call", "gemm", direct_meas.seconds.median * 1e3);
    print_json("direct_call", "gemm", direct_meas.seconds.median * 1e3);
  }

  // Stage 5: amortized dispatch. The same 16^3 problem served two ways —
  // `batch` individual dgemm calls (each re-classifying the shape,
  // re-probing the code cache, and running the packed blocked driver) vs
  // one gemm_batch_strided call that resolves once and streams every
  // instance through the cached small kernel. A third series, the raw
  // resolved-kernel loop, is the compute floor: per-call *overhead* is
  // latency minus that floor, and the 4096-instance pair is the headline —
  // batched overhead must sit >= 10x below individual overhead, with the
  // batched/individual latency CIs non-overlapping in the trajectory.
  {
    const blas::index_t d = 16;
    const blas::index_t stride = d * d;
    auto lib = rt::make_runtime_blas(warm);
    frontend::SmallGemmSpec spec;  // alpha=1, beta=1: plain accumulate
    spec.m = spec.n = spec.k = static_cast<int>(d);
    const auto small = warm.resolve_small(spec);
    auto* small_fn = small->fn<SmallGemmFn>();
    Rng rng(23);
    for (const long batch : {1L, 64L, 4096L}) {
      DoubleBuffer a(static_cast<std::size_t>(stride * batch));
      DoubleBuffer b(static_cast<std::size_t>(stride * batch));
      DoubleBuffer c(static_cast<std::size_t>(stride * batch));
      rng.fill(a.span());
      rng.fill(b.span());
      rng.fill(c.span());
      const double flops = gemm_flops(d, d, d) * static_cast<double>(batch);
      const double db = static_cast<double>(batch);

      auto batched = [&] {
        lib->gemm_batch_strided(d, d, d, 1.0, a.data(), d, stride, b.data(),
                                d, stride, 1.0, c.data(), d, stride, batch);
      };
      batched();  // warm: resolve + JIT outside the timed region
      const auto bm = runner.run(flops, batched);
      reporter.add_row(perf::BenchRow::from_measurement(
          bm, "batched_call/b" + std::to_string(batch), d, d, d));

      auto individual = [&] {
        for (long p = 0; p < batch; ++p)
          lib->gemm(blas::Trans::kNo, blas::Trans::kNo, d, d, d, 1.0,
                    a.data() + p * stride, d, b.data() + p * stride, d, 1.0,
                    c.data() + p * stride, d);
      };
      individual();
      const auto im = runner.run(flops, individual);
      reporter.add_row(perf::BenchRow::from_measurement(
          im, "individual_call/b" + std::to_string(batch), d, d, d));

      auto floor_loop = [&] {
        for (long p = 0; p < batch; ++p)
          small_fn(a.data() + p * stride, d, b.data() + p * stride, d,
                   c.data() + p * stride, d, nullptr, 1.0, 1.0);
      };
      const auto fm = runner.run(flops, floor_loop);
      reporter.add_row(perf::BenchRow::from_measurement(
          fm, "kernel_floor/b" + std::to_string(batch), d, d, d));

      const double bpc = bm.seconds.median / db;
      const double ipc = im.seconds.median / db;
      const double fpc = fm.seconds.median / db;
      const double b_over = std::max(bpc - fpc, 0.0);
      const double i_over = std::max(ipc - fpc, 0.0);
      std::printf("batch=%-5ld batched %8.1f ns/call  individual %8.1f "
                  "ns/call  floor %8.1f ns/call  overhead %.1f vs %.1f ns "
                  "(%.0fx)\n",
                  batch, bpc * 1e9, ipc * 1e9, fpc * 1e9, b_over * 1e9,
                  i_over * 1e9, i_over / std::max(b_over, 1e-12));
      std::printf("{\"bench\":\"dispatch_overhead\",\"stage\":\"batch\","
                  "\"batch\":%ld,\"batched_ns_call\":%.1f,"
                  "\"individual_ns_call\":%.1f,\"floor_ns_call\":%.1f,"
                  "\"batched_overhead_ns\":%.1f,\"individual_overhead_ns\""
                  ":%.1f,\"overhead_ratio\":%.1f}\n",
                  batch, bpc * 1e9, ipc * 1e9, fpc * 1e9, b_over * 1e9,
                  i_over * 1e9, i_over / std::max(b_over, 1e-12));
    }
  }

  rt::TuningDatabase(dir).purge();
  ::remove(dir);
  return 0;
}
