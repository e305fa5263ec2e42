// Thread-scaling benchmark for the blocked DGEMM driver: GFLOPS versus
// thread count at a fixed square size (default 2048, overridable via
// argv[1]), one JSON row per point plus the usual human-readable table.
//
// The serial row (threads=1) runs the driver's macro loop on the calling
// thread; the threaded rows run the shared-packed-B / partitioned-ic
// decomposition of the same loop on the global pool. The paper's OpenBLAS integration reports both single-
// and multi-threaded DGEMM; this is our equivalent of that second curve.
//
// Expected shape: near-linear scaling while cores are exclusive, with the
// 4-thread point at ≳2.5× serial on a ≥4-core machine.

#include "common.hpp"

#include <algorithm>

#include "augem/augem_blas.hpp"
#include "support/threadpool.hpp"

int main(int argc, char** argv) {
  using namespace augem;
  using namespace augem::bench;

  const long mn = argc > 1 ? std::atol(argv[1]) : 2048;
  print_platform("Thread scaling: DGEMM, m=n=k sweep over thread counts");
  SuiteReporter reporter("scaling_threads");

  const KernelSet kernels(host_arch().best_native_isa());
  const blas::BlockKernel block = padded_gemm_block_kernel(
      kernels.gemm(), kernels.gemm_mr(), kernels.gemm_nr());
  const blas::BlockSizes sizes = blas::default_block_sizes(host_arch());

  std::vector<int> thread_counts;
  const int max_threads = ThreadPool::global().num_threads();
  for (int t = 1; t < max_threads; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(max_threads);
  if (max_threads < 4)
    std::printf("note: pool has %d thread(s); set AUGEM_NUM_THREADS to force "
                "a wider sweep\n",
                max_threads);

  Rng rng(29);
  DoubleBuffer a(static_cast<std::size_t>(mn * mn));
  DoubleBuffer b(static_cast<std::size_t>(mn * mn));
  DoubleBuffer c(static_cast<std::size_t>(mn * mn));
  rng.fill(a.span());
  rng.fill(b.span());

  std::printf("%12s  %20s  %12s\n", "threads", "GFLOPS", "speedup");
  double serial_gflops = 0.0;
  std::vector<std::pair<int, double>> rows;
  for (int t : thread_counts) {
    blas::GemmContext ctx = blas::threaded_gemm_context(sizes);
    ctx.threads = t;
    const double mf = reporter.measure_mflops(
        "AUGEM", mn, mn, mn, gemm_flops(mn, mn, mn),
        [&] {
          blas::blocked_gemm(blas::Trans::kNo, blas::Trans::kNo, mn, mn, mn,
                             1.0, a.data(), mn, b.data(), mn, 0.0, c.data(),
                             mn, ctx, block);
        },
        t);
    const double gflops = mf / 1000.0;
    if (t == 1) serial_gflops = gflops;
    const double speedup = serial_gflops > 0.0 ? gflops / serial_gflops : 0.0;
    std::printf("%12d  %20.2f  %12.2f\n", t, gflops, speedup);
    rows.emplace_back(t, gflops);
  }
  std::printf("\n");
  for (const auto& [t, gflops] : rows)
    print_json_row("scaling_threads", "AUGEM", mn, mn, mn, t, gflops,
                   serial_gflops > 0.0 ? gflops / serial_gflops : 0.0);
  return 0;
}
