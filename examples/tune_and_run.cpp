// Empirical tuning demo (paper §2.1): search the unroll / unroll&jam /
// strategy space for this machine, print the whole trial table, then build
// a KernelSet from the winner and compare against the untuned defaults.
//
//   build/examples/tune_and_run

#include <cstdio>

#include "augem/augem.hpp"
#include "augem/augem_blas.hpp"
#include "perf/bench_runner.hpp"
#include "support/buffer.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"
#include "tuning/tuner.hpp"

int main() {
  using namespace augem;
  const Isa isa = host_arch().best_native_isa();
  std::printf("Empirical tuning on %s\n\n", isa_name(isa));

  // 1. Search.
  tuning::TuneWorkload workload;
  workload.mc = 128;
  workload.nc = 120;
  workload.kc = 256;
  const tuning::TuneResult gemm = tuning::tune_gemm(isa, workload);
  std::printf("%s\n", gemm.report().c_str());
  const tuning::TuneResult dot =
      tuning::tune_level1(frontend::KernelKind::kDot, isa, workload);
  std::printf("%s\n", dot.report().c_str());

  // 2. Build kernel sets from the winner and from the defaults.
  const KernelSet defaults(isa);
  const KernelSet tuned(isa, gemm.params, gemm.config.strategy, dot.params);

  // 3. Compare on a full GEMM through the threaded blocked driver.
  const long mn = 768, k = 256;
  Rng rng(5);
  DoubleBuffer a(static_cast<std::size_t>(mn * k));
  DoubleBuffer b(static_cast<std::size_t>(k * mn));
  DoubleBuffer c(static_cast<std::size_t>(mn * mn));
  rng.fill(a.span());
  rng.fill(b.span());
  for (auto [label, set] : {std::pair<const char*, const KernelSet*>{
                                "defaults", &defaults},
                            {"tuned", &tuned}}) {
    const blas::GemmContext ctx =
        blas::threaded_gemm_context(blas::default_block_sizes(host_arch()));
    const blas::BlockKernel block =
        padded_gemm_block_kernel(set->gemm(), set->gemm_mr(), set->gemm_nr());
    const perf::Measurement meas =
        perf::BenchRunner().run(gemm_flops(mn, mn, k), [&] {
          blas::blocked_gemm(blas::Trans::kNo, blas::Trans::kNo, mn, mn, k,
                             1.0, a.data(), mn, b.data(), k, 0.0, c.data(),
                             mn, ctx, block);
        });
    std::printf("DGEMM %ldx%ldx%ld with %-8s : %10.1f MFLOPS\n", mn, mn, k,
                label, meas.mflops());
  }
  return 0;
}
