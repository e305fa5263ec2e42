// Ablation: the data-prefetching transform (paper §2.1) — off (the served
// default) versus a sweep of stream-prefetch distances.

#include "common.hpp"
#include "kernel_bench.hpp"

int main() {
  using namespace augem;
  using namespace augem::bench;

  print_platform("Ablation: prefetch distance (GEMM kernel)");
  const Isa isa = host_arch().best_native_isa();
  SuiteReporter reporter("ablation_prefetch");
  GemmKernelBench bench;

  std::printf("%-12s %10s\n", "prefetch", "MFLOPS");
  for (int distance : {-1, 4, 8, 16, 32, 64}) {
    KernelConfig o = default_options(frontend::KernelKind::kGemm, isa);
    o.params.prefetch.enabled = distance >= 0;
    if (distance >= 0) o.params.prefetch.distance = distance;
    char series[32];
    if (distance < 0)
      std::snprintf(series, sizeof series, "off");
    else
      std::snprintf(series, sizeof series, "dist%d", distance);
    const double mf = bench.run(o, reporter, series);
    if (distance < 0) {
      std::printf("%-12s %10.1f\n", "off", mf);
    } else {
      std::printf("dist=%-7d %10.1f\n", distance, mf);
    }
  }
  std::printf("\n");
  return 0;
}
