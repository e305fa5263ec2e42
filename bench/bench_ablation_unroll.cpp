// Ablation: the unroll / unroll&jam search surface (paper §2.1: factors
// are "extremely sensitive to variations of the underlying machine
// architecture", hence the empirical tuner). Prints the (mr × nr) MFLOPS
// grid around the tiles the tuner searches, and the inner unroll ku, each
// varied from the served kernel; infeasible points (register overflow)
// show 0.

#include "common.hpp"
#include "kernel_bench.hpp"

int main() {
  using namespace augem;
  using namespace augem::bench;

  print_platform("Ablation: register-tile (unroll&jam) search surface");
  const Isa isa = host_arch().best_native_isa();
  SuiteReporter reporter("ablation_unroll");
  GemmKernelBench bench;

  const int mrs[] = {2, 4, 8, 16};
  const int nrs[] = {1, 2, 4, 8};
  std::printf("%8s", "mr\\nr");
  for (int nr : nrs) std::printf("  %8d", nr);
  std::printf("\n");
  for (int mr : mrs) {
    std::printf("%8d", mr);
    for (int nr : nrs) {
      KernelConfig o = default_options(frontend::KernelKind::kGemm, isa);
      o.params.mr = mr;
      o.params.nr = nr;
      char series[32];
      std::snprintf(series, sizeof series, "mr%d_nr%d", mr, nr);
      std::printf("  %8.0f", bench.run(o, reporter, series));
    }
    std::printf("\n");
  }
  std::printf("(0 = infeasible: the planner rejects tiles that exceed the "
              "vector register file)\n\n");

  // Inner-loop unroll (ku) on the served 2w×w tile.
  std::printf("%8s %10s\n", "ku", "MFLOPS");
  for (int ku : {1, 2, 4, 8}) {
    KernelConfig o = default_options(frontend::KernelKind::kGemm, isa);
    o.params.ku = ku;
    char series[32];
    std::snprintf(series, sizeof series, "ku%d", ku);
    std::printf("%8d %10.1f\n", ku, bench.run(o, reporter, series));
  }
  std::printf("\n");
  return 0;
}
