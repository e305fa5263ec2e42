// Ablation: the paper's two SIMD vectorization strategies (§3.4).
// Vdup (Vld-Vdup-Vmul-Vadd) vs Shuf (Vld-Vld + Shufi rotations) on the
// n×n register tile where both are legal, plus Vdup on its preferred
// larger tile — showing why kernels pick one strategy per machine. Every
// case reads row-panel B, the only layout where both strategies are legal
// (the driver packs column-major B and serves Vdup only).

#include "common.hpp"
#include "kernel_bench.hpp"

int main() {
  using namespace augem;
  using namespace augem::bench;

  print_platform("Ablation: Vdup vs Shuf vectorization (GEMM kernel)");
  const Isa isa = host_arch().best_native_isa();
  const int w = isa_vector_doubles(isa);
  SuiteReporter reporter("ablation_vdup_shuf");
  GemmKernelBench bench;
  bench.layout = frontend::BLayout::kRowPanel;

  struct Case {
    const char* label;
    int mr, nr;
    opt::VecStrategy strategy;
  };
  const Case cases[] = {
      {"vdup  w x w ", w, w, opt::VecStrategy::kVdup},
      {"shuf  w x w ", w, w, opt::VecStrategy::kShuf},
      {"vdup 2w x w ", 2 * w, w, opt::VecStrategy::kVdup},
      {"vdup 2w x 2 ", 2 * w, 2, opt::VecStrategy::kVdup},
  };
  std::printf("%-14s %10s\n", "strategy/tile", "MFLOPS");
  for (const Case& c : cases) {
    transform::CGenParams p;
    p.mr = c.mr;
    p.nr = c.nr;
    opt::OptConfig cfg;
    cfg.isa = isa;
    cfg.strategy = c.strategy;
    std::string series = c.label;
    for (char& ch : series)
      if (ch == ' ') ch = '_';
    std::printf("%-14s %10.1f\n", c.label,
                bench.run(p, cfg, &reporter, series));
  }
  std::printf("\n");
  return 0;
}
