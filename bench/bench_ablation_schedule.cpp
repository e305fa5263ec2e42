// Ablation: the instruction scheduler (paper §2.3 bundles Instruction
// Selection/Scheduling into the template optimizers) — loads hoisted ahead
// of the multiply-add chains versus naive emission order.

#include "common.hpp"
#include "kernel_bench.hpp"

int main() {
  using namespace augem;
  using namespace augem::bench;

  print_platform("Ablation: instruction scheduling");
  const Isa isa = host_arch().best_native_isa();
  const int w = isa_vector_doubles(isa);
  SuiteReporter reporter("ablation_schedule");
  GemmKernelBench bench;

  std::printf("%-12s %10s\n", "scheduler", "MFLOPS");
  for (bool sched : {false, true}) {
    transform::CGenParams p;
    p.mr = 2 * w;
    p.nr = w;
    opt::OptConfig cfg;
    cfg.isa = isa;
    cfg.schedule = sched;
    std::printf("%-12s %10.1f\n", sched ? "on" : "off",
                bench.run(p, cfg, reporter, sched ? "on" : "off"));
  }
  std::printf("\n");
  return 0;
}
