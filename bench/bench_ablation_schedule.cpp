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
  SuiteReporter reporter("ablation_schedule");
  GemmKernelBench bench;

  std::printf("%-12s %10s\n", "scheduler", "MFLOPS");
  for (bool sched : {false, true}) {
    KernelConfig o = default_options(frontend::KernelKind::kGemm, isa);
    o.config.schedule = sched;
    std::printf("%-12s %10.1f\n", sched ? "on" : "off",
                bench.run(o, reporter, sched ? "on" : "off"));
  }
  std::printf("\n");
  return 0;
}
