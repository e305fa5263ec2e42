// Ablation: the paper's per-array register queues (§3.1: "a separate
// register queue is dedicated to each array variable … to minimize any
// false dependence") versus a single shared free list.

#include "common.hpp"
#include "kernel_bench.hpp"

int main() {
  using namespace augem;
  using namespace augem::bench;

  print_platform("Ablation: register allocation policy");
  const Isa isa = host_arch().best_native_isa();
  SuiteReporter reporter("ablation_regalloc");
  GemmKernelBench bench;

  std::printf("%-18s %10s\n", "policy", "MFLOPS");
  for (const auto policy : {opt::RegAllocPolicy::kPerArrayQueues,
                            opt::RegAllocPolicy::kSinglePool}) {
    KernelConfig o = default_options(frontend::KernelKind::kGemm, isa);
    o.config.regalloc = policy;
    const bool queues = policy == opt::RegAllocPolicy::kPerArrayQueues;
    std::printf("%-18s %10.1f\n",
                queues ? "per-array queues" : "single pool",
                bench.run(o, reporter,
                          queues ? "per_array_queues" : "single_pool"));
  }
  std::printf("\n");
  return 0;
}
