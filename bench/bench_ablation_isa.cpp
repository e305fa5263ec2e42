// Ablation: the instruction-mapping rules of Tables 1-4 — the identical
// template pipeline retargeted across ISAs, each at its served kernel. SSE2 halves the vector width;
// AVX doubles it with discrete Mul+Add; FMA3 fuses them. FMA4 output is
// generated and VM-verified (see tests) but cannot run natively here.

#include "common.hpp"
#include "kernel_bench.hpp"

int main() {
  using namespace augem;
  using namespace augem::bench;

  print_platform("Ablation: same templates, different ISA mapping rules");
  SuiteReporter reporter("ablation_isa");
  GemmKernelBench bench;

  std::printf("%-8s %-10s %10s\n", "ISA", "tile", "MFLOPS");
  for (Isa isa : host_arch().native_isas()) {
    if (isa == Isa::kFma4) continue;  // not natively executable here
    const KernelConfig o = default_options(frontend::KernelKind::kGemm, isa);
    std::printf("%-8s %dx%-8d %10.1f\n", isa_name(isa), o.params.mr,
                o.params.nr, bench.run(o, reporter, isa_name(isa)));
  }
  std::printf("(FMA4 code is generated and semantically verified in the VM; "
              "this host cannot execute it natively)\n\n");
  return 0;
}
