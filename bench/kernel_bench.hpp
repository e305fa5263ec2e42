#pragma once
// Helper for ablation benches: generate + JIT one GEMM kernel configuration
// and time it on packed blocks through a kernel probe (tuning/probe.hpp)
// and perf::BenchRunner, like every other kernel timing in the repository:
// the median of adaptive post-warmup repetitions (docs/benchmarking.md).

#include <string>

#include "augem/augem.hpp"
#include "common.hpp"

namespace augem::bench {

struct GemmKernelBench {
  long mc = 384;
  long nc = 384;
  long kc = 256;
  /// Packed-B layout; defaults to the one the driver serves.
  frontend::BLayout layout = GenerateOptions{}.layout;

  /// MFLOPS of the generated GEMM kernel for this config, also recorded as
  /// a trajectory row named `series`; 0 if infeasible.
  double run(const transform::CGenParams& params, const opt::OptConfig& config,
             SuiteReporter& reporter, const std::string& series) const {
    try {
      const auto gen = generate_kernel(frontend::KernelKind::kGemm,
                                       {params, config, layout});
      const jit::CompiledModule mod = jit::assemble(gen.asm_text);
      return reporter.measure_probe(
          series, tuning::KernelProbe(frontend::KernelKind::kGemm,
                                      mod.raw_symbol(gen.name), {mc, nc, kc},
                                      params.mr, params.nr));
    } catch (const Error&) {
      return 0.0;  // infeasible configuration (register budget, Shuf shape)
    }
  }
};

}  // namespace augem::bench
