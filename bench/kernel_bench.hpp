#pragma once
// Helper for ablation benches: generate + JIT one GEMM kernel configuration
// and time it on packed blocks through a kernel probe (tuning/probe.hpp)
// and perf::BenchRunner, like every other kernel timing in the repository:
// the median of adaptive post-warmup repetitions (docs/benchmarking.md).
// Each ablation starts from the served configuration (default_options) and
// changes only the knob it studies.

#include <string>

#include "augem/augem.hpp"
#include "common.hpp"

namespace augem::bench {

struct GemmKernelBench {
  long mc = 384;
  long nc = 384;
  long kc = 256;

  /// MFLOPS of the GEMM kernel `options` generates, also recorded as a
  /// trajectory row named `series`; 0 if the generator refuses it
  /// (augem::Refusal). Any other error is a defect and propagates.
  double run(const KernelConfig& options, SuiteReporter& reporter,
             const std::string& series) const {
    try {
      const auto gen = generate_kernel(options);
      const jit::CompiledModule mod = jit::assemble(gen.asm_text);
      return reporter.measure_probe(
          series, tuning::KernelProbe(frontend::KernelKind::kGemm,
                                      mod.raw_symbol(gen.name), {mc, nc, kc},
                                      options.params.mr, options.params.nr));
    } catch (const Refusal&) {
      return 0.0;  // infeasible configuration (register budget, Shuf shape)
    }
  }
};

}  // namespace augem::bench
