#pragma once
// Helper for ablation benches: generate + JIT one GEMM kernel configuration
// and time it on packed blocks. Measurement goes through perf::BenchRunner
// like everything else — historically this helper reported best-of while
// the figure benches reported mean-of; both now report the median of
// adaptive post-warmup repetitions (docs/benchmarking.md).

#include <cstdio>
#include <string>

#include "augem/augem.hpp"
#include "common.hpp"
#include "support/buffer.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"

namespace augem::bench {

struct GemmKernelBench {
  long mc = 384;
  long nc = 384;
  long kc = 256;
  /// Packed-B layout; defaults to the one the driver serves.
  frontend::BLayout layout = GenerateOptions{}.layout;

  /// MFLOPS of the generated GEMM kernel for this config; 0 if infeasible.
  /// With a reporter, the point is also recorded as a trajectory row named
  /// `series`.
  double run(const transform::CGenParams& params, const opt::OptConfig& config,
             SuiteReporter* reporter = nullptr,
             const std::string& series = {}) const {
    try {
      GenerateOptions o;
      o.params = params;
      o.config = config;
      o.layout = layout;
      const auto gen = generate_kernel(frontend::KernelKind::kGemm, o);
      const jit::CompiledModule mod = jit::assemble(gen.asm_text);
      auto* fn = mod.fn<void(long, long, long, const double*, const double*,
                             double*, long)>(gen.name);

      const long m = mc / params.mr * params.mr;
      const long n = nc / params.nr * params.nr;
      Rng rng(43);
      DoubleBuffer pa(static_cast<std::size_t>(m * kc));
      DoubleBuffer pb(static_cast<std::size_t>(n * kc));
      DoubleBuffer c(static_cast<std::size_t>(m * n));
      rng.fill(pa.span());
      rng.fill(pb.span());
      const auto work = [&] {
        fn(m, n, kc, pa.data(), pb.data(), c.data(), m);
      };
      const double flops = gemm_flops(m, n, kc);
      if (reporter != nullptr)
        return reporter->measure_mflops(series, m, n, kc, flops, work);
      return perf::BenchRunner().run(flops, work).mflops();
    } catch (const Error&) {
      return 0.0;  // infeasible configuration (register budget, Shuf shape)
    }
  }
};

}  // namespace augem::bench
