// Ablation: the paper's central thesis. The SAME optimized low-level C
// (unroll&jam + strength reduction + scalar replacement + prefetch) of the
// served GEMM kernel (default_options) is compiled two ways:
//   (a) by AUGEM's template-based assembly backend;
//   (b) by the general-purpose compiler (gcc -O2 / -O3) — the route ATLAS
//       and friends take.
// The paper argues (a) beats (b) because the compiler cannot reproduce the
// Vdup/Shuf vectorization and per-array register allocation.

#include "augem/augem.hpp"
#include "common.hpp"

int main() {
  using namespace augem;
  using namespace augem::bench;

  print_platform("Ablation: template backend vs general-purpose compiler "
                 "(same optimized C input)");
  SuiteReporter reporter("ablation_asm_vs_c");
  const KernelConfig served =
      default_options(frontend::KernelKind::kGemm, host_arch().best_native_isa());
  const transform::CGenParams& p = served.params;

  // The shared input: the Optimized C Kernel Generator's output.
  const std::string c_text = transform::generate_optimized_c(
                                 frontend::KernelKind::kGemm, served.layout, p)
                                 .to_string();

  // Both backends' kernels are timed on the same 384x384x256 packed blocks.
  auto time_kernel = [&](const std::string& series, void* entry) {
    return reporter.measure_probe(
        series, tuning::KernelProbe(frontend::KernelKind::kGemm, entry,
                                    {384, 384, 256}, p.mr, p.nr));
  };

  std::printf("%-34s %10s\n", "backend", "MFLOPS");

  // (a) AUGEM template backend.
  {
    const auto gen = generate_kernel(served);
    const jit::CompiledModule mod = jit::assemble(gen.asm_text);
    std::printf("%-34s %10.1f\n", "AUGEM templates -> assembly",
                time_kernel("augem_templates", mod.raw_symbol(gen.name)));
  }
  // (b) the general-purpose compiler on the identical C text.
  for (const char* flags : {"-O2", "-O3 -funroll-loops",
                            "-O3 -funroll-loops -march=native"}) {
    const jit::CompiledModule mod = jit::compile_c(c_text, flags);
    std::string series = std::string("gcc_") + flags;
    for (char& ch : series)
      if (ch == ' ' || ch == '-' || ch == '=') ch = '_';
    std::printf("gcc %-30s %10.1f\n", flags,
                time_kernel(series, mod.raw_symbol("dgemm_kernel")));
  }
  std::printf("(gcc -march=native may close part of the gap; the paper's "
              "comparators could not use -march=native since portable "
              "binaries target the baseline ISA)\n\n");
  return 0;
}
