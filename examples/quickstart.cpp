// Quickstart: generate a DGEMM kernel through the full AUGEM pipeline,
// then multiply two matrices with the AUGEM BLAS, which tunes, generates
// and JIT-compiles its kernels on first use.
//
//   build/examples/quickstart

#include <cstdio>
#include <vector>

#include "augem/augem.hpp"
#include "blas/reference.hpp"
#include "perf/bench_runner.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/buffer.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"

int main() {
  using namespace augem;

  std::printf("AUGEM quickstart\n================\n%s\n",
              host_arch().report().c_str());

  // 1. Generate the kernel: simple C → optimized C → templates → assembly.
  const Isa isa = host_arch().best_native_isa();
  const asmgen::GeneratedKernel kernel =
      generate_kernel(default_options(frontend::KernelKind::kGemm, isa));
  std::printf("generated %s for %s: %zu instructions of assembly\n\n",
              kernel.name.c_str(), isa_name(isa), kernel.insts.size());

  // Show the first lines of the generated assembly.
  std::printf("--- generated assembly (head) ---\n");
  std::size_t pos = 0;
  for (int line = 0; line < 18 && pos != std::string::npos; ++line) {
    const std::size_t next = kernel.asm_text.find('\n', pos);
    std::printf("%s\n", kernel.asm_text.substr(pos, next - pos).c_str());
    pos = next == std::string::npos ? next : next + 1;
  }
  std::printf("... (%zu bytes total)\n\n", kernel.asm_text.size());

  // 2. Use the AUGEM BLAS (kernels tuned and JIT-compiled behind the
  //    scenes; the tuned kernels persist in the cache directory).
  auto blas_lib = runtime::make_runtime_blas();
  const long m = 768, n = 768, k = 256;
  Rng rng(7);
  DoubleBuffer a(static_cast<std::size_t>(m * k));
  DoubleBuffer b(static_cast<std::size_t>(k * n));
  DoubleBuffer c(static_cast<std::size_t>(m * n));
  rng.fill(a.span());
  rng.fill(b.span());

  const perf::Measurement meas =
      perf::BenchRunner().run(gemm_flops(m, n, k), [&] {
        blas_lib->gemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.0,
                       a.data(), m, b.data(), k, 0.0, c.data(), m);
      });
  std::printf("DGEMM %ldx%ldx%ld: %.1f MFLOPS\n", m, n, k, meas.mflops());

  // 3. Verify against the reference implementation.
  std::vector<double> c_ref(static_cast<std::size_t>(m * n), 0.0);
  blas::ref::gemm(blas::Trans::kNo, blas::Trans::kNo, m, n, k, 1.0, a.data(),
                  m, b.data(), k, 0.0, c_ref.data(), m);
  double max_err = 0.0;
  for (std::size_t i = 0; i < c.size(); ++i)
    max_err = std::max(max_err, std::abs(c[i] - c_ref[i]));
  std::printf("max |error| vs reference: %.3e %s\n", max_err,
              max_err < 1e-9 ? "(ok)" : "(FAILED)");
  return max_err < 1e-9 ? 0 : 1;
}
