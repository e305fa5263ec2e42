// Figure 18(b) counterpart: the AMD Piledriver code paths.
//
// This host cannot execute FMA4 natively, so wall-clock MFLOPS for the
// Piledriver-targeted kernel are not measurable here (DESIGN.md §2). What
// *is* measurable — and what the paper's FMA3-vs-FMA4 choice on Piledriver
// came down to — is instruction efficiency: the VM executes each ISA
// variant of the same GEMM templates and reports dynamic instruction
// counts per FLOP. FMA3 and FMA4 must coincide (one fused op per mmCOMP);
// AVX pays one extra arithmetic op per FMA pair; SSE2 pays the extra mov
// plus double the vector ops at half the width.
//
// The FMA4 stream is also fully executed and checked against the reference
// here, so the Piledriver path is *semantically* validated, not just
// counted.

#include <cmath>

#include "augem/augem.hpp"
#include "common.hpp"
#include "vm/machine.hpp"

int main() {
  using namespace augem;
  using namespace augem::bench;

  print_platform("Figure 18(b): Piledriver ISA paths, executed in the VM");
  // Deterministic bench: the recorded metric is FLOPs per dynamic VM
  // instruction (higher = better, zero noise), not wall-clock GFLOPS.
  SuiteReporter reporter("fig18b_piledriver_vm");

  const long mc = 16, nc = 8, kc = 32, ldc = mc;
  std::printf("GEMM %ldx%ldx%ld on packed panels; identical templates, "
              "per-ISA mapping rules (Tables 1-4)\n\n",
              mc, nc, kc);
  std::printf("%-6s %-6s %14s %14s %10s\n", "ISA", "tile", "dyn.instr",
              "instr/FLOP", "checked");

  const double flops = gemm_flops(mc, nc, kc);
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4}) {
    const int w = isa_vector_doubles(isa);
    transform::CGenParams p;
    p.mr = 2 * w;
    p.nr = w;
    p.prefetch.enabled = false;
    opt::OptConfig cfg;
    cfg.isa = isa;
    const auto gen =
        generate_kernel(frontend::KernelKind::kGemm,
                        {p, cfg, frontend::BLayout::kRowPanel});

    Rng rng(71);
    DoubleBuffer a(static_cast<std::size_t>(mc * kc));
    DoubleBuffer b(static_cast<std::size_t>(nc * kc));
    DoubleBuffer c(static_cast<std::size_t>(mc * nc));
    rng.fill(a.span());
    rng.fill(b.span());

    vm::Machine m(gen.insts);
    m.call({mc, nc, kc, static_cast<const double*>(a.data()),
            static_cast<const double*>(b.data()), c.data(), ldc});

    // Verify against the reference before reporting anything.
    double max_err = 0.0;
    for (long j = 0; j < nc; ++j)
      for (long i = 0; i < mc; ++i) {
        double want = 0.0;
        for (long l = 0; l < kc; ++l) want += a[l * mc + i] * b[l * nc + j];
        max_err = std::max(max_err, std::abs(c[j * ldc + i] - want));
      }

    std::printf("%-6s %dx%-4d %14lld %14.3f %10s\n", isa_name(isa), p.mr,
                p.nr, static_cast<long long>(m.steps_executed()),
                static_cast<double>(m.steps_executed()) / flops,
                max_err < 1e-10 ? "ok" : "FAILED");

    perf::BenchRow row;
    row.name = std::string("flops_per_instr/") + isa_name(isa);
    row.m = mc;
    row.n = nc;
    row.k = kc;
    row.gflops = flops / static_cast<double>(m.steps_executed());
    row.gflops_lo = row.gflops;  // deterministic: zero-width interval
    row.gflops_hi = row.gflops;
    row.reps = 1;
    reporter.add_row(row);
  }
  std::printf(
      "\nFMA3 and FMA4 execute the same instruction count (one fused op per\n"
      "mmCOMP); the paper selected the FMA3 path on Piledriver (ACML_FMA=3)\n"
      "and so do we. The FMA4 stream above ran to completion and matched\n"
      "the reference — the Piledriver code path is semantically validated.\n\n");
  return 0;
}
