#pragma once
// Peak-GFLOPS roofline annotation from the CPUID-detected architecture.
//
// The paper reports efficiency against machine peak (Table 5 lists each
// testbed's peak GFLOPS); the reporter annotates every BENCH_*.json with
// the same ceiling so a trajectory can say "82% of peak" instead of a bare
// number. Peak needs the nominal frequency, which CPUID does not expose
// portably — the synthetic arches carry it, the host takes it from its
// brand string when that states one ("… @ 2.10GHz"), and otherwise it can
// be supplied with AUGEM_NOMINAL_GHZ; without it the reporter records the
// per-cycle ceiling only.

#include "support/arch.hpp"

namespace augem::perf {

/// Double-precision FLOPs per cycle per core the ISA can retire on the
/// paper's machine model: SSE2 2 lanes × (mul+add) = 4, AVX 4 × 2 = 8,
/// FMA3/FMA4 4 lanes × 2 flops × 2 FMA ports = 16.
double flops_per_cycle(Isa isa);

/// Single-core peak GFLOPS for `isa` on `arch`, or 0 when the nominal
/// frequency is unknown. Honors AUGEM_NOMINAL_GHZ (GHz, decimal) when the
/// arch itself carries no frequency.
double peak_gflops(const CpuArch& arch, Isa isa);

/// "12.3 GFLOPS (77% of 16.0 peak)" or "12.3 GFLOPS (peak unknown)".
std::string roofline_annotation(double gflops, const CpuArch& arch, Isa isa);

}  // namespace augem::perf
