#pragma once
// CPU architecture description: which SIMD ISA extensions are available,
// cache geometry, and the derived parameters the code generator needs
// (vector width, register file size).
//
// This is the reproduction of the `arch` input to the Template Optimizer
// (paper Fig. 2) and of the platform table the paper reports (Table 5).

#include <cstdint>
#include <string>
#include <vector>

namespace augem {

/// The SIMD instruction-set variants the framework can target.
/// These correspond exactly to the columns/rows of the paper's instruction
/// mapping rules (Tables 1-4): two-operand 128-bit SSE, three-operand
/// 256-bit AVX, and the FMA3 / FMA4 fused multiply-add extensions.
enum class Isa : std::uint8_t {
  kSse2,  ///< 128-bit, two-operand mul/add (Sandy Bridge legacy path)
  kAvx,   ///< 256-bit, three-operand mul/add (Intel Sandy Bridge)
  kFma3,  ///< 256-bit, FMA3 d=a*b+c with d∈{a,b,c} (Haswell+, Piledriver)
  kFma4,  ///< 256-bit, FMA4 with independent destination (AMD Bulldozer/Piledriver)
};

/// Human-readable ISA name ("SSE2", "AVX", "FMA3", "FMA4").
const char* isa_name(Isa isa);

/// Number of doubles per SIMD register for an ISA (2 for SSE2, else 4).
int isa_vector_doubles(Isa isa);

/// SIMD register width in bits (128 or 256).
int isa_vector_bits(Isa isa);

/// True if the ISA uses non-destructive three-operand (VEX) encodings.
bool isa_is_vex(Isa isa);

/// Description of one CPU, either detected from the host via CPUID or
/// constructed synthetically (e.g. to generate Piledriver FMA4 code on an
/// Intel host and execute it in the VM).
struct CpuArch {
  std::string name;          ///< marketing / model string
  bool has_sse2 = true;      ///< baseline for x86-64
  bool has_avx = false;
  bool has_avx2 = false;
  bool has_fma3 = false;
  bool has_fma4 = false;
  int num_vector_regs = 16;  ///< xmm/ymm0-15 in 64-bit mode
  std::int64_t l1d_bytes = 32 * 1024;
  std::int64_t l2_bytes = 256 * 1024;
  std::int64_t l3_bytes = 8 * 1024 * 1024;
  int cores = 1;
  double nominal_ghz = 0.0;  ///< 0 when unknown

  /// Best ISA this CPU can *execute natively* (FMA3 > AVX > SSE2; FMA4 only
  /// if the CPU really has it).
  Isa best_native_isa() const;

  /// True if `isa` can be executed natively on this CPU.
  bool supports(Isa isa) const;

  /// All ISAs this CPU supports natively, in increasing capability order.
  std::vector<Isa> native_isas() const;

  /// Multi-line report in the spirit of the paper's Table 5.
  std::string report() const;
};

/// Stable identifier of the machine class a tuning or benchmark result is
/// valid for: brand string plus the features and cache geometry that change
/// which code wins. Sanitized to [A-Za-z0-9._-] so it can appear in file
/// names and JSON keys verbatim. (Shared by the kernel runtime's cache keys
/// and the perf harness's BENCH_*.json reports.)
std::string cpu_signature(const CpuArch& arch);

/// The nominal frequency a CPU brand string states as a trailing
/// "@ <x>GHz" ("… CPU @ 2.10GHz" → 2.1), or 0 when it states none.
double brand_nominal_ghz(const std::string& brand);

/// Detect the host CPU via CPUID (features + cache sizes; the nominal
/// frequency from the brand string).
const CpuArch& host_arch();

/// A synthetic Intel Sandy Bridge (AVX, no FMA) — the paper's first testbed.
CpuArch sandy_bridge_arch();

/// A synthetic AMD Piledriver (AVX + FMA3 + FMA4) — the paper's second testbed.
CpuArch piledriver_arch();

}  // namespace augem
