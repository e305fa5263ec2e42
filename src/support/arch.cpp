#include "support/arch.hpp"

#include <cpuid.h>
#include <strings.h>

#include <array>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "support/error.hpp"

namespace augem {

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kSse2: return "SSE2";
    case Isa::kAvx:  return "AVX";
    case Isa::kFma3: return "FMA3";
    case Isa::kFma4: return "FMA4";
  }
  return "?";
}

std::optional<Isa> parse_isa(const std::string& name) {
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4})
    if (strcasecmp(name.c_str(), isa_name(isa)) == 0) return isa;
  return std::nullopt;
}

int isa_vector_doubles(Isa isa) { return isa == Isa::kSse2 ? 2 : 4; }

int isa_vector_bits(Isa isa) { return isa == Isa::kSse2 ? 128 : 256; }

bool isa_is_vex(Isa isa) { return isa != Isa::kSse2; }

Isa CpuArch::best_native_isa() const {
  if (has_fma3) return Isa::kFma3;
  if (has_fma4) return Isa::kFma4;
  if (has_avx) return Isa::kAvx;
  return Isa::kSse2;
}

bool CpuArch::supports(Isa isa) const {
  switch (isa) {
    case Isa::kSse2: return has_sse2;
    case Isa::kAvx:  return has_avx;
    case Isa::kFma3: return has_fma3;
    case Isa::kFma4: return has_fma4;
  }
  return false;
}

std::vector<Isa> CpuArch::native_isas() const {
  std::vector<Isa> out;
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4})
    if (supports(isa)) out.push_back(isa);
  return out;
}

std::string CpuArch::report() const {
  std::ostringstream os;
  os << "CPU:          " << name << "\n"
     << "L1d cache:    " << l1d_bytes / 1024 << " KB\n"
     << "L2 cache:     " << l2_bytes / 1024 << " KB\n"
     << "L3 cache:     " << l3_bytes / 1024 << " KB\n"
     << "Vector size:  " << isa_vector_bits(best_native_isa()) << "-bit\n"
     << "Cores:        " << cores << "\n"
     << "ISA support: ";
  for (Isa isa : native_isas()) os << " " << isa_name(isa);
  os << "\n";
  return os.str();
}

namespace {

struct CpuidRegs {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
};

CpuidRegs cpuid(unsigned leaf, unsigned subleaf = 0) {
  CpuidRegs r;
  __cpuid_count(leaf, subleaf, r.eax, r.ebx, r.ecx, r.edx);
  return r;
}

std::string brand_string() {
  const unsigned max_ext = cpuid(0x80000000u).eax;
  if (max_ext < 0x80000004u) return "unknown x86-64";
  std::array<char, 49> buf{};
  for (unsigned i = 0; i < 3; ++i) {
    const CpuidRegs r = cpuid(0x80000002u + i);
    const unsigned regs[4] = {r.eax, r.ebx, r.ecx, r.edx};
    for (int j = 0; j < 4; ++j)
      for (int b = 0; b < 4; ++b)
        buf[i * 16 + j * 4 + b] = static_cast<char>((regs[j] >> (8 * b)) & 0xff);
  }
  std::string s(buf.data());
  // Trim leading/trailing spaces that vendors pad the brand string with.
  const auto first = s.find_first_not_of(' ');
  const auto last = s.find_last_not_of(' ');
  return first == std::string::npos ? "unknown x86-64" : s.substr(first, last - first + 1);
}

// Reads a cache size in bytes from CPUID leaf 4 (Intel deterministic cache
// parameters); returns 0 when the requested level is not enumerated.
std::int64_t cache_bytes_leaf4(int wanted_level) {
  for (unsigned sub = 0; sub < 16; ++sub) {
    const CpuidRegs r = cpuid(4, sub);
    const unsigned type = r.eax & 0x1f;
    if (type == 0) break;                 // no more caches
    const int level = static_cast<int>((r.eax >> 5) & 0x7);
    const bool is_data = type == 1 || type == 3;  // data or unified
    if (level != wanted_level || !is_data) continue;
    const std::int64_t ways = ((r.ebx >> 22) & 0x3ff) + 1;
    const std::int64_t partitions = ((r.ebx >> 12) & 0x3ff) + 1;
    const std::int64_t line = (r.ebx & 0xfff) + 1;
    const std::int64_t sets = static_cast<std::int64_t>(r.ecx) + 1;
    return ways * partitions * line * sets;
  }
  return 0;
}

CpuArch detect_host() {
  CpuArch a;
  a.name = brand_string();
  a.nominal_ghz = brand_nominal_ghz(a.name);

  const CpuidRegs f1 = cpuid(1);
  a.has_sse2 = (f1.edx >> 26) & 1;
  const bool osxsave = (f1.ecx >> 27) & 1;
  const bool avx_bit = (f1.ecx >> 28) & 1;
  a.has_fma3 = (f1.ecx >> 12) & 1;

  // AVX additionally requires OS support for YMM state (XCR0 bits 1|2).
  bool ymm_enabled = false;
  if (osxsave) {
    unsigned lo = 0, hi = 0;
    __asm__ volatile("xgetbv" : "=a"(lo), "=d"(hi) : "c"(0));
    ymm_enabled = (lo & 0x6) == 0x6;
  }
  a.has_avx = avx_bit && ymm_enabled;
  a.has_fma3 = a.has_fma3 && ymm_enabled;

  const CpuidRegs f7 = cpuid(7);
  a.has_avx2 = a.has_avx && ((f7.ebx >> 5) & 1);

  const unsigned max_ext = cpuid(0x80000000u).eax;
  if (max_ext >= 0x80000001u) {
    const CpuidRegs e1 = cpuid(0x80000001u);
    a.has_fma4 = ymm_enabled && ((e1.ecx >> 16) & 1);
  }

  if (std::int64_t l1 = cache_bytes_leaf4(1); l1 > 0) a.l1d_bytes = l1;
  if (std::int64_t l2 = cache_bytes_leaf4(2); l2 > 0) a.l2_bytes = l2;
  if (std::int64_t l3 = cache_bytes_leaf4(3); l3 > 0) a.l3_bytes = l3;

  // Logical processors available to this process: the default width of the
  // threaded BLAS driver (ThreadPool::default_num_threads).
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw >= 1) a.cores = static_cast<int>(hw);
  return a;
}

}  // namespace

double brand_nominal_ghz(const std::string& brand) {
  const auto at = brand.rfind('@');
  if (at == std::string::npos) return 0.0;
  const char* num = brand.c_str() + at + 1;
  char* end = nullptr;
  const double ghz = std::strtod(num, &end);
  if (end == num || !std::isfinite(ghz) || ghz <= 0.0) return 0.0;
  while (*end == ' ') ++end;
  return std::string(end) == "GHz" ? ghz : 0.0;
}

std::string cpu_signature(const CpuArch& arch) {
  std::ostringstream os;
  os << arch.name << "_v" << (arch.has_fma4 ? "fma4." : "")
     << (arch.has_fma3 ? "fma3" : arch.has_avx ? "avx" : "sse2")
     << (arch.has_avx2 ? ".avx2" : "") << "_l" << arch.l1d_bytes / 1024 << "."
     << arch.l2_bytes / 1024 << "." << arch.l3_bytes / 1024;
  std::string s = os.str();
  for (char& c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '-';
  }
  return s;
}

const CpuArch& host_arch() {
  static const CpuArch arch = detect_host();
  return arch;
}

CpuArch sandy_bridge_arch() {
  CpuArch a;
  a.name = "Intel Sandy Bridge E5-2680 (synthetic)";
  a.has_avx = true;
  a.has_fma3 = false;
  a.has_fma4 = false;
  a.l1d_bytes = 32 * 1024;
  a.l2_bytes = 256 * 1024;
  a.l3_bytes = 20 * 1024 * 1024;
  a.cores = 8;
  a.nominal_ghz = 2.7;
  return a;
}

CpuArch piledriver_arch() {
  CpuArch a;
  a.name = "AMD Piledriver Opteron 6380 (synthetic)";
  a.has_avx = true;
  a.has_fma3 = true;
  a.has_fma4 = true;
  a.l1d_bytes = 16 * 1024;
  a.l2_bytes = 2048 * 1024;
  a.l3_bytes = 8 * 1024 * 1024;
  a.cores = 8;
  a.nominal_ghz = 2.5;
  return a;
}

}  // namespace augem
