#include "runtime/key.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace augem::runtime {

using frontend::KernelKind;

const char* shape_class_name(ShapeClass s) {
  switch (s) {
    case ShapeClass::kSmall: return "small";
    case ShapeClass::kSkinny: return "skinny";
    case ShapeClass::kLarge: return "large";
  }
  return "?";
}

std::optional<ShapeClass> parse_shape_class(const std::string& name) {
  for (ShapeClass s :
       {ShapeClass::kSmall, ShapeClass::kSkinny, ShapeClass::kLarge})
    if (name == shape_class_name(s)) return s;
  return std::nullopt;
}

ShapeClass classify_gemm_shape(std::int64_t m, std::int64_t n,
                               std::int64_t k) {
  m = std::max<std::int64_t>(m, 1);
  n = std::max<std::int64_t>(n, 1);
  k = std::max<std::int64_t>(k, 1);
  // Small: the whole problem fits in L1/L2-class footprints — one 64³
  // GEMM's worth of work or less. Per-call overhead (packing setup, pool
  // wake) dominates here, so small problems get their own tuned variant
  // and a serial macro loop.
  if (m * n * k <= 64 * 64 * 64) return ShapeClass::kSmall;
  // Skinny: one C extent is starved relative to the other (panel-shaped
  // output) — the register tile cannot be square-ish and the B panel
  // reuse the large-regime tuning assumes is absent.
  const std::int64_t lo = std::min(m, n), hi = std::max(m, n);
  if (lo < 32 || lo * 8 <= hi) return ShapeClass::kSkinny;
  return ShapeClass::kLarge;
}

ShapeClass classify_vector_shape(std::int64_t n) {
  // 4096 doubles = 32 KB, the L1 capacity of the paper's testbeds: below
  // it a call is latency/overhead bound, above it stream bound.
  return n <= 4096 ? ShapeClass::kSmall : ShapeClass::kLarge;
}

std::optional<KernelKind> parse_kernel_kind(const std::string& name) {
  for (KernelKind k : {KernelKind::kGemm, KernelKind::kGemv, KernelKind::kAxpy,
                       KernelKind::kDot, KernelKind::kScal})
    if (name == frontend::kernel_kind_name(k)) return k;
  return std::nullopt;
}

std::optional<Isa> parse_isa(const std::string& name) {
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4})
    if (name == isa_name(isa)) return isa;
  return std::nullopt;
}

std::string KernelKey::to_string() const {
  std::ostringstream os;
  os << frontend::kernel_kind_name(kind);
  if (small) os << small->to_string();
  os << "/" << isa_name(isa) << "/" << dtype << "/" << shape_class_name(shape)
     << "@" << cpu;
  return os.str();
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

Isa select_dispatch_isa(const CpuArch& arch) {
  if (arch.has_fma3) return Isa::kFma3;
  if (arch.has_avx) return Isa::kAvx;
  return Isa::kSse2;
}

KernelKey host_kernel_key(KernelKind kind, ShapeClass shape) {
  KernelKey key;
  key.cpu = cpu_signature(host_arch());
  key.kind = kind;
  key.isa = select_dispatch_isa(host_arch());
  key.shape = shape;
  return key;
}

}  // namespace augem::runtime
