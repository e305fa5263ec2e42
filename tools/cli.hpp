#pragma once
// Option parsing shared by the generator command-line tools (augemc and
// mirlint).

#include <cctype>
#include <optional>
#include <string>

#include "frontend/kernels.hpp"
#include "support/arch.hpp"

namespace augem::cli {

/// "gemm", "gemv", "axpy", "dot" or "scal".
inline std::optional<frontend::KernelKind> parse_kernel(const std::string& s) {
  using frontend::KernelKind;
  for (KernelKind k : {KernelKind::kGemm, KernelKind::kGemv, KernelKind::kAxpy,
                       KernelKind::kDot, KernelKind::kScal})
    if (s == frontend::kernel_kind_name(k)) return k;
  return std::nullopt;
}

/// "sse2", "avx", "fma3" or "fma4".
inline std::optional<Isa> parse_isa(const std::string& s) {
  for (Isa i : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4}) {
    std::string name = isa_name(i);
    for (char& c : name) c = static_cast<char>(std::tolower(c));
    if (s == name) return i;
  }
  return std::nullopt;
}

}  // namespace augem::cli
