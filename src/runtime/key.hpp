#pragma once
// Cache keying for the kernel runtime (docs/runtime.md).
//
// A tuned kernel is only valid on the machine class it was tuned for and
// for the problem-shape regime it was timed on, so both the persistent
// tuning database and the in-memory code cache key entries by the full
// tuple (CPU signature, kernel kind, ISA, element type, shape class).

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "frontend/kernels.hpp"
#include "support/arch.hpp"

namespace augem::runtime {

/// Problem-shape buckets the dispatcher routes between. Different regimes
/// want different tuned variants: tiny problems live in registers/L1 and
/// are dominated by call overhead, skinny GEMMs (panel × panel) starve the
/// register tile in one direction, and large square-ish problems are the
/// regime the classic tuning workload represents.
enum class ShapeClass : std::uint8_t { kSmall, kSkinny, kLarge };

const char* shape_class_name(ShapeClass s);
std::optional<ShapeClass> parse_shape_class(const std::string& name);

/// Buckets a GEMM problem. Non-positive extents classify as kSmall (the
/// dispatcher never reaches the kernel for those, but the key must still
/// be well-defined).
ShapeClass classify_gemm_shape(std::int64_t m, std::int64_t n, std::int64_t k);

/// Buckets a Level-1/2 problem by its traversal length (kSkinny never
/// applies: a vector has no second extent to starve).
ShapeClass classify_vector_shape(std::int64_t n);

/// Stable identifier of the machine class a tuning result is valid for.
/// Shared with the perf harness; the definition lives with CpuArch in
/// support/arch.hpp.
using ::augem::cpu_signature;

/// The full cache key. `dtype` is always "f64" today; it is part of the
/// key (and of the persisted record) so a future single-precision backend
/// cannot collide with existing entries.
struct KernelKey {
  std::string cpu;
  frontend::KernelKind kind = frontend::KernelKind::kGemm;
  Isa isa = Isa::kSse2;
  std::string dtype = "f64";
  ShapeClass shape = ShapeClass::kLarge;

  /// Shape-specialized small-GEMM variant (batched serving path): the
  /// baked-in extents and fused epilogue are part of the identity, so
  /// every (shape, epilogue) combination is generated, verified, and
  /// JIT-compiled exactly once and never collides with the blocked kernel.
  std::optional<frontend::SmallGemmSpec> small;

  /// Canonical flat form, e.g. "gemm/FMA3/f64/large@GenuineIntel..." —
  /// small-GEMM variants embed the spec: "gemm16x16x16+bias+relu/FMA3/...".
  /// Used as the code-cache map key and the database record key.
  std::string to_string() const;

  bool operator==(const KernelKey& other) const {
    return cpu == other.cpu && kind == other.kind && isa == other.isa &&
           dtype == other.dtype && shape == other.shape &&
           small == other.small;
  }
};

/// FNV-1a 64-bit over `bytes`. Names a key's files in the cache directory
/// (over KernelKey::to_string) and checks a kernel artifact's content
/// against the hash its database record carries (docs/runtime.md).
std::uint64_t fnv1a64(std::string_view bytes);

/// Key for the host CPU: best dispatchable ISA (FMA3 > AVX > SSE2, decided
/// from CPUID feature bits at runtime) and the given kind/shape.
KernelKey host_kernel_key(frontend::KernelKind kind, ShapeClass shape);

/// The dispatcher's ISA ladder. FMA4 is deliberately not dispatched even
/// when present: on every FMA4 machine this repository models, FMA3 is
/// also present and at least as fast (paper Table 5's Piledriver).
Isa select_dispatch_isa(const CpuArch& arch);

}  // namespace augem::runtime
