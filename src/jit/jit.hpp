#pragma once
// Runtime assembly of generated kernels.
//
// The framework's output is assembly *text* (as the paper's is). To execute
// it natively we feed that text to the system assembler (`gcc -x assembler
// -shared -nostdlib`) and dlopen the result. gcc acts purely as an
// assembler driver here — no compiler optimization touches the kernel,
// preserving the paper's "no general-purpose compiler in the loop" claim.

#include <memory>
#include <string>
#include <string_view>

namespace augem::jit {

/// A loaded shared object holding one or more generated kernels.
/// Owns the dlopen handle and the temporary files (removed on destruction).
class CompiledModule {
 public:
  CompiledModule(CompiledModule&&) noexcept;
  CompiledModule& operator=(CompiledModule&&) noexcept;
  CompiledModule(const CompiledModule&) = delete;
  CompiledModule& operator=(const CompiledModule&) = delete;
  ~CompiledModule();

  /// Resolves a kernel symbol; throws augem::Error when absent.
  void* raw_symbol(const std::string& name) const;

  /// Typed convenience: `module.fn<void(long, double, const double*,
  /// double*)>("daxpy_kernel")`.
  template <typename Fn>
  Fn* fn(const std::string& name) const {
    return reinterpret_cast<Fn*>(raw_symbol(name));
  }

  /// Path of the shared object (e.g. for debugging with objdump).
  const std::string& so_path() const;

 private:
  friend CompiledModule assemble(const std::string& asm_text);
  friend CompiledModule compile_c(const std::string& c_text,
                                  const std::string& flags);
  friend CompiledModule load_bytes(std::string_view so_bytes);
  struct Impl;
  explicit CompiledModule(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// Assembles AT&T-syntax text into a shared object and loads it.
/// Throws augem::Error with the assembler diagnostics on failure.
CompiledModule assemble(const std::string& asm_text);

/// Compiles C source text (e.g. the printed optimized low-level C kernel)
/// with the general-purpose compiler at the given flags and loads it. This
/// is the comparator for the "generated assembly vs compiler-from-the-same-
/// source" ablation: the paper's thesis is that the template backend beats
/// exactly this path.
CompiledModule compile_c(const std::string& c_text,
                         const std::string& flags = "-O2");

/// Loads a shared object from its bytes, e.g. a kernel artifact whose
/// content hash the caller has checked (docs/runtime.md). The bytes go to
/// a private temp file the module owns, as an assembled module's do, so
/// the code mapped is exactly the code checked: no other process can
/// rewrite that file, and dlopen — which reuses an already-loaded object
/// whose path name matches — never meets a recycled name such as
/// /proc/self/fd/<n>. Throws augem::Error when dlopen fails.
CompiledModule load_bytes(std::string_view so_bytes);

/// True if a working assembler toolchain is available (checked once).
bool toolchain_available();

}  // namespace augem::jit
