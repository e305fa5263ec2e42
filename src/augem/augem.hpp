#pragma once
// The AUGEM public API (the framework of the paper's Fig. 1, end to end).
//
//   * `generate_kernel` — simple C → optimized C → templates → assembly,
//     returning the full artifact (assembly text, machine IR, tagged
//     low-level C) for inspection or VM execution.
//   * `KernelSet` — the four DLA kernels generated for a configuration and
//     JIT-compiled into native, callable function pointers.
//   * `padded_gemm_block_kernel` and the netlib-semantics wrappers
//     (augem_blas.hpp) — the glue runtime::RuntimeBlas, the BLAS behind the
//     "AUGEM" series of every figure and table, serves kernels through.

#include <memory>
#include <string>

#include "asmgen/codegen.hpp"
#include "frontend/kernels.hpp"
#include "jit/jit.hpp"
#include "opt/plan.hpp"
#include "transform/ckernel.hpp"

namespace augem {

/// Everything needed to generate one kernel. The layout defaults to the
/// one the blocked driver packs B in (blas/pack.hpp), so every GEMM kernel
/// built from defaults — KernelSet, the runtime, the tuner — can be served.
struct GenerateOptions {
  transform::CGenParams params;
  opt::OptConfig config;
  frontend::BLayout layout = frontend::BLayout::kColMajor;
};

/// Sensible per-ISA defaults (the configurations the tuner usually picks).
GenerateOptions default_options(frontend::KernelKind kind, Isa isa);

/// Runs the full pipeline for one kernel.
asmgen::GeneratedKernel generate_kernel(frontend::KernelKind kind,
                                        const GenerateOptions& options);

/// Signature of every shape-specialized small-GEMM kernel (see
/// frontend::make_small_gemm_kernel). `bias` may be null when the spec's
/// epilogue does not fuse a bias add; `alpha`/`beta` are read only when it
/// fuses scaling.
using SmallGemmFn = void(const double* a, long lda, const double* b, long ldb,
                         double* c, long ldc, const double* bias, double alpha,
                         double beta);

/// Register tile for a small-GEMM spec on `isa`: the largest mr in
/// {2w, w, 2, 1} dividing m and nr in {4, 2, 1} dividing n that keep the
/// accumulator groups (plus the epilogue's broadcast scalars) inside the
/// vector register budget.
transform::CGenParams small_gemm_params(const frontend::SmallGemmSpec& spec,
                                        Isa isa);

/// Default generation options for a small-GEMM spec on `isa`.
GenerateOptions default_small_gemm_options(const frontend::SmallGemmSpec& spec,
                                           Isa isa);

/// Full pipeline for one shape-specialized small-GEMM kernel, including the
/// memory-safety proofs against its contract (lda >= m, ldb >= k, ldc >= m,
/// bias extent m when fused).
asmgen::GeneratedKernel generate_small_gemm_kernel(
    const frontend::SmallGemmSpec& spec, const GenerateOptions& options);

/// The four generated kernels, JIT-compiled and callable.
class KernelSet {
 public:
  using GemmFn = void(long mc, long nc, long kc, const double* pa,
                      const double* pb, double* c, long ldc);
  using GemvFn = void(long m, long n, const double* a, long lda,
                      const double* x, double* y);
  using AxpyFn = void(long n, double alpha, const double* x, double* y);
  using DotFn = double(long n, const double* x, const double* y);
  using ScalFn = void(long n, double alpha, double* x);

  /// Generates and compiles all four kernels for `isa` with per-kernel
  /// options (defaults when not overridden). The ISA must be natively
  /// executable on this host. The GEMM kernel reads the driver's
  /// column-major packed B, so `gemm_strategy` cannot be Shuf, which needs
  /// row-panel B.
  explicit KernelSet(Isa isa);
  KernelSet(Isa isa, const transform::CGenParams& gemm_params,
            opt::VecStrategy gemm_strategy,
            const transform::CGenParams& level1_params);

  GemmFn* gemm() const { return gemm_; }
  GemvFn* gemv() const { return gemv_; }
  AxpyFn* axpy() const { return axpy_; }
  DotFn* dot() const { return dot_; }
  ScalFn* scal() const { return scal_; }

  /// The GEMM register tile the kernels were generated for (the macro
  /// driver must call the kernel with multiples of these).
  int gemm_mr() const { return gemm_mr_; }
  int gemm_nr() const { return gemm_nr_; }
  Isa isa() const { return isa_; }

  /// Generated assembly, for inspection (indexed by KernelKind).
  const std::string& asm_text(frontend::KernelKind kind) const;

 private:
  void build(Isa isa, const transform::CGenParams& gemm_params,
             opt::VecStrategy gemm_strategy,
             const transform::CGenParams& level1_params);

  Isa isa_{};
  int gemm_mr_ = 0;
  int gemm_nr_ = 0;
  std::unique_ptr<jit::CompiledModule> module_;
  std::string asm_[5];
  GemmFn* gemm_ = nullptr;
  GemvFn* gemv_ = nullptr;
  AxpyFn* axpy_ = nullptr;
  DotFn* dot_ = nullptr;
  ScalFn* scal_ = nullptr;
};

}  // namespace augem
