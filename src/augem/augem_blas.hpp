#pragma once
// Glue between the generated kernels and the BLAS layer: the padded block
// kernel that lets the blocked driver run a tile-aligned generated GEMM at
// any block size, and the netlib-semantics wrappers around the raw Level-1/2
// kernels. runtime::RuntimeBlas (runtime/runtime_blas.hpp) serves every
// routine through these; callers that pin their own KernelSet pass
// padded_gemm_block_kernel to blas::blocked_gemm directly.

#include <functional>

#include "augem/augem.hpp"
#include "blas/driver.hpp"

namespace augem {

/// A GEMM block function with the generated Fig.-12 kernel contract:
/// C(mc×nc, ldc) += PA(mc×kc) * PB(kc×nc) over packed panels (blas/pack.hpp:
/// A column-major with stride mc, B column-major with stride kc), where mc
/// and nc are the loop bounds, so the caller must guarantee mc % mr == 0
/// and nc % nr == 0. Matches KernelSet::GemmFn but also admits non-native
/// executors (the machine-IR VM in the differential harness).
using GemmBlockFn = std::function<void(long mc, long nc, long kc,
                                       const double* pa, const double* pb,
                                       double* c, long ldc)>;

/// Wraps a tile-aligned GEMM block function into a driver BlockKernel that
/// accepts arbitrary mc/nc ≥ 1. The nr-aligned column prefix of B is read
/// in place; ragged A rows (⌈mc/mr⌉·mr × kc) and the < nr trailing B
/// columns (kc × nr) run on zero-padded copies in per-thread scratch, and
/// the window of a padded C accumulator is added back. The wrapper is
/// accumulate-only — beta must already have been applied by the driver —
/// and is reentrant: the threaded driver calls it concurrently.
blas::BlockKernel padded_gemm_block_kernel(GemmBlockFn fn, blas::index_t mr,
                                           blas::index_t nr);

// ---- netlib-semantics wrappers around the raw generated kernels ----------
//
// The generated functions are pure accumulate/compute loops (y += A*x,
// y += alpha*x, …); the BLAS edge rules — beta == 0 overwrites, alpha == 0
// never reads the inputs, non-positive extents are no-ops — live here as
// one audited implementation (docs/correctness.md).

/// y = alpha*A*x + beta*y around a `y += A*x` kernel.
void gemv_with_blas_semantics(KernelSet::GemvFn* fn, blas::index_t m,
                              blas::index_t n, double alpha, const double* a,
                              blas::index_t lda, const double* x, double beta,
                              double* y);

/// y += alpha*x around a `y += alpha*x` kernel (alpha == 0 leaves y
/// untouched even for NaN x — netlib daxpy).
void axpy_with_blas_semantics(KernelSet::AxpyFn* fn, blas::index_t n,
                              double alpha, const double* x, double* y);

/// dot(x, y); n <= 0 returns 0 without calling the kernel.
double dot_with_blas_semantics(KernelSet::DotFn* fn, blas::index_t n,
                               const double* x, const double* y);

/// x *= alpha; alpha == 0 overwrites with zeros (clears NaN/Inf).
void scal_with_blas_semantics(KernelSet::ScalFn* fn, blas::index_t n,
                              double alpha, double* x);

}  // namespace augem
