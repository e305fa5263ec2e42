#include "augem/augem_blas.hpp"

#include <algorithm>
#include <vector>

#include "support/scratch.hpp"

namespace augem {

using blas::at;
using blas::index_t;

void gemv_with_blas_semantics(KernelSet::GemvFn* fn, index_t m, index_t n,
                              double alpha, const double* a, index_t lda,
                              const double* x, double beta, double* y) {
  // beta == 0 must overwrite (beta_scale), not multiply: `y[i] *= beta`
  // would keep NaN/Inf from an uninitialized y alive. alpha == 0 leaves
  // y at beta*y without ever reading A or x (netlib dgemv).
  blas::beta_scale(y, m, beta);
  if (m <= 0 || n <= 0 || alpha == 0.0) return;
  if (alpha == 1.0) {
    fn(m, n, a, lda, x, y);
    return;
  }
  // The generated kernel computes y += A*x; fold alpha into a scaled x.
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j)
    xs[static_cast<std::size_t>(j)] = alpha * x[j];
  fn(m, n, a, lda, xs.data(), y);
}

void axpy_with_blas_semantics(KernelSet::AxpyFn* fn, index_t n, double alpha,
                              const double* x, double* y) {
  if (alpha == 0.0) return;  // netlib daxpy: y untouched, even for NaN x
  if (n > 0) fn(n, alpha, x, y);
}

double dot_with_blas_semantics(KernelSet::DotFn* fn, index_t n,
                               const double* x, const double* y) {
  return n > 0 ? fn(n, x, y) : 0.0;
}

void scal_with_blas_semantics(KernelSet::ScalFn* fn, index_t n, double alpha,
                              double* x) {
  if (n <= 0) return;
  if (alpha == 0.0) {  // overwrite: scal-to-zero must clear NaN/Inf
    std::fill(x, x + n, 0.0);
    return;
  }
  fn(n, alpha, x);
}

blas::BlockKernel padded_gemm_block_kernel(GemmBlockFn fn, index_t mr,
                                           index_t nr) {
  return [fn = std::move(fn), mr, nr](index_t mc, index_t nc, index_t kc,
                                      const double* pa, const double* pb,
                                      double* cc, index_t ldcc) {
    if (mc % mr == 0 && nc % nr == 0) {
      fn(mc, nc, kc, pa, pb, cc, ldcc);
      return;
    }
    // Edge block: the Fig.-12 kernel ABI uses mc/nc both as loop bounds
    // and as the packed strides, so a partial tile is run on zero-padded
    // copies and accumulated back. Rare at benchmark sizes; correctness
    // matters more than speed here. The pads live in per-thread scratch —
    // the threaded driver calls this block kernel concurrently. An operand
    // that is already tile-aligned keeps its original packed panel (the
    // stride only changes when padding actually widens the block).
    const index_t mp = (mc + mr - 1) / mr * mr;
    const index_t np = (nc + nr - 1) / nr * nr;
    const double* ka = pa;
    const double* kb = pb;
    if (mp != mc) {
      double* pad_a = scratch_doubles(static_cast<std::size_t>(mp * kc),
                                      Scratch::kGemmPadA);
      for (index_t l = 0; l < kc; ++l) {
        for (index_t i = 0; i < mc; ++i) pad_a[l * mp + i] = pa[l * mc + i];
        std::fill(pad_a + l * mp + mc, pad_a + (l + 1) * mp, 0.0);
      }
      ka = pad_a;
    }
    if (np != nc) {
      double* pad_b = scratch_doubles(static_cast<std::size_t>(np * kc),
                                      Scratch::kGemmPadB);
      for (index_t l = 0; l < kc; ++l) {
        for (index_t j = 0; j < nc; ++j) pad_b[l * np + j] = pb[l * nc + j];
        std::fill(pad_b + l * np + nc, pad_b + (l + 1) * np, 0.0);
      }
      kb = pad_b;
    }
    // C pad: zero-initialized so the kernel's accumulation yields exactly
    // the block product; the mc×nc window is then *added* to C — never
    // assigned — because the driver has already applied beta to all of C
    // (including this block) before any block kernel runs.
    double* pad_c = scratch_doubles(static_cast<std::size_t>(mp * np),
                                    Scratch::kGemmPadC);
    std::fill(pad_c, pad_c + mp * np, 0.0);
    fn(mp, np, kc, ka, kb, pad_c, mp);
    for (index_t j = 0; j < nc; ++j)
      for (index_t i = 0; i < mc; ++i)
        at(cc, ldcc, i, j) += pad_c[j * mp + i];
  };
}

}  // namespace augem
