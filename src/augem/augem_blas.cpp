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
    const index_t mp = (mc + mr - 1) / mr * mr;
    const index_t n0 = nc / nr * nr;  // the tile-aligned column prefix
    if (mp == mc && n0 == nc) {
      fn(mc, nc, kc, pa, pb, cc, ldcc);
      return;
    }
    // Edge block. The Fig.-12 kernel ABI uses mc both as a loop bound and
    // as the packed A stride, so ragged rows run on a zero-padded copy of
    // A. Packed B is column-major with stride kc whatever nc is, so its
    // nr-aligned column prefix is read in place and only the < nr trailing
    // columns run on a zero-padded copy. The pads live in per-thread
    // scratch — the threaded driver calls this block kernel concurrently.
    const double* ka = pa;
    if (mp != mc) {
      double* pad_a = scratch_doubles(static_cast<std::size_t>(mp * kc),
                                      Scratch::kGemmPadA);
      for (index_t l = 0; l < kc; ++l) {
        std::copy_n(pa + l * mc, mc, pad_a + l * mp);
        std::fill(pad_a + l * mp + mc, pad_a + (l + 1) * mp, 0.0);
      }
      ka = pad_a;
    }
    // Adds ka times the np-column B operand kb into the mc×w window of C
    // at c. A kernel that would write past the window accumulates into a
    // zeroed scratch C whose window is then *added* to C — never assigned
    // — because the driver has already applied beta to all of C before
    // any block kernel runs.
    const auto run = [&](index_t np, const double* kb, double* c, index_t w) {
      if (mp == mc && np == w) {
        fn(mc, np, kc, ka, kb, c, ldcc);
        return;
      }
      double* pad_c = scratch_doubles(static_cast<std::size_t>(mp * np),
                                      Scratch::kGemmPadC);
      std::fill(pad_c, pad_c + mp * np, 0.0);
      fn(mp, np, kc, ka, kb, pad_c, mp);
      for (index_t j = 0; j < w; ++j)
        for (index_t i = 0; i < mc; ++i)
          at(c, ldcc, i, j) += pad_c[j * mp + i];
    };
    if (n0 > 0) run(n0, pb, cc, n0);
    if (n0 < nc) {
      double* pad_b = scratch_doubles(static_cast<std::size_t>(nr * kc),
                                      Scratch::kGemmPadB);
      std::copy_n(pb + n0 * kc, (nc - n0) * kc, pad_b);
      std::fill(pad_b + (nc - n0) * kc, pad_b + nr * kc, 0.0);
      run(nr, pad_b, &at(cc, ldcc, 0, n0), nc - n0);
    }
  };
}

}  // namespace augem
