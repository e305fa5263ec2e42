// gotosim: the GotoBLAS2 1.13 stand-in (DESIGN.md §2).
//
// Goto-style blocking with hand-written 128-bit SSE2/SSE3 kernels and
// *no* AVX or FMA — the paper attributes GotoBLAS's 47-90% losses on Sandy
// Bridge / Piledriver exactly to that missing ISA support, so this baseline
// reproduces the cause, not just the number.
//
// This translation unit is compiled without AVX flags; every vector op is
// an explicit _mm_* intrinsic.

#include <emmintrin.h>  // SSE2
#include <pmmintrin.h>  // SSE3 (movddup)

#include "blas/driver.hpp"
#include "blas/libraries.hpp"

namespace augem::blas {

namespace {

/// 4×2 register tile over packed panels, SSE2 mul+add (no FMA).
void block_kernel_sse(index_t mc, index_t nc, index_t kc, const double* pa,
                      const double* pb, double* c, index_t ldc) {
  const index_t m_main = mc / 4 * 4;
  const index_t n_main = nc / 2 * 2;
  for (index_t j = 0; j < n_main; j += 2) {
    for (index_t i = 0; i < m_main; i += 4) {
      __m128d c00 = _mm_setzero_pd(), c10 = _mm_setzero_pd();
      __m128d c01 = _mm_setzero_pd(), c11 = _mm_setzero_pd();
      for (index_t l = 0; l < kc; ++l) {
        const __m128d a0 = _mm_loadu_pd(pa + l * mc + i);
        const __m128d a1 = _mm_loadu_pd(pa + l * mc + i + 2);
        const __m128d b0 = _mm_loaddup_pd(pb + l * nc + j);
        const __m128d b1 = _mm_loaddup_pd(pb + l * nc + j + 1);
        c00 = _mm_add_pd(c00, _mm_mul_pd(a0, b0));
        c10 = _mm_add_pd(c10, _mm_mul_pd(a1, b0));
        c01 = _mm_add_pd(c01, _mm_mul_pd(a0, b1));
        c11 = _mm_add_pd(c11, _mm_mul_pd(a1, b1));
      }
      double* c0 = &at(c, ldc, i, j);
      double* c1 = &at(c, ldc, i, j + 1);
      _mm_storeu_pd(c0, _mm_add_pd(_mm_loadu_pd(c0), c00));
      _mm_storeu_pd(c0 + 2, _mm_add_pd(_mm_loadu_pd(c0 + 2), c10));
      _mm_storeu_pd(c1, _mm_add_pd(_mm_loadu_pd(c1), c01));
      _mm_storeu_pd(c1 + 2, _mm_add_pd(_mm_loadu_pd(c1 + 2), c11));
    }
  }
  // Edges: remaining rows and columns in scalar code.
  for (index_t j = 0; j < nc; ++j) {
    const index_t i0 = j < n_main ? m_main : 0;
    for (index_t i = i0; i < mc; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < kc; ++l) acc += pa[l * mc + i] * pb[l * nc + j];
      at(c, ldc, i, j) += acc;
    }
  }
}

class GotoSim final : public Blas {
 public:
  GotoSim() : ctx_(threaded_gemm_context(default_block_sizes(host_arch()))) {}

  std::string name() const override { return "gotosim"; }

  void gemv(index_t m, index_t n, double alpha, const double* a, index_t lda,
            const double* x, double beta, double* y) override {
    beta_scale(y, m, beta);
    if (alpha == 0.0) return;
    for (index_t j = 0; j < n; ++j) {
      const double s = alpha * x[j];
      const double* col = &at(a, lda, 0, j);
      const __m128d vs = _mm_set1_pd(s);
      index_t i = 0;
      for (; i + 2 <= m; i += 2) {
        const __m128d av = _mm_loadu_pd(col + i);
        const __m128d yv = _mm_loadu_pd(y + i);
        _mm_storeu_pd(y + i, _mm_add_pd(yv, _mm_mul_pd(av, vs)));
      }
      for (; i < m; ++i) y[i] += col[i] * s;
    }
  }

  void axpy(index_t n, double alpha, const double* x, double* y) override {
    if (alpha == 0.0) return;
    const __m128d va = _mm_set1_pd(alpha);
    index_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m128d x0 = _mm_loadu_pd(x + i);
      const __m128d x1 = _mm_loadu_pd(x + i + 2);
      _mm_storeu_pd(y + i, _mm_add_pd(_mm_loadu_pd(y + i), _mm_mul_pd(x0, va)));
      _mm_storeu_pd(y + i + 2,
                    _mm_add_pd(_mm_loadu_pd(y + i + 2), _mm_mul_pd(x1, va)));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
  }

  double dot(index_t n, const double* x, const double* y) override {
    __m128d acc0 = _mm_setzero_pd();
    __m128d acc1 = _mm_setzero_pd();
    index_t i = 0;
    for (; i + 4 <= n; i += 4) {
      acc0 = _mm_add_pd(acc0,
                        _mm_mul_pd(_mm_loadu_pd(x + i), _mm_loadu_pd(y + i)));
      acc1 = _mm_add_pd(acc1, _mm_mul_pd(_mm_loadu_pd(x + i + 2),
                                         _mm_loadu_pd(y + i + 2)));
    }
    acc0 = _mm_add_pd(acc0, acc1);
    alignas(16) double lanes[2];
    _mm_store_pd(lanes, acc0);
    double total = lanes[0] + lanes[1];
    for (; i < n; ++i) total += x[i] * y[i];
    return total;
  }

  void scal(index_t n, double alpha, double* x) override {
    if (alpha == 0.0) {  // overwrite, never multiply NaN/Inf payloads away
      for (index_t i = 0; i < n; ++i) x[i] = 0.0;
      return;
    }
    const __m128d va = _mm_set1_pd(alpha);
    index_t i = 0;
    for (; i + 2 <= n; i += 2)
      _mm_storeu_pd(x + i, _mm_mul_pd(_mm_loadu_pd(x + i), va));
    for (; i < n; ++i) x[i] *= alpha;
  }

 private:
  GemmPlan gemm_plan(index_t, index_t, index_t) override {
    return {ctx_, block_kernel_sse};
  }

  GemmContext ctx_;
};

}  // namespace

std::unique_ptr<Blas> make_gotosim() { return std::make_unique<GotoSim>(); }

}  // namespace augem::blas
