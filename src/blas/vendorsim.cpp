// vendorsim: the Intel MKL / AMD ACML stand-in (DESIGN.md §2).
//
// Expert-tuned kernels written directly in AVX2+FMA intrinsics over the
// same Goto blocking — i.e. what a vendor library's hand assembly achieves
// on this machine. The paper's central claim is that AUGEM's *generated*
// assembly matches or slightly beats this class of code.
//
// Compiled with -mavx2 -mfma (see CMakeLists).

#include <immintrin.h>

#include "blas/driver.hpp"
#include "blas/libraries.hpp"

namespace augem::blas {

namespace {

/// 8×4 register tile: 8 ymm accumulators, FMA throughput-bound.
void block_kernel_avx2(index_t mc, index_t nc, index_t kc, const double* pa,
                       const double* pb, double* c, index_t ldc) {
  const index_t m_main = mc / 8 * 8;
  const index_t n_main = nc / 4 * 4;
  for (index_t j = 0; j < n_main; j += 4) {
    for (index_t i = 0; i < m_main; i += 8) {
      __m256d acc[2][4];
      for (int r = 0; r < 2; ++r)
        for (int q = 0; q < 4; ++q) acc[r][q] = _mm256_setzero_pd();
      for (index_t l = 0; l < kc; ++l) {
        const __m256d a0 = _mm256_loadu_pd(pa + l * mc + i);
        const __m256d a1 = _mm256_loadu_pd(pa + l * mc + i + 4);
        for (int q = 0; q < 4; ++q) {
          const __m256d bq = _mm256_broadcast_sd(pb + (j + q) * kc + l);
          acc[0][q] = _mm256_fmadd_pd(a0, bq, acc[0][q]);
          acc[1][q] = _mm256_fmadd_pd(a1, bq, acc[1][q]);
        }
      }
      for (int q = 0; q < 4; ++q) {
        double* cq = &at(c, ldc, i, j + q);
        _mm256_storeu_pd(cq, _mm256_add_pd(_mm256_loadu_pd(cq), acc[0][q]));
        _mm256_storeu_pd(cq + 4,
                         _mm256_add_pd(_mm256_loadu_pd(cq + 4), acc[1][q]));
      }
    }
  }
  // Edges in scalar code.
  for (index_t j = 0; j < nc; ++j) {
    const index_t i0 = j < n_main ? m_main : 0;
    for (index_t i = i0; i < mc; ++i) {
      double accs = 0.0;
      for (index_t l = 0; l < kc; ++l) accs += pa[l * mc + i] * pb[j * kc + l];
      at(c, ldc, i, j) += accs;
    }
  }
}

class VendorSim final : public Blas {
 public:
  VendorSim() : ctx_(threaded_gemm_context(default_block_sizes(host_arch()))) {}

  std::string name() const override { return "vendorsim"; }

  void gemv(index_t m, index_t n, double alpha, const double* a, index_t lda,
            const double* x, double beta, double* y) override {
    beta_scale(y, m, beta);
    if (alpha == 0.0) return;
    for (index_t j = 0; j < n; ++j) {
      const double s = alpha * x[j];
      const double* col = &at(a, lda, 0, j);
      const __m256d vs = _mm256_set1_pd(s);
      index_t i = 0;
      for (; i + 8 <= m; i += 8) {
        const __m256d y0 = _mm256_loadu_pd(y + i);
        const __m256d y1 = _mm256_loadu_pd(y + i + 4);
        _mm256_storeu_pd(y + i,
                         _mm256_fmadd_pd(_mm256_loadu_pd(col + i), vs, y0));
        _mm256_storeu_pd(
            y + i + 4, _mm256_fmadd_pd(_mm256_loadu_pd(col + i + 4), vs, y1));
      }
      for (; i < m; ++i) y[i] += col[i] * s;
    }
  }

  void axpy(index_t n, double alpha, const double* x, double* y) override {
    if (alpha == 0.0) return;
    const __m256d va = _mm256_set1_pd(alpha);
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_pd(y + i, _mm256_fmadd_pd(_mm256_loadu_pd(x + i), va,
                                              _mm256_loadu_pd(y + i)));
      _mm256_storeu_pd(y + i + 4,
                       _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4), va,
                                       _mm256_loadu_pd(y + i + 4)));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
  }

  double dot(index_t n, const double* x, const double* y) override {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i), _mm256_loadu_pd(y + i),
                             acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(x + i + 4),
                             _mm256_loadu_pd(y + i + 4), acc1);
    }
    acc0 = _mm256_add_pd(acc0, acc1);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc0);
    double total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) total += x[i] * y[i];
    return total;
  }

  void scal(index_t n, double alpha, double* x) override {
    if (alpha == 0.0) {
      for (index_t i = 0; i < n; ++i) x[i] = 0.0;
      return;
    }
    const __m256d va = _mm256_set1_pd(alpha);
    index_t i = 0;
    for (; i + 8 <= n; i += 8) {
      _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i), va));
      _mm256_storeu_pd(x + i + 4,
                       _mm256_mul_pd(_mm256_loadu_pd(x + i + 4), va));
    }
    for (; i < n; ++i) x[i] *= alpha;
  }

 private:
  GemmPlan gemm_plan(index_t, index_t, index_t) override {
    return {ctx_, block_kernel_avx2};
  }

  GemmContext ctx_;
};

}  // namespace

std::unique_ptr<Blas> make_vendorsim() { return std::make_unique<VendorSim>(); }

}  // namespace augem::blas
