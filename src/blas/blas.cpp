#include "blas/blas.hpp"

#include <utility>

namespace augem::blas {

void Blas::gemm_batch_strided(index_t m, index_t n, index_t k, double alpha,
                              const double* a, index_t lda, index_t stride_a,
                              const double* b, index_t ldb, index_t stride_b,
                              double beta, double* c, index_t ldc,
                              index_t stride_c, index_t batch,
                              const double* bias, index_t stride_bias,
                              bool relu) {
  if (m <= 0 || n <= 0 || batch <= 0) return;
  for (index_t p = 0; p < batch; ++p) {
    const double* ap = a + p * stride_a;
    const double* bp = b + p * stride_b;
    double* cp = c + p * stride_c;
    const double* biasp = bias == nullptr ? nullptr : bias + p * stride_bias;
    for (index_t j = 0; j < n; ++j) {
      for (index_t i = 0; i < m; ++i) {
        double sum = 0.0;
        // netlib alpha semantics: alpha == 0 leaves A/B unread, so a NaN or
        // Inf there can never reach C through 0 * sum.
        if (alpha != 0.0)
          for (index_t l = 0; l < k; ++l)
            sum += at(ap, lda, i, l) * at(bp, ldb, l, j);
        // beta == 0 overwrites so garbage in an uninitialized C never
        // propagates (beta_scale semantics).
        double v = (beta == 0.0 ? 0.0 : beta * at(cp, ldc, i, j)) + alpha * sum;
        if (biasp != nullptr) v += biasp[i];
        // MAXPD semantics, matching the generated epilogue: the clamp
        // operand wins on NaN, so relu(NaN) == 0.
        if (relu) v = v > 0.0 ? v : 0.0;
        at(cp, ldc, i, j) = v;
      }
    }
  }
}

void Blas::gemv_t(index_t m, index_t n, double alpha, const double* a,
                  index_t lda, const double* x, double beta, double* y) {
  // (A^T x)[j] = dot(column j of A, x): columns are contiguous, so each
  // row of the result is one Level-1 DOT over unit-stride data.
  beta_scale(y, n, beta);
  if (m <= 0 || alpha == 0.0) return;
  for (index_t j = 0; j < n; ++j)
    y[j] += alpha * dot(m, &at(a, lda, 0, j), x);
}

void Blas::ger(index_t m, index_t n, double alpha, const double* x,
               const double* y, double* a, index_t lda) {
  // One AXPY per column of A (paper §5: "GER … invoke[s] the four low-level
  // kernels … to obtain high performance").
  if (alpha == 0.0) return;  // netlib dger: A untouched, even for NaN x/y
  for (index_t j = 0; j < n; ++j)
    axpy(m, alpha * y[j], x, &at(a, lda, 0, j));
}

GemmPlan Blas::plan_if_multiplying(index_t m, index_t n, index_t k,
                                   double alpha) {
  // A call that multiplies nothing is a beta update (or a no-op): it never
  // reads A or B, so it needs no kernel — RuntimeBlas resolves none.
  if (m <= 0 || n <= 0 || k <= 0 || alpha == 0.0) return {};
  return gemm_plan(m, n, k);
}

Level3Config Blas::level3_config(index_t m, index_t n, index_t k,
                                 double alpha) {
  GemmPlan plan = plan_if_multiplying(m, n, k, alpha);
  return {plan.ctx, std::move(plan.kernel), l3_block_, nullptr};
}

void Blas::gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                double alpha, const double* a, index_t lda, const double* b,
                index_t ldb, double beta, double* c, index_t ldc) {
  const GemmPlan plan = plan_if_multiplying(m, n, k, alpha);
  blocked_gemm(ta, tb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc, plan.ctx,
               plan.kernel);
}

// The engine routines handle the degenerate calls (empty extents, alpha ==
// 0, k == 0) before touching the kernel, so an empty plan serves them.

void Blas::symm(Side side, Uplo uplo, index_t m, index_t n, double alpha,
                const double* a, index_t lda, const double* b, index_t ldb,
                double beta, double* c, index_t ldc) {
  const index_t ka = side == Side::kLeft ? m : n;
  level3_symm(level3_config(m, n, ka, alpha), side, uplo, m, n, alpha, a, lda,
              b, ldb, beta, c, ldc);
}

void Blas::syrk(Uplo uplo, Trans trans, index_t n, index_t k, double alpha,
                const double* a, index_t lda, double beta, double* c,
                index_t ldc) {
  level3_syrk(level3_config(n, n, k, alpha), uplo, trans, n, k, alpha, a, lda,
              beta, c, ldc);
}

void Blas::syr2k(Uplo uplo, Trans trans, index_t n, index_t k, double alpha,
                 const double* a, index_t lda, const double* b, index_t ldb,
                 double beta, double* c, index_t ldc) {
  level3_syr2k(level3_config(n, n, k, alpha), uplo, trans, n, k, alpha, a,
               lda, b, ldb, beta, c, ldc);
}

void Blas::trmm(Side side, Uplo uplo, Trans trans, index_t m, index_t n,
                double alpha, const double* a, index_t lda, double* b,
                index_t ldb) {
  const index_t ka = side == Side::kLeft ? m : n;
  level3_trmm(level3_config(m, n, ka, alpha), side, uplo, trans, m, n, alpha,
              a, lda, b, ldb);
}

void Blas::trsm(Side side, Uplo uplo, Trans trans, index_t m, index_t n,
                double alpha, const double* a, index_t lda, double* b,
                index_t ldb) {
  const index_t ka = side == Side::kLeft ? m : n;
  level3_trsm(level3_config(m, n, ka, alpha), side, uplo, trans, m, n, alpha,
              a, lda, b, ldb);
}

}  // namespace augem::blas
