#pragma once
// The BLAS library interface every implementation in this repository
// satisfies: the AUGEM library over generated kernels
// (runtime/runtime_blas.hpp), the three simulated comparators standing in
// for the paper's MKL/ACML, ATLAS and GotoBLAS, and the scalar refblas
// (DESIGN.md §2).
//
// A library supplies a GEMM *block kernel* with its threading context
// (gemm_plan) and the Level-1/2 primitives (GEMV, AXPY, DOT, SCAL). GEMM
// and the five Level-3 routines of the paper's Table 6 (SYMM, SYRK, SYR2K,
// TRMM, TRSM) are implemented once, here: GEMM through the blocked driver
// (blas/driver.hpp), the Level-3 routines through the prepacked-panel
// engine (blas/level3.hpp). That is the structure of the paper's §4
// (citing Goto & van de Geijn [13]): the routine algorithm is shared and
// only the kernel differs. GER and GEMV^T cast onto AXPY and DOT.

#include <memory>
#include <string>

#include "blas/level3.hpp"
#include "blas/types.hpp"

namespace augem::blas {

class Blas {
 public:
  virtual ~Blas() = default;

  /// Implementation name shown in benchmark output ("AUGEM", "vendorsim"…).
  virtual std::string name() const = 0;

  // ---- GEMM and the Level-1/2 primitives -----------------------------------

  /// C(m×n) = alpha * op(A) * op(B) + beta * C: the blocked driver on the
  /// library's gemm_plan. netlib semantics: beta == 0 overwrites; alpha ==
  /// 0 or k == 0 is the beta update alone, with A and B unread.
  void gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k, double alpha,
            const double* a, index_t lda, const double* b, index_t ldb,
            double beta, double* c, index_t ldc);

  /// Batch-strided GEMM with optional fused epilogue, over `batch`
  /// same-shaped instances:
  ///
  ///   C_p = relu?( alpha * A_p * B_p + beta * C_p + bias_p )
  ///
  /// where X_p = X + p * stride_x (no transposition; all instances share
  /// m, n, k and the leading dimensions). `bias` is null for no bias add,
  /// else instance p adds bias[p*stride_bias + i] to every element of row
  /// i (stride_bias 0 shares one vector across the batch). `relu` clamps
  /// at zero after everything else, with max-semantics: a NaN result
  /// clamps to 0. beta == 0 overwrites (beta_scale semantics).
  ///
  /// The default implementation is a straightforward reference loop — it
  /// doubles as the oracle the fuzz harness checks fast paths against.
  /// RuntimeBlas overrides it with the amortized-dispatch fast path.
  virtual void gemm_batch_strided(index_t m, index_t n, index_t k,
                                  double alpha, const double* a, index_t lda,
                                  index_t stride_a, const double* b,
                                  index_t ldb, index_t stride_b, double beta,
                                  double* c, index_t ldc, index_t stride_c,
                                  index_t batch,
                                  const double* bias = nullptr,
                                  index_t stride_bias = 0, bool relu = false);

  /// y(m) = alpha * A(m×n) * x + beta * y.
  virtual void gemv(index_t m, index_t n, double alpha, const double* a,
                    index_t lda, const double* x, double beta, double* y) = 0;

  /// y += alpha * x.
  virtual void axpy(index_t n, double alpha, const double* x, double* y) = 0;

  /// dot(x, y).
  virtual double dot(index_t n, const double* x, const double* y) = 0;

  /// x *= alpha (covered by the svSCAL extension template in the AUGEM
  /// implementation).
  virtual void scal(index_t n, double alpha, double* x) = 0;

  /// y(n) = alpha * A^T(n×m... i.e. A is m×n, op=transpose) * x(m) + beta*y.
  /// Default: one DOT per column of A — the paper's "Level-2 routines
  /// invoke optimized Level-1 kernels" structure (§4).
  virtual void gemv_t(index_t m, index_t n, double alpha, const double* a,
                      index_t lda, const double* x, double beta, double* y);

  // ---- Table 6 routines ----------------------------------------------------

  /// A(m×n) += alpha * x * y^T — one AXPY per column.
  virtual void ger(index_t m, index_t n, double alpha, const double* x,
                   const double* y, double* a, index_t lda);

  // The five Level-3 routines run the prepacked-panel engine
  // (blas/level3.hpp) on one gemm_plan for the routine's bulk GEMM shape,
  // with the decomposition block set by set_level3_block. A call that
  // multiplies nothing (empty extents, alpha == 0, k == 0) makes no plan.

  /// C = alpha*A_sym*B + beta*C (kLeft, A m×m) or alpha*B*A_sym + beta*C
  /// (kRight, A n×n), A symmetric, stored in triangle `uplo`. netlib
  /// semantics: beta == 0 overwrites, alpha == 0 reduces to the beta
  /// update with A and B unread.
  void symm(Side side, Uplo uplo, index_t m, index_t n, double alpha,
            const double* a, index_t lda, const double* b, index_t ldb,
            double beta, double* c, index_t ldc);

  /// C(n×n, triangle `uplo`) = alpha*op(A)*op(A)^T + beta*C; op(A) is n×k.
  void syrk(Uplo uplo, Trans trans, index_t n, index_t k, double alpha,
            const double* a, index_t lda, double beta, double* c, index_t ldc);

  /// C(n×n, triangle `uplo`) = alpha*(op(A)*op(B)^T + op(B)*op(A)^T) +
  /// beta*C.
  void syr2k(Uplo uplo, Trans trans, index_t n, index_t k, double alpha,
             const double* a, index_t lda, const double* b, index_t ldb,
             double beta, double* c, index_t ldc);

  /// B = alpha*op(A)*B (kLeft) or alpha*B*op(A) (kRight), A triangular
  /// (non-unit diagonal) stored in triangle `uplo`. alpha == 0 zeroes B
  /// without reading A (netlib dtrmm).
  void trmm(Side side, Uplo uplo, Trans trans, index_t m, index_t n,
            double alpha, const double* a, index_t lda, double* b,
            index_t ldb);

  /// Solves op(A)*X = alpha*B (kLeft) or X*op(A) = alpha*B (kRight) in
  /// place in B; A triangular, non-unit diagonal, triangle `uplo`. The
  /// trailing updates run on the block kernel; the diagonal solve is plain
  /// scalar code, reproducing the paper's observed TRSM weakness (§5: "the
  /// first step cannot be simply derived from the GEMM kernel"). Zero and
  /// non-finite pivots throw (docs/correctness.md).
  void trsm(Side side, Uplo uplo, Trans trans, index_t m, index_t n,
            double alpha, const double* a, index_t lda, double* b,
            index_t ldb);

  /// Overrides the Level-3 decomposition block (default 128). A testing and
  /// tuning hook: small blocks force multi-block decompositions at fuzz-
  /// sized problems, exercising every block-boundary path.
  void set_level3_block(index_t nb) { l3_block_ = nb < 1 ? 1 : nb; }

 protected:
  /// The block kernel and threading context for an (m, n, k) GEMM: a whole
  /// gemm call, or the bulk panel shape of a Level-3 routine. The kernel
  /// owns whatever keeps its code mapped, so the plan stays runnable for
  /// the whole call.
  virtual GemmPlan gemm_plan(index_t m, index_t n, index_t k) = 0;

 private:
  /// gemm_plan(m, n, k), or an empty plan when the call multiplies nothing.
  GemmPlan plan_if_multiplying(index_t m, index_t n, index_t k, double alpha);

  /// The Level-3 engine configuration over plan_if_multiplying.
  Level3Config level3_config(index_t m, index_t n, index_t k, double alpha);

  index_t l3_block_ = 128;
};

}  // namespace augem::blas
