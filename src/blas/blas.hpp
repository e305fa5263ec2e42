#pragma once
// The BLAS library interface every implementation in this repository
// satisfies: the AUGEM library over generated kernels
// (runtime/runtime_blas.hpp) and the three simulated comparators standing
// in for the paper's MKL/ACML, ATLAS and GotoBLAS (DESIGN.md §2).
//
// Implementations provide the four primitive kernels the paper generates
// (GEMM, GEMV, AXPY, DOT). The six higher-level routines of the paper's
// Table 6 (SYMM, SYRK, SYR2K, TRMM, TRSM, GER) have default implementations
// here that cast their bulk computation onto those primitives — exactly the
// structure the paper's §4 describes (citing Goto & van de Geijn [13]).

#include <memory>
#include <string>

#include "blas/types.hpp"

namespace augem::blas {

class Blas {
 public:
  virtual ~Blas() = default;

  /// Implementation name shown in benchmark output ("AUGEM", "vendorsim"…).
  virtual std::string name() const = 0;

  // ---- the four generated/primitive kernels --------------------------------

  /// C(m×n) = alpha * op(A) * op(B) + beta * C.
  virtual void gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                    double alpha, const double* a, index_t lda,
                    const double* b, index_t ldb, double beta, double* c,
                    index_t ldc) = 0;

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

  // ---- Table 6 routines, cast onto the primitives --------------------------

  /// A(m×n) += alpha * x * y^T — one AXPY per column.
  virtual void ger(index_t m, index_t n, double alpha, const double* x,
                   const double* y, double* a, index_t lda);

  /// C = alpha*op-side(A_sym, B) + beta*C with A symmetric (m×m on the
  /// left, n×n on the right), stored in triangle `uplo`: the symmetric
  /// operand is expanded blockwise and the bulk runs through GEMM. netlib
  /// semantics: beta == 0 overwrites, alpha == 0 reduces to the beta
  /// update with A and B unread.
  virtual void symm(Side side, Uplo uplo, index_t m, index_t n, double alpha,
                    const double* a, index_t lda, const double* b, index_t ldb,
                    double beta, double* c, index_t ldc);

  /// C(n×n, triangle `uplo`) = alpha*op(A)*op(A)^T + beta*C — block panels
  /// through GEMM; op(A) is n×k.
  virtual void syrk(Uplo uplo, Trans trans, index_t n, index_t k, double alpha,
                    const double* a, index_t lda, double beta, double* c,
                    index_t ldc);

  /// C(n×n, triangle `uplo`) = alpha*(op(A)*op(B)^T + op(B)*op(A)^T) +
  /// beta*C — two GEMM sweeps per panel.
  virtual void syr2k(Uplo uplo, Trans trans, index_t n, index_t k,
                     double alpha, const double* a, index_t lda,
                     const double* b, index_t ldb, double beta, double* c,
                     index_t ldc);

  /// B = alpha*op(A)*B (kLeft) or alpha*B*op(A) (kRight), A triangular
  /// (non-unit diagonal) stored in triangle `uplo`: block panels via GEMM
  /// plus small dense-expanded triangular block multiplies. alpha == 0
  /// zeroes B without reading A (netlib dtrmm).
  virtual void trmm(Side side, Uplo uplo, Trans trans, index_t m, index_t n,
                    double alpha, const double* a, index_t lda, double* b,
                    index_t ldb);

  /// Solves op(A)*X = alpha*B (kLeft) or X*op(A) = alpha*B (kRight) in
  /// place in B; A triangular, non-unit diagonal, triangle `uplo`. Blocked
  /// substitution: the panel update runs through GEMM; the diagonal solve
  /// is plain scalar code — reproducing the paper's observed TRSM weakness
  /// (§5: "the first step cannot be simply derived from the GEMM kernel").
  /// Zero and non-finite pivots throw (docs/correctness.md).
  virtual void trsm(Side side, Uplo uplo, Trans trans, index_t m, index_t n,
                    double alpha, const double* a, index_t lda, double* b,
                    index_t ldb);

  /// Overrides the Level-3 decomposition block (default 128). A testing and
  /// tuning hook: small blocks force multi-block decompositions at fuzz-
  /// sized problems, exercising every block-boundary path.
  void set_level3_block(index_t nb) { l3_block_ = nb < 1 ? 1 : nb; }

 protected:
  /// Default block size of the Level-3 algorithms.
  static constexpr index_t kL3Block = 128;

  index_t level3_block() const { return l3_block_; }

 private:
  index_t l3_block_ = kL3Block;
};

}  // namespace augem::blas
