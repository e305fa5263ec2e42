#pragma once
// The Level-3 engine (paper §4, Table 6): SYMM / SYRK / SYR2K / TRMM /
// TRSM decomposed onto ONE block kernel through the prepacked-panel driver
// (blas/driver.hpp). Every blas::Blas runs its Level-3 routines here, on
// the block kernel of its gemm_plan (blas/blas.cpp).
//
// The engine packs each shared operand exactly once into the kernel's
// panel layout and reuses the packed chunks across the whole
// decomposition:
//   * SYMM packs B (left) / the expanded symmetric A (right) once; every
//     block row of C consumes the same chunks.
//   * SYRK/SYR2K pack op(A)^T (and op(B)^T) once; the diagonal-block
//     temporary and the off-diagonal panel update share each chunk.
//   * TRMM packs the dense operand once (reading B before the in-place
//     overwrite starts) and masks the triangle in the A-packer, so it
//     multiplies the whole masked operand — about twice the triangle's
//     flops.
//   * TRSM packs each solved block of X once, immediately after its
//     diagonal solve; every later trailing update re-reads those chunks.
// Reuse is measured (Level3Stats) so tests can assert the sharing actually
// happens. Serial and threaded contexts produce bit-identical results: the
// tile decomposition is fixed at pack time, independent of thread count.

#include "blas/driver.hpp"
#include "blas/types.hpp"

namespace augem::blas {

/// How a Level-3 engine call runs: the block kernel, its threading context
/// and the decomposition block (diagonal solves / C column blocks).
struct Level3Config {
  GemmContext ctx;
  BlockKernel kernel;
  index_t block = 128;            ///< NB: triangular/diagonal block size
  Level3Stats* stats = nullptr;   ///< optional packed-panel reuse counters
};

/// C = alpha*A_sym*B + beta*C (kLeft) or alpha*B*A_sym + beta*C (kRight).
void level3_symm(const Level3Config& cfg, Side side, Uplo uplo, index_t m,
                 index_t n, double alpha, const double* a, index_t lda,
                 const double* b, index_t ldb, double beta, double* c,
                 index_t ldc);

/// C(triangle uplo) = alpha*op(A)*op(A)^T + beta*C.
void level3_syrk(const Level3Config& cfg, Uplo uplo, Trans trans, index_t n,
                 index_t k, double alpha, const double* a, index_t lda,
                 double beta, double* c, index_t ldc);

/// C(triangle uplo) = alpha*(op(A)*op(B)^T + op(B)*op(A)^T) + beta*C.
void level3_syr2k(const Level3Config& cfg, Uplo uplo, Trans trans, index_t n,
                  index_t k, double alpha, const double* a, index_t lda,
                  const double* b, index_t ldb, double beta, double* c,
                  index_t ldc);

/// B = alpha*op(A)*B (kLeft) or alpha*B*op(A) (kRight), A triangular.
void level3_trmm(const Level3Config& cfg, Side side, Uplo uplo, Trans trans,
                 index_t m, index_t n, double alpha, const double* a,
                 index_t lda, double* b, index_t ldb);

/// Solves op(A)*X = alpha*B (kLeft) or X*op(A) = alpha*B (kRight) in B.
/// Zero/non-finite pivots throw augem::Error (docs/correctness.md).
void level3_trsm(const Level3Config& cfg, Side side, Uplo uplo, Trans trans,
                 index_t m, index_t n, double alpha, const double* a,
                 index_t lda, double* b, index_t ldb);

}  // namespace augem::blas
