#pragma once
// Panel packing for the Goto-style blocked GEMM driver (paper §4.1 builds
// its kernel on "a general block-partitioned algorithm originally developed
// by Goto").
//
// The generated (and baseline) block kernels consume:
//   * packed A: an mc×kc block stored column-major with leading dimension
//     exactly mc — element (i, l) at pa[l*mc + i]. Alpha is folded in here.
//   * packed B: a kc×nc block stored column-major with leading dimension
//     exactly kc — element (l, j) at pb[j*kc + l], the paper's Fig. 12
//     (BLayout::kColMajor). Every column is one contiguous kc-deep sliver,
//     so each register tile streams its nr columns in order whatever nr
//     is, and a column prefix of a block is itself a valid kernel operand.
//
// Both packers read through op(X), so the same kernels serve the
// transposed cases SYRK/SYR2K need.

#include "blas/types.hpp"

namespace augem::blas {

/// pa[l*mc + i] = alpha * op(A)(i0+i, k0+l) for i<mc, l<kc.
void pack_a_block(Trans ta, const double* a, index_t lda, index_t i0,
                  index_t k0, index_t mc, index_t kc, double alpha,
                  double* pa);

/// pb[j*kc + l] = op(B)(k0+l, j0+j) for l<kc, j<nc.
void pack_b_block(Trans tb, const double* b, index_t ldb, index_t k0,
                  index_t j0, index_t kc, index_t nc, double* pb);

}  // namespace augem::blas
