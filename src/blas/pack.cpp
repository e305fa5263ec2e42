#include "blas/pack.hpp"

#include <algorithm>

namespace augem::blas {

void pack_a_block(Trans ta, const double* a, index_t lda, index_t i0,
                  index_t k0, index_t mc, index_t kc, double alpha,
                  double* pa) {
  if (ta == Trans::kNo) {
    // Source columns are contiguous: copy column-by-column.
    for (index_t l = 0; l < kc; ++l) {
      const double* src = &at(a, lda, i0, k0 + l);
      double* dst = pa + l * mc;
      for (index_t i = 0; i < mc; ++i) dst[i] = alpha * src[i];
    }
  } else {
    for (index_t l = 0; l < kc; ++l) {
      double* dst = pa + l * mc;
      for (index_t i = 0; i < mc; ++i)
        dst[i] = alpha * at(a, lda, k0 + l, i0 + i);
    }
  }
}

void pack_b_block(Trans tb, const double* b, index_t ldb, index_t k0,
                  index_t j0, index_t kc, index_t nc, double* pb) {
  if (tb == Trans::kNo) {
    // Source and packed columns are both contiguous: one copy per column.
    for (index_t j = 0; j < nc; ++j)
      std::copy_n(&at(b, ldb, k0, j0 + j), kc, pb + j * kc);
    return;
  }
  // op(B)(l, j) = B(j, l): the source runs along j, the packed block along
  // l. Strips of 8 k-rows fill each 64-byte packed line in one visit
  // instead of revisiting it once per row.
  constexpr index_t kStrip = 8;
  for (index_t l0 = 0; l0 < kc; l0 += kStrip) {
    const index_t l1 = std::min(kc, l0 + kStrip);
    for (index_t j = 0; j < nc; ++j) {
      double* dst = pb + j * kc;
      for (index_t l = l0; l < l1; ++l) dst[l] = at(b, ldb, j0 + j, k0 + l);
    }
  }
}

}  // namespace augem::blas
