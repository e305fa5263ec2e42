// Transposed GEMV: the default implementation casts each output element
// onto one Level-1 DOT (paper §4: "most Level-2 routines invoke optimized
// Level-1 kernels") — checked for every library against the reference.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../common/libraries.hpp"
#include "blas/reference.hpp"
#include "support/rng.hpp"

namespace augem::blas {
namespace {

class GemvT : public augem::testing::LibraryTest {
 protected:
  Rng rng_{51};
};

TEST_P(GemvT, MatchesReference) {
  for (auto [m, n] : {std::pair<index_t, index_t>{64, 32},
                            {1, 17},
                            {200, 1},
                            {33, 77}}) {
    const index_t lda = m + 2;
    std::vector<double> a(static_cast<std::size_t>(lda * n)),
        x(static_cast<std::size_t>(m)), y(static_cast<std::size_t>(n));
    rng_.fill(a);
    rng_.fill(x);
    rng_.fill(y);
    std::vector<double> y_ref = y;
    lib_->gemv_t(m, n, 1.5, a.data(), lda, x.data(), -0.5, y.data());
    ref::gemv_t(m, n, 1.5, a.data(), lda, x.data(), -0.5, y_ref.data());
    for (index_t j = 0; j < n; ++j)
      ASSERT_NEAR(y[j], y_ref[j], 1e-11 * static_cast<double>(m))
          << GetParam() << " " << m << "x" << n << " at " << j;
  }
}

TEST_P(GemvT, TransposeIdentityAgainstGemv) {
  // y1 = A^T x computed by gemv_t must equal y2 from an explicit transpose.
  const index_t m = 48, n = 20;
  std::vector<double> a(static_cast<std::size_t>(m * n)),
      atr(static_cast<std::size_t>(n * m)), x(static_cast<std::size_t>(m));
  rng_.fill(a);
  rng_.fill(x);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i)
      at(atr.data(), n, j, i) = at(a.data(), m, i, j);
  std::vector<double> y1(static_cast<std::size_t>(n), 0.0), y2 = y1;
  lib_->gemv_t(m, n, 1.0, a.data(), m, x.data(), 0.0, y1.data());
  lib_->gemv(n, m, 1.0, atr.data(), n, x.data(), 0.0, y2.data());
  for (index_t j = 0; j < n; ++j) ASSERT_NEAR(y1[j], y2[j], 1e-11);
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, GemvT,
                         ::testing::Values("refblas", "gotosim", "atlsim",
                                           "vendorsim"));

}  // namespace
}  // namespace augem::blas
