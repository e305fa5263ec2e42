// Every comparator library must agree with the reference BLAS on randomized
// problems — parameterized across all libraries and the primitive routines.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../common/libraries.hpp"
#include "blas/reference.hpp"
#include "support/rng.hpp"

namespace augem::blas {
namespace {

class Baselines : public augem::testing::LibraryTest {};

TEST_P(Baselines, NameIsStable) { EXPECT_EQ(lib_->name(), GetParam()); }

TEST_P(Baselines, GemmMatchesReference) {
  Rng rng(21);
  for (auto [m, n, k] :
       {std::tuple<index_t, index_t, index_t>{64, 64, 64},
        {33, 17, 29},
        {1, 130, 7},
        {130, 1, 250},
        {5, 5, 512}}) {
    const index_t lda = m + 1, ldb = k + 2, ldc = m + 3;
    std::vector<double> a(static_cast<std::size_t>(lda * k));
    std::vector<double> b(static_cast<std::size_t>(ldb * n));
    std::vector<double> c(static_cast<std::size_t>(ldc * n));
    rng.fill(a);
    rng.fill(b);
    rng.fill(c);
    std::vector<double> c_ref = c;
    lib_->gemm(Trans::kNo, Trans::kNo, m, n, k, 1.25, a.data(), lda, b.data(),
               ldb, 0.5, c.data(), ldc);
    ref::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.25, a.data(), lda, b.data(),
              ldb, 0.5, c_ref.data(), ldc);
    const double tol = 1e-11 * static_cast<double>(k);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], c_ref[i], tol) << GetParam() << " (" << m << "x" << n
                                       << "x" << k << ") at " << i;
  }
}

TEST_P(Baselines, GemmTransposedMatchesReference) {
  Rng rng(22);
  const index_t m = 40, n = 24, k = 32;
  std::vector<double> a(static_cast<std::size_t>((k + 1) * m));
  std::vector<double> b(static_cast<std::size_t>((n + 1) * k));
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  rng.fill(a);
  rng.fill(b);
  std::vector<double> c_ref = c;
  lib_->gemm(Trans::kYes, Trans::kYes, m, n, k, 1.0, a.data(), k + 1, b.data(),
             n + 1, 0.0, c.data(), m);
  ref::gemm(Trans::kYes, Trans::kYes, m, n, k, 1.0, a.data(), k + 1, b.data(),
            n + 1, 0.0, c_ref.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], 1e-10) << i;
}

TEST_P(Baselines, GemvMatchesReference) {
  Rng rng(23);
  for (const index_t m : {1, 7, 64, 201}) {
    const index_t n = 33, lda = m + 2;
    std::vector<double> a(static_cast<std::size_t>(lda * n)), x(n), y(m);
    rng.fill(a);
    rng.fill(x);
    rng.fill(y);
    std::vector<double> y_ref = y;
    lib_->gemv(m, n, 1.5, a.data(), lda, x.data(), 0.25, y.data());
    ref::gemv(m, n, 1.5, a.data(), lda, x.data(), 0.25, y_ref.data());
    for (index_t i = 0; i < m; ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-11) << i;
  }
}

TEST_P(Baselines, AxpyDotMatchReference) {
  Rng rng(24);
  for (const index_t n : {0, 1, 3, 8, 100, 1001}) {
    std::vector<double> x(static_cast<std::size_t>(n)),
        y(static_cast<std::size_t>(n));
    rng.fill(x);
    rng.fill(y);
    std::vector<double> y_ref = y;
    lib_->axpy(n, -1.75, x.data(), y.data());
    ref::axpy(n, -1.75, x.data(), y_ref.data());
    for (index_t i = 0; i < n; ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-13);
    EXPECT_NEAR(lib_->dot(n, x.data(), y.data()),
                ref::dot(n, x.data(), y.data()),
                1e-12 * static_cast<double>(n ? n : 1));
  }
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, Baselines,
                         ::testing::Values("refblas", "gotosim", "atlsim",
                                           "vendorsim"));

}  // namespace
}  // namespace augem::blas
