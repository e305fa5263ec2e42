// The Table 6 routines (SYMM/SYRK/SYR2K/TRMM/TRSM/GER) as every library
// runs them — the shared Level-3 engine on the library's own block kernel
// (GER on its AXPY) — checked against the reference implementations across
// every operand variant (Side × Uplo × Trans), including RuntimeBlas.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "../common/libraries.hpp"
#include "blas/reference.hpp"
#include "support/rng.hpp"

namespace augem::blas {
namespace {

constexpr Side kSides[] = {Side::kLeft, Side::kRight};
constexpr Uplo kUplos[] = {Uplo::kLower, Uplo::kUpper};
constexpr Trans kTranses[] = {Trans::kNo, Trans::kYes};

class Level3 : public augem::testing::LibraryTest {
 protected:
  Rng rng_{31};
};

TEST_P(Level3, GerMatchesReference) {
  const index_t m = 150, n = 70, lda = m + 1;
  std::vector<double> x(static_cast<std::size_t>(m)),
      y(static_cast<std::size_t>(n)), a(static_cast<std::size_t>(lda * n));
  rng_.fill(x);
  rng_.fill(y);
  rng_.fill(a);
  std::vector<double> a_ref = a;
  lib_->ger(m, n, 1.5, x.data(), y.data(), a.data(), lda);
  ref::ger(m, n, 1.5, x.data(), y.data(), a_ref.data(), lda);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_NEAR(a[i], a_ref[i], 1e-12);
}

TEST_P(Level3, SymmMatchesReference) {
  // m > the default block (128) exercises more than one block.
  const index_t m = 150, n = 40;
  for (Side side : kSides) {
    for (Uplo uplo : kUplos) {
      const index_t ka = side == Side::kLeft ? m : n;
      std::vector<double> a(static_cast<std::size_t>(ka * ka)),
          b(static_cast<std::size_t>(m * n)), c(static_cast<std::size_t>(m * n));
      rng_.fill(a);
      rng_.fill(b);
      rng_.fill(c);
      std::vector<double> c_ref = c;
      lib_->symm(side, uplo, m, n, 1.25, a.data(), ka, b.data(), m, 0.5,
                 c.data(), m);
      ref::symm(side, uplo, m, n, 1.25, a.data(), ka, b.data(), m, 0.5,
                c_ref.data(), m);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_NEAR(c[i], c_ref[i], 1e-10)
            << i << " side=" << static_cast<int>(side)
            << " uplo=" << static_cast<int>(uplo);
    }
  }
}

TEST_P(Level3, SyrkMatchesReferenceAndPreservesOppositeTriangle) {
  const index_t n = 150, k = 33;
  for (Uplo uplo : kUplos) {
    for (Trans trans : kTranses) {
      const index_t lda = trans == Trans::kNo ? n : k;
      std::vector<double> a(static_cast<std::size_t>(n * k)),
          c(static_cast<std::size_t>(n * n));
      rng_.fill(a);
      rng_.fill(c);
      std::vector<double> c_ref = c;
      lib_->syrk(uplo, trans, n, k, 2.0, a.data(), lda, 0.75, c.data(), n);
      ref::syrk(uplo, trans, n, k, 2.0, a.data(), lda, 0.75, c_ref.data(), n);
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < n; ++i)
          ASSERT_NEAR(at(c.data(), n, i, j), at(c_ref.data(), n, i, j), 1e-10)
              << i << "," << j << " uplo=" << static_cast<int>(uplo)
              << " trans=" << static_cast<int>(trans);
    }
  }
}

TEST_P(Level3, Syr2kMatchesReference) {
  const index_t n = 140, k = 20;
  for (Uplo uplo : kUplos) {
    for (Trans trans : kTranses) {
      const index_t ld = trans == Trans::kNo ? n : k;
      std::vector<double> a(static_cast<std::size_t>(n * k)),
          b(static_cast<std::size_t>(n * k)), c(static_cast<std::size_t>(n * n));
      rng_.fill(a);
      rng_.fill(b);
      rng_.fill(c);
      std::vector<double> c_ref = c;
      lib_->syr2k(uplo, trans, n, k, 1.5, a.data(), ld, b.data(), ld, 0.25,
                  c.data(), n);
      ref::syr2k(uplo, trans, n, k, 1.5, a.data(), ld, b.data(), ld, 0.25,
                 c_ref.data(), n);
      for (std::size_t i = 0; i < c.size(); ++i)
        ASSERT_NEAR(c[i], c_ref[i], 1e-10)
            << i << " uplo=" << static_cast<int>(uplo)
            << " trans=" << static_cast<int>(trans);
    }
  }
}

TEST_P(Level3, TrmmMatchesReferenceAllVariants) {
  const index_t m = 150, n = 30;
  for (Side side : kSides) {
    for (Uplo uplo : kUplos) {
      for (Trans trans : kTranses) {
        const index_t ka = side == Side::kLeft ? m : n;
        std::vector<double> a(static_cast<std::size_t>(ka * ka)),
            b(static_cast<std::size_t>(m * n));
        rng_.fill(a);
        rng_.fill(b);
        std::vector<double> b_ref = b;
        lib_->trmm(side, uplo, trans, m, n, 1.25, a.data(), ka, b.data(), m);
        ref::trmm(side, uplo, trans, m, n, 1.25, a.data(), ka, b_ref.data(),
                  m);
        for (std::size_t i = 0; i < b.size(); ++i)
          ASSERT_NEAR(b[i], b_ref[i], 1e-9)
              << i << " side=" << static_cast<int>(side)
              << " uplo=" << static_cast<int>(uplo)
              << " trans=" << static_cast<int>(trans);
      }
    }
  }
}

TEST_P(Level3, TrsmMatchesReferenceAllVariants) {
  const index_t m = 150, n = 30;
  for (Side side : kSides) {
    for (Uplo uplo : kUplos) {
      for (Trans trans : kTranses) {
        const index_t ka = side == Side::kLeft ? m : n;
        std::vector<double> a(static_cast<std::size_t>(ka * ka)),
            b(static_cast<std::size_t>(m * n));
        rng_.fill(a);
        for (index_t i = 0; i < ka; ++i)
          at(a.data(), ka, i, i) = 3.0 + i % 5;  // well-posed
        rng_.fill(b);
        std::vector<double> b_ref = b;
        lib_->trsm(side, uplo, trans, m, n, 0.75, a.data(), ka, b.data(), m);
        ref::trsm(side, uplo, trans, m, n, 0.75, a.data(), ka, b_ref.data(),
                  m);
        for (std::size_t i = 0; i < b.size(); ++i)
          ASSERT_NEAR(b[i], b_ref[i], 1e-8)
              << i << " side=" << static_cast<int>(side)
              << " uplo=" << static_cast<int>(uplo)
              << " trans=" << static_cast<int>(trans);
      }
    }
  }
}

TEST_P(Level3, SmallSizesBelowOneBlock) {
  const index_t m = 9, n = 5;
  std::vector<double> l(static_cast<std::size_t>(m * m)),
      b(static_cast<std::size_t>(m * n));
  rng_.fill(l);
  for (index_t i = 0; i < m; ++i) at(l.data(), m, i, i) = 2.0;
  rng_.fill(b);
  std::vector<double> b_ref = b;
  lib_->trmm(Side::kLeft, Uplo::kLower, Trans::kNo, m, n, 1.0, l.data(), m,
             b.data(), m);
  ref::trmm(Side::kLeft, Uplo::kLower, Trans::kNo, m, n, 1.0, l.data(), m,
            b_ref.data(), m);
  for (std::size_t i = 0; i < b.size(); ++i) ASSERT_NEAR(b[i], b_ref[i], 1e-11);
}

TEST_P(Level3, TinyDecompositionBlockCrossesEveryBoundary) {
  // set_level3_block(8) forces multi-block decompositions at small sizes:
  // every diagonal/off-diagonal/partial-block path runs within one test.
  lib_->set_level3_block(8);
  const index_t m = 37, n = 21;
  for (Uplo uplo : kUplos) {
    std::vector<double> a(static_cast<std::size_t>(m * m)),
        b(static_cast<std::size_t>(m * n));
    rng_.fill(a);
    for (index_t i = 0; i < m; ++i) at(a.data(), m, i, i) = 2.5 + i % 3;
    rng_.fill(b);
    std::vector<double> b_ref = b;
    lib_->trsm(Side::kLeft, uplo, Trans::kYes, m, n, 1.5, a.data(), m,
               b.data(), m);
    ref::trsm(Side::kLeft, uplo, Trans::kYes, m, n, 1.5, a.data(), m,
              b_ref.data(), m);
    for (std::size_t i = 0; i < b.size(); ++i)
      ASSERT_NEAR(b[i], b_ref[i], 1e-9) << i;

    std::vector<double> c(static_cast<std::size_t>(m * m));
    rng_.fill(c);
    std::vector<double> c_ref = c;
    lib_->syrk(uplo, Trans::kYes, m, n, 1.25, b.data(), n, 0.5, c.data(), m);
    ref::syrk(uplo, Trans::kYes, m, n, 1.25, b.data(), n, 0.5, c_ref.data(),
              m);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], c_ref[i], 1e-9) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, Level3,
                         ::testing::Values("refblas", "vendorsim", "gotosim",
                                           "atlsim", "runtime"));

}  // namespace
}  // namespace augem::blas
