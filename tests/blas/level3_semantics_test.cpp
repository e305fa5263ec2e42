// Regression tests for three Level-3 bugs (see docs/correctness.md):
//
//   * alpha == 0 in SYMM/SYRK/SYR2K used to run the full decomposition and
//     read A/B — netlib reduces the call to the beta update with the matrix
//     operands unread. Poisoned operands must not leak NaN into C.
//   * Degenerate extents used to blow up before the quick return: TRMM
//     computed `(m - 1) / NB` block counts at m == 0 and sized scratch from
//     a negative n. All five routines must be exact no-ops for m/n <= 0.
//   * TRSM's singularity check was `piv != 0.0`, which a NaN pivot passes
//     (NaN != 0.0 is true) — the solve then silently filled B with NaN.
//     Non-finite pivots must throw like zero pivots do.
//
// Each case runs against every library — the Level-3 routines are
// implemented once in blas::Blas, on each library's block kernel —
// including RuntimeBlas, and against the scalar reference.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "../common/libraries.hpp"
#include "blas/reference.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace augem::blas {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();

class Level3Semantics : public augem::testing::LibraryTest {
 protected:
  Rng rng_{404};
};

// ---- alpha == 0 never reads the matrix operands ---------------------------

TEST_P(Level3Semantics, SymmAlphaZeroIsBetaUpdateOnly) {
  const index_t m = 10, n = 6;
  std::vector<double> a(static_cast<std::size_t>(m * m), kNaN),
      b(static_cast<std::size_t>(m * n), kNaN),
      c(static_cast<std::size_t>(m * n));
  rng_.fill(c);
  const std::vector<double> c0 = c;
  lib_->symm(Side::kLeft, Uplo::kLower, m, n, 0.0, a.data(), m, b.data(), m,
             -2.0, c.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_DOUBLE_EQ(c[i], -2.0 * c0[i]) << GetParam() << " C[" << i << "]";
}

TEST_P(Level3Semantics, SyrkAlphaZeroAndKZeroAreBetaUpdateOnly) {
  const index_t n = 9;
  std::vector<double> a(static_cast<std::size_t>(n * 4), kNaN),
      c(static_cast<std::size_t>(n * n));
  rng_.fill(c);
  std::vector<double> c0 = c;
  lib_->syrk(Uplo::kUpper, Trans::kNo, n, 4, 0.0, a.data(), n, 0.5, c.data(),
             n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double want = i <= j ? 0.5 * at(c0.data(), n, i, j)
                                 : at(c0.data(), n, i, j);
      ASSERT_DOUBLE_EQ(at(c.data(), n, i, j), want)
          << GetParam() << " " << i << "," << j;
    }
  // k == 0: same reduction (and the opposite triangle stays untouched).
  c = c0;
  lib_->syrk(Uplo::kLower, Trans::kYes, n, 0, 3.0, a.data(), 1, 2.0, c.data(),
             n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double want = i >= j ? 2.0 * at(c0.data(), n, i, j)
                                 : at(c0.data(), n, i, j);
      ASSERT_DOUBLE_EQ(at(c.data(), n, i, j), want)
          << GetParam() << " k0 " << i << "," << j;
    }
}

TEST_P(Level3Semantics, Syr2kAlphaZeroIsBetaUpdateOnly) {
  const index_t n = 8, k = 3;
  std::vector<double> a(static_cast<std::size_t>(n * k), kNaN),
      b(static_cast<std::size_t>(n * k), kNaN),
      c(static_cast<std::size_t>(n * n));
  rng_.fill(c);
  const std::vector<double> c0 = c;
  lib_->syr2k(Uplo::kLower, Trans::kNo, n, k, 0.0, a.data(), n, b.data(), n,
              1.5, c.data(), n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) {
      const double want = i >= j ? 1.5 * at(c0.data(), n, i, j)
                                 : at(c0.data(), n, i, j);
      ASSERT_DOUBLE_EQ(at(c.data(), n, i, j), want)
          << GetParam() << " " << i << "," << j;
    }
}

TEST_P(Level3Semantics, SyrkBetaZeroOverwritesNaNInStoredTriangle) {
  const index_t n = 7, k = 4;
  std::vector<double> a(static_cast<std::size_t>(n * k)),
      c(static_cast<std::size_t>(n * n), kNaN);
  rng_.fill(a);
  std::vector<double> want(static_cast<std::size_t>(n * n), kNaN);
  lib_->syrk(Uplo::kLower, Trans::kNo, n, k, 1.0, a.data(), n, 0.0, c.data(),
             n);
  ref::syrk(Uplo::kLower, Trans::kNo, n, k, 1.0, a.data(), n, 0.0, want.data(),
            n);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) {
      ASSERT_TRUE(std::isfinite(at(c.data(), n, i, j)))
          << GetParam() << " " << i << "," << j;
      ASSERT_NEAR(at(c.data(), n, i, j), at(want.data(), n, i, j), 1e-11)
          << GetParam();
    }
}

// ---- degenerate extents are exact no-ops ----------------------------------

TEST_P(Level3Semantics, DegenerateExtentsAreNoOps) {
  // Null operand pointers prove nothing is dereferenced; before the quick
  // returns were added, trmm(m=0) underflowed its block count and negative
  // n sized scratch allocations from a negative extent.
  for (const index_t m : {index_t{0}, index_t{-1}}) {
    lib_->symm(Side::kLeft, Uplo::kLower, m, 5, 1.0, nullptr, 1, nullptr, 1,
               2.0, nullptr, 1);
    lib_->trmm(Side::kLeft, Uplo::kLower, Trans::kNo, m, 5, 1.0, nullptr, 1,
               nullptr, 1);
    lib_->trsm(Side::kLeft, Uplo::kUpper, Trans::kYes, m, 5, 1.0, nullptr, 1,
               nullptr, 1);
  }
  for (const index_t n : {index_t{0}, index_t{-3}}) {
    lib_->symm(Side::kRight, Uplo::kUpper, 4, n, 1.0, nullptr, 1, nullptr, 1,
               0.0, nullptr, 1);
    lib_->syrk(Uplo::kLower, Trans::kNo, n, 4, 1.0, nullptr, 1, 0.5, nullptr,
               1);
    lib_->syr2k(Uplo::kUpper, Trans::kYes, n, 4, 1.0, nullptr, 1, nullptr, 1,
                0.5, nullptr, 1);
    lib_->trmm(Side::kRight, Uplo::kUpper, Trans::kYes, 4, n, 1.0, nullptr, 1,
               nullptr, 1);
    lib_->trsm(Side::kRight, Uplo::kLower, Trans::kNo, 4, n, 1.0, nullptr, 1,
               nullptr, 1);
  }
  SUCCEED();  // reaching here without a crash/throw is the assertion
}

TEST_P(Level3Semantics, TrmmTrsmAlphaZeroZeroesBWithoutReadingA) {
  const index_t m = 11, n = 4;
  std::vector<double> a(static_cast<std::size_t>(m * m), kNaN),
      b(static_cast<std::size_t>(m * n), kNaN);
  lib_->trmm(Side::kLeft, Uplo::kLower, Trans::kNo, m, n, 0.0, a.data(), m,
             b.data(), m);
  for (double v : b) ASSERT_EQ(v, 0.0) << GetParam();
  std::fill(b.begin(), b.end(), kNaN);
  lib_->trsm(Side::kLeft, Uplo::kLower, Trans::kNo, m, n, 0.0, a.data(), m,
             b.data(), m);
  for (double v : b) ASSERT_EQ(v, 0.0) << GetParam();
}

// ---- TRSM singularity: non-finite pivots must not pass `piv != 0` ---------

TEST_P(Level3Semantics, TrsmRejectsNaNPivot) {
  const index_t m = 6, n = 3;
  std::vector<double> a(static_cast<std::size_t>(m * m)),
      b(static_cast<std::size_t>(m * n));
  rng_.fill(a);
  for (index_t i = 0; i < m; ++i) at(a.data(), m, i, i) = 2.0;
  at(a.data(), m, 4, 4) = kNaN;
  rng_.fill(b);
  try {
    lib_->trsm(Side::kLeft, Uplo::kLower, Trans::kNo, m, n, 1.0, a.data(), m,
               b.data(), m);
    FAIL() << GetParam() << ": NaN pivot accepted";
  } catch (const augem::Error& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite or zero pivot"),
              std::string::npos)
        << GetParam() << ": " << e.what();
  }
}

TEST_P(Level3Semantics, TrsmStillRejectsZeroPivot) {
  const index_t m = 5, n = 2;
  std::vector<double> a(static_cast<std::size_t>(m * m)),
      b(static_cast<std::size_t>(m * n));
  rng_.fill(a);
  for (index_t i = 0; i < m; ++i) at(a.data(), m, i, i) = 1.0;
  at(a.data(), m, 2, 2) = 0.0;
  rng_.fill(b);
  EXPECT_THROW(lib_->trsm(Side::kRight, Uplo::kUpper, Trans::kNo, n, m, 1.0,
                          a.data(), m, b.data(), n),
               augem::Error)
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, Level3Semantics,
                         ::testing::Values("refblas", "gotosim", "atlsim",
                                           "vendorsim", "runtime"),
                         [](const auto& info) { return info.param; });

// The scalar reference obeys the same contracts (it is the fuzz oracle).
TEST(Level3SemanticsRef, ReferenceAlphaZeroAndPivots) {
  const index_t n = 6, k = 3;
  std::vector<double> a(static_cast<std::size_t>(n * k), kNaN),
      c(static_cast<std::size_t>(n * n));
  Rng rng(405);
  rng.fill(c);
  const std::vector<double> c0 = c;
  ref::syrk(Uplo::kLower, Trans::kNo, n, k, 0.0, a.data(), n, 1.0, c.data(),
            n);
  EXPECT_EQ(c, c0);  // beta == 1, alpha == 0: bitwise no-op

  std::vector<double> t(static_cast<std::size_t>(n * n));
  rng.fill(t);
  for (index_t i = 0; i < n; ++i) at(t.data(), n, i, i) = kNaN;
  std::vector<double> b(static_cast<std::size_t>(n * 2), 1.0);
  EXPECT_THROW(ref::trsm(Side::kLeft, Uplo::kLower, Trans::kNo, n, 2, 1.0,
                         t.data(), n, b.data(), n),
               augem::Error);
  ref::trmm(Side::kRight, Uplo::kUpper, Trans::kNo, 0, -2, 1.0, nullptr, 1,
            nullptr, 1);  // degenerate extents: no-op
}

}  // namespace
}  // namespace augem::blas
