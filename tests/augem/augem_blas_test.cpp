// The AUGEM BLAS on the untuned default kernels — RuntimeBlas over a
// memory-only runtime without the tuner, the configuration of the figure
// benches' AUGEM series — must match the reference implementation on every
// routine the evaluation uses.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "blas/reference.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/rng.hpp"

namespace augem {
namespace {

using blas::at;
using blas::index_t;
using blas::Side;
using blas::Trans;
using blas::Uplo;

class UntunedRuntimeBlas : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runtime::RuntimeConfig config;
    config.use_persistent = false;
    config.tune_on_miss = false;
    rt_ = std::make_unique<runtime::KernelRuntime>(config);
    lib_ = runtime::make_runtime_blas(*rt_);
  }
  static void TearDownTestSuite() {
    lib_.reset();
    rt_.reset();
  }
  static inline std::unique_ptr<runtime::KernelRuntime> rt_;
  static inline std::unique_ptr<blas::Blas> lib_;
  Rng rng_{41};
};

TEST_F(UntunedRuntimeBlas, Name) { EXPECT_EQ(lib_->name(), "AUGEM-runtime"); }

TEST_F(UntunedRuntimeBlas, GemmAcrossShapes) {
  for (auto [m, n, k] :
       {std::tuple<index_t, index_t, index_t>{64, 64, 64},
        {256, 96, 256},
        {33, 17, 300},     // awkward edges, multiple k blocks
        {8, 4, 8},
        {129, 65, 257},    // off-by-one everywhere
        {1, 1, 1}}) {
    const index_t lda = m + 1, ldb = k + 1, ldc = m + 2;
    std::vector<double> a(static_cast<std::size_t>(lda * k));
    std::vector<double> b(static_cast<std::size_t>(ldb * n));
    std::vector<double> c(static_cast<std::size_t>(ldc * n));
    rng_.fill(a);
    rng_.fill(b);
    rng_.fill(c);
    std::vector<double> c_ref = c;
    lib_->gemm(Trans::kNo, Trans::kNo, m, n, k, 1.5, a.data(), lda, b.data(),
               ldb, 0.5, c.data(), ldc);
    blas::ref::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.5, a.data(), lda,
                    b.data(), ldb, 0.5, c_ref.data(), ldc);
    const double tol = 1e-11 * static_cast<double>(k);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], c_ref[i], tol)
          << "(" << m << "x" << n << "x" << k << ") at " << i;
  }
}

TEST_F(UntunedRuntimeBlas, GemmTransposed) {
  const index_t m = 48, n = 32, k = 40;
  std::vector<double> a(static_cast<std::size_t>(k * m));
  std::vector<double> b(static_cast<std::size_t>(n * k));
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  rng_.fill(a);
  rng_.fill(b);
  std::vector<double> c_ref = c;
  lib_->gemm(Trans::kYes, Trans::kYes, m, n, k, 1.0, a.data(), k, b.data(), n,
             0.0, c.data(), m);
  blas::ref::gemm(Trans::kYes, Trans::kYes, m, n, k, 1.0, a.data(), k,
                  b.data(), n, 0.0, c_ref.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], 1e-10) << i;
}

TEST_F(UntunedRuntimeBlas, GemvIncludingAlphaBeta) {
  for (const index_t m : {1, 9, 256, 1000}) {
    const index_t n = 37, lda = m + 1;
    std::vector<double> a(static_cast<std::size_t>(lda * n)), x(n), y(m);
    rng_.fill(a);
    rng_.fill(x);
    rng_.fill(y);
    std::vector<double> y_ref = y;
    lib_->gemv(m, n, 2.5, a.data(), lda, x.data(), -0.5, y.data());
    blas::ref::gemv(m, n, 2.5, a.data(), lda, x.data(), -0.5, y_ref.data());
    for (index_t i = 0; i < m; ++i)
      ASSERT_NEAR(y[i], y_ref[i], 1e-10) << m << ":" << i;
  }
}

TEST_F(UntunedRuntimeBlas, GemvNonUnitAlphaFoldsIntoX) {
  // The generated GEMV kernel computes y += A*x, so the wrapper folds a
  // non-unit alpha into a scaled copy of x; a negative alpha with beta 2
  // exercises both scalings at once.
  const index_t m = 19, n = 9;
  std::vector<double> a(static_cast<std::size_t>(m * n)),
      x(static_cast<std::size_t>(n)), y(static_cast<std::size_t>(m));
  rng_.fill(a);
  rng_.fill(x);
  rng_.fill(y);
  std::vector<double> want = y;
  lib_->gemv(m, n, -1.5, a.data(), m, x.data(), 2.0, y.data());
  blas::ref::gemv(m, n, -1.5, a.data(), m, x.data(), 2.0, want.data());
  for (index_t i = 0; i < m; ++i)
    ASSERT_NEAR(y[i], want[i], 1e-11 * static_cast<double>(n));
}

TEST_F(UntunedRuntimeBlas, GemvTransposedViaDotKernel) {
  const index_t m = 300, n = 40, lda = m + 1;
  std::vector<double> a(static_cast<std::size_t>(lda * n)), x(m), y(n);
  rng_.fill(a);
  rng_.fill(x);
  rng_.fill(y);
  std::vector<double> y_ref = y;
  lib_->gemv_t(m, n, 2.0, a.data(), lda, x.data(), 0.5, y.data());
  blas::ref::gemv_t(m, n, 2.0, a.data(), lda, x.data(), 0.5, y_ref.data());
  for (index_t j = 0; j < n; ++j)
    ASSERT_NEAR(y[j], y_ref[j], 1e-10) << j;
}

TEST_F(UntunedRuntimeBlas, AxpyDot) {
  for (const index_t n : {0, 1, 5, 16, 1000, 10007}) {
    std::vector<double> x(static_cast<std::size_t>(n)),
        y(static_cast<std::size_t>(n));
    rng_.fill(x);
    rng_.fill(y);
    std::vector<double> y_ref = y;
    lib_->axpy(n, 0.75, x.data(), y.data());
    blas::ref::axpy(n, 0.75, x.data(), y_ref.data());
    for (index_t i = 0; i < n; ++i) ASSERT_NEAR(y[i], y_ref[i], 1e-13);
    EXPECT_NEAR(lib_->dot(n, x.data(), y.data()),
                blas::ref::dot(n, x.data(), y.data()),
                1e-12 * static_cast<double>(n ? n : 1));
  }
}

TEST_F(UntunedRuntimeBlas, Table6RoutinesMatchReference) {
  const index_t n = 160, k = 48, m = 160, cols = 24;
  // SYRK.
  {
    std::vector<double> a(static_cast<std::size_t>(n * k)),
        c(static_cast<std::size_t>(n * n));
    rng_.fill(a);
    rng_.fill(c);
    std::vector<double> c_ref = c;
    lib_->syrk(Uplo::kLower, Trans::kNo, n, k, 1.0, a.data(), n, 1.0,
               c.data(), n);
    blas::ref::syrk(Uplo::kLower, Trans::kNo, n, k, 1.0, a.data(), n,
                    1.0, c_ref.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], c_ref[i], 1e-10) << "syrk " << i;
  }
  // SYMM.
  {
    std::vector<double> a(static_cast<std::size_t>(m * m)),
        b(static_cast<std::size_t>(m * cols)),
        c(static_cast<std::size_t>(m * cols));
    rng_.fill(a);
    rng_.fill(b);
    rng_.fill(c);
    std::vector<double> c_ref = c;
    lib_->symm(Side::kLeft, Uplo::kLower, m, cols, 1.0, a.data(), m,
               b.data(), m, 0.0, c.data(), m);
    blas::ref::symm(Side::kLeft, Uplo::kLower, m, cols, 1.0, a.data(), m,
                    b.data(), m, 0.0, c_ref.data(), m);
    for (std::size_t i = 0; i < c.size(); ++i)
      ASSERT_NEAR(c[i], c_ref[i], 1e-10) << "symm " << i;
  }
  // TRSM round-trips TRMM.
  {
    std::vector<double> l(static_cast<std::size_t>(m * m)),
        b(static_cast<std::size_t>(m * cols));
    rng_.fill(l);
    for (index_t i = 0; i < m; ++i) at(l.data(), m, i, i) = 4.0 + i % 3;
    rng_.fill(b);
    std::vector<double> orig = b;
    lib_->trmm(Side::kLeft, Uplo::kLower, Trans::kNo, m, cols, 1.0,
               l.data(), m, b.data(), m);
    lib_->trsm(Side::kLeft, Uplo::kLower, Trans::kNo, m, cols, 1.0,
               l.data(), m, b.data(), m);
    for (std::size_t i = 0; i < b.size(); ++i)
      ASSERT_NEAR(b[i], orig[i], 1e-8) << "trmm/trsm " << i;
  }
  // GER.
  {
    std::vector<double> x(static_cast<std::size_t>(m)),
        y(static_cast<std::size_t>(cols)),
        a(static_cast<std::size_t>(m * cols));
    rng_.fill(x);
    rng_.fill(y);
    rng_.fill(a);
    std::vector<double> a_ref = a;
    lib_->ger(m, cols, -2.0, x.data(), y.data(), a.data(), m);
    blas::ref::ger(m, cols, -2.0, x.data(), y.data(), a_ref.data(), m);
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_NEAR(a[i], a_ref[i], 1e-11) << "ger " << i;
  }
}

}  // namespace
}  // namespace augem
