// Regression tests for the netlib BLAS edge-case semantics that the
// differential harness (src/check) enforces across every implementation:
//
//   * beta == 0 *overwrites* the output — NaN/Inf in an uninitialized y/C
//     must never survive a beta-0 call (`y[i] *= 0` would keep them);
//   * alpha == 0 (and GEMM's k == 0) reduces the call to the beta update
//     without ever reading A/B/x — poisoned inputs must not leak through;
//   * scal(0, x) clears x (same overwrite policy);
//   * axpy(0, x, y) leaves y bit-identical, even against NaN x.
//
// Each case was a real divergence between implementations before the
// beta_scale unification (see docs/correctness.md).

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "../common/libraries.hpp"
#include "blas/driver.hpp"
#include "blas/reference.hpp"
#include "support/rng.hpp"

namespace augem::blas {
namespace {

const double kNaN = std::numeric_limits<double>::quiet_NaN();
const double kInf = std::numeric_limits<double>::infinity();

class SemanticsEdge : public augem::testing::LibraryTest {
 protected:
  Rng rng_{2026};
};

TEST_P(SemanticsEdge, GemvBetaZeroOverwritesNaN) {
  const index_t m = 13, n = 7;
  std::vector<double> a(static_cast<std::size_t>(m * n)),
      x(static_cast<std::size_t>(n));
  rng_.fill(a);
  rng_.fill(x);
  std::vector<double> y(static_cast<std::size_t>(m), kNaN);
  y[3] = kInf;
  lib_->gemv(m, n, 1.0, a.data(), m, x.data(), 0.0, y.data());
  std::vector<double> want(static_cast<std::size_t>(m), 0.0);
  ref::gemv(m, n, 1.0, a.data(), m, x.data(), 0.0, want.data());
  for (index_t i = 0; i < m; ++i) {
    ASSERT_TRUE(std::isfinite(y[i])) << GetParam() << " y[" << i << "]";
    ASSERT_NEAR(y[i], want[i], 1e-12 * static_cast<double>(n)) << GetParam();
  }
}

TEST_P(SemanticsEdge, GemvAlphaZeroNeverReadsAOrX) {
  const index_t m = 9, n = 5;
  std::vector<double> a(static_cast<std::size_t>(m * n), kNaN),
      x(static_cast<std::size_t>(n), kNaN), y(static_cast<std::size_t>(m));
  rng_.fill(y);
  const std::vector<double> y0 = y;
  lib_->gemv(m, n, 0.0, a.data(), m, x.data(), 2.0, y.data());
  for (index_t i = 0; i < m; ++i)
    ASSERT_DOUBLE_EQ(y[i], 2.0 * y0[static_cast<std::size_t>(i)])
        << GetParam() << " y[" << i << "]";
}

TEST_P(SemanticsEdge, GemmBetaZeroOverwritesNaN) {
  const index_t m = 17, n = 11, k = 6;
  std::vector<double> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n));
  rng_.fill(a);
  rng_.fill(b);
  std::vector<double> c(static_cast<std::size_t>(m * n), kNaN);
  std::vector<double> want(static_cast<std::size_t>(m * n), 0.0);
  lib_->gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
             0.0, c.data(), m);
  ref::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
            0.0, want.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_TRUE(std::isfinite(c[i])) << GetParam() << " C[" << i << "]";
    ASSERT_NEAR(c[i], want[i], 1e-11 * static_cast<double>(k)) << GetParam();
  }
}

TEST_P(SemanticsEdge, GemmKZeroIsBetaUpdateOnly) {
  // k == 0: no product term exists; C = beta*C exactly, A/B never read.
  const index_t m = 8, n = 6;
  std::vector<double> a(1, kNaN), b(1, kNaN), c(static_cast<std::size_t>(m * n));
  rng_.fill(c);
  const std::vector<double> c0 = c;
  lib_->gemm(Trans::kNo, Trans::kNo, m, n, 0, 1.0, a.data(), 1, b.data(), 1,
             -0.5, c.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_DOUBLE_EQ(c[i], -0.5 * c0[i]) << GetParam() << " C[" << i << "]";
}

TEST_P(SemanticsEdge, BatchStridedAlphaZeroNeverReadsAOrB) {
  // Regression: the reference batch loop accumulated the k-sum before
  // multiplying by alpha, so alpha == 0 with an Inf/NaN operand produced
  // 0 * Inf = NaN where netlib semantics (and the amortized fast path)
  // reduce the call to the beta update. Found by fuzz --seed 7 --case 2649.
  const index_t m = 5, n = 3, k = 2, batch = 2;
  const index_t stride_a = m * k, stride_b = k * n, stride_c = m * n;
  std::vector<double> a(static_cast<std::size_t>(stride_a * batch), kInf),
      b(static_cast<std::size_t>(stride_b * batch), kNaN),
      c(static_cast<std::size_t>(stride_c * batch));
  rng_.fill(c);
  const std::vector<double> c0 = c;
  lib_->gemm_batch_strided(m, n, k, 0.0, a.data(), m, stride_a, b.data(), k,
                           stride_b, -2.0, c.data(), m, stride_c, batch,
                           nullptr, 0, false);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_DOUBLE_EQ(c[i], -2.0 * c0[i]) << GetParam() << " C[" << i << "]";
}

TEST_P(SemanticsEdge, ScalZeroClearsNaN) {
  std::vector<double> x = {kNaN, kInf, -kInf, 3.0, kNaN};
  lib_->scal(static_cast<index_t>(x.size()), 0.0, x.data());
  for (double v : x) ASSERT_EQ(v, 0.0) << GetParam();
}

TEST_P(SemanticsEdge, AxpyAlphaZeroLeavesYUntouched) {
  const index_t n = 11;
  std::vector<double> x(static_cast<std::size_t>(n), kNaN),
      y(static_cast<std::size_t>(n));
  rng_.fill(y);
  const std::vector<double> y0 = y;
  lib_->axpy(n, 0.0, x.data(), y.data());
  EXPECT_EQ(y, y0) << GetParam();
}

TEST_P(SemanticsEdge, GemvTBetaZeroOverwritesNaN) {
  const index_t m = 10, n = 4;
  std::vector<double> a(static_cast<std::size_t>(m * n)),
      x(static_cast<std::size_t>(m));
  rng_.fill(a);
  rng_.fill(x);
  std::vector<double> y(static_cast<std::size_t>(n), kNaN);
  std::vector<double> want(static_cast<std::size_t>(n), 0.0);
  lib_->gemv_t(m, n, -1.0, a.data(), m, x.data(), 0.0, y.data());
  ref::gemv_t(m, n, -1.0, a.data(), m, x.data(), 0.0, want.data());
  for (index_t j = 0; j < n; ++j) {
    ASSERT_TRUE(std::isfinite(y[j])) << GetParam() << " y[" << j << "]";
    ASSERT_NEAR(y[j], want[j], 1e-12 * static_cast<double>(m)) << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(AllLibraries, SemanticsEdge,
                         ::testing::Values("refblas", "gotosim", "atlsim",
                                           "vendorsim", "runtime"),
                         [](const auto& info) { return info.param; });

// ---- the blocked driver itself (both threading modes) ----------------------

class DriverSemantics : public ::testing::TestWithParam<bool> {
 protected:
  GemmContext context() const {
    BlockSizes sizes;
    sizes.mc = 8;
    sizes.nc = 16;
    sizes.kc = 6;
    return GetParam() ? threaded_gemm_context(sizes)
                      : serial_gemm_context(sizes);
  }
  static void naive_block(index_t mc, index_t nc, index_t kc, const double* pa,
                          const double* pb, double* c, index_t ldc) {
    for (index_t j = 0; j < nc; ++j)
      for (index_t i = 0; i < mc; ++i) {
        double acc = 0.0;
        for (index_t l = 0; l < kc; ++l) acc += pa[l * mc + i] * pb[j * kc + l];
        at(c, ldc, i, j) += acc;
      }
  }
  Rng rng_{2027};
};

TEST_P(DriverSemantics, BetaZeroOverwritesNaN) {
  const index_t m = 21, n = 19, k = 13;
  std::vector<double> a(static_cast<std::size_t>(m * k)),
      b(static_cast<std::size_t>(k * n));
  rng_.fill(a);
  rng_.fill(b);
  std::vector<double> c(static_cast<std::size_t>(m * n), kNaN);
  std::vector<double> want(static_cast<std::size_t>(m * n), 0.0);
  blocked_gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
               0.0, c.data(), m, context(), naive_block);
  ref::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
            0.0, want.data(), m);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_TRUE(std::isfinite(c[i])) << "C[" << i << "]";
    ASSERT_NEAR(c[i], want[i], 1e-11 * static_cast<double>(k));
  }
}

TEST_P(DriverSemantics, KZeroAndAlphaZeroAreBetaUpdateOnly) {
  const index_t m = 7, n = 5;
  std::vector<double> a(1, kNaN), b(1, kNaN), c(static_cast<std::size_t>(m * n));
  rng_.fill(c);
  const std::vector<double> c0 = c;
  blocked_gemm(Trans::kNo, Trans::kNo, m, n, 0, 1.0, a.data(), 1, b.data(), 1,
               3.0, c.data(), m, context(), naive_block);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_DOUBLE_EQ(c[i], 3.0 * c0[i]) << "k=0 C[" << i << "]";

  // alpha == 0 with k > 0: same — A/B must never be packed.
  std::vector<double> c2 = c0;
  blocked_gemm(Trans::kNo, Trans::kNo, m, n, 4, 0.0, a.data(), 1, b.data(), 1,
               0.0, c2.data(), m, context(), naive_block);
  for (std::size_t i = 0; i < c2.size(); ++i)
    ASSERT_EQ(c2[i], 0.0) << "alpha=0 C[" << i << "]";
}

INSTANTIATE_TEST_SUITE_P(SerialAndThreaded, DriverSemantics,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "threaded" : "serial";
                         });

}  // namespace
}  // namespace augem::blas
