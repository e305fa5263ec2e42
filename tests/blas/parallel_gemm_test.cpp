#include "blas/driver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "support/rng.hpp"
#include "support/threadpool.hpp"

namespace augem::blas {
namespace {

/// Trivial block kernel: plain loops over the packed layouts. Every element
/// is an ordered dot product, so any driver decomposition that preserves
/// the k-block order reproduces it bit for bit.
void naive_block_kernel(index_t mc, index_t nc, index_t kc, const double* pa,
                        const double* pb, double* c, index_t ldc) {
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < mc; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < kc; ++l) acc += pa[l * mc + i] * pb[l * nc + j];
      at(c, ldc, i, j) += acc;
    }
}

/// A deliberately asymmetric tile kernel in the style of the shipped ones:
/// 4-column main tiles accumulate through fused multiply-adds, the edge
/// columns through separate mul+add — *different rounding*. If a jr split
/// ever lands off the tile grid, columns migrate between the two paths and
/// the bit-exactness checks below catch it.
void fma_tile_kernel(index_t mc, index_t nc, index_t kc, const double* pa,
                     const double* pb, double* c, index_t ldc) {
  const index_t n_main = nc / 4 * 4;
  for (index_t j = 0; j < n_main; j += 4) {
    for (index_t i = 0; i < mc; ++i) {
      double r0 = 0, r1 = 0, r2 = 0, r3 = 0;
      for (index_t l = 0; l < kc; ++l) {
        const double av = pa[l * mc + i];
        r0 = std::fma(av, pb[l * nc + j], r0);
        r1 = std::fma(av, pb[l * nc + j + 1], r1);
        r2 = std::fma(av, pb[l * nc + j + 2], r2);
        r3 = std::fma(av, pb[l * nc + j + 3], r3);
      }
      at(c, ldc, i, j) += r0;
      at(c, ldc, i, j + 1) += r1;
      at(c, ldc, i, j + 2) += r2;
      at(c, ldc, i, j + 3) += r3;
    }
  }
  for (index_t j = n_main; j < nc; ++j)
    for (index_t i = 0; i < mc; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < kc; ++l) acc += pa[l * mc + i] * pb[l * nc + j];
      at(c, ldc, i, j) += acc;
    }
}

void check_bit_identical(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                         double alpha, double beta, const BlockSizes& sizes,
                         int threads, const BlockKernel& kernel,
                         unsigned seed) {
  Rng rng(seed);
  const index_t lda = (ta == Trans::kNo ? m : k) + 2;
  const index_t ldb = (tb == Trans::kNo ? k : n) + 1;
  const index_t ldc = m + 3;
  std::vector<double> a(static_cast<std::size_t>(lda * (ta == Trans::kNo ? k : m)));
  std::vector<double> b(static_cast<std::size_t>(ldb * (tb == Trans::kNo ? n : k)));
  std::vector<double> c(static_cast<std::size_t>(ldc * n));
  rng.fill(a);
  rng.fill(b);
  rng.fill(c);
  std::vector<double> c_serial = c;
  std::vector<double> c_parallel = c;

  blocked_gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
               c_serial.data(), ldc, serial_gemm_context(sizes), kernel);

  ThreadPool pool(threads);
  GemmContext ctx;
  ctx.sizes = sizes;
  ctx.threads = threads;
  ctx.pool = &pool;
  blocked_gemm(ta, tb, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta,
               c_parallel.data(), ldc, ctx, kernel);

  ASSERT_EQ(std::memcmp(c_serial.data(), c_parallel.data(),
                        c.size() * sizeof(double)),
            0)
      << "m=" << m << " n=" << n << " k=" << k << " threads=" << threads
      << " beta=" << beta;
}

TEST(ParallelGemm, RaggedTailsAllBetas) {
  // m/n/k deliberately not multiples of mc/nc/kc.
  for (int threads : {2, 3, 4})
    for (double beta : {0.0, 0.5, 1.0})
      check_bit_identical(Trans::kNo, Trans::kNo, 37, 29, 41, 1.0, beta,
                          {16, 8, 12}, threads, naive_block_kernel, 101);
}

TEST(ParallelGemm, ManyBlocksMoreThreadsThanBlocks) {
  // 2 ic blocks, 5 threads: exercises both the round-robin ic partition and
  // the jr sub-split fallback.
  check_bit_identical(Trans::kNo, Trans::kNo, 24, 64, 32, 1.0, 1.0,
                      {16, 16, 16}, 5, naive_block_kernel, 102);
}

TEST(ParallelGemm, TallSkinnyUsesJrSplit) {
  // One ic block (m <= mc): all parallelism must come from the jr chunks.
  check_bit_identical(Trans::kNo, Trans::kNo, 8, 123, 40, 2.0, 0.5,
                      {32, 48, 16}, 4, naive_block_kernel, 103);
}

TEST(ParallelGemm, DegenerateShapes) {
  check_bit_identical(Trans::kNo, Trans::kNo, 1, 17, 9, 1.0, 1.0, {8, 8, 8},
                      4, naive_block_kernel, 104);
  check_bit_identical(Trans::kNo, Trans::kNo, 17, 1, 9, 1.0, 0.0, {8, 8, 8},
                      4, naive_block_kernel, 105);
  check_bit_identical(Trans::kNo, Trans::kNo, 1, 1, 1, -1.5, 1.0, {8, 8, 8},
                      3, naive_block_kernel, 106);
  // k=0: only the (parallelized) beta sweep runs.
  check_bit_identical(Trans::kNo, Trans::kNo, 13, 11, 0, 1.0, 0.5, {8, 8, 8},
                      4, naive_block_kernel, 107);
  // alpha=0 with k>0: likewise no kernel invocations.
  check_bit_identical(Trans::kNo, Trans::kNo, 13, 11, 7, 0.0, 0.5, {8, 8, 8},
                      4, naive_block_kernel, 108);
}

TEST(ParallelGemm, TransposedOperands) {
  for (auto [ta, tb] : {std::pair{Trans::kYes, Trans::kNo},
                        {Trans::kNo, Trans::kYes},
                        {Trans::kYes, Trans::kYes}})
    check_bit_identical(ta, tb, 33, 27, 19, 1.0, 1.0, {16, 16, 8}, 4,
                        naive_block_kernel, 109);
}

TEST(ParallelGemm, FmaTileKernelSurvivesJrSplit) {
  // The rounding-asymmetric kernel: bit equality holds only if jr chunk
  // boundaries stay on the granule (tile) grid.
  check_bit_identical(Trans::kNo, Trans::kNo, 16, 133, 24, 1.0, 1.0,
                      {16, 64, 12}, 6, fma_tile_kernel, 110);
  check_bit_identical(Trans::kNo, Trans::kNo, 30, 67, 31, -0.5, 0.0,
                      {8, 40, 16}, 4, fma_tile_kernel, 111);
}

TEST(ParallelGemm, BetaZeroOverwritesNanGarbage) {
  // beta = 0 must overwrite, not scale: NaNs in C may not leak through
  // either driver, and both must produce identical bits.
  const index_t m = 11, n = 9, k = 6, ld = m;
  Rng rng(112);
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  rng.fill(a);
  rng.fill(b);
  std::vector<double> c_serial(static_cast<std::size_t>(ld * n),
                               std::numeric_limits<double>::quiet_NaN());
  std::vector<double> c_parallel = c_serial;

  blocked_gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
               0.0, c_serial.data(), ld, serial_gemm_context({8, 8, 8}),
               naive_block_kernel);
  ThreadPool pool(4);
  GemmContext ctx;
  ctx.sizes = {8, 8, 8};
  ctx.threads = 4;
  ctx.pool = &pool;
  blocked_gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
               0.0, c_parallel.data(), ld, ctx, naive_block_kernel);

  for (std::size_t i = 0; i < c_serial.size(); ++i) {
    EXPECT_FALSE(std::isnan(c_serial[i])) << i;
    EXPECT_EQ(c_serial[i], c_parallel[i]) << i;
  }
}

TEST(ParallelGemm, ContextClampsToPoolSize) {
  // A context asking for more threads than the pool has must still be
  // correct (and one asking for fewer must leave the extra workers idle).
  ThreadPool pool(2);
  GemmContext ctx;
  ctx.sizes = {16, 16, 16};
  ctx.threads = 8;
  ctx.pool = &pool;
  Rng rng(113);
  const index_t m = 45, n = 37, k = 22;
  std::vector<double> a(static_cast<std::size_t>(m * k));
  std::vector<double> b(static_cast<std::size_t>(k * n));
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  rng.fill(a);
  rng.fill(b);
  std::vector<double> c_ref = c;
  blocked_gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
               0.0, c.data(), m, ctx, naive_block_kernel);
  blocked_gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
               0.0, c_ref.data(), m, serial_gemm_context(ctx.sizes),
               naive_block_kernel);
  ASSERT_EQ(std::memcmp(c.data(), c_ref.data(), c.size() * sizeof(double)), 0);

  ThreadPool big_pool(4);
  ctx.pool = &big_pool;
  ctx.threads = 2;  // fewer than the pool: tids 2..3 idle in every run
  std::vector<double> c2(static_cast<std::size_t>(m * n), 0.0);
  blocked_gemm(Trans::kNo, Trans::kNo, m, n, k, 1.0, a.data(), m, b.data(), k,
               0.0, c2.data(), m, ctx, naive_block_kernel);
  ASSERT_EQ(std::memcmp(c2.data(), c_ref.data(), c2.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace augem::blas
