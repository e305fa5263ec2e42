#include "blas/driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "blas/reference.hpp"
#include "support/rng.hpp"
#include "support/threadpool.hpp"

namespace augem::blas {
namespace {

/// Trivial block kernel: plain loops over the packed layouts.
void naive_block_kernel(index_t mc, index_t nc, index_t kc, const double* pa,
                        const double* pb, double* c, index_t ldc) {
  for (index_t j = 0; j < nc; ++j)
    for (index_t i = 0; i < mc; ++i) {
      double acc = 0.0;
      for (index_t l = 0; l < kc; ++l) acc += pa[l * mc + i] * pb[j * kc + l];
      at(c, ldc, i, j) += acc;
    }
}

/// Random op(A), op(B) and C of one GEMM, with padded leading dimensions.
struct Operands {
  index_t lda, ldb, ldc;
  std::vector<double> a, b, c;
};

Operands random_operands(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                         unsigned seed) {
  Operands o;
  o.lda = (ta == Trans::kNo ? m : k) + 2;
  o.ldb = (tb == Trans::kNo ? k : n) + 1;
  o.ldc = m + 3;
  o.a.resize(static_cast<std::size_t>(o.lda * (ta == Trans::kNo ? k : m)));
  o.b.resize(static_cast<std::size_t>(o.ldb * (tb == Trans::kNo ? n : k)));
  o.c.resize(static_cast<std::size_t>(o.ldc * n));
  Rng rng(seed);
  rng.fill(o.a);
  rng.fill(o.b);
  rng.fill(o.c);
  return o;
}

void check_driver(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                  double alpha, double beta, const BlockSizes& sizes,
                  unsigned seed) {
  Operands o = random_operands(ta, tb, m, n, k, seed);
  std::vector<double> c_ref = o.c;

  blocked_gemm(ta, tb, m, n, k, alpha, o.a.data(), o.lda, o.b.data(), o.ldb,
               beta, o.c.data(), o.ldc, serial_gemm_context(sizes),
               naive_block_kernel);
  ref::gemm(ta, tb, m, n, k, alpha, o.a.data(), o.lda, o.b.data(), o.ldb, beta,
            c_ref.data(), o.ldc);
  const double tol = 1e-11 * static_cast<double>(k > 0 ? k : 1);
  for (std::size_t i = 0; i < o.c.size(); ++i)
    ASSERT_NEAR(o.c[i], c_ref[i], tol) << i;
}

/// The summation order the macro loop keeps under every decomposition: C
/// is beta-scaled once, then each kc chunk, in pc order, adds its ordered
/// sum of (alpha·op(A)(i,l))·op(B)(l,j) — what naive_block_kernel computes
/// over the alpha-folded packed panels.
void kc_ordered_gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                     double alpha, const Operands& o, double beta, index_t kc,
                     std::vector<double>& c) {
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      double& cij = at(c.data(), o.ldc, i, j);
      cij = beta == 0.0 ? 0.0 : beta == 1.0 ? cij : cij * beta;
    }
  for (index_t pc = 0; pc < k; pc += kc)
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) {
        double acc = 0.0;
        for (index_t l = pc; l < std::min(k, pc + kc); ++l)
          acc += (alpha * op_at(o.a.data(), o.lda, ta, i, l)) *
                 op_at(o.b.data(), o.ldb, tb, l, j);
        at(c.data(), o.ldc, i, j) += acc;
      }
}

TEST(Driver, DefaultBlockSizesFitCaches) {
  const BlockSizes s = default_block_sizes(host_arch());
  EXPECT_GE(s.kc, 64);
  EXPECT_LE(s.kc * 8 * 8, host_arch().l1d_bytes);
  EXPECT_LE(s.mc * s.kc * 8, host_arch().l2_bytes);
  EXPECT_EQ(s.mc % 8, 0);
  EXPECT_EQ(s.kc % 8, 0);
  // nc scales with the LLC: the packed kc×nc B panel stays within (half
  // of) L3 unless the 240-column floor dominates on tiny caches.
  EXPECT_GE(s.nc, 240);
  EXPECT_EQ(s.nc % 8, 0);
  if (s.nc > 240)
    EXPECT_LE(s.nc * s.kc * 8, host_arch().l3_bytes / 2 + 8 * s.kc * 8);
}

TEST(Driver, DefaultBlockSizesNcTracksL3) {
  CpuArch small = sandy_bridge_arch();
  small.l3_bytes = 2 * 1024 * 1024;
  CpuArch big = sandy_bridge_arch();
  big.l3_bytes = 32 * 1024 * 1024;
  EXPECT_LT(default_block_sizes(small).nc, default_block_sizes(big).nc);
  EXPECT_LE(default_block_sizes(big).nc, 4096);
}

TEST(Driver, SingleBlockExact) {
  check_driver(Trans::kNo, Trans::kNo, 8, 8, 8, 1.0, 0.0, {16, 16, 16}, 1);
}

TEST(Driver, MultipleBlocksAllDirections) {
  check_driver(Trans::kNo, Trans::kNo, 37, 29, 41, 1.0, 1.0, {16, 8, 12}, 2);
}

TEST(Driver, AlphaFoldedInPacking) {
  check_driver(Trans::kNo, Trans::kNo, 9, 7, 5, -2.5, 1.0, {8, 8, 8}, 3);
}

TEST(Driver, BetaZeroOverwritesGarbage) {
  // beta=0 must clear C even if it contains NaN-free garbage.
  check_driver(Trans::kNo, Trans::kNo, 6, 6, 6, 1.0, 0.0, {4, 4, 4}, 4);
}

TEST(Driver, BetaScalesOnceAcrossKBlocks) {
  // k split across 3 blocks: beta applied exactly once.
  check_driver(Trans::kNo, Trans::kNo, 5, 5, 30, 1.0, 0.5, {8, 8, 10}, 5);
}

TEST(Driver, TransposedOperands) {
  check_driver(Trans::kYes, Trans::kNo, 13, 11, 17, 1.0, 1.0, {8, 8, 8}, 6);
  check_driver(Trans::kNo, Trans::kYes, 13, 11, 17, 1.0, 1.0, {8, 8, 8}, 7);
  check_driver(Trans::kYes, Trans::kYes, 13, 11, 17, 2.0, 0.0, {8, 8, 8}, 8);
}

TEST(Driver, DegenerateSizes) {
  check_driver(Trans::kNo, Trans::kNo, 0, 5, 5, 1.0, 1.0, {8, 8, 8}, 9);
  check_driver(Trans::kNo, Trans::kNo, 5, 5, 0, 1.0, 0.5, {8, 8, 8}, 10);
  check_driver(Trans::kNo, Trans::kNo, 1, 1, 1, 1.0, 1.0, {8, 8, 8}, 11);
}

TEST(Driver, AlphaZeroOnlyScalesC) {
  check_driver(Trans::kNo, Trans::kNo, 6, 6, 6, 0.0, 0.5, {8, 8, 8}, 12);
}

TEST(Driver, MatchesKcOrderedSumsBitForBit) {
  // Pins the order a rewrite of the macro loop must keep, serial and on a
  // 3-thread pool. Both shapes cross mc, nc and kc; the 20-row one has
  // fewer row blocks than threads, so the threaded run splits jr.
  const BlockSizes sizes{16, 24, 8};
  ThreadPool pool(3);
  GemmContext threaded = serial_gemm_context(sizes);
  threaded.pool = &pool;
  threaded.threads = 3;
  const Trans transes[] = {Trans::kNo, Trans::kYes};
  struct Shape {
    index_t m, n, k;
  };
  unsigned seed = 200;
  for (const Shape& s : {Shape{20, 37, 29}, Shape{45, 19, 17}})
    for (const Trans ta : transes)
      for (const Trans tb : transes)
        for (const double beta : {0.0, 1.0, -0.5}) {
          const Operands o = random_operands(ta, tb, s.m, s.n, s.k, ++seed);
          std::vector<double> expect = o.c;
          kc_ordered_gemm(ta, tb, s.m, s.n, s.k, -1.75, o, beta, sizes.kc,
                          expect);
          for (const GemmContext& ctx :
               {serial_gemm_context(sizes), threaded}) {
            std::vector<double> c = o.c;
            blocked_gemm(ta, tb, s.m, s.n, s.k, -1.75, o.a.data(), o.lda,
                         o.b.data(), o.ldb, beta, c.data(), o.ldc, ctx,
                         naive_block_kernel);
            ASSERT_EQ(0, std::memcmp(c.data(), expect.data(),
                                     c.size() * sizeof(double)))
                << "m=" << s.m << " n=" << s.n << " k=" << s.k
                << " ta=" << (ta == Trans::kYes)
                << " tb=" << (tb == Trans::kYes) << " beta=" << beta
                << " threads=" << ctx.threads;
          }
        }
}

}  // namespace
}  // namespace augem::blas
