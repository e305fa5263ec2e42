// End-to-end GEMM through pinned kernel sets: kernels generated for *each*
// natively executable ISA (not just the best one), non-default register
// tiles, and custom cache-block sizes must all produce correct results
// under the blocked driver — the configuration space a caller that pins its
// own KernelSet can actually reach.

#include <gtest/gtest.h>

#include <vector>

#include "augem/augem_blas.hpp"
#include "blas/reference.hpp"
#include "support/rng.hpp"

namespace augem {
namespace {

using blas::index_t;
using blas::Trans;

/// C = 1.25*A*B - 0.5*C through the threaded blocked driver on `kernels`
/// with block sizes `sizes`, checked against the reference.
void check_gemm(const KernelSet& kernels, const blas::BlockSizes& sizes,
                index_t m, index_t n, index_t k, unsigned seed) {
  Rng rng(seed);
  const index_t lda = m + 1, ldb = k + 1, ldc = m + 2;
  std::vector<double> a(static_cast<std::size_t>(lda * k));
  std::vector<double> b(static_cast<std::size_t>(ldb * n));
  std::vector<double> c(static_cast<std::size_t>(ldc * n));
  rng.fill(a);
  rng.fill(b);
  rng.fill(c);
  std::vector<double> c_ref = c;
  blas::blocked_gemm(Trans::kNo, Trans::kNo, m, n, k, 1.25, a.data(), lda,
                     b.data(), ldb, -0.5, c.data(), ldc,
                     blas::threaded_gemm_context(sizes),
                     padded_gemm_block_kernel(kernels.gemm(),
                                              kernels.gemm_mr(),
                                              kernels.gemm_nr()));
  blas::ref::gemm(Trans::kNo, Trans::kNo, m, n, k, 1.25, a.data(), lda,
                  b.data(), ldb, -0.5, c_ref.data(), ldc);
  const double tol = 1e-11 * static_cast<double>(k);
  for (std::size_t i = 0; i < c.size(); ++i)
    ASSERT_NEAR(c[i], c_ref[i], tol) << isa_name(kernels.isa()) << " " << i;
}

TEST(KernelVariants, EveryNativeIsaProducesCorrectBlas) {
  for (Isa isa : host_arch().native_isas()) {
    if (isa == Isa::kFma4 && !host_arch().has_fma4) continue;
    SCOPED_TRACE(isa_name(isa));
    const KernelSet kernels(isa);
    const blas::BlockSizes sizes = blas::default_block_sizes(host_arch());
    check_gemm(kernels, sizes, 96, 64, 80, 7);
    check_gemm(kernels, sizes, 13, 9, 17, 8);  // edges everywhere

    // Level-1 through the same set.
    Rng rng(9);
    std::vector<double> x(777), y(777);
    rng.fill(x);
    rng.fill(y);
    std::vector<double> y_ref = y;
    axpy_with_blas_semantics(kernels.axpy(), 777, 1.5, x.data(), y.data());
    blas::ref::axpy(777, 1.5, x.data(), y_ref.data());
    for (std::size_t i = 0; i < y.size(); ++i)
      ASSERT_NEAR(y[i], y_ref[i], 1e-13);
  }
}

TEST(KernelVariants, NonDefaultTileAndShufStrategy) {
  const Isa isa = host_arch().best_native_isa();
  const int w = isa_vector_doubles(isa);
  transform::CGenParams gemm_p;
  gemm_p.mr = w;
  gemm_p.nr = w;  // the n×n tile the Shuf strategy requires
  transform::CGenParams l1_p;
  l1_p.unroll = 4;
  const KernelSet kernels(isa, gemm_p, opt::VecStrategy::kShuf, l1_p);
  const blas::BlockSizes sizes = blas::default_block_sizes(host_arch());
  check_gemm(kernels, sizes, 64, 48, 96, 11);
  check_gemm(kernels, sizes, w, w, 1, 12);
}

TEST(KernelVariants, TinyBlockSizesStressTheDriver) {
  const KernelSet kernels(host_arch().best_native_isa());
  blas::BlockSizes tiny;
  tiny.mc = static_cast<index_t>(kernels.gemm_mr());
  tiny.nc = static_cast<index_t>(kernels.gemm_nr());
  tiny.kc = 3;
  check_gemm(kernels, tiny, 50, 30, 20, 13);  // many blocks in every dimension
}

TEST(KernelVariants, SharedKernelSetAcrossTwoBlasInstances) {
  // One kernel set under two driver configurations.
  const KernelSet kernels(host_arch().best_native_isa());
  check_gemm(kernels, blas::default_block_sizes(host_arch()), 40, 40, 40, 14);
  check_gemm(kernels, {32, 16, 8}, 40, 40, 40, 14);
}

TEST(KernelVariants, ScalarStrategyBlasIsCorrectIfSlow) {
  const Isa isa = host_arch().best_native_isa();
  transform::CGenParams gemm_p;
  gemm_p.mr = 2;
  gemm_p.nr = 2;
  transform::CGenParams l1_p;
  l1_p.unroll = 2;
  const KernelSet kernels(isa, gemm_p, opt::VecStrategy::kScalar, l1_p);
  check_gemm(kernels, blas::default_block_sizes(host_arch()), 30, 22, 18, 15);
}

}  // namespace
}  // namespace augem
