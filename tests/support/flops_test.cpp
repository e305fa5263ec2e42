#include "support/flops.hpp"

#include <gtest/gtest.h>

namespace augem {
namespace {

TEST(Flops, MflopsComputesCorrectly) {
  EXPECT_DOUBLE_EQ(mflops(2.0e6, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(mflops(1.0e6, 0.5), 2.0);
  EXPECT_EQ(mflops(1.0e6, 0.0), 0.0);
}

TEST(Flops, Gemm) { EXPECT_DOUBLE_EQ(gemm_flops(10, 20, 30), 12000.0); }

TEST(Flops, Gemv) { EXPECT_DOUBLE_EQ(gemv_flops(100, 50), 10000.0); }

TEST(Flops, Level1) {
  EXPECT_DOUBLE_EQ(axpy_flops(1000), 2000.0);
  EXPECT_DOUBLE_EQ(dot_flops(1000), 2000.0);
}

TEST(Flops, Ger) { EXPECT_DOUBLE_EQ(ger_flops(32, 16), 1024.0); }

TEST(Flops, Symm) { EXPECT_DOUBLE_EQ(symm_flops(8, 4), 512.0); }

TEST(Flops, SyrkCountsTriangle) {
  // n=3, k=2: 3*4*2 = 24 (half of the full 2*n*n*k = 36, plus diagonal).
  EXPECT_DOUBLE_EQ(syrk_flops(3, 2), 24.0);
}

TEST(Flops, Syr2k) { EXPECT_DOUBLE_EQ(syr2k_flops(3, 2), 48.0); }

TEST(Flops, TriangularRoutines) {
  EXPECT_DOUBLE_EQ(trmm_flops(4, 8), 128.0);
  EXPECT_DOUBLE_EQ(trsm_flops(4, 8), 128.0);
}

TEST(Flops, LargeSizesDoNotOverflow) {
  // 6144^2 x 256 exceeds int32 range; double accounting must be exact here.
  EXPECT_DOUBLE_EQ(gemm_flops(6144, 6144, 256), 2.0 * 6144.0 * 6144.0 * 256.0);
}

}  // namespace
}  // namespace augem
