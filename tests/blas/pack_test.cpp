#include "blas/pack.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "support/rng.hpp"

namespace augem::blas {
namespace {

TEST(Pack, ABlockColumnMajorNoTrans) {
  // A 4×3 (lda 5), pack the 2×2 block at (1, 1).
  std::vector<double> a(15);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);
  std::vector<double> pa(4, -1.0);
  pack_a_block(Trans::kNo, a.data(), 5, 1, 1, 2, 2, 1.0, pa.data());
  // pa[l*mc + i] = A(1+i, 1+l) = a[(1+l)*5 + 1+i]
  EXPECT_DOUBLE_EQ(pa[0], a[6]);
  EXPECT_DOUBLE_EQ(pa[1], a[7]);
  EXPECT_DOUBLE_EQ(pa[2], a[11]);
  EXPECT_DOUBLE_EQ(pa[3], a[12]);
}

TEST(Pack, ABlockFoldsAlpha) {
  std::vector<double> a = {1, 2, 3, 4};
  std::vector<double> pa(4);
  pack_a_block(Trans::kNo, a.data(), 2, 0, 0, 2, 2, 10.0, pa.data());
  EXPECT_DOUBLE_EQ(pa[0], 10);
  EXPECT_DOUBLE_EQ(pa[3], 40);
}

TEST(Pack, ABlockTransposeReadsRows) {
  // op(A) = A^T: packed (i, l) = A(l, i).
  std::vector<double> a = {1, 2, 3, 4};  // 2×2 col-major: A = [1 3; 2 4]
  std::vector<double> pa(4);
  pack_a_block(Trans::kYes, a.data(), 2, 0, 0, 2, 2, 1.0, pa.data());
  // op(A)(i,l) = A(l,i): pa[l*2+i] = a[i*2+l]
  EXPECT_DOUBLE_EQ(pa[0], 1);
  EXPECT_DOUBLE_EQ(pa[1], 3);
  EXPECT_DOUBLE_EQ(pa[2], 2);
  EXPECT_DOUBLE_EQ(pa[3], 4);
}

TEST(Pack, BBlockColumnMajorLayout) {
  // B 3×4 (ldb 3); pack full 3×4: pb[j*kc + l] = B(l, j).
  std::vector<double> b(12);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<double>(i);
  std::vector<double> pb(12);
  pack_b_block(Trans::kNo, b.data(), 3, 0, 0, 3, 4, pb.data());
  for (index_t l = 0; l < 3; ++l)
    for (index_t j = 0; j < 4; ++j)
      EXPECT_DOUBLE_EQ(pb[static_cast<std::size_t>(j * 3 + l)],
                       at(b.data(), 3, l, j));
}

TEST(Pack, BBlockTranspose) {
  std::vector<double> b = {1, 2, 3, 4};  // 2×2: B = [1 3; 2 4]
  std::vector<double> pb(4);
  pack_b_block(Trans::kYes, b.data(), 2, 0, 0, 2, 2, pb.data());
  // pb[j*2+l] = B^T(l,j) = B(j,l)
  EXPECT_DOUBLE_EQ(pb[0], 1);
  EXPECT_DOUBLE_EQ(pb[1], 3);
  EXPECT_DOUBLE_EQ(pb[2], 2);
  EXPECT_DOUBLE_EQ(pb[3], 4);

  // A kc that is not a multiple of the 8-row copy strip, at an offset.
  Rng rng(5);
  const index_t ldb = 9, kc = 19, nc = 5;
  std::vector<double> bt(static_cast<std::size_t>(ldb * 24));
  rng.fill(bt);
  std::vector<double> pt(static_cast<std::size_t>(kc * nc));
  pack_b_block(Trans::kYes, bt.data(), ldb, 3, 2, kc, nc, pt.data());
  for (index_t l = 0; l < kc; ++l)
    for (index_t j = 0; j < nc; ++j)
      EXPECT_DOUBLE_EQ(pt[static_cast<std::size_t>(j * kc + l)],
                       at(bt.data(), ldb, 2 + j, 3 + l));
}

TEST(Pack, SubBlockOffsets) {
  Rng rng(3);
  const index_t ldb = 7;
  std::vector<double> b(static_cast<std::size_t>(ldb * 9));
  rng.fill(b);
  std::vector<double> pb(6);
  pack_b_block(Trans::kNo, b.data(), ldb, 2, 3, 2, 3, pb.data());
  for (index_t l = 0; l < 2; ++l)
    for (index_t j = 0; j < 3; ++j)
      EXPECT_DOUBLE_EQ(pb[static_cast<std::size_t>(j * 2 + l)],
                       at(b.data(), ldb, 2 + l, 3 + j));
}

}  // namespace
}  // namespace augem::blas
