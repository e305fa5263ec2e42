#include "augem/augem.hpp"

#include <gtest/gtest.h>

#include "support/buffer.hpp"
#include "support/rng.hpp"
#include "support/error.hpp"

namespace augem {
namespace {

using frontend::KernelKind;

TEST(Augem, DefaultOptionsScaleWithIsaWidth) {
  const auto sse = default_options(KernelKind::kGemm, Isa::kSse2);
  EXPECT_EQ(sse.params.mr, 4);
  EXPECT_EQ(sse.params.nr, 2);
  const auto fma = default_options(KernelKind::kGemm, Isa::kFma3);
  EXPECT_EQ(fma.params.mr, 8);
  EXPECT_EQ(fma.params.nr, 4);
  const auto l1 = default_options(KernelKind::kDot, Isa::kFma3);
  EXPECT_EQ(l1.params.unroll, 16);
}

TEST(Augem, GenerateKernelProducesAssemblyForAnyIsa) {
  // FMA4 is generable even though this host cannot run it natively.
  GenerateOptions o = default_options(KernelKind::kGemm, Isa::kFma4);
  const auto g = generate_kernel(KernelKind::kGemm, o);
  EXPECT_NE(g.asm_text.find("vfmaddpd"), std::string::npos);
  EXPECT_NE(g.asm_text.find("dgemm_kernel:"), std::string::npos);
}

TEST(Augem, KernelSetBuildsAndRuns) {
  KernelSet set(host_arch().best_native_isa());
  EXPECT_NE(set.gemm(), nullptr);
  EXPECT_NE(set.gemv(), nullptr);
  EXPECT_NE(set.axpy(), nullptr);
  EXPECT_NE(set.dot(), nullptr);
  EXPECT_GT(set.gemm_mr(), 0);

  // Smoke: dot of ones.
  DoubleBuffer x(64), y(64);
  for (auto& v : x) v = 1.0;
  for (auto& v : y) v = 2.0;
  EXPECT_DOUBLE_EQ(set.dot()(64, x.data(), y.data()), 128.0);

  // axpy.
  set.axpy()(64, 3.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[63], 5.0);
}

TEST(Augem, KernelSetExposesAsmText) {
  KernelSet set(host_arch().best_native_isa());
  for (KernelKind kind : {KernelKind::kGemm, KernelKind::kGemv,
                          KernelKind::kAxpy, KernelKind::kDot}) {
    EXPECT_NE(set.asm_text(kind).find(".globl"), std::string::npos);
  }
  EXPECT_NE(set.asm_text(KernelKind::kGemm).find("dgemm_kernel"),
            std::string::npos);
  EXPECT_NE(set.asm_text(KernelKind::kDot).find("ddot_kernel"),
            std::string::npos);
}

TEST(Augem, KernelSetRejectsNonNativeIsa) {
  if (host_arch().has_fma4) GTEST_SKIP() << "host actually supports FMA4";
  EXPECT_THROW(KernelSet set(Isa::kFma4), Error);
}

TEST(Augem, KernelSetRejectsShufStrategy) {
  // Shuf needs row-panel B; the driver packs column-major B, and the error
  // says so.
  const Isa isa = host_arch().best_native_isa();
  const int w = isa_vector_doubles(isa);
  transform::CGenParams gemm_p;
  gemm_p.mr = w;
  gemm_p.nr = w;
  transform::CGenParams l1_p;
  l1_p.unroll = 4;
  try {
    KernelSet set(isa, gemm_p, opt::VecStrategy::kShuf, l1_p);
    FAIL() << "a Shuf KernelSet was built";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("kColMajor"), std::string::npos)
        << e.what();
  }
}

TEST(Augem, CustomTileKernelSet) {
  transform::CGenParams gemm_p;
  gemm_p.mr = 4;
  gemm_p.nr = 4;
  transform::CGenParams l1_p;
  l1_p.unroll = 8;
  KernelSet set(host_arch().best_native_isa(), gemm_p,
                opt::VecStrategy::kVdup, l1_p);
  EXPECT_EQ(set.gemm_mr(), 4);
  EXPECT_EQ(set.gemm_nr(), 4);

  // Run the GEMM kernel on a packed 8×8×16 block.
  const long mc = 8, nc = 8, kc = 16;
  Rng rng(2);
  DoubleBuffer pa(static_cast<std::size_t>(mc * kc));
  DoubleBuffer pb(static_cast<std::size_t>(nc * kc));
  DoubleBuffer c(static_cast<std::size_t>(mc * nc));
  rng.fill(pa.span());
  rng.fill(pb.span());
  set.gemm()(mc, nc, kc, pa.data(), pb.data(), c.data(), mc);
  // Check one element against a direct sum.
  double want = 0;
  for (long l = 0; l < kc; ++l) want += pa[l * mc + 3] * pb[5 * kc + l];
  EXPECT_NEAR(c[5 * mc + 3], want, 1e-12);
}

}  // namespace
}  // namespace augem
