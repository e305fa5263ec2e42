// End-to-end tests of the svSCAL extension template (the paper's stated
// future work: adding templates + specialized optimizers for new routines).
// Exercises the entire pipeline: frontend spec → transforms → identifier →
// planner → optimizer → assembly → VM and native execution → BLAS layer.

#include <gtest/gtest.h>

#include "augem/augem.hpp"
#include "blas/libraries.hpp"
#include "blas/reference.hpp"
#include "match/identifier.hpp"
#include "runtime/runtime_blas.hpp"
#include "support/buffer.hpp"
#include "support/rng.hpp"
#include "transform/ckernel.hpp"
#include "tuning/tuner.hpp"
#include "vm/machine.hpp"

namespace augem {
namespace {

using frontend::KernelKind;

TEST(ScalExtension, SimpleCShape) {
  const ir::Kernel k = frontend::make_scal_kernel();
  const std::string s = k.to_string();
  EXPECT_NE(s.find("void dscal_kernel(long n, double alpha, double* x)"),
            std::string::npos);
  EXPECT_NE(s.find("x[i] = (x[i] * alpha);"), std::string::npos);
}

TEST(ScalExtension, IdentifierFindsPairedSvScal) {
  transform::CGenParams p;
  p.unroll = 8;
  p.prefetch.enabled = false;
  ir::Kernel k = transform::generate_optimized_c(
      KernelKind::kScal, frontend::BLayout::kRowPanel, p);
  const match::MatchResult r = match::identify_templates(k);

  int sv_regions = 0;
  for (const match::Region& region : r.regions) {
    if (region.kind != match::TemplateKind::kSvScal) continue;
    ++sv_regions;
    if (region.unrolled()) {
      EXPECT_EQ(region.shape, match::UnrolledShape::kPaired);
      EXPECT_EQ(region.sv.size(), 8u);
      EXPECT_EQ(region.sv[0].scal, "alpha");
      EXPECT_EQ(region.name(), "svUnrolledSCAL");
    }
  }
  EXPECT_EQ(sv_regions, 2);  // main loop + remainder
}

TEST(ScalExtension, GeneratedAssemblyUsesVectorMultiply) {
  GenerateOptions o = default_options(KernelKind::kScal, Isa::kAvx);
  const auto g = generate_kernel(KernelKind::kScal, o);
  EXPECT_NE(g.asm_text.find("vbroadcastsd"), std::string::npos);
  EXPECT_NE(g.asm_text.find("vmulpd"), std::string::npos);
  EXPECT_NE(g.asm_text.find("svUnrolledSCAL"), std::string::npos);
  EXPECT_EQ(g.asm_text.find("vaddpd"), std::string::npos);  // no adds in SCAL
}

TEST(ScalExtension, VmSemanticsAcrossIsasAndSizes) {
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4}) {
    SCOPED_TRACE(isa_name(isa));
    GenerateOptions o = default_options(KernelKind::kScal, isa);
    const auto g = generate_kernel(KernelKind::kScal, o);
    for (long n : {0L, 1L, 7L, 16L, 100L}) {
      Rng rng(5);
      DoubleBuffer x(static_cast<std::size_t>(n));
      rng.fill(x.span());
      std::vector<double> want(x.begin(), x.end());
      for (double& v : want) v *= -2.5;
      vm::Machine m(g.insts);
      m.call({n, -2.5, x.data()});
      for (long i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(x[i], want[i]) << n << i;
    }
  }
}

TEST(ScalExtension, KernelSetExposesNativeScal) {
  KernelSet set(host_arch().best_native_isa());
  ASSERT_NE(set.scal(), nullptr);
  DoubleBuffer x(100);
  for (auto& v : x) v = 2.0;
  set.scal()(100, 3.0, x.data());
  for (auto& v : x) EXPECT_DOUBLE_EQ(v, 6.0);
  EXPECT_NE(set.asm_text(KernelKind::kScal).find("dscal_kernel"),
            std::string::npos);
}

TEST(ScalExtension, AllBlasLibrariesAgree) {
  runtime::RuntimeConfig config;
  config.use_persistent = false;
  config.tune_on_miss = false;
  runtime::KernelRuntime rt(config);
  auto augem_lib = runtime::make_runtime_blas(rt);
  std::vector<std::unique_ptr<blas::Blas>> libs;
  libs.push_back(blas::make_refblas());
  libs.push_back(blas::make_gotosim());
  libs.push_back(blas::make_atlsim());
  libs.push_back(blas::make_vendorsim());

  for (long n : {0L, 1L, 3L, 64L, 1001L}) {
    Rng rng(9);
    DoubleBuffer x(static_cast<std::size_t>(n));
    rng.fill(x.span());
    std::vector<double> ref(x.begin(), x.end());
    blas::ref::scal(n, 0.75, ref.data());

    std::vector<double> mine(x.begin(), x.end());
    augem_lib->scal(n, 0.75, mine.data());
    for (long i = 0; i < n; ++i) ASSERT_DOUBLE_EQ(mine[i], ref[i]);

    for (auto& lib : libs) {
      std::vector<double> theirs(x.begin(), x.end());
      lib->scal(n, 0.75, theirs.data());
      for (long i = 0; i < n; ++i)
        ASSERT_DOUBLE_EQ(theirs[i], ref[i]) << lib->name() << " " << n;
    }
  }
}

TEST(ScalExtension, TunerSearchesScal) {
  tuning::TuneWorkload w;
  w.vec_len = 2048;
  w.reps = 2;
  const auto r = tuning::tune_level1(KernelKind::kScal,
                                     host_arch().best_native_isa(), w);
  EXPECT_GT(r.mflops, 0.0);
  EXPECT_EQ(r.kind, KernelKind::kScal);
}

}  // namespace
}  // namespace augem
