// End-to-end semantic tests: full pipeline → machine IR → VM, checked
// against the reference oracle, across kernels × ISAs × strategies ×
// tile parameters. FMA4 — which the host cannot execute — is covered here.

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "../common/genrun.hpp"

namespace augem::testing {
namespace {

using frontend::BLayout;
using frontend::KernelKind;
using opt::OptConfig;
using opt::RegAllocPolicy;
using opt::VecStrategy;
using transform::CGenParams;

OptConfig cfg(Isa isa, VecStrategy s = VecStrategy::kVdup) {
  OptConfig c;
  c.isa = isa;
  c.strategy = s;
  return c;
}

TEST(CodegenVm, DotMinimalScalar) {
  CGenParams p;
  p.unroll = 1;
  auto g = build_kernel(KernelKind::kDot, p, cfg(Isa::kSse2));
  run_dot(g, Runner::kVm, 5);
}

TEST(CodegenVm, DotUnrolledEveryIsa) {
  CGenParams p;
  p.unroll = 8;
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4}) {
    SCOPED_TRACE(isa_name(isa));
    auto g = build_kernel(KernelKind::kDot, p, cfg(isa));
    run_dot(g, Runner::kVm, 37);
    run_dot(g, Runner::kVm, 8);
    run_dot(g, Runner::kVm, 3);   // remainder only
    run_dot(g, Runner::kVm, 0);   // empty
  }
}

TEST(CodegenVm, AxpyEveryIsa) {
  CGenParams p;
  p.unroll = 8;
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4}) {
    SCOPED_TRACE(isa_name(isa));
    auto g = build_kernel(KernelKind::kAxpy, p, cfg(isa));
    run_axpy(g, Runner::kVm, 29);
    run_axpy(g, Runner::kVm, 7);
    run_axpy(g, Runner::kVm, 0);
  }
}

TEST(CodegenVm, GemvEveryIsa) {
  CGenParams p;
  p.unroll = 8;
  for (Isa isa : {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4}) {
    SCOPED_TRACE(isa_name(isa));
    auto g = build_kernel(KernelKind::kGemv, p, cfg(isa));
    run_gemv(g, Runner::kVm, 17, 5, 19);
    run_gemv(g, Runner::kVm, 8, 3, 8);
    run_gemv(g, Runner::kVm, 3, 2, 5);
  }
}

TEST(CodegenVm, GemmMinimalScalar) {
  CGenParams p;
  p.mr = 1;
  p.nr = 1;
  p.ku = 1;
  auto g = build_kernel(KernelKind::kGemm, p, cfg(Isa::kSse2));
  run_gemm(g, Runner::kVm, 2, 2, 3, 2, BLayout::kRowPanel);
}

// gtest names each case by printing its raw bytes, so the struct must have
// no implicit padding: padding would carry stack garbage into the test name
// and the name would change from build to build and run to run.
struct GemmVmCase {
  GemmVmCase(Isa i, VecStrategy s, int m, int n, int k, BLayout l)
      : isa(i), strategy(s), mr(m), nr(n), ku(k), layout(l) {}

  Isa isa;
  std::uint8_t zero_pad[3] = {};
  VecStrategy strategy;
  int mr, nr, ku;
  BLayout layout;
};
static_assert(std::has_unique_object_representations_v<GemmVmCase>);

class GemmVm : public ::testing::TestWithParam<GemmVmCase> {};

TEST_P(GemmVm, MatchesReference) {
  const GemmVmCase c = GetParam();
  CGenParams p;
  p.mr = c.mr;
  p.nr = c.nr;
  p.ku = c.ku;
  auto g = build_kernel(KernelKind::kGemm, p, cfg(c.isa, c.strategy), c.layout);
  run_gemm(g, Runner::kVm, 2 * c.mr, 2 * c.nr, 7, 2 * c.mr + 3, c.layout);
  run_gemm(g, Runner::kVm, c.mr, c.nr, 1, c.mr, c.layout);
}

INSTANTIATE_TEST_SUITE_P(
    IsaStrategySweep, GemmVm,
    ::testing::Values(
        GemmVmCase{Isa::kSse2, VecStrategy::kVdup, 2, 2, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kSse2, VecStrategy::kShuf, 2, 2, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kSse2, VecStrategy::kVdup, 4, 2, 2, BLayout::kRowPanel},
        GemmVmCase{Isa::kAvx, VecStrategy::kVdup, 4, 4, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kAvx, VecStrategy::kShuf, 4, 4, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kAvx, VecStrategy::kVdup, 8, 2, 2, BLayout::kRowPanel},
        GemmVmCase{Isa::kFma3, VecStrategy::kVdup, 4, 4, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kFma3, VecStrategy::kShuf, 4, 4, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kFma3, VecStrategy::kVdup, 8, 4, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kFma4, VecStrategy::kVdup, 4, 4, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kFma4, VecStrategy::kShuf, 4, 4, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kFma4, VecStrategy::kVdup, 8, 2, 2, BLayout::kRowPanel},
        GemmVmCase{Isa::kAvx, VecStrategy::kVdup, 4, 2, 1, BLayout::kColMajor},
        GemmVmCase{Isa::kFma3, VecStrategy::kVdup, 8, 2, 1, BLayout::kColMajor},
        GemmVmCase{Isa::kSse2, VecStrategy::kScalar, 2, 2, 1, BLayout::kRowPanel},
        GemmVmCase{Isa::kFma3, VecStrategy::kScalar, 2, 2, 1, BLayout::kRowPanel}));

TEST(CodegenVm, SinglePoolPolicyStillCorrect) {
  CGenParams p;
  p.mr = 4;
  p.nr = 2;
  OptConfig c = cfg(Isa::kFma3);
  c.regalloc = RegAllocPolicy::kSinglePool;
  auto g = build_kernel(KernelKind::kGemm, p, c);
  run_gemm(g, Runner::kVm, 8, 4, 5, 9, BLayout::kRowPanel);
}

TEST(CodegenVm, SchedulingPreservesSemantics) {
  CGenParams p;
  p.mr = 4;
  p.nr = 4;
  for (bool sched : {false, true}) {
    OptConfig c = cfg(Isa::kFma3);
    c.schedule = sched;
    auto g = build_kernel(KernelKind::kGemm, p, c);
    run_gemm(g, Runner::kVm, 8, 8, 6, 11, BLayout::kRowPanel);
  }
}

TEST(CodegenVm, PrefetchDoesNotChangeResults) {
  CGenParams p;
  p.mr = 4;
  p.nr = 2;
  p.prefetch.enabled = true;
  p.prefetch.distance = 8;
  auto g = build_kernel(KernelKind::kGemm, p, cfg(Isa::kFma3));
  run_gemm(g, Runner::kVm, 8, 4, 9, 8, BLayout::kRowPanel);
}

}  // namespace
}  // namespace augem::testing
