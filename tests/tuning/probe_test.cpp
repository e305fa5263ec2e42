#include "tuning/probe.hpp"

#include <gtest/gtest.h>

#include "augem/augem.hpp"
#include "support/arch.hpp"
#include "support/flops.hpp"

namespace augem::tuning {
namespace {

using frontend::KernelKind;

class Probe : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_ = new KernelSet(host_arch().best_native_isa());
  }
  static void TearDownTestSuite() {
    delete set_;
    set_ = nullptr;
  }
  static KernelProbe probe(KernelKind kind, auto* fn, ProbeExtents e) {
    return KernelProbe(kind, reinterpret_cast<void*>(fn), e, set_->gemm_mr(),
                       set_->gemm_nr());
  }
  static KernelSet* set_;
};

KernelSet* Probe::set_ = nullptr;

TEST_F(Probe, GemmRoundsToTheRegisterTile) {
  const long mr = set_->gemm_mr(), nr = set_->gemm_nr();
  for (const ProbeExtents e : {ProbeExtents{4 * mr, 3 * nr, 32},
                               ProbeExtents{4 * mr + 1, 3 * nr + nr - 1, 17}}) {
    const KernelProbe p = probe(KernelKind::kGemm, set_->gemm(), e);
    EXPECT_EQ(p.extents().m, 4 * mr);
    EXPECT_EQ(p.extents().n, 3 * nr);
    EXPECT_EQ(p.extents().k, e.k);
    EXPECT_DOUBLE_EQ(p.flops(), gemm_flops(4 * mr, 3 * nr, e.k));
    p.call()();
  }
}

TEST_F(Probe, GemvAndLevel1FlopsMatchTheFormulas) {
  const KernelProbe gemv = probe(KernelKind::kGemv, set_->gemv(), {96, 40});
  EXPECT_DOUBLE_EQ(gemv.flops(), gemv_flops(96, 40));
  gemv.call()();

  const KernelProbe axpy = probe(KernelKind::kAxpy, set_->axpy(), {1001});
  EXPECT_DOUBLE_EQ(axpy.flops(), axpy_flops(1001));
  axpy.call()();

  const KernelProbe dot = probe(KernelKind::kDot, set_->dot(), {1001});
  EXPECT_DOUBLE_EQ(dot.flops(), dot_flops(1001));
  dot.call()();

  const KernelProbe scal = probe(KernelKind::kScal, set_->scal(), {1001});
  EXPECT_DOUBLE_EQ(scal.flops(), scal_flops(1001));
  EXPECT_EQ(scal.extents().m, 1001);
  scal.call()();
}

TEST_F(Probe, MeasureScalesFlopsByCallsPerSample) {
  const KernelProbe dot = probe(KernelKind::kDot, set_->dot(), {512});
  perf::RunnerOptions o;
  o.min_reps = o.max_reps = 2;
  o.check_frequency = false;
  const perf::Measurement m = dot.measure(perf::BenchRunner(o), 3);
  EXPECT_DOUBLE_EQ(m.flops, 3 * dot_flops(512));
  EXPECT_EQ(m.samples_s.size(), 2u);
}

TEST_F(Probe, GemmNeedsTheTile) {
  EXPECT_THROW(KernelProbe(KernelKind::kGemm,
                           reinterpret_cast<void*>(set_->gemm()), {8, 8, 8}),
               Error);
}

}  // namespace
}  // namespace augem::tuning
