// Randomized property sweep: the full pipeline (transform → match → plan →
// optimize → assemble) must produce semantically correct machine code for
// *random* parameter combinations, ISAs and problem sizes — executed in the
// VM against the reference oracle. Configurations the planner rejects
// (register budget, Shuf shape) are skipped, exactly as the tuner does.

#include <gtest/gtest.h>

#include "support/error.hpp"
#include "../common/genrun.hpp"

namespace augem::testing {
namespace {

using frontend::BLayout;
using frontend::KernelKind;
using opt::OptConfig;
using opt::VecStrategy;
using transform::CGenParams;

constexpr Isa kIsas[] = {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4};
constexpr VecStrategy kStrategies[] = {VecStrategy::kVdup, VecStrategy::kShuf,
                                       VecStrategy::kScalar};

class PropertySweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(PropertySweep, RandomGemmConfig) {
  Rng rng(GetParam() * 2654435761u + 17);
  CGenParams p;
  p.mr = static_cast<int>(rng.uniform_int(1, 4)) * 2;       // 2..8
  p.nr = 1 << rng.uniform_int(0, 2);                        // 1, 2, 4
  p.ku = 1 << rng.uniform_int(0, 2);                        // 1, 2, 4
  p.prefetch.enabled = rng.uniform_int(0, 1) == 1;
  p.prefetch.distance = static_cast<int>(rng.uniform_int(1, 32));
  OptConfig cfg;
  cfg.isa = kIsas[rng.uniform_int(0, 3)];
  cfg.strategy = kStrategies[rng.uniform_int(0, 2)];
  cfg.schedule = rng.uniform_int(0, 1) == 1;
  cfg.regalloc = rng.uniform_int(0, 1) == 1
                     ? opt::RegAllocPolicy::kPerArrayQueues
                     : opt::RegAllocPolicy::kSinglePool;
  const BLayout layout =
      rng.uniform_int(0, 3) == 0 ? BLayout::kColMajor : BLayout::kRowPanel;

  SCOPED_TRACE(std::string(isa_name(cfg.isa)) + " " +
               opt::vec_strategy_name(cfg.strategy) + " " + p.to_string());
  try {
    auto g = build_kernel(KernelKind::kGemm, p, cfg, layout);
    const std::int64_t mc = p.mr * rng.uniform_int(1, 3);
    const std::int64_t nc = p.nr * rng.uniform_int(1, 3);
    const std::int64_t kc = rng.uniform_int(1, 12);
    const std::int64_t ldc = mc + rng.uniform_int(0, 5);
    run_gemm(g, Runner::kVm, mc, nc, kc, ldc, layout, GetParam());
  } catch (const Error&) {
    // Planner rejected the point (register budget / Shuf shape): valid.
  }
}

TEST_P(PropertySweep, RandomLevel1Config) {
  Rng rng(GetParam() * 40503u + 5);
  CGenParams p;
  p.unroll = static_cast<int>(rng.uniform_int(1, 32));
  p.prefetch.enabled = rng.uniform_int(0, 1) == 1;
  OptConfig cfg;
  cfg.isa = kIsas[rng.uniform_int(0, 3)];
  cfg.schedule = rng.uniform_int(0, 1) == 1;

  const std::int64_t n = rng.uniform_int(0, 150);
  SCOPED_TRACE(std::string(isa_name(cfg.isa)) + " unroll=" +
               std::to_string(p.unroll) + " n=" + std::to_string(n));
  switch (GetParam() % 3) {
    case 0: {
      auto g = build_kernel(KernelKind::kAxpy, p, cfg);
      run_axpy(g, Runner::kVm, n, GetParam());
      break;
    }
    case 1: {
      auto g = build_kernel(KernelKind::kDot, p, cfg);
      run_dot(g, Runner::kVm, n, GetParam());
      break;
    }
    default: {
      auto g = build_kernel(KernelKind::kGemv, p, cfg);
      const std::int64_t m = rng.uniform_int(1, 40);
      const std::int64_t cols = rng.uniform_int(1, 8);
      run_gemv(g, Runner::kVm, m, cols, m + rng.uniform_int(0, 3), GetParam());
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep, ::testing::Range(0u, 24u));

}  // namespace
}  // namespace augem::testing
