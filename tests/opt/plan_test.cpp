#include "opt/plan.hpp"

#include <gtest/gtest.h>

#include "match/identifier.hpp"
#include "transform/ckernel.hpp"

namespace augem::opt {
namespace {

using frontend::BLayout;
using frontend::KernelKind;

struct Prepared {
  ir::Kernel kernel;
  match::MatchResult match;
};

Prepared prepare(KernelKind kind, transform::CGenParams p,
                 BLayout layout = BLayout::kRowPanel) {
  p.prefetch.enabled = false;
  ir::Kernel k = transform::generate_optimized_c(kind, layout, p);
  match::MatchResult m = match::identify_templates(k);
  return {std::move(k), std::move(m)};
}

OptConfig cfg(Isa isa, VecStrategy s = VecStrategy::kVdup) {
  OptConfig c;
  c.isa = isa;
  c.strategy = s;
  return c;
}

TEST(Plan, GemmOuterVdupGroupsAccumulatorsByColumnBlocks) {
  transform::CGenParams p;
  p.mr = 8;
  p.nr = 4;
  Prepared pr = prepare(KernelKind::kGemm, p);
  const VecPlan plan = plan_vectorization(pr.match, cfg(Isa::kFma3));
  // 8 rows / width 4 = 2 row blocks × 4 columns = 8 accumulator groups.
  EXPECT_EQ(plan.groups.size(), 8u);
  EXPECT_EQ(plan.lane_of.size(), 32u);  // every res has a lane
  for (const AccGroup& g : plan.groups) {
    EXPECT_EQ(g.width, 4);
    EXPECT_EQ(g.lanes.size(), 4u);
  }
}

TEST(Plan, GemmWidthFallsBackWhenTileNarrow) {
  transform::CGenParams p;
  p.mr = 2;  // not divisible by the 4-lane AVX width
  p.nr = 2;
  Prepared pr = prepare(KernelKind::kGemm, p);
  const VecPlan plan = plan_vectorization(pr.match, cfg(Isa::kAvx));
  for (const auto& [rid, rp] : plan.regions)
    EXPECT_LE(rp.width, 2);  // falls back to 128-bit lanes
}

TEST(Plan, ScalarStrategyDisablesEverything) {
  transform::CGenParams p;
  p.mr = 4;
  p.nr = 4;
  Prepared pr = prepare(KernelKind::kGemm, p);
  const VecPlan plan =
      plan_vectorization(pr.match, cfg(Isa::kFma3, VecStrategy::kScalar));
  EXPECT_TRUE(plan.groups.empty());
  EXPECT_TRUE(plan.lane_of.empty());
  for (const auto& [rid, rp] : plan.regions) EXPECT_EQ(rp.width, 1);
}

TEST(Plan, ShufRequiresSquareTileAndContiguousB) {
  transform::CGenParams p;
  p.mr = 8;
  p.nr = 4;  // not n×n
  Prepared pr = prepare(KernelKind::kGemm, p);
  EXPECT_THROW(plan_vectorization(pr.match, cfg(Isa::kFma3, VecStrategy::kShuf)),
               Error);

  transform::CGenParams sq;
  sq.mr = 4;
  sq.nr = 4;
  Prepared col = prepare(KernelKind::kGemm, sq, BLayout::kColMajor);
  EXPECT_THROW(plan_vectorization(col.match, cfg(Isa::kFma3, VecStrategy::kShuf)),
               Error);

  Prepared row = prepare(KernelKind::kGemm, sq);
  const VecPlan plan =
      plan_vectorization(row.match, cfg(Isa::kFma3, VecStrategy::kShuf));
  bool any_shuf = false;
  for (const auto& [rid, rp] : plan.regions) any_shuf |= rp.use_shuf;
  EXPECT_TRUE(any_shuf);
}

TEST(Plan, ShufGroupsHoldRotatedDiagonals) {
  transform::CGenParams p;
  p.mr = 4;
  p.nr = 4;
  Prepared pr = prepare(KernelKind::kGemm, p);
  const VecPlan plan =
      plan_vectorization(pr.match, cfg(Isa::kFma3, VecStrategy::kShuf));
  EXPECT_EQ(plan.groups.size(), 4u);  // one per rotation
  // Within one group, all four lanes hold distinct accumulators.
  for (const AccGroup& g : plan.groups) {
    std::set<std::string> s(g.lanes.begin(), g.lanes.end());
    EXPECT_EQ(s.size(), 4u);
  }
}

TEST(Plan, DotSharedAccumulatorGetsPartials) {
  transform::CGenParams p;
  p.unroll = 16;
  Prepared pr = prepare(KernelKind::kDot, p);
  const VecPlan plan = plan_vectorization(pr.match, cfg(Isa::kFma3));
  ASSERT_TRUE(plan.partials_of.count("res"));
  EXPECT_EQ(plan.partials_of.at("res").size(), 4u);  // 16 / width 4
  EXPECT_TRUE(plan.reduce_scalars.count("res"));
}

TEST(Plan, AxpyBroadcastsAlpha) {
  transform::CGenParams p;
  p.unroll = 8;
  Prepared pr = prepare(KernelKind::kAxpy, p);
  const VecPlan plan = plan_vectorization(pr.match, cfg(Isa::kAvx));
  EXPECT_TRUE(plan.broadcast_scals.count("alpha"));
}

TEST(Plan, GemvBroadcastsLoadedScal) {
  transform::CGenParams p;
  p.unroll = 8;
  Prepared pr = prepare(KernelKind::kGemv, p);
  const VecPlan plan = plan_vectorization(pr.match, cfg(Isa::kFma3));
  EXPECT_TRUE(plan.broadcast_scals.count("scal"));
}

TEST(Plan, StoreRegionsInheritAccumulatorWidth) {
  transform::CGenParams p;
  p.mr = 8;
  p.nr = 2;
  Prepared pr = prepare(KernelKind::kGemm, p);
  const VecPlan plan = plan_vectorization(pr.match, cfg(Isa::kFma3));
  int vector_store_regions = 0;
  for (const match::Region& r : pr.match.regions) {
    if (r.kind != match::TemplateKind::kMmStore) continue;
    EXPECT_EQ(plan.regions.at(r.id).width, 4);
    ++vector_store_regions;
  }
  EXPECT_EQ(vector_store_regions, 2);  // one per C cursor
}

TEST(Plan, RegisterBudgetEnforced) {
  // A 32×8 tile needs 64 quarter-width groups — far beyond 16 registers.
  transform::CGenParams p;
  p.mr = 32;
  p.nr = 8;
  Prepared pr = prepare(KernelKind::kGemm, p);
  EXPECT_THROW(plan_vectorization(pr.match, cfg(Isa::kFma3)), Error);
}

TEST(Plan, KuRegionsShareGroups) {
  transform::CGenParams p;
  p.mr = 4;
  p.nr = 2;
  p.ku = 2;
  Prepared pr = prepare(KernelKind::kGemm, p);
  const VecPlan plan = plan_vectorization(pr.match, cfg(Isa::kFma3));
  // Three COMP regions (two unrolled copies + remainder) share the same
  // accumulators: group count stays mr/w * nr = 2.
  EXPECT_EQ(plan.groups.size(), 2u);
}

TEST(Plan, StrategyNames) {
  EXPECT_STREQ(vec_strategy_name(VecStrategy::kVdup), "vdup");
  EXPECT_STREQ(vec_strategy_name(VecStrategy::kShuf), "shuf");
  EXPECT_STREQ(vec_strategy_name(VecStrategy::kScalar), "scalar");
  for (VecStrategy s :
       {VecStrategy::kVdup, VecStrategy::kShuf, VecStrategy::kScalar})
    EXPECT_EQ(parse_vec_strategy(vec_strategy_name(s)), s);
  EXPECT_FALSE(parse_vec_strategy("auto").has_value());
  EXPECT_EQ(OptConfig{}.strategy, VecStrategy::kVdup);
}

}  // namespace
}  // namespace augem::opt
