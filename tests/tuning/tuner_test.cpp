#include "tuning/tuner.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>

#include "support/arch.hpp"

namespace augem::tuning {
namespace {

using frontend::KernelKind;

TuneWorkload quick_workload() {
  TuneWorkload w;
  w.mc = 64;
  w.nc = 32;
  w.kc = 64;
  w.vec_len = 2048;
  w.reps = 2;
  return w;
}

TEST(Tuner, GemmSearchFindsFeasibleWinner) {
  const TuneResult r = tune_gemm(host_arch().best_native_isa(), quick_workload());
  EXPECT_GT(r.mflops, 0.0);
  EXPECT_GE(r.params.mr, 1);
  EXPECT_GE(r.params.nr, 1);
  // The trial log records every candidate, feasible or not.
  EXPECT_GE(r.trials.size(), 8u);
  int feasible = 0;
  for (const Trial& t : r.trials) feasible += t.feasible ? 1 : 0;
  EXPECT_GT(feasible, 0);
  // The winner's score appears among the trials.
  bool winner_logged = false;
  for (const Trial& t : r.trials) winner_logged |= t.mflops == r.mflops;
  EXPECT_TRUE(winner_logged);
}

TEST(Tuner, GemmSearchIncludesShufCandidate) {
  const TuneResult r = tune_gemm(host_arch().best_native_isa(), quick_workload());
  bool has_shuf = false;
  for (const Trial& t : r.trials)
    has_shuf |= t.strategy == opt::VecStrategy::kShuf;
  EXPECT_TRUE(has_shuf);
}

TEST(Tuner, Level1SearchSweepsUnroll) {
  const TuneResult r =
      tune_level1(KernelKind::kDot, host_arch().best_native_isa(), quick_workload());
  EXPECT_GT(r.mflops, 0.0);
  // The climb measures the start point plus at least its first neighbor
  // round, and never more than the grid.
  EXPECT_GE(r.trials.size(), 5u);
  EXPECT_LE(r.trials.size(),
            static_cast<std::size_t>(SearchSpace::level1().grid_size()));
  EXPECT_EQ(r.kind, KernelKind::kDot);
}

TEST(Tuner, Level1RejectsGemm) {
  EXPECT_THROW(tune_level1(KernelKind::kGemm, Isa::kSse2, quick_workload()),
               Error);
}

TEST(Tuner, ReportMentionsEveryTrial) {
  const TuneResult r =
      tune_level1(KernelKind::kAxpy, host_arch().best_native_isa(), quick_workload());
  const std::string report = r.report();
  EXPECT_NE(report.find("best:"), std::string::npos);
  EXPECT_NE(report.find("axpy"), std::string::npos);
  EXPECT_NE(report.find("MFLOPS"), std::string::npos);
}

// ---- search policy tests (docs/tuning.md) --------------------------------

SearchOptions synthetic_opts(std::uint64_t seed = 7) {
  SearchOptions o;
  o.seed = seed;
  o.synthetic = true;
  return o;
}

TEST(Search, MetaRecordsBudgetSeedAndGrid) {
  SearchOptions o = synthetic_opts(42);
  const TuneResult r =
      tune_gemm(host_arch().best_native_isa(), quick_workload(), o);
  EXPECT_EQ(r.search.algorithm, "hillclimb");
  EXPECT_EQ(r.search.seed, 42u);
  EXPECT_EQ(r.search.grid_size,
            SearchSpace::gemm(host_arch().best_native_isa()).grid_size());
  EXPECT_EQ(r.search.trials_run, static_cast<int>(r.trials.size()));
  EXPECT_GT(r.search.budget_trials, 0);
  // The default budget is at most a quarter of the exhaustive grid.
  EXPECT_LE(r.search.budget_trials, r.search.grid_size / 4);
  EXPECT_LE(static_cast<int>(r.trials.size()), r.search.budget_trials);
  EXPECT_TRUE(r.search.synthetic);
}

TEST(Search, SameSeedReproducesIdenticalTrialSequence) {
  const Isa isa = host_arch().best_native_isa();
  const TuneResult a = tune_gemm(isa, quick_workload(), synthetic_opts(99));
  const TuneResult b = tune_gemm(isa, quick_workload(), synthetic_opts(99));
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].params.mr, b.trials[i].params.mr) << i;
    EXPECT_EQ(a.trials[i].params.nr, b.trials[i].params.nr) << i;
    EXPECT_EQ(a.trials[i].params.ku, b.trials[i].params.ku) << i;
    EXPECT_EQ(a.trials[i].params.prefetch.enabled,
              b.trials[i].params.prefetch.enabled) << i;
    EXPECT_EQ(a.trials[i].params.prefetch.distance,
              b.trials[i].params.prefetch.distance) << i;
    EXPECT_EQ(a.trials[i].strategy, b.trials[i].strategy) << i;
    EXPECT_EQ(a.trials[i].mflops, b.trials[i].mflops) << i;
    EXPECT_EQ(a.trials[i].reason, b.trials[i].reason) << i;
  }
  EXPECT_EQ(a.params.mr, b.params.mr);
  EXPECT_EQ(a.params.nr, b.params.nr);
  EXPECT_EQ(a.mflops, b.mflops);
}

TEST(Search, DifferentSeedsMayDivergeButBothFindWinners) {
  const Isa isa = host_arch().best_native_isa();
  const TuneResult a = tune_gemm(isa, quick_workload(), synthetic_opts(1));
  const TuneResult b = tune_gemm(isa, quick_workload(), synthetic_opts(2));
  EXPECT_GT(a.mflops, 0.0);
  EXPECT_GT(b.mflops, 0.0);
}

// Property (satellite 1, deterministic half): on the downsized grid with
// the synthetic (noise-free) cost model, the seeded climb must land on the
// exhaustive winner exactly — the model is monotone per axis, so steepest
// ascent provably reaches the grid maximum.
TEST(Search, SyntheticClimbFindsExhaustiveWinnerOnDownsizedGrid) {
  const Isa isa = host_arch().best_native_isa();
  const SearchSpace space = SearchSpace::gemm(isa, /*downsized=*/true);

  SearchOptions ex = synthetic_opts(5);
  ex.exhaustive = true;
  const TuneResult exhaustive =
      tune_space(KernelKind::kGemm, isa, space, quick_workload(), ex);

  SearchOptions hc = synthetic_opts(5);
  hc.max_trials = space.grid_size();  // let the climb run out of moves
  const TuneResult searched =
      tune_space(KernelKind::kGemm, isa, space, quick_workload(), hc);

  EXPECT_EQ(exhaustive.search.algorithm, "exhaustive");
  EXPECT_EQ(searched.search.algorithm, "hillclimb");
  EXPECT_LE(searched.trials.size(), exhaustive.trials.size());
  EXPECT_EQ(searched.params.mr, exhaustive.params.mr);
  EXPECT_EQ(searched.params.nr, exhaustive.params.nr);
  EXPECT_EQ(searched.params.ku, exhaustive.params.ku);
  EXPECT_EQ(searched.mflops, exhaustive.mflops);
}

// Property (satellite 1, measured half): with real timings under fixed
// repetitions (the AUGEM_BENCH_REPS mode), the seeded search's winner must
// be within the pooled confidence interval of the exhaustive winner on a
// downsized grid — i.e. the search gives up no statistically significant
// performance vs the full sweep.
TEST(Search, MeasuredWinnerWithinPooledCiOfExhaustive) {
  const Isa isa = host_arch().best_native_isa();
  const SearchSpace space = SearchSpace::level1(/*downsized=*/true);
  TuneWorkload w = quick_workload();

  SearchOptions ex;
  ex.seed = 11;
  ex.exhaustive = true;
  ex.fixed_reps = 3;
  const TuneResult exhaustive =
      tune_space(KernelKind::kDot, isa, space, w, ex);

  SearchOptions hc;
  hc.seed = 11;
  hc.fixed_reps = 3;
  hc.max_trials = space.grid_size();
  const TuneResult searched = tune_space(KernelKind::kDot, isa, space, w, hc);

  // Pooled 95% CI of the two winning medians.
  double ex_ci = 0.0, hc_ci = 0.0;
  for (const Trial& t : exhaustive.trials)
    if (t.feasible && t.mflops == exhaustive.mflops) ex_ci = t.ci_half;
  for (const Trial& t : searched.trials)
    if (t.feasible && t.mflops == searched.mflops) hc_ci = t.ci_half;
  const double pooled = std::sqrt(ex_ci * ex_ci + hc_ci * hc_ci);
  EXPECT_TRUE(searched.mflops >= exhaustive.mflops ||
              exhaustive.mflops - searched.mflops <= pooled)
      << "search winner " << searched.mflops << " ±" << hc_ci
      << " vs exhaustive " << exhaustive.mflops << " ±" << ex_ci;
}

TEST(Search, WallClockCapStopsSearch) {
  SearchOptions o = synthetic_opts(3);
  o.max_seconds = 1e-9;  // expires after the first trial
  const TuneResult r =
      tune_gemm(host_arch().best_native_isa(), quick_workload(), o);
  EXPECT_TRUE(r.search.wall_capped);
  EXPECT_LT(r.trials.size(), 4u);
}

TEST(Search, InfeasibleReasonClassification) {
  EXPECT_EQ(classify_infeasible("regalloc.cpp:53: check failed: ... — out of "
                                "vector registers (affinity 'acc')"),
            InfeasibleReason::kRegallocExhausted);
  EXPECT_EQ(classify_infeasible("plan.cpp:284: vector register budget "
                                "exceeded: 14 persistent registers"),
            InfeasibleReason::kPlannerRejected);
  EXPECT_EQ(classify_infeasible("plan.cpp:117: Shuf strategy requires an nxn "
                                "tile"),
            InfeasibleReason::kPlannerRejected);
  EXPECT_EQ(classify_infeasible("as: unknown mnemonic"),
            InfeasibleReason::kOther);

  // Round-trip of every reason through its wire name.
  for (InfeasibleReason r :
       {InfeasibleReason::kNone, InfeasibleReason::kPlannerRejected,
        InfeasibleReason::kRegallocExhausted, InfeasibleReason::kOther}) {
    InfeasibleReason parsed;
    ASSERT_TRUE(parse_infeasible_reason(infeasible_reason_name(r), parsed));
    EXPECT_EQ(parsed, r);
  }
  InfeasibleReason ignored;
  EXPECT_FALSE(parse_infeasible_reason("bogus", ignored));
}

// The GEMM space contains shuf points on non-square tiles; the planner
// rejects those, and the trial log must say so (not just "infeasible").
TEST(Search, PlannerRejectionsAreLoggedWithReason) {
  const TuneResult r = tune_gemm(host_arch().best_native_isa(),
                                 quick_workload(), synthetic_opts(7));
  bool planner_rejected = false;
  for (const Trial& t : r.trials) {
    if (t.feasible) EXPECT_EQ(t.reason, InfeasibleReason::kNone);
    planner_rejected |= t.reason == InfeasibleReason::kPlannerRejected;
  }
  EXPECT_TRUE(planner_rejected);
  // describe() distinguishes the stages.
  Trial t;
  t.feasible = false;
  t.reason = InfeasibleReason::kPlannerRejected;
  EXPECT_NE(t.describe().find("planner rejected"), std::string::npos);
  t.reason = InfeasibleReason::kRegallocExhausted;
  EXPECT_NE(t.describe().find("regalloc exhausted"), std::string::npos);
}

TEST(Search, OptionsFromEnv) {
  setenv("AUGEM_TUNE_SEED", "12345", 1);
  setenv("AUGEM_TUNE_TRIALS", "9", 1);
  setenv("AUGEM_TUNE_SECONDS", "2.5", 1);
  setenv("AUGEM_TUNE_SYNTHETIC", "1", 1);
  setenv("AUGEM_BENCH_REPS", "4", 1);
  const SearchOptions o = SearchOptions::from_env();
  unsetenv("AUGEM_TUNE_SEED");
  unsetenv("AUGEM_TUNE_TRIALS");
  unsetenv("AUGEM_TUNE_SECONDS");
  unsetenv("AUGEM_TUNE_SYNTHETIC");
  unsetenv("AUGEM_BENCH_REPS");
  EXPECT_EQ(o.seed, 12345u);
  EXPECT_TRUE(o.seed_from_env);
  EXPECT_EQ(o.max_trials, 9);
  EXPECT_DOUBLE_EQ(o.max_seconds, 2.5);
  EXPECT_TRUE(o.synthetic);
  EXPECT_EQ(o.fixed_reps, 4);

  const SearchOptions d = SearchOptions::from_env();
  EXPECT_FALSE(d.seed_from_env);
  EXPECT_FALSE(d.synthetic);
  EXPECT_EQ(d.max_trials, 0);
}

TEST(Search, SpaceAxesAndNeighbors) {
  const SearchSpace g = SearchSpace::gemm(Isa::kAvx);
  EXPECT_EQ(g.grid_size(), 240);
  const SearchSpace l = SearchSpace::level1();
  EXPECT_EQ(l.grid_size(), 35);

  // Neighbors are single-axis steps; the start cell has one neighbor per
  // in-range step.
  const Point start = l.start();
  for (const Point& n : l.neighbors(start)) {
    int changed = 0;
    for (std::size_t a = 0; a < n.ix.size(); ++a)
      changed += n.ix[a] != start.ix[a] ? 1 : 0;
    EXPECT_EQ(changed, 1);
  }
  // all_points covers the grid exactly once.
  std::set<std::string> keys;
  for (const Point& p : l.all_points()) keys.insert(l.key(p));
  EXPECT_EQ(static_cast<int>(keys.size()), l.grid_size());
  // Prefetch axis materializes both "off" and concrete distances.
  bool saw_off = false, saw_dist = false;
  for (const Point& p : l.all_points()) {
    const Candidate c = l.materialize(p);
    saw_off |= !c.params.prefetch.enabled;
    saw_dist |= c.params.prefetch.enabled && c.params.prefetch.distance == 64;
  }
  EXPECT_TRUE(saw_off);
  EXPECT_TRUE(saw_dist);
}

}  // namespace
}  // namespace augem::tuning
