#include "tuning/tuner.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "augem/augem.hpp"
#include "jit/jit.hpp"
#include "perf/compare.hpp"
#include "support/arch.hpp"

namespace augem::tuning {
namespace {

using frontend::KernelKind;

constexpr Isa kAllIsas[] = {Isa::kSse2, Isa::kAvx, Isa::kFma3, Isa::kFma4};

/// The climb's first round: its start (the served default's cell) and that
/// cell's single-axis neighbors.
std::size_t first_round(const SearchSpace& space, KernelKind kind, Isa isa) {
  return 1 + space.neighbors(space.cell(transform::default_params(kind, isa)))
                 .size();
}

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
  const Isa isa = host_arch().best_native_isa();
  const TuneResult r = tune_gemm(isa, quick_workload());
  EXPECT_GT(r.mflops, 0.0);
  EXPECT_GE(r.params.mr, 1);
  EXPECT_GE(r.params.nr, 1);
  // The trial log records every candidate, feasible or not: at least the
  // start and its neighbors.
  EXPECT_GE(r.trials.size(),
            first_round(SearchSpace::gemm(isa), KernelKind::kGemm, isa));
  int feasible = 0;
  for (const Trial& t : r.trials) feasible += t.feasible ? 1 : 0;
  EXPECT_GT(feasible, 0);
  // The winner's score appears among the trials.
  bool winner_logged = false;
  for (const Trial& t : r.trials) winner_logged |= t.mflops == r.mflops;
  EXPECT_TRUE(winner_logged);
}

TEST(Tuner, Level1SearchSweepsUnroll) {
  const Isa isa = host_arch().best_native_isa();
  const TuneResult r = tune_level1(KernelKind::kDot, isa, quick_workload());
  EXPECT_GT(r.mflops, 0.0);
  // The climb measures the start point plus its neighbors, and never more
  // than the grid.
  EXPECT_GE(r.trials.size(),
            first_round(SearchSpace::level1(), KernelKind::kDot, isa));
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

SearchOptions synthetic_opts() {
  SearchOptions o;
  o.synthetic = true;
  return o;
}

TEST(Search, MetaRecordsBudgetSeedAndGrid) {
  const TuneResult r = tune_gemm(host_arch().best_native_isa(),
                                 quick_workload(), synthetic_opts());
  EXPECT_EQ(r.search.algorithm, "hillclimb");
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
  // The climb has no seed: two synthetic runs take the same path.
  const Isa isa = host_arch().best_native_isa();
  const TuneResult a = tune_gemm(isa, quick_workload(), synthetic_opts());
  const TuneResult b = tune_gemm(isa, quick_workload(), synthetic_opts());
  ASSERT_EQ(a.trials.size(), b.trials.size());
  for (std::size_t i = 0; i < a.trials.size(); ++i) {
    EXPECT_EQ(a.trials[i].params.mr, b.trials[i].params.mr) << i;
    EXPECT_EQ(a.trials[i].params.nr, b.trials[i].params.nr) << i;
    EXPECT_EQ(a.trials[i].params.ku, b.trials[i].params.ku) << i;
    EXPECT_EQ(a.trials[i].params.prefetch.enabled,
              b.trials[i].params.prefetch.enabled) << i;
    EXPECT_EQ(a.trials[i].params.prefetch.distance,
              b.trials[i].params.prefetch.distance) << i;
    EXPECT_EQ(a.trials[i].mflops, b.trials[i].mflops) << i;
    EXPECT_EQ(a.trials[i].reason, b.trials[i].reason) << i;
  }
  EXPECT_EQ(a.params.mr, b.params.mr);
  EXPECT_EQ(a.params.nr, b.params.nr);
  EXPECT_EQ(a.mflops, b.mflops);
}

// The climb's first trial is the kernel the runtime serves untuned, and
// that kernel is feasible, for every kind and ISA on the full and the
// downsized spaces.
TEST(Search, ClimbStartsAtTheServedDefault) {
  const KernelKind kinds[] = {KernelKind::kGemm, KernelKind::kGemv,
                              KernelKind::kAxpy, KernelKind::kDot,
                              KernelKind::kScal};
  for (Isa isa : kAllIsas)
    for (KernelKind kind : kinds)
      for (bool downsized : {false, true}) {
        const SearchSpace space = kind == KernelKind::kGemm
                                      ? SearchSpace::gemm(isa, downsized)
                                      : SearchSpace::level1(downsized);
        const TuneResult r =
            tune_space(kind, isa, space, quick_workload(), synthetic_opts());
        const transform::CGenParams want = transform::default_params(kind, isa);
        ASSERT_FALSE(r.trials.empty());
        EXPECT_EQ(r.trials[0].params.to_string(), want.to_string())
            << frontend::kernel_kind_name(kind) << " " << isa_name(isa)
            << (downsized ? " downsized" : "");
        EXPECT_TRUE(r.trials[0].feasible)
            << frontend::kernel_kind_name(kind) << " " << isa_name(isa);
      }
}

// Property (deterministic half): on the downsized grid with the synthetic
// (noise-free) cost model, the climb must land on the exhaustive winner
// exactly — the model is monotone per axis, so steepest ascent reaches the
// grid maximum.
TEST(Search, SyntheticClimbFindsExhaustiveWinnerOnDownsizedGrid) {
  const Isa isa = host_arch().best_native_isa();
  const SearchSpace space = SearchSpace::gemm(isa, /*downsized=*/true);

  SearchOptions ex = synthetic_opts();
  ex.exhaustive = true;
  const TuneResult exhaustive =
      tune_space(KernelKind::kGemm, isa, space, quick_workload(), ex);
  const TuneResult searched = tune_space(KernelKind::kGemm, isa, space,
                                         quick_workload(), synthetic_opts());

  EXPECT_EQ(exhaustive.search.algorithm, "exhaustive");
  EXPECT_EQ(searched.search.algorithm, "hillclimb");
  EXPECT_LE(searched.trials.size(), exhaustive.trials.size());
  EXPECT_EQ(searched.params.mr, exhaustive.params.mr);
  EXPECT_EQ(searched.params.nr, exhaustive.params.nr);
  EXPECT_EQ(searched.params.ku, exhaustive.params.ku);
  EXPECT_EQ(searched.mflops, exhaustive.mflops);
}

// Property (measured half): with real timings at three reps per trial,
// the climb gives up no real speed against the full sweep on a downsized
// grid. Identical winning configurations pass without timing; otherwise
// the two winners, timed interleaved (perf::compare), must not read
// `slower`: the climb's winner is not beyond the 5% margin slower.
TEST(Search, MeasuredWinnerWithinPooledCiOfExhaustive) {
  const Isa isa = host_arch().best_native_isa();
  const SearchSpace space = SearchSpace::level1(/*downsized=*/true);
  TuneWorkload w = quick_workload();
  w.reps = 3;

  SearchOptions ex;
  ex.exhaustive = true;
  const TuneResult exhaustive =
      tune_space(KernelKind::kDot, isa, space, w, ex);
  const TuneResult searched = tune_space(KernelKind::kDot, isa, space, w, {});
  if (searched.params.to_string() == exhaustive.params.to_string()) return;

  KernelConfig o = default_options(KernelKind::kDot, isa);
  o.params = exhaustive.params;
  const asmgen::GeneratedKernel ex_gen = generate_kernel(o);
  o.params = searched.params;
  const asmgen::GeneratedKernel hc_gen = generate_kernel(o);
  const jit::CompiledModule ex_mod = jit::assemble(ex_gen.asm_text);
  const jit::CompiledModule hc_mod = jit::assemble(hc_gen.asm_text);
  const ProbeExtents e = w.extents(KernelKind::kDot);
  const KernelProbe ex_probe(KernelKind::kDot, ex_mod.raw_symbol(ex_gen.name),
                             e);
  const KernelProbe hc_probe(KernelKind::kDot, hc_mod.raw_symbol(hc_gen.name),
                             e);
  const perf::Comparison c = perf::compare(ex_probe.call(), hc_probe.call());
  EXPECT_NE(c.verdict, perf::Verdict::kSlower)
      << "search winner " << searched.params.to_string() << " vs exhaustive "
      << exhaustive.params.to_string() << ": time ratio " << c.ratio.median
      << " ±" << c.ratio.ci_half << " over " << c.rounds() << " rounds\n"
      << searched.report();
}

TEST(Search, InfeasibleReasonClassification) {
  // The refusal's stage decides the reason, never its message; integer
  // scratch exhaustion counts as register allocation.
  EXPECT_EQ(infeasible_reason(Refusal::Stage::kPlanner),
            InfeasibleReason::kPlannerRejected);
  EXPECT_EQ(infeasible_reason(Refusal::Stage::kVectorRegisters),
            InfeasibleReason::kRegallocExhausted);
  EXPECT_EQ(infeasible_reason(Refusal::Stage::kIntegerScratch),
            InfeasibleReason::kRegallocExhausted);

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

// The GEMM space contains tiles whose accumulators overflow the vector
// register budget ((2w,2w) and (4w,w): 16 registers on 256-bit ISAs); the
// planner rejects those, and the trial log must say so (not just
// "infeasible").
TEST(Search, PlannerRejectionsAreLoggedWithReason) {
  const TuneResult r = tune_gemm(host_arch().best_native_isa(),
                                 quick_workload(), synthetic_opts());
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
  setenv("AUGEM_TUNE_SYNTHETIC", "1", 1);
  const SearchOptions o = SearchOptions::from_env();
  unsetenv("AUGEM_TUNE_SYNTHETIC");
  EXPECT_TRUE(o.synthetic);
  EXPECT_FALSE(o.exhaustive);

  const SearchOptions d = SearchOptions::from_env();
  EXPECT_FALSE(d.synthetic);
}

// A trial samples TuneWorkload::reps cold calls: no untimed warm-up call
// and no frequency probe. AUGEM_BENCH_REPS=n (RunnerOptions::from_env)
// overrides that with n timed calls after one untimed call.
TEST(Search, TrialRunnerTimesRepsColdCalls) {
  TuneWorkload w;
  w.reps = 4;
  int calls = 0;
  const auto count = [&] { ++calls; };
  const perf::Measurement cold =
      perf::BenchRunner(trial_runner(w)).run(0.0, count);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(cold.samples_s.size(), 4u);
  EXPECT_EQ(cold.warmup_runs, 0);
  EXPECT_FALSE(trial_runner(w).check_frequency);

  setenv("AUGEM_BENCH_REPS", "3", 1);
  const perf::RunnerOptions fixed = trial_runner(w);
  unsetenv("AUGEM_BENCH_REPS");
  calls = 0;
  const perf::Measurement m = perf::BenchRunner(fixed).run(0.0, count);
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(m.samples_s.size(), 3u);
  EXPECT_EQ(m.warmup_runs, 1);
}

TEST(Search, SpaceAxesAndNeighbors) {
  const SearchSpace g = SearchSpace::gemm(Isa::kAvx);
  EXPECT_EQ(g.grid_size(), 120);
  const SearchSpace l = SearchSpace::level1();
  EXPECT_EQ(l.grid_size(), 35);

  // Neighbors are single-axis steps; the start cell has one neighbor per
  // in-range step.
  const Point start = l.cell(transform::default_params(KernelKind::kDot, Isa::kAvx));
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
    const transform::CGenParams c = l.materialize(p);
    saw_off |= !c.prefetch.enabled;
    saw_dist |= c.prefetch.enabled && c.prefetch.distance == 64;
  }
  EXPECT_TRUE(saw_off);
  EXPECT_TRUE(saw_dist);
}

// Every GEMM cell names a distinct kernel: with w = 2 (SSE2) the tile list
// {(w,2),(w,w),(2w,2),(2w,w),…} repeats two tiles, which must appear once.
TEST(Search, GemmTilesAreDistinct) {
  for (Isa isa : kAllIsas)
    for (bool downsized : {false, true}) {
      const SearchSpace g = SearchSpace::gemm(isa, downsized);
      std::set<std::string> kernels;
      for (const Point& p : g.all_points())
        kernels.insert(g.materialize(p).to_string());
      EXPECT_EQ(static_cast<int>(kernels.size()), g.grid_size())
          << isa_name(isa) << (downsized ? " downsized" : "");
    }
  EXPECT_EQ(SearchSpace::gemm(Isa::kSse2).grid_size(), 80);
  EXPECT_EQ(SearchSpace::gemm(Isa::kSse2, /*downsized=*/true).grid_size(), 8);
  EXPECT_EQ(SearchSpace::gemm(Isa::kFma3).grid_size(), 120);
}

}  // namespace
}  // namespace augem::tuning
