#include "tuning/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "asmgen/codegen.hpp"
#include "augem/augem.hpp"
#include "jit/jit.hpp"
#include "perf/clock.hpp"
#include "perf/stats.hpp"
#include "support/error.hpp"
#include "support/flops.hpp"

namespace augem::tuning {

using frontend::KernelKind;
using opt::OptConfig;
using transform::CGenParams;

std::string Trial::describe() const {
  std::ostringstream os;
  os << params.to_string();
  if (feasible) {
    os << " -> " << static_cast<long>(mflops) << " MFLOPS"
       << " ±" << static_cast<long>(ci_half);
  } else {
    os << " -> infeasible: ";
    switch (reason) {
      case InfeasibleReason::kPlannerRejected:
        os << "planner rejected";
        break;
      case InfeasibleReason::kRegallocExhausted:
        os << "regalloc exhausted";
        break;
      default:
        os << "generation failed";
        break;
    }
  }
  return os.str();
}

std::string TuneResult::report() const {
  std::ostringstream os;
  os << "tuning " << frontend::kernel_kind_name(kind) << " on "
     << isa_name(isa) << ":\n";
  for (const Trial& t : trials) os << "  " << t.describe() << "\n";
  os << "search: " << search.algorithm << " trials=" << search.trials_run
     << "/" << search.budget_trials << " grid=" << search.grid_size << "\n";
  os << "best: " << params.to_string() << " ("
     << static_cast<long>(mflops) << " MFLOPS)\n";
  return os.str();
}

namespace {

/// The packed-B layout every GEMM candidate is generated, timed and served
/// in: the generator default, which is the layout the driver packs.
constexpr frontend::BLayout kServedLayout = GenerateOptions{}.layout;

/// How a trial samples: cold back-to-back calls, with no warm-up run and
/// no frequency probe. The rep count is TuneWorkload::reps.
constexpr perf::RunnerOptions kTrialSampling = {
    .warmup_min_reps = 0, .warmup_max_reps = 0, .check_frequency = false};

/// Builds + JITs one candidate and times it with the trial runner,
/// summarizing its per-call MFLOPS. Throws augem::Refusal when the
/// generator refuses the point.
perf::Summary time_candidate(KernelKind kind, const CGenParams& params,
                             const OptConfig& config, const TuneWorkload& w) {
  ir::Kernel opt_c =
      transform::generate_optimized_c(kind, kServedLayout, params);
  asmgen::GeneratedKernel gen =
      asmgen::generate_assembly(std::move(opt_c), config);
  const jit::CompiledModule mod = jit::assemble(gen.asm_text);
  const KernelProbe probe(kind, mod.raw_symbol(gen.name), w.extents(kind),
                          params.mr, params.nr);
  const perf::Measurement m = probe.measure(perf::BenchRunner(trial_runner(w)));
  std::vector<double> samples;
  for (double s : m.samples_s) samples.push_back(mflops(probe.flops(), s));
  return perf::summarize(samples);
}

/// Checks feasibility without timing: the point must survive the full
/// generation pipeline (planner + regalloc + codegen). Used by synthetic
/// mode so determinism tests exercise real pruning with model scores.
void check_feasible(KernelKind kind, const CGenParams& params,
                    const OptConfig& config) {
  ir::Kernel opt_c =
      transform::generate_optimized_c(kind, kServedLayout, params);
  (void)asmgen::generate_assembly(std::move(opt_c), config);
}

/// The search driver shared by hill-climbing and exhaustive mode: owns the
/// trial log, the set of measured cells, and the trial budget.
class SearchRun {
 public:
  SearchRun(KernelKind kind, Isa isa, const SearchSpace& space,
            const TuneWorkload& w, const SearchOptions& opts)
      : kind_(kind), space_(space), w_(w), opts_(opts) {
    result_.kind = kind;
    result_.isa = isa;
    const int grid = space.grid_size();
    SearchMeta& m = result_.search;
    m.algorithm = opts.exhaustive ? "exhaustive" : "hillclimb";
    m.budget_trials =
        opts.exhaustive ? grid : std::min(grid, std::max(8, grid / 8));
    m.grid_size = grid;
    m.synthetic = opts.synthetic;
  }

  bool out_of_budget() const {
    return static_cast<int>(result_.trials.size()) >=
           result_.search.budget_trials;
  }

  bool measured(const Point& p) const {
    return seen_.count(space_.key(p)) > 0;
  }

  /// Measures the unmeasured cell `p`, returning its trial's index.
  std::size_t measure(const Point& p) {
    Trial t;
    t.params = space_.materialize(p);
    OptConfig config;
    config.isa = result_.isa;
    try {
      if (opts_.synthetic) {
        check_feasible(kind_, t.params, config);
        t.mflops = space_.synthetic_score(p);
        t.ci_half = 0.0;
      } else {
        const perf::Summary s = time_candidate(kind_, t.params, config, w_);
        t.mflops = s.median;
        t.ci_half = s.ci_half;
      }
      t.feasible = true;
      t.reason = InfeasibleReason::kNone;
    } catch (const Refusal& r) {
      t.reason = infeasible_reason(r.stage());
    } catch (const Error&) {
      t.reason = InfeasibleReason::kOther;
    }
    const std::size_t idx = result_.trials.size();
    result_.trials.push_back(std::move(t));
    seen_.insert(space_.key(p));
    const Trial& logged = result_.trials[idx];
    if (logged.feasible &&
        (best_ < 0 || logged.mflops > result_.trials[best_].mflops)) {
      best_ = static_cast<int>(idx);
      result_.params = logged.params;
    }
    return idx;
  }

  const Trial& trial(std::size_t idx) const { return result_.trials[idx]; }

  TuneResult finish() {
    result_.search.trials_run = static_cast<int>(result_.trials.size());
    result_.search.elapsed_seconds = timer_.elapsed_s();
    AUGEM_CHECK(best_ >= 0, "no feasible configuration found");
    result_.mflops = result_.trials[static_cast<std::size_t>(best_)].mflops;
    return std::move(result_);
  }

 private:
  KernelKind kind_;
  const SearchSpace& space_;
  const TuneWorkload& w_;
  const SearchOptions& opts_;
  TuneResult result_;
  std::set<std::string> seen_;  ///< SearchSpace::key of every measured cell
  int best_ = -1;
  perf::Stopwatch timer_;
};

}  // namespace

ProbeExtents TuneWorkload::extents(KernelKind kind) const {
  switch (kind) {
    case KernelKind::kGemm: return {mc, nc, kc};
    case KernelKind::kGemv: return {vec_len / 8, 64, 0};
    default: return {vec_len, 0, 0};
  }
}

perf::RunnerOptions trial_runner(const TuneWorkload& w) {
  perf::RunnerOptions r = kTrialSampling;
  r.min_reps = r.max_reps = std::max(1, w.reps);
  return perf::RunnerOptions::from_env(r);
}

TuneResult tune_space(KernelKind kind, Isa isa, const SearchSpace& space,
                      const TuneWorkload& w, const SearchOptions& opts) {
  SearchRun run(kind, isa, space, w, opts);

  if (opts.exhaustive) {
    for (const Point& p : space.all_points()) {
      if (run.out_of_budget()) break;
      run.measure(p);
    }
    return run.finish();
  }

  // Steepest ascent from the served default's cell: measure the unmeasured
  // single-axis neighbors of the current cell in axis order, and move to
  // the best one only when it clears the pooled 95% interval of the two
  // medians. The climb stops where no neighbor does, or when the budget
  // is spent; the winner is the best trial measured on the way.
  Point cur = space.cell(transform::default_params(kind, isa));
  std::size_t cur_idx = run.measure(cur);
  while (!run.out_of_budget()) {
    int step_best = -1;
    Point step_best_p;
    for (const Point& q : space.neighbors(cur)) {
      if (run.measured(q)) continue;
      if (run.out_of_budget()) break;
      const std::size_t idx = run.measure(q);
      const Trial& t = run.trial(idx);
      if (!t.feasible) continue;
      if (step_best < 0 ||
          t.mflops > run.trial(static_cast<std::size_t>(step_best)).mflops) {
        step_best = static_cast<int>(idx);
        step_best_p = q;
      }
    }
    if (step_best < 0) break;
    const Trial& cand = run.trial(static_cast<std::size_t>(step_best));
    const Trial& here = run.trial(cur_idx);
    const double pooled = std::sqrt(cand.ci_half * cand.ci_half +
                                    here.ci_half * here.ci_half);
    if (here.feasible && cand.mflops - here.mflops <= pooled) break;
    cur = step_best_p;
    cur_idx = static_cast<std::size_t>(step_best);
  }
  return run.finish();
}

TuneResult tune_gemm(Isa isa, const TuneWorkload& workload,
                     const SearchOptions& opts) {
  return tune_space(KernelKind::kGemm, isa, SearchSpace::gemm(isa), workload,
                    opts);
}

TuneResult tune_level1(KernelKind kind, Isa isa, const TuneWorkload& workload,
                       const SearchOptions& opts) {
  AUGEM_CHECK(kind != KernelKind::kGemm, "use tune_gemm for GEMM");
  return tune_space(kind, isa, SearchSpace::level1(), workload, opts);
}

}  // namespace augem::tuning
