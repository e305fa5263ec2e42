#include "tuning/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <sstream>

#include "asmgen/codegen.hpp"
#include "jit/jit.hpp"
#include "perf/clock.hpp"
#include "perf/stats.hpp"
#include "support/buffer.hpp"
#include "support/error.hpp"
#include "support/flops.hpp"
#include "support/rng.hpp"

namespace augem::tuning {

using frontend::KernelKind;
using opt::OptConfig;
using opt::VecStrategy;
using transform::CGenParams;

std::string Trial::describe() const {
  std::ostringstream os;
  os << params.to_string() << " strategy=" << opt::vec_strategy_name(strategy);
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
     << isa_name(config.isa) << ":\n";
  for (const Trial& t : trials) os << "  " << t.describe() << "\n";
  os << "search: " << search.algorithm << " seed=" << search.seed
     << " trials=" << search.trials_run << "/" << search.budget_trials
     << " grid=" << search.grid_size << " restarts=" << search.restarts_used
     << (search.wall_capped ? " (wall-capped)" : "") << "\n";
  os << "best: " << params.to_string() << " strategy="
     << opt::vec_strategy_name(config.strategy) << " ("
     << static_cast<long>(mflops) << " MFLOPS)\n";
  return os.str();
}

namespace {

/// Builds + JITs one candidate and times it `reps` times, writing the
/// per-invocation MFLOPS samples. Throws (planner/regalloc/codegen Error)
/// when the point is infeasible.
std::vector<double> time_candidate(KernelKind kind, const CGenParams& params,
                                   const OptConfig& config,
                                   const TuneWorkload& w, int reps) {
  ir::Kernel opt_c = transform::generate_optimized_c(
      kind, frontend::BLayout::kRowPanel, params);
  asmgen::GeneratedKernel gen =
      asmgen::generate_assembly(std::move(opt_c), config);
  jit::CompiledModule mod = jit::assemble(gen.asm_text);

  Rng rng(11);
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  const auto sample = [&](double flops, const std::function<void()>& fn) {
    for (int r = 0; r < reps; ++r)
      samples.push_back(mflops(flops, perf::time_call(fn)));
  };
  switch (kind) {
    case KernelKind::kGemm: {
      auto* fn = mod.fn<void(long, long, long, const double*, const double*,
                             double*, long)>(gen.name);
      DoubleBuffer a(static_cast<std::size_t>(w.mc * w.kc));
      DoubleBuffer b(static_cast<std::size_t>(w.nc * w.kc));
      DoubleBuffer c(static_cast<std::size_t>(w.nc * w.mc));
      rng.fill(a.span());
      rng.fill(b.span());
      const std::int64_t m_main = w.mc / params.mr * params.mr;
      const std::int64_t n_main = w.nc / params.nr * params.nr;
      sample(gemm_flops(m_main, n_main, w.kc), [&] {
        fn(m_main, n_main, w.kc, a.data(), b.data(), c.data(), w.mc);
      });
      break;
    }
    case KernelKind::kGemv: {
      auto* fn = mod.fn<void(long, long, const double*, long, const double*,
                             double*)>(gen.name);
      const std::int64_t m = w.vec_len / 8, n = 64;
      DoubleBuffer a(static_cast<std::size_t>(m * n));
      DoubleBuffer x(static_cast<std::size_t>(n));
      DoubleBuffer y(static_cast<std::size_t>(m));
      rng.fill(a.span());
      rng.fill(x.span());
      sample(gemv_flops(m, n),
             [&] { fn(m, n, a.data(), m, x.data(), y.data()); });
      break;
    }
    case KernelKind::kAxpy: {
      auto* fn = mod.fn<void(long, double, const double*, double*)>(gen.name);
      DoubleBuffer x(static_cast<std::size_t>(w.vec_len));
      DoubleBuffer y(static_cast<std::size_t>(w.vec_len));
      rng.fill(x.span());
      sample(axpy_flops(w.vec_len),
             [&] { fn(w.vec_len, 1.1, x.data(), y.data()); });
      break;
    }
    case KernelKind::kScal: {
      auto* fn = mod.fn<void(long, double, double*)>(gen.name);
      DoubleBuffer x(static_cast<std::size_t>(w.vec_len));
      rng.fill(x.span());
      sample(static_cast<double>(w.vec_len),
             [&] { fn(w.vec_len, 1.0000001, x.data()); });
      break;
    }
    case KernelKind::kDot: {
      auto* fn = mod.fn<double(long, const double*, const double*)>(gen.name);
      DoubleBuffer x(static_cast<std::size_t>(w.vec_len));
      DoubleBuffer y(static_cast<std::size_t>(w.vec_len));
      rng.fill(x.span());
      rng.fill(y.span());
      volatile double sink = 0.0;
      sample(dot_flops(w.vec_len),
             [&] { sink = fn(w.vec_len, x.data(), y.data()); });
      (void)sink;
      break;
    }
  }
  AUGEM_CHECK(!samples.empty(), "unknown kernel kind");
  return samples;
}

/// Checks feasibility without timing: the point must survive the full
/// generation pipeline (planner + regalloc + codegen). Used by synthetic
/// mode so determinism tests exercise real pruning with model scores.
void check_feasible(KernelKind kind, const CGenParams& params,
                    const OptConfig& config) {
  ir::Kernel opt_c = transform::generate_optimized_c(
      kind, frontend::BLayout::kRowPanel, params);
  (void)asmgen::generate_assembly(std::move(opt_c), config);
}

/// The search driver shared by hill-climbing and exhaustive mode: owns the
/// trial log, the dedup map, and the budget/wall accounting.
class SearchRun {
 public:
  SearchRun(KernelKind kind, Isa isa, const SearchSpace& space,
            const TuneWorkload& w, const SearchOptions& opts)
      : kind_(kind), space_(space), w_(w), opts_(opts) {
    result_.kind = kind;
    result_.config.isa = isa;
    const int grid = space.grid_size();
    budget_ = opts.exhaustive
                  ? grid
                  : std::min(grid, opts.max_trials > 0
                                       ? opts.max_trials
                                       : std::max(8, grid / 8));
    SearchMeta& m = result_.search;
    m.algorithm = opts.exhaustive ? "exhaustive" : "hillclimb";
    m.seed = opts.seed;
    m.budget_trials = budget_;
    m.budget_seconds = opts.max_seconds;
    m.grid_size = grid;
    m.synthetic = opts.synthetic;
  }

  bool out_of_budget() {
    if (static_cast<int>(result_.trials.size()) >= budget_) return true;
    if (opts_.max_seconds > 0.0 && timer_.elapsed_s() >= opts_.max_seconds) {
      result_.search.wall_capped = true;
      return true;
    }
    return false;
  }

  bool measured(const Point& p) const {
    return seen_.count(space_.key(p)) > 0;
  }

  /// Measures `p` (or returns the earlier trial), returning its index.
  std::size_t measure(const Point& p) {
    const std::string k = space_.key(p);
    if (const auto it = seen_.find(k); it != seen_.end()) return it->second;
    const Candidate c = space_.materialize(p);
    Trial t;
    t.params = c.params;
    t.strategy = c.strategy;
    OptConfig config = result_.config;
    config.strategy = c.strategy;
    try {
      if (opts_.synthetic) {
        check_feasible(kind_, t.params, config);
        t.mflops = space_.synthetic_score(p);
        t.ci_half = 0.0;
      } else {
        const int reps =
            opts_.fixed_reps > 0 ? opts_.fixed_reps : std::max(1, w_.reps);
        const perf::Summary s =
            perf::summarize(time_candidate(kind_, t.params, config, w_, reps));
        t.mflops = s.median;
        t.ci_half = s.ci_half;
      }
      t.feasible = true;
      t.reason = InfeasibleReason::kNone;
    } catch (const Error& e) {
      t.feasible = false;
      t.mflops = 0.0;
      t.reason = classify_infeasible(e.what());
    }
    const std::size_t idx = result_.trials.size();
    result_.trials.push_back(std::move(t));
    seen_.emplace(k, idx);
    const Trial& logged = result_.trials[idx];
    if (logged.feasible &&
        (best_ < 0 || logged.mflops > result_.trials[best_].mflops)) {
      best_ = static_cast<int>(idx);
      result_.params = logged.params;
      result_.config.strategy = logged.strategy;
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

  SearchMeta& meta() { return result_.search; }

 private:
  KernelKind kind_;
  const SearchSpace& space_;
  const TuneWorkload& w_;
  const SearchOptions& opts_;
  TuneResult result_;
  std::map<std::string, std::size_t> seen_;
  int best_ = -1;
  int budget_ = 0;
  perf::Stopwatch timer_;
};

}  // namespace

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

  Rng rng(opts.seed);
  Point cur = space.start();
  std::size_t cur_idx = run.measure(cur);
  int plateau = 0;
  while (!run.out_of_budget()) {
    // One steepest-ascent step: measure the unseen neighbors of `cur`, in
    // seeded-shuffled order so plateau walks don't always favor axis 0.
    std::vector<Point> neigh = space.neighbors(cur);
    for (std::size_t i = neigh.size(); i > 1; --i)
      std::swap(neigh[i - 1], neigh[rng.engine()() % i]);
    int step_best = -1;
    Point step_best_p;
    for (const Point& q : neigh) {
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

    bool moved = false;
    if (step_best >= 0) {
      const Trial& cand = run.trial(static_cast<std::size_t>(step_best));
      const Trial& here = run.trial(cur_idx);
      // CI-based acceptance: a move must clear the pooled 95% interval of
      // the two medians; a statistical tie is a (bounded) plateau move.
      const double pooled = std::sqrt(cand.ci_half * cand.ci_half +
                                      here.ci_half * here.ci_half);
      const double diff = cand.mflops - here.mflops;
      if (!here.feasible || diff > pooled) {
        plateau = 0;
        moved = true;
      } else if (diff > -pooled && plateau < opts.plateau_moves) {
        ++plateau;
        moved = true;
      }
      if (moved) {
        cur = step_best_p;
        cur_idx = static_cast<std::size_t>(step_best);
      }
    }
    if (!moved) {
      // Stalled: every neighbor is measured, infeasible, or worse beyond
      // the CI. Restart from a random unseen point.
      if (run.meta().restarts_used >= opts.restarts) break;
      ++run.meta().restarts_used;
      plateau = 0;
      bool found = false;
      for (int tries = 0; tries < 64 && !found; ++tries) {
        const Point q = space.random_point(rng);
        if (!run.measured(q)) {
          cur = q;
          found = true;
        }
      }
      if (!found || run.out_of_budget()) break;
      cur_idx = run.measure(cur);
    }
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
