#include "tuning/tuner.hpp"

#include <algorithm>
#include <optional>
#include <set>
#include <sstream>

#include "augem/augem.hpp"
#include "jit/jit.hpp"
#include "perf/clock.hpp"
#include "perf/compare.hpp"
#include "perf/stats.hpp"
#include "support/error.hpp"
#include "support/flops.hpp"

namespace augem::tuning {

using frontend::KernelKind;
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

/// How a trial samples: cold back-to-back calls, with no warm-up run and
/// no frequency probe. The rep count is TuneWorkload::reps.
constexpr perf::RunnerOptions kTrialSampling = {
    .warmup_min_reps = 0, .warmup_max_reps = 0, .check_frequency = false};

/// A generated kernel, loaded. The climb keeps its current cell's and the
/// step's best neighbor's to compare them; a probe binds it only while it
/// is timed, so at most two probes exist at once.
struct Built {
  jit::CompiledModule module;
  void* entry = nullptr;
  int mr = 0;
  int nr = 0;

  KernelProbe probe(KernelKind kind, const TuneWorkload& w) const {
    return KernelProbe(kind, entry, w.extents(kind), mr, nr);
  }
};

/// Generates, proves, assembles and loads one candidate.
Built build(const KernelConfig& config) {
  const asmgen::GeneratedKernel gen = generate_kernel(config);
  jit::CompiledModule module = jit::assemble(gen.asm_text);
  void* entry = module.raw_symbol(gen.name);
  return Built{std::move(module), entry, config.params.mr, config.params.nr};
}

/// One measured cell: its trial's index and, once timed, its built kernel,
/// which the climb keeps while it may compare it.
struct Cell {
  Point p;
  std::size_t idx = 0;
  std::optional<Built> built;
};

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

  /// Measures the unmeasured cell `p` and logs its trial.
  Cell measure(const Point& p) {
    Cell cell{p, result_.trials.size(), {}};
    Trial t;
    t.params = space_.materialize(p);
    // The served configuration at this point, proved like every served
    // kernel. Synthetic mode stops at the proof, so its determinism tests
    // exercise real pruning with model scores.
    KernelConfig config = default_options(kind_, result_.isa);
    config.params = t.params;
    try {
      if (opts_.synthetic) {
        (void)generate_kernel(config);
        t.mflops = space_.synthetic_score(p);
        t.ci_half = 0.0;
      } else {
        cell.built = build(config);
        const KernelProbe probe = cell.built->probe(kind_, w_);
        const perf::Measurement m =
            probe.measure(perf::BenchRunner(trial_runner(w_)));
        std::vector<double> samples;
        for (double s : m.samples_s)
          samples.push_back(mflops(probe.flops(), s));
        const perf::Summary s = perf::summarize(samples);
        t.mflops = s.median;
        t.ci_half = s.ci_half;
      }
      t.feasible = true;
      t.reason = InfeasibleReason::kNone;
    } catch (const Refusal& r) {
      t.reason = infeasible_reason(r.stage());
    } catch (const Error&) {
      // A generator defect or a failed bounds proof: the kernel never runs.
      t.reason = InfeasibleReason::kOther;
    }
    result_.trials.push_back(std::move(t));
    seen_.insert(space_.key(p));
    return cell;
  }

  const Trial& trial(std::size_t idx) const { return result_.trials[idx]; }

  /// Whether the climb moves from `here` to `to`, the step's best
  /// neighbor: on a higher model score in synthetic mode, else only when
  /// the two kernels, timed interleaved, read `faster` (perf/compare.hpp).
  /// An infeasible start always moves.
  bool improves(const Cell& here, const Cell& to) const {
    if (!trial(here.idx).feasible) return true;
    if (opts_.synthetic) return trial(to.idx).mflops > trial(here.idx).mflops;
    const KernelProbe a = here.built->probe(kind_, w_);
    const KernelProbe b = to.built->probe(kind_, w_);
    return perf::compare(a.call(), b.call()).verdict ==
           perf::Verdict::kFaster;
  }

  /// The result serving trial `served`.
  TuneResult finish(std::size_t served) {
    const Trial& t = result_.trials.at(served);
    AUGEM_CHECK(t.feasible, "no feasible configuration found");
    result_.params = t.params;
    result_.mflops = t.mflops;
    result_.search.trials_run = static_cast<int>(result_.trials.size());
    result_.search.elapsed_seconds = timer_.elapsed_s();
    return std::move(result_);
  }

 private:
  KernelKind kind_;
  const SearchSpace& space_;
  const TuneWorkload& w_;
  const SearchOptions& opts_;
  TuneResult result_;
  std::set<std::string> seen_;  ///< SearchSpace::key of every measured cell
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

  // The full sweep serves its best trial.
  if (opts.exhaustive) {
    std::size_t best = 0;
    for (const Point& p : space.all_points()) {
      if (run.out_of_budget()) break;
      const std::size_t idx = run.measure(p).idx;
      if (run.trial(idx).mflops > run.trial(best).mflops) best = idx;
    }
    return run.finish(best);
  }

  // Steepest ascent from the served default's cell: measure the unmeasured
  // single-axis neighbors of the current cell in axis order, and move to
  // the best-measured one only when it improves on the current cell. The
  // climb stops where no neighbor does, or when the budget is spent, and
  // serves the cell where it stops.
  Cell here = run.measure(space.cell(transform::default_params(kind, isa)));
  while (!run.out_of_budget()) {
    std::optional<Cell> best;
    for (const Point& q : space.neighbors(here.p)) {
      if (run.measured(q)) continue;
      if (run.out_of_budget()) break;
      Cell c = run.measure(q);
      if (run.trial(c.idx).feasible &&
          (!best || run.trial(c.idx).mflops > run.trial(best->idx).mflops))
        best = std::move(c);
    }
    if (!best || !run.improves(here, *best)) break;
    here = std::move(*best);
  }
  return run.finish(here.idx);
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
