#pragma once
// Empirical tuning (paper §2.1): "our Optimized C Kernel Generator
// automatically experiments with different unrolling and unroll&jam
// configurations and selects the best performing configurations based on
// the performance of their optimized code."
//
// Where the paper (and the first nine PRs of this repo) swept the whole
// candidate grid, the tuner now runs the seeded, budgeted hill-climbing
// search described in docs/tuning.md over the axis-factored space in
// tuning/search.hpp: generate + JIT + time each visited point, accept moves
// whose improvement clears the pooled confidence interval of the two
// measurements, treat statistical ties as plateau moves, and restart from
// random points when a climb stalls. Configurations the planner or the
// register allocator rejects are logged as infeasible (with the stage that
// rejected them) and pruned, exactly like ATLAS-style search spaces.

#include <string>
#include <vector>

#include "blas/driver.hpp"
#include "frontend/kernels.hpp"
#include "opt/plan.hpp"
#include "transform/ckernel.hpp"
#include "tuning/search.hpp"

namespace augem::tuning {

/// One evaluated search point.
struct Trial {
  transform::CGenParams params;
  opt::VecStrategy strategy = opt::VecStrategy::kVdup;
  double mflops = 0.0;   ///< median MFLOPS over the timing reps; 0 infeasible
  double ci_half = 0.0;  ///< 95% CI half-width on the median (stats.hpp)
  bool feasible = false;
  InfeasibleReason reason = InfeasibleReason::kNone;  ///< why infeasible
  std::string describe() const;
};

/// Search outcome: the winning configuration plus the full trial log and
/// the metadata describing how the search ran (seed, budgets, restarts).
struct TuneResult {
  frontend::KernelKind kind{};
  transform::CGenParams params;
  opt::OptConfig config;
  double mflops = 0.0;
  std::vector<Trial> trials;
  SearchMeta search;

  std::string report() const;
};

/// Workload extents used for timing (packed-block shapes for GEMM,
/// vector length for the Level-1/2 kernels).
struct TuneWorkload {
  std::int64_t mc = 128;
  std::int64_t nc = 128;
  std::int64_t kc = 256;
  std::int64_t vec_len = 8192;
  int reps = 5;  ///< timing repetitions per candidate (median-of)
};

/// Tunes the GEMM register tile, unrolls and prefetch distance for `isa`
/// with the seeded search (or the full sweep when `opts.exhaustive` is
/// set). Every candidate uses the Vdup strategy over column-major B.
TuneResult tune_gemm(Isa isa, const TuneWorkload& workload = {},
                     const SearchOptions& opts = SearchOptions::from_env());

/// Tunes the inner-loop unroll factor + prefetch for GEMV / AXPY / DOT.
TuneResult tune_level1(frontend::KernelKind kind, Isa isa,
                       const TuneWorkload& workload = {},
                       const SearchOptions& opts = SearchOptions::from_env());

/// Runs the search over an explicit space (tests use downsized grids; the
/// mirlint sweep samples points from the same spaces the tuner climbs).
TuneResult tune_space(frontend::KernelKind kind, Isa isa,
                      const SearchSpace& space, const TuneWorkload& workload,
                      const SearchOptions& opts);

}  // namespace augem::tuning
