#pragma once
// Empirical tuning (paper §2.1): "our Optimized C Kernel Generator
// automatically experiments with different unrolling and unroll&jam
// configurations and selects the best performing configurations based on
// the performance of their optimized code."
//
// Where the paper swept the whole candidate grid, the tuner climbs the
// axis-factored space in tuning/search.hpp (docs/tuning.md): starting from
// the served default kernel it generates + JITs + times each visited
// point, moves to a step's best-measured neighbor only when perf::compare,
// timing the two kernels interleaved, reads `faster`, and serves the cell
// where it stops.
// Every trial is built by augem::generate_kernel, proved like every served
// kernel. Configurations the generator refuses (augem::Refusal) are logged
// as infeasible, with the stage that refused them, and pruned, exactly like
// ATLAS-style search spaces; a failed proof is logged as `other`.

#include <string>
#include <vector>

#include "frontend/kernels.hpp"
#include "perf/bench_runner.hpp"
#include "transform/ckernel.hpp"
#include "tuning/probe.hpp"
#include "tuning/search.hpp"

namespace augem::tuning {

/// One evaluated search point.
struct Trial {
  transform::CGenParams params;
  double mflops = 0.0;   ///< median MFLOPS over the timing reps; 0 infeasible
  double ci_half = 0.0;  ///< 95% CI half-width on the median (stats.hpp)
  bool feasible = false;
  InfeasibleReason reason = InfeasibleReason::kNone;  ///< why infeasible
  std::string describe() const;
};

/// Search outcome: the served configuration (where the climb stopped, or
/// the sweep's best trial) and its trial's score, plus the full trial log
/// and the metadata describing how the search ran (algorithm, budget,
/// grid).
struct TuneResult {
  frontend::KernelKind kind{};
  Isa isa{};
  transform::CGenParams params;
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

  /// The operands a `kind` kernel is timed on: mc×kc and kc×nc packed
  /// blocks for GEMM, a (vec_len/8)×64 matrix for GEMV, vectors of length
  /// vec_len otherwise.
  ProbeExtents extents(frontend::KernelKind kind) const;
};

/// The reduced workload quick tools and tests tune on: one 32×32×64 packed
/// block, vectors of 2048, one rep per trial.
inline constexpr TuneWorkload kQuickTuneWorkload{
    .mc = 32, .nc = 32, .kc = 64, .vec_len = 2048, .reps = 1};

/// The runner options a trial is timed with (docs/tuning.md, "Measuring a
/// trial"): `w.reps` back-to-back calls with no warm-up run and no
/// frequency probe, then AUGEM_BENCH_REPS on top
/// (perf::RunnerOptions::from_env).
perf::RunnerOptions trial_runner(const TuneWorkload& w);

/// Tunes the GEMM register tile, unrolls and prefetch distance for `isa`
/// with the climb (or the full sweep when `opts.exhaustive` is set). Every
/// candidate is generated with the default opt::OptConfig (Vdup) over
/// column-major B, as the runtime serves it.
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
