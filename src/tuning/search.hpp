#pragma once
// The tuner's search space and search policy (docs/tuning.md).
//
// The paper's tuner (§2.1) enumerates its whole candidate grid; that stops
// scaling the moment prefetch distance and bigger unroll factors join the
// space (120 GEMM points instead of 31). This header factors the space into
// explicit axes — register tile, inner unroll, prefetch distance — and
// describes the seeded, budgeted hill-climbing search that replaces the
// exhaustive sweep: neighbors are single-axis steps, acceptance is decided
// against the measurement's pooled confidence interval
// (src/perf/stats.hpp), and random restarts escape local optima.
// Everything is reproducible from one seed.

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/kernels.hpp"
#include "opt/plan.hpp"
#include "support/rng.hpp"
#include "transform/ckernel.hpp"

namespace augem::tuning {

/// Why an evaluated point produced no kernel. Split by pipeline stage so
/// the trial log distinguishes a tile the planner refuses to lay out from
/// one the register allocator cannot color (the two prune for different
/// reasons and shrink differently as ISAs grow registers).
enum class InfeasibleReason {
  kNone,              ///< the point was feasible (a kernel was produced)
  kPlannerRejected,   ///< vector plan refused the shape/register budget
  kRegallocExhausted, ///< plan accepted, register allocation ran out
  kOther,             ///< any other generation failure
};

const char* infeasible_reason_name(InfeasibleReason r);
bool parse_infeasible_reason(const std::string& name, InfeasibleReason& out);

/// Maps a generation error message onto the pipeline stage that raised it.
InfeasibleReason classify_infeasible(const std::string& error_message);

/// Search policy knobs. `from_env()` reads:
///   AUGEM_TUNE_SEED      — search seed (decimal); presence pins the seed
///   AUGEM_TUNE_TRIALS    — trial budget (0 = per-space default, grid/8)
///   AUGEM_TUNE_SECONDS   — wall-clock cap in seconds (0 = uncapped)
///   AUGEM_TUNE_EXHAUSTIVE— "1" sweeps the whole grid (the old behavior)
///   AUGEM_TUNE_SYNTHETIC — "1" scores points with a deterministic model
///                          (feasibility stays real; used by determinism
///                          tests and shared_cache_smoke)
/// How a trial is timed is tuning::trial_runner's business (tuner.hpp).
struct SearchOptions {
  std::uint64_t seed = 2013;  ///< default: the paper's year, for the grep
  bool seed_from_env = false; ///< true when AUGEM_TUNE_SEED pinned the seed
  int max_trials = 0;         ///< measured-point budget; 0 = grid/8 default
  double max_seconds = 0.0;   ///< wall-clock cap; 0 = uncapped
  bool exhaustive = false;    ///< sweep the full grid instead of searching
  bool synthetic = false;     ///< deterministic cost model, no timing

  static SearchOptions from_env();
};

/// A point in the axis-indexed space: one value index per axis.
struct Point {
  std::vector<int> ix;
  bool operator==(const Point& o) const { return ix == o.ix; }
};

/// The candidate grid as explicit axes. Neighbors of a point are all
/// single-axis ±1 index steps, which is what makes hill-climbing
/// meaningful: adjacent indices are adjacent parameter values. Every point
/// is generated with the Vdup strategy: the driver packs B column-major
/// (blas/pack.hpp), where Shuf does not apply.
class SearchSpace {
 public:
  struct Axis {
    std::string name;
    std::vector<int> values;
  };

  /// The GEMM space for `isa` (w = vector width in doubles): tiles
  /// {(w,2),(w,w),(2w,2),(2w,w),(2w,2w),(4w,w)} × ku {1,2,4,8} × prefetch
  /// {off,8,16,32,64} — 120 points. `downsized` shrinks every axis (12
  /// points) for property tests.
  static SearchSpace gemm(Isa isa, bool downsized = false);

  /// The Level-1/2 space: unroll {1,2,4,8,16,32,64} × prefetch
  /// {off,8,16,32,64} — 35 points.
  static SearchSpace level1(bool downsized = false);

  int grid_size() const;
  const std::vector<Axis>& axes() const { return axes_; }

  /// The climb's canonical starting point (the generator defaults' cell).
  Point start() const;
  std::vector<Point> neighbors(const Point& p) const;
  Point random_point(Rng& rng) const;
  std::vector<Point> all_points() const;  ///< row-major, for exhaustive mode

  /// The generator parameters `p` denotes.
  transform::CGenParams materialize(const Point& p) const;
  std::string key(const Point& p) const;  ///< stable dedup key

  /// Deterministic synthetic score for `p` (strictly monotone per axis, so
  /// a hill climb provably reaches the grid maximum). Used when
  /// SearchOptions::synthetic is set; always > 0.
  double synthetic_score(const Point& p) const;

 private:
  enum class Kind { kGemm, kLevel1 };
  Kind kind_ = Kind::kGemm;
  std::vector<Axis> axes_;
  std::vector<std::pair<int, int>> tiles_;  ///< GEMM (mr, nr) per tile index
};

/// Metadata describing one search run, persisted with the winning variant
/// so `augem_tunedb show` can answer "how was this found".
struct SearchMeta {
  std::string algorithm = "hillclimb";  ///< "hillclimb" or "exhaustive"
  std::uint64_t seed = 0;
  int budget_trials = 0;
  double budget_seconds = 0.0;  ///< 0 = uncapped
  int grid_size = 0;
  int trials_run = 0;
  int restarts_used = 0;
  double elapsed_seconds = 0.0;
  bool wall_capped = false;  ///< the wall-clock cap ended the search
  bool synthetic = false;
};

}  // namespace augem::tuning
