#pragma once
// The tuner's search space and search policy (docs/tuning.md).
//
// The paper's tuner (§2.1) enumerates its whole candidate grid; that stops
// scaling the moment prefetch distance and bigger unroll factors join the
// space (120 GEMM points instead of 31). This header factors the space into
// explicit axes — register tile, inner unroll, prefetch distance — and
// describes the budgeted steepest-ascent climb that replaces the
// exhaustive sweep: it starts at the served default's cell
// (transform::default_params), neighbors are single-axis steps, and a move
// needs the verdict `faster` from perf::compare (src/perf/compare.hpp) on
// the two kernels timed interleaved. The climb stops, and serves, where
// no neighbor gets it.

#include <string>
#include <vector>

#include "frontend/kernels.hpp"
#include "opt/plan.hpp"
#include "support/error.hpp"
#include "transform/ckernel.hpp"

namespace augem::tuning {

/// Why an evaluated point produced no kernel. Split by the stage of the
/// generator's refusal (augem::Refusal) so the trial log distinguishes a
/// tile the planner refuses to lay out from one the register allocator
/// cannot color (the two prune for different reasons and shrink
/// differently as ISAs grow registers).
enum class InfeasibleReason {
  kNone,              ///< the point was feasible (a kernel was produced)
  kPlannerRejected,   ///< vector plan refused the shape/register budget
  kRegallocExhausted, ///< plan accepted, vector or integer registers ran out
  kOther,             ///< any other error, a failed proof too: a defect
};

const char* infeasible_reason_name(InfeasibleReason r);
bool parse_infeasible_reason(const std::string& name, InfeasibleReason& out);

/// The reason a refusal at `stage` is logged with: integer-scratch
/// exhaustion counts as register allocation.
InfeasibleReason infeasible_reason(Refusal::Stage stage);

/// Search policy knobs. `from_env()` reads AUGEM_TUNE_SYNTHETIC: "1"
/// scores points with a deterministic model (feasibility stays real; used
/// by determinism tests and shared_cache_smoke). How a trial is timed is
/// tuning::trial_runner's business (tuner.hpp).
struct SearchOptions {
  bool exhaustive = false;  ///< sweep the full grid instead of climbing
  bool synthetic = false;   ///< deterministic cost model, no timing

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
  /// {(w,2),(w,w),(2w,2),(2w,w),(2w,2w),(4w,w)}, each listed once (with
  /// w = 2 the first four name two tiles), × ku {1,2,4,8} × prefetch
  /// {off,8,16,32,64} — 120 points, 80 on SSE2. `downsized` shrinks every
  /// axis (tiles {(w,2),(w,w),(2w,w)} × ku {1,4} × prefetch {off,16}: 12
  /// points, 8 on SSE2) for property tests.
  static SearchSpace gemm(Isa isa, bool downsized = false);

  /// The Level-1/2 space: unroll {1,2,4,8,16,32,64} × prefetch
  /// {off,8,16,32,64} — 35 points (downsized: unroll {4,8,16} × prefetch
  /// {off,16}). Both contain every ISA's default cell.
  static SearchSpace level1(bool downsized = false);

  int grid_size() const;
  const std::vector<Axis>& axes() const { return axes_; }

  /// The cell whose parameters are `params` (the climb starts at
  /// transform::default_params'); fails when the space lacks it.
  Point cell(const transform::CGenParams& params) const;
  std::vector<Point> neighbors(const Point& p) const;
  std::vector<Point> all_points() const;  ///< row-major, for exhaustive mode

  /// The generator parameters `p` denotes.
  transform::CGenParams materialize(const Point& p) const;
  std::string key(const Point& p) const;  ///< stable dedup key

  /// Deterministic synthetic score for `p` (strictly monotone per axis, so
  /// a hill climb provably reaches the grid maximum). Used when
  /// SearchOptions::synthetic is set; always > 0.
  double synthetic_score(const Point& p) const;

 private:
  std::vector<Axis> axes_;
  std::vector<std::pair<int, int>> tiles_;  ///< GEMM (mr, nr) per tile index
};

/// Metadata describing one search run, persisted with the winning variant
/// so `augem_tunedb show` can answer "how was this found".
struct SearchMeta {
  std::string algorithm = "hillclimb";  ///< "hillclimb" or "exhaustive"
  int budget_trials = 0;
  int grid_size = 0;
  int trials_run = 0;
  double elapsed_seconds = 0.0;
  bool synthetic = false;
};

}  // namespace augem::tuning
