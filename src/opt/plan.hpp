#pragma once
// Vectorization planning for the Template Optimizer (paper §3.4-3.6).
//
// Before any code is emitted, this pass decides — per identified region —
// the SIMD width and strategy, and derives the *accumulator expansion*:
// which scalar accumulators live in which lane of which SIMD register
// group. The plan is global so that regions sharing accumulators (the
// ku-unrolled GEMM bodies, the DOT remainder) agree, the accINIT regions
// zero the right registers, and post-loop reductions are placed correctly.

#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "match/identifier.hpp"
#include "opt/regalloc.hpp"
#include "support/arch.hpp"

namespace augem::opt {

/// Vectorization strategy selection (paper §3.4 names the two methods).
/// Every kernel is served with Vdup: blocked GEMM packs B column-major
/// (blas/pack.hpp), where Shuf does not apply. The values are stable
/// (test names print them).
enum class VecStrategy {
  kVdup = 1,  ///< Vld-Vdup-Vmul-Vadd (broadcast the B element)
  kShuf,      ///< Vld-Vld-Vmul-Vadd + Shufi rotations (needs row-panel B)
  kScalar,    ///< disable SIMD: the §3.1-3.3 scalar optimizers only (ablation)
};

/// "vdup", "shuf" or "scalar".
const char* vec_strategy_name(VecStrategy s);
/// Inverse of vec_strategy_name; nullopt for any other name.
std::optional<VecStrategy> parse_vec_strategy(std::string_view name);

/// All machine-level knobs of the Template Optimizer.
struct OptConfig {
  Isa isa = Isa::kAvx;
  VecStrategy strategy = VecStrategy::kVdup;
  RegAllocPolicy regalloc = RegAllocPolicy::kPerArrayQueues;
  bool schedule = true;  ///< run the instruction scheduler on loop bodies
};

/// How one region will be compiled.
struct RegionPlan {
  int width = 1;          ///< SIMD lanes (1 = scalar path)
  bool use_shuf = false;  ///< outer mmUnrolledCOMP only
};

/// One SIMD register's worth of accumulators.
struct AccGroup {
  int width = 1;
  /// Lane i holds scalar lanes[i] (outer shape). Empty for a partial-sum
  /// group (paired shape), where the whole register accumulates one shared
  /// scalar.
  std::vector<std::string> lanes;
  /// For partial groups: the shared scalar this group accumulates into.
  std::string owner;
};

struct VecPlan {
  std::map<int, RegionPlan> regions;  ///< keyed by region id

  std::vector<AccGroup> groups;
  /// Outer-shape accumulators: scalar → (group id, lane).
  std::map<std::string, std::pair<int, int>> lane_of;
  /// Paired-shape shared accumulators: scalar → its partial group ids.
  std::map<std::string, std::vector<int>> partials_of;

  /// Scalars that must be broadcast into a SIMD register (mv scal).
  std::set<std::string> broadcast_scals;
  /// Shared accumulators needing a post-loop horizontal reduction back to
  /// a scalar register.
  std::set<std::string> reduce_scalars;
};

/// Computes the plan. Throws augem::Error when the configuration cannot
/// fit the register file (the tuner treats that as an invalid point).
VecPlan plan_vectorization(const match::MatchResult& match,
                           const OptConfig& config);

}  // namespace augem::opt
