#pragma once
// Noise-gated retuning of a tuning-database entry (docs/runtime.md,
// "Sharing one cache directory"; the CLI is `augem_tunedb retune`).
//
// AUGEM tunes once per machine (paper §2.1), but a timing-driven search on
// a noisy host can settle on a loser. retune() reruns the seeded search
// for a key and A/B-times its winner against the stored incumbent with the
// BenchRunner. The candidate replaces the incumbent only when the perf
// harness's report diff (src/perf/report.hpp) calls it `improved` beyond
// kPromoteThreshold and the pooled confidence intervals, so noise can
// neither promote a loser nor flap between equivalent variants. A
// promotion republishes the key's artifact under the key's lock: processes
// already running keep the code they mapped, later resolves map the
// winner.

#include <optional>

#include "perf/bench_runner.hpp"
#include "runtime/tunedb.hpp"
#include "tuning/tuner.hpp"

namespace augem::runtime {

/// Relative gain the diff must certify before a candidate is promoted.
inline constexpr double kPromoteThreshold = 0.05;

enum class RetuneOutcome {
  kPromoted,   ///< verdict improved: record and artifact replaced
  kRejected,   ///< verdict not improved: incumbent kept
  kUnchanged,  ///< candidate has the incumbent's configuration: no gate
  kError,      ///< no incumbent, or generation or measurement failed
};
const char* retune_outcome_name(RetuneOutcome o);

/// Retunes the entry for `key` in `db`, timing both variants on `workload`
/// with `runner`. The candidate is `candidate` when given (tests pin one),
/// else the winner of the seeded search on `workload`. Unless
/// AUGEM_TUNE_SEED pins the seed, the search seed is the incumbent's
/// stored seed plus 0x9e3779b97f4a7c15, so each promotion moves the next
/// retune to new restarts while a pinned seed reproduces the search.
/// Small-GEMM entries have no search space and report kUnchanged.
RetuneOutcome retune(TuningDatabase& db, const KernelKey& key,
                     const tuning::TuneWorkload& workload,
                     const perf::RunnerOptions& runner,
                     const std::optional<TunedVariant>& candidate = {});

}  // namespace augem::runtime
