#pragma once
// Noise-gated retuning of a tuning-database entry (docs/runtime.md,
// "Sharing one cache directory"; the CLI is `augem_tunedb retune`).
//
// AUGEM tunes once per machine (paper §2.1), but a timing-driven search on
// a noisy host can settle on a loser. retune() reruns the climb for a key
// and times its winner against the stored incumbent with perf::compare,
// interleaved in one window. The candidate replaces the incumbent only on
// the verdict `faster` (perf/compare.hpp: the whole CI of the time ratio
// above 1 + kCompareThreshold), so noise can neither promote a loser nor
// flap between equivalent variants. An incumbent the generator refuses
// (augem::Refusal) cannot be served, so the candidate replaces it without
// the A/B gate. A promotion republishes the key's artifact under the key's
// lock: processes already running keep the code they mapped, later
// resolves map the winner.

#include <optional>

#include "runtime/tunedb.hpp"
#include "tuning/tuner.hpp"

namespace augem::runtime {

enum class RetuneOutcome {
  kPromoted,   ///< verdict faster, or the incumbent is refused: record
               ///< and artifact replaced
  kRejected,   ///< verdict tie or slower: incumbent kept
  kUnchanged,  ///< candidate has the incumbent's configuration: no gate
  kError,      ///< no incumbent, or generation or measurement failed
};
const char* retune_outcome_name(RetuneOutcome o);

/// Retunes the entry for `key` in `db`, comparing both variants on
/// `workload`. The candidate is `candidate` when given (tests pin one), else
/// the winner of a fresh climb on `workload`. A promoted candidate's
/// `mflops` is its median from the comparison. Small-GEMM entries have no
/// search space and report kUnchanged.
RetuneOutcome retune(TuningDatabase& db, const KernelKey& key,
                     const tuning::TuneWorkload& workload,
                     const std::optional<TunedVariant>& candidate = {});

}  // namespace augem::runtime
