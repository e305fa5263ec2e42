#pragma once
// compare(): the one in-process verdict on "is B faster than A".
//
// BenchRunner answers "how fast is this closure". Two such answers taken
// one after the other are not a comparison: the host's speed drifts
// between them by more than either CI shows (EXPERIMENTS.md, "Tuned GEMM
// records"). compare() times both closures in one window instead, in
// A-B-B-A rounds, so each round's ratio sees the same machine state. A
// round's ratio is of each side's faster sample: a context switch or an
// interrupt that lands in one sample costs milliseconds, and on a loaded
// host it hits so many rounds that even the median follows it. The
// verdict comes from the ratios' median and its MAD-based 95% CI
// (stats.hpp):
//
//   faster  the whole CI of time(a)/time(b) lies above 1 + kCompareThreshold
//   slower  it lies below 1 / (1 + kCompareThreshold)
//   tie     otherwise
//
// The tuner's climb moves only on `faster`, and `retune` promotes a
// candidate only on `faster` against the incumbent (docs/tuning.md,
// docs/runtime.md). Stored reports, which cannot be re-run, are compared
// by diff_reports (report.hpp) instead.

#include <functional>

#include "perf/stats.hpp"

namespace augem::perf {

/// The margin a verdict must clear. Two separately assembled copies of one
/// kernel configuration read 0.98–1.03 apart with CIs that exclude 1, so a
/// smaller margin would call layout noise a speedup.
inline constexpr double kCompareThreshold = 0.05;
/// Rounds before any verdict: one round never counts as converged.
inline constexpr int kCompareMinRounds = 5;
/// Rounds after which an undecided comparison reads its CI as it stands.
inline constexpr int kCompareMaxRounds = 41;
/// Wall budget for the rounds, checked after each round from the
/// kCompareMinRounds-th on.
inline constexpr double kCompareMaxSeconds = 1.0;
/// Each sample batches calls until it lasts at least this long, so the
/// clock's resolution and call overhead stay out of the ratio.
inline constexpr double kCompareMinSampleSeconds = 50e-6;

enum class Verdict { kSlower, kTie, kFaster };
const char* verdict_name(Verdict v);

struct Comparison {
  Summary ratio;     ///< per-round time(a)/time(b): above 1 means b is faster
  double a_s = 0.0;  ///< median over rounds of a's seconds per call
  double b_s = 0.0;  ///< median over rounds of b's seconds per call
  Verdict verdict = Verdict::kTie;  ///< is b faster than a

  int rounds() const { return static_cast<int>(ratio.n); }
};

/// Times `a` and `b` interleaved and says whether `b` is faster. Runs
/// kCompareMinRounds rounds, then stops once the CI settles the verdict
/// (it lies above, below or inside the threshold band), or at
/// kCompareMaxRounds, or once kCompareMaxSeconds have passed.
Comparison compare(const std::function<void()>& a,
                   const std::function<void()>& b);

}  // namespace augem::perf
