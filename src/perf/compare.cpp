#include "perf/compare.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "perf/clock.hpp"

namespace augem::perf {

namespace {

constexpr double kFasterAbove = 1.0 + kCompareThreshold;
constexpr double kSlowerBelow = 1.0 / (1.0 + kCompareThreshold);

}  // namespace

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::kSlower: return "slower";
    case Verdict::kTie: return "tie";
    case Verdict::kFaster: return "faster";
  }
  return "?";
}

Comparison compare(const std::function<void()>& a,
                   const std::function<void()>& b) {
  // Warm both, then batch enough calls that a sample of the faster one
  // lasts kCompareMinSampleSeconds.
  a();
  b();
  const double one = std::max(std::min(time_call(a), time_call(b)), 1e-9);
  const int calls = static_cast<int>(
      std::clamp(std::ceil(kCompareMinSampleSeconds / one), 1.0, 1e6));
  const auto sample = [calls](const std::function<void()>& fn) {
    const double t0 = monotonic_now_s();
    for (int i = 0; i < calls; ++i) fn();
    return monotonic_now_s() - t0;
  };

  Comparison c;
  std::vector<double> ratios, a_s, b_s;
  const Stopwatch window;
  while (true) {
    // A, B, B, A; each side's faster sample, so a context switch or an
    // interrupt landing in one sample does not reach the ratio.
    const double a1 = sample(a);
    const double b1 = sample(b);
    const double b2 = sample(b);
    const double a2 = sample(a);
    a_s.push_back(std::min(a1, a2) / calls);
    b_s.push_back(std::min(b1, b2) / calls);
    ratios.push_back(a_s.back() / b_s.back());
    const int rounds = static_cast<int>(ratios.size());
    if (rounds < kCompareMinRounds) continue;
    c.ratio = summarize(ratios);
    const double lo = c.ratio.median - c.ratio.ci_half;
    const double hi = c.ratio.median + c.ratio.ci_half;
    c.verdict = lo > kFasterAbove   ? Verdict::kFaster
                : hi < kSlowerBelow ? Verdict::kSlower
                                    : Verdict::kTie;
    // Settled: the CI lies wholly above, below or inside the band, so more
    // rounds cannot change the verdict.
    const bool settled = c.verdict != Verdict::kTie ||
                         (lo > kSlowerBelow && hi < kFasterAbove);
    if (settled || rounds >= kCompareMaxRounds ||
        window.elapsed_s() >= kCompareMaxSeconds)
      break;
  }
  c.a_s = median(std::move(a_s));
  c.b_s = median(std::move(b_s));
  return c;
}

}  // namespace augem::perf
