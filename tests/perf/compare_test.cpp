#include "perf/compare.hpp"

#include <gtest/gtest.h>

#include <string>

namespace augem::perf {
namespace {

volatile double sink = 0.0;

/// `n` dependent multiply-adds: time proportional to `n`, whatever the
/// clock does.
void work(long n) {
  double x = sink;
  for (long i = 0; i < n; ++i) x = x * 0.999999 + 1e-7;
  sink = x;
}

TEST(Compare, ClosureAgainstItselfTies) {
  const auto f = [] { work(20000); };
  const Comparison c = compare(f, f);
  EXPECT_EQ(c.verdict, Verdict::kTie) << c.ratio.median << " ±"
                                      << c.ratio.ci_half;
  EXPECT_GT(c.a_s, 0.0);
  EXPECT_GT(c.b_s, 0.0);
}

TEST(Compare, TwiceTheWorkReadsFasterOneWayAndSlowerTheOther) {
  const auto once = [] { work(20000); };
  const auto twice = [] { work(40000); };
  const Comparison down = compare(twice, once);
  EXPECT_EQ(down.verdict, Verdict::kFaster) << down.ratio.median;
  EXPECT_GT(down.a_s, down.b_s);
  const Comparison up = compare(once, twice);
  EXPECT_EQ(up.verdict, Verdict::kSlower) << up.ratio.median;
  EXPECT_LT(up.a_s, up.b_s);
  EXPECT_STREQ(verdict_name(down.verdict), "faster");
  EXPECT_STREQ(verdict_name(up.verdict), "slower");
}

// A 2x gap settles the verdict in the first round; the rounds floor still
// holds, and every round times both closures twice.
TEST(Compare, NeverFewerThanMinRounds) {
  int a_calls = 0, b_calls = 0;
  const Comparison c = compare(
      [&] {
        ++a_calls;
        work(40000);
      },
      [&] {
        ++b_calls;
        work(20000);
      });
  EXPECT_EQ(c.verdict, Verdict::kFaster);
  EXPECT_EQ(c.rounds(), kCompareMinRounds);
  EXPECT_EQ(a_calls, b_calls);
  EXPECT_GE(a_calls, 2 * kCompareMinRounds);
}

// A closure whose time cycles through seven levels from 1x to 2.8x, against
// a steady one at 1.6x, the median of the cycling side's per-round times (a
// round keeps each side's faster sample, 1x to 2.5x here): each round's
// ratio differs from the last, the CI never clears the 5% band or fits
// inside it, and the comparison runs to its round cap (inside the wall
// budget).
TEST(Compare, StopsAtRoundCapWhenTimeAlternates) {
  constexpr long kUnit = 100000;
  int i = 0;
  const auto cycling = [&] { work(kUnit * (10 + 3 * (i++ % 7)) / 10); };
  const auto steady = [] { work(kUnit * 16 / 10); };
  const Comparison c = compare(cycling, steady);
  EXPECT_EQ(c.rounds(), kCompareMaxRounds)
      << c.ratio.median << " ±" << c.ratio.ci_half;
  EXPECT_EQ(c.verdict, Verdict::kTie);
}

}  // namespace
}  // namespace augem::perf
