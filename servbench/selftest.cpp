// Tests of the serving benchmark's own arithmetic (stats.hpp).
//
//   python3 servbench/run.py --selftest

#include <gtest/gtest.h>

#include <vector>

#include "stats.hpp"

namespace servbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = one_to(1000);
  EXPECT_EQ(percentile(v, 0.5), 500);
  EXPECT_EQ(percentile(v, 0.99), 990);
  EXPECT_EQ(percentile(v, 1.0), 1000);
  EXPECT_EQ(percentile(v, 0.0), 1);
  EXPECT_EQ(percentile({7}, 0.99), 7);
  EXPECT_EQ(percentile({}, 0.5), 0);
}

TEST(Percentile, TenSamplesBeyondRule) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_FALSE(percentile_supported(100, 0.99));
  EXPECT_TRUE(percentile_supported(20, 0.5));
  EXPECT_FALSE(percentile_supported(19, 0.5));
  EXPECT_FALSE(percentile_supported(0, 0.99));
}

TEST(Median, OddEvenEmpty) {
  EXPECT_EQ(median({3, 1, 2}), 2);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0);
}

TEST(Windows, RatesDropPartialTrailingWindow) {
  constexpr std::uint64_t s = 1000000000ull;
  std::vector<Completion> done = {
      {s / 2, 10},          // before begin: ignored
      {s + 1, 100},         // window 0
      {2 * s - 1, 100},     // window 0
      {2 * s, 50},          // window 1
      {3 * s + s / 2, 70},  // window 2
      {4 * s + 1, 999},     // partial window [4s, 4.5s): dropped
  };
  const auto rates = window_rates(done, s, 4 * s + s / 2, s);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_EQ(rates[0], 200);
  EXPECT_EQ(rates[1], 50);
  EXPECT_EQ(rates[2], 70);
  EXPECT_EQ(median(rates), 70);
}

TEST(Windows, HalfSecondWindowsScaleToPerSecond) {
  constexpr std::uint64_t half = 500000000ull;
  const auto rates = window_rates({{1, 5}, {half + 1, 7}}, 0, 2 * half, half);
  ASSERT_EQ(rates.size(), 2u);
  EXPECT_EQ(rates[0], 10);
  EXPECT_EQ(rates[1], 14);
}

TEST(Windows, OneStalledWindowDoesNotMoveTheMedian) {
  constexpr std::uint64_t s = 1000000000ull;
  std::vector<Completion> done;
  for (std::uint64_t w = 0; w < 5; ++w)
    done.push_back({w * s + 1, w == 2 ? 1.0 : 100.0});
  EXPECT_EQ(median(window_rates(done, 0, 5 * s, s)), 100);
}

TEST(Windows, PerWindowPercentilesAndLeastCount) {
  std::vector<Completion> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back({10, double(i)});
  for (int i = 1; i <= 40; ++i) samples.push_back({150, double(1000 + i)});
  std::size_t least = 0;
  const auto p = window_percentiles(samples, 0, 200, 100, 0.5, &least);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_EQ(p[0], 50);
  EXPECT_EQ(p[1], 1020);
  EXPECT_EQ(least, 40u);
  window_percentiles({}, 0, 200, 100, 0.5, &least);
  EXPECT_EQ(least, 0u);
}

TEST(Failures, EveryBucketButOkFails) {
  Tally t;
  t.record(classify(false, false, true, true));   // ok
  t.record(classify(false, false, true, true));   // ok
  t.record(classify(false, false, true, false));  // wrong verdict
  t.record(classify(false, false, false, false)); // missing verdict
  t.record(classify(true, false, false, false));  // refused open
  EXPECT_EQ(t.attempted, 5u);
  EXPECT_EQ(t.ok, 2u);
  EXPECT_EQ(t.wrong, 1u);
  EXPECT_EQ(t.missing, 1u);
  EXPECT_EQ(t.refused, 1u);
  EXPECT_EQ(t.failed(), 3u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.6);
}

TEST(Failures, ShedSessionFailsEvenWithAMatchingVerdict) {
  // A synthetic shed: one symbol refused at admission, the verdict that
  // came back still happens to match the expectation.
  EXPECT_EQ(classify(false, true, true, true), Outcome::Shed);
  Tally t;
  t.record(classify(false, true, true, true));
  t.record(classify(false, false, true, true));
  EXPECT_EQ(t.shed, 1u);
  EXPECT_EQ(t.failed(), 1u);
  EXPECT_DOUBLE_EQ(t.failed_frac(), 0.5);
  Tally sum;
  sum.add(t);
  sum.add(t);
  EXPECT_EQ(sum.attempted, 4u);
  EXPECT_EQ(sum.failed(), 2u);
}

TEST(Failures, EmptyTallyHasNoFailures) {
  EXPECT_EQ(Tally{}.failed_frac(), 0);
}

TEST(Spans, SelfTimeSubtractsChildren) {
  Spans spans(16);
  const auto leg = spans.intern("replay.apply");
  const auto call = spans.intern("svc.admit.apply");
  EXPECT_EQ(spans.intern("replay.apply"), leg);
  spans.begin(leg, 100);
  spans.begin(call, 110, 7);
  spans.end(130);  // 20
  spans.begin(call, 140, 8);
  spans.end(170);  // 30
  spans.end(200);  // leg: 100, children 50
  EXPECT_EQ(spans.totals(leg).total_ns, 100u);
  EXPECT_EQ(spans.totals(leg).self_ns(), 50u);
  EXPECT_EQ(spans.totals(call).count, 2u);
  EXPECT_EQ(spans.totals(call).self_ns(), 50u);
  ASSERT_EQ(spans.kept().size(), 3u);
  EXPECT_EQ(spans.kept()[1].parent, 0);
  EXPECT_EQ(spans.kept()[1].session, 7u);
  EXPECT_EQ(spans.kept()[2].end_ns, 170u);
}

TEST(Spans, GrandchildrenCountOnlyAgainstTheirParent) {
  Spans spans;
  const auto a = spans.intern("a"), b = spans.intern("b"),
             c = spans.intern("c");
  spans.begin(a, 0);
  spans.begin(b, 10);
  spans.begin(c, 20);
  spans.end(50);   // c: 30
  spans.end(60);   // b: 50, self 20
  spans.end(100);  // a: 100, self 50
  EXPECT_EQ(spans.totals(a).self_ns(), 50u);
  EXPECT_EQ(spans.totals(b).self_ns(), 20u);
  EXPECT_EQ(spans.totals(c).self_ns(), 30u);
  EXPECT_TRUE(spans.kept().empty());  // keep = 0
}

TEST(Spans, UnbalancedEndIsIgnored) {
  Spans spans;
  spans.end(5);
  const auto a = spans.intern("a");
  spans.begin(a, 10);
  spans.end(5);  // clock went backwards: duration clamps to 0
  EXPECT_EQ(spans.totals(a).total_ns, 0u);
}

}  // namespace
}  // namespace servbench
