// Tests for the utility layer: formatting, RNG, statistics, strings, CLI,
// and the thread-local allocation pool.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/fmt.hpp"
#include "util/pool.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"

namespace sb {
namespace {

// ---------------------------------------------------------------------------
// fmt
// ---------------------------------------------------------------------------

TEST(Fmt, SubstitutesArgumentsInOrder) {
  EXPECT_EQ(fmt("{} + {} = {}", 1, 2, 3), "1 + 2 = 3");
}

TEST(Fmt, HandlesNoPlaceholders) { EXPECT_EQ(fmt("plain"), "plain"); }

TEST(Fmt, EscapesDoubledBraces) {
  EXPECT_EQ(fmt("{{}} and {}", 7), "{} and 7");
}

TEST(Fmt, FormatsMixedTypes) {
  EXPECT_EQ(fmt("{}/{}/{}", "a", 2.5, 'c'), "a/2.5/c");
}

TEST(Fmt, EscapeOnlyString) { EXPECT_EQ(fmt("{{{{"), "{{"); }

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next() == b.next();
  EXPECT_LT(same, 4);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextInIsInclusive) {
  Rng rng(3);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const int64_t v = rng.next_in(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(Rng, BernoulliRespectsProbability) {
  Rng rng(5);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Rng rng(9);
  double sum = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) sum += rng.next_exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.3);
}

TEST(Rng, ForkStreamsAreIndependent) {
  Rng parent(42);
  Rng a = parent.fork(0);
  Rng b = parent.fork(1);
  EXPECT_NE(a.next(), b.next());
  // Forking is deterministic.
  Rng a2 = parent.fork(0);
  Rng check = parent.fork(0);
  EXPECT_EQ(a2.next(), check.next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(1);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, PickIndexInRange) {
  Rng rng(2);
  std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) EXPECT_LT(rng.pick_index(v), v.size());
}

// ---------------------------------------------------------------------------
// Accumulator / SampleSet
// ---------------------------------------------------------------------------

TEST(Accumulator, BasicMoments) {
  Accumulator acc;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(v);
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, EmptyIsZero) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.variance(), 0.0);
}

TEST(SampleSet, ExactPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(SampleSet, SingleSample) {
  SampleSet s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.percentile(37), 3.5);
  EXPECT_DOUBLE_EQ(s.median(), 3.5);
}

TEST(LinearFit, RecoversExactLine) {
  const LinearFit fit =
      fit_linear({1, 2, 3, 4}, {3, 5, 7, 9});  // y = 2x + 1
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(LogLogFit, RecoversPowerLawExponent) {
  // y = 5 x^3: the log-log slope must be 3 (the check behind the paper's
  // Remarks 2-4 benches).
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x : {2.0, 4.0, 8.0, 16.0, 32.0}) {
    xs.push_back(x);
    ys.push_back(5.0 * x * x * x);
  }
  const LinearFit fit = fit_loglog(xs, ys);
  EXPECT_NEAR(fit.slope, 3.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-9);
}

TEST(LogLogFit, QuadraticExponent) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x : {3.0, 9.0, 27.0, 81.0}) {
    xs.push_back(x);
    ys.push_back(0.5 * x * x);
  }
  EXPECT_NEAR(fit_loglog(xs, ys).slope, 2.0, 1e-9);
}

// ---------------------------------------------------------------------------
// string_util
// ---------------------------------------------------------------------------

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t\r\n"), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, SplitOnChar) {
  EXPECT_EQ(split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtil, SplitWhitespace) {
  EXPECT_EQ(split_ws("  2 0 0\n2 4 3 "),
            (std::vector<std::string>{"2", "0", "0", "2", "4", "3"}));
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(StringUtil, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
}

TEST(StringUtil, StartsEndsWith) {
  EXPECT_TRUE(starts_with("capability", "cap"));
  EXPECT_FALSE(starts_with("cap", "capability"));
  EXPECT_TRUE(ends_with("rule.xml", ".xml"));
  EXPECT_FALSE(ends_with("xml", "rule.xml"));
}

TEST(StringUtil, ParseIntAcceptsValid) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int(" -7 "), -7);
  EXPECT_EQ(parse_int("0"), 0);
}

TEST(StringUtil, ParseIntRejectsInvalid) {
  EXPECT_FALSE(parse_int("4x"));
  EXPECT_FALSE(parse_int(""));
  EXPECT_FALSE(parse_int("1.5"));
  EXPECT_FALSE(parse_int("99999999999999999999999"));
}

TEST(StringUtil, ParseDouble) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_FALSE(parse_double("abc"));
  EXPECT_FALSE(parse_double("1.5x"));
}

TEST(StringUtil, ToLower) { EXPECT_EQ(to_lower("AbC-9"), "abc-9"); }

// ---------------------------------------------------------------------------
// CliParser
// ---------------------------------------------------------------------------

TEST(Cli, ParsesTypedFlags) {
  CliParser cli("test");
  cli.add_int("n", 10, "count");
  cli.add_double("rate", 0.5, "rate");
  cli.add_string("name", "x", "name");
  cli.add_bool("verbose", false, "verbosity");
  const char* argv[] = {"prog", "--n=32", "--rate", "1.5", "--verbose",
                        "positional"};
  ASSERT_TRUE(cli.parse(6, argv));
  EXPECT_EQ(cli.get_int("n"), 32);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 1.5);
  EXPECT_EQ(cli.get_string("name"), "x");
  EXPECT_TRUE(cli.get_bool("verbose"));
  ASSERT_EQ(cli.positionals().size(), 1u);
  EXPECT_EQ(cli.positionals()[0], "positional");
}

TEST(Cli, RejectsUnknownFlag) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--nope=1"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, RejectsBadInt) {
  CliParser cli("test");
  cli.add_int("n", 1, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, HelpReturnsFalse) {
  CliParser cli("test");
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(cli.parse(2, argv));
}

TEST(Cli, UsageListsFlags) {
  CliParser cli("my tool");
  cli.add_int("blocks", 12, "number of blocks");
  const std::string usage = cli.usage();
  EXPECT_NE(usage.find("--blocks"), std::string::npos);
  EXPECT_NE(usage.find("number of blocks"), std::string::npos);
}

// ---------------------------------------------------------------------------
// pool
// ---------------------------------------------------------------------------

TEST(Pool, ServesWritableMemoryAcrossSizeClasses) {
  for (const size_t bytes : {size_t{1}, size_t{16}, size_t{40}, size_t{256},
                             util::kPoolMaxBytes + 100}) {
    void* p = util::pool_alloc(bytes);
    ASSERT_NE(p, nullptr);
    std::memset(p, 0xab, bytes);
    util::pool_free(p, bytes);
  }
}

TEST(Pool, AdoptsMemoryParkedByExitedThreads) {
  const auto churn = [](uint64_t* slabs_created) {
    std::vector<void*> nodes;
    for (int i = 0; i < 100; ++i) nodes.push_back(util::pool_alloc(48));
    for (void* node : nodes) util::pool_free(node, 48);
    *slabs_created = util::pool_counters().slabs_created;
  };
  uint64_t first = 0;
  uint64_t second = 0;
  std::thread(churn, &first).join();
  std::thread(churn, &second).join();
  if (first > 0) {  // pool active (compiled out under ASan)
    // The second thread adopts the first thread's parked free list instead
    // of carving fresh slabs.
    EXPECT_EQ(second, 0u);
  }
}

TEST(Pool, RecyclesFreedNodesOfTheSameClass) {
  // Under sanitizers the pool is compiled out; recycling is unobservable.
  const util::PoolCounters before = util::pool_counters();
  void* first = util::pool_alloc(48);
  util::pool_free(first, 48);
  void* second = util::pool_alloc(48);
  const util::PoolCounters after = util::pool_counters();
  if (after.allocations > before.allocations) {
    EXPECT_EQ(second, first);  // same class -> the node comes straight back
    EXPECT_GT(after.free_list_hits, before.free_list_hits);
  }
  util::pool_free(second, 48);
}

}  // namespace
}  // namespace sb
