// Unit tests for the latency accumulators and the metric time-series store.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "streamsim/latency.hpp"
#include "streamsim/metrics.hpp"

#include <gtest/gtest.h>

namespace autra::sim {
namespace {

TEST(LatencyStats, EmptyState) {
  const LatencyStats s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(LatencyStats, WeightedMean) {
  LatencyStats s;
  s.add(1.0, 3.0);
  s.add(2.0, 1.0);
  EXPECT_NEAR(s.mean(), 1.25, 1e-12);
  EXPECT_DOUBLE_EQ(s.total_mass(), 4.0);
}

TEST(LatencyStats, ZeroMassIgnored) {
  LatencyStats s;
  s.add(5.0, 0.0);
  s.add(5.0, -1.0);
  EXPECT_TRUE(s.empty());
}

TEST(LatencyStats, QuantileBoundsAndMonotonicity) {
  LatencyStats s;
  for (int i = 1; i <= 1000; ++i) s.add(static_cast<double>(i), 1.0);
  const double q10 = s.quantile(0.1);
  const double q50 = s.quantile(0.5);
  const double q99 = s.quantile(0.99);
  EXPECT_LE(q10, q50);
  EXPECT_LE(q50, q99);
  EXPECT_GE(q10, 1.0);
  EXPECT_LE(q99, 1000.0);
  EXPECT_NEAR(q50, 500.0, 500.0 * LatencyStats::kRelativeError);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 1000.0);
}

TEST(LatencyStats, QuantileValidation) {
  LatencyStats s;
  s.add(1.0, 1.0);
  EXPECT_THROW(s.quantile(-0.1), std::invalid_argument);
  EXPECT_THROW(s.quantile(1.1), std::invalid_argument);
}

TEST(LatencyStats, Reset) {
  LatencyStats s;
  s.add(1e-3, 5.0);
  s.add(40.0, 5.0);
  s.reset();
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  // No bucket of the earlier range survives a walk over a wider one.
  s.add(1e-4, 1.0);
  s.add(80.0, 1.0);
  for (const double q : {0.0, 0.01, 0.5}) {
    EXPECT_NEAR(s.quantile(q), 1e-4, 1e-4 * LatencyStats::kRelativeError)
        << "q=" << q;
  }
  for (const double q : {0.75, 0.99, 1.0}) {
    EXPECT_NEAR(s.quantile(q), 80.0, 80.0 * LatencyStats::kRelativeError)
        << "q=" << q;
  }
}

// --- Quantile-error property ------------------------------------------------

struct Sample {
  double latency = 0.0;
  double mass = 0.0;
};

/// Exact mass-weighted quantile: the smallest latency whose cumulative mass
/// (latency-ascending) reaches q of `total`; the min and max at q = 0 and 1.
double exact_quantile(std::vector<Sample> xs, double total, double q) {
  std::sort(xs.begin(), xs.end(), [](const Sample& a, const Sample& b) {
    return a.latency < b.latency;
  });
  if (q == 0.0) return xs.front().latency;
  if (q == 1.0) return xs.back().latency;
  const double target = q * total;
  double cumulative = 0.0;
  for (const Sample& x : xs) {
    cumulative += x.mass;
    if (cumulative >= target) return x.latency;
  }
  return xs.back().latency;
}

template <typename Draw>
std::vector<Sample> stream(std::uint64_t seed, std::size_t n, Draw draw) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mass(0.01, 100.0);
  std::vector<Sample> xs(n);
  for (Sample& x : xs) {
    x.latency = draw(rng);
    x.mass = mass(rng);
  }
  return xs;
}

void expect_quantiles_within_bound(const std::vector<Sample>& xs,
                                   const std::string& name) {
  LatencyStats s;
  for (const Sample& x : xs) s.add(x.latency, x.mass);
  double previous = -std::numeric_limits<double>::infinity();
  for (const double q : {0.0, 0.01, 0.5, 0.9, 0.95, 0.99, 1.0}) {
    const double exact = exact_quantile(xs, s.total_mass(), q);
    const double got = s.quantile(q);
    EXPECT_LE(std::abs(got - exact), LatencyStats::kRelativeError * exact)
        << name << " q=" << q << " exact=" << exact << " got=" << got;
    EXPECT_GE(got, previous) << name << " q=" << q;
    previous = got;
  }
}

TEST(LatencyStats, QuantileWithinRelativeErrorBound) {
  const double lo_edge = std::ldexp(1.0, LatencyStats::kMinExponent);
  const double hi_edge = std::ldexp(1.0, LatencyStats::kMaxExponent);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const std::string tag = " seed=" + std::to_string(seed);
    std::lognormal_distribution<double> lognormal(-3.0, 1.2);
    expect_quantiles_within_bound(
        stream(seed, 20000, [&](std::mt19937_64& r) { return lognormal(r); }),
        "lognormal" + tag);
    std::uniform_real_distribution<double> uniform(1e-3, 2.0);
    expect_quantiles_within_bound(
        stream(seed, 20000, [&](std::mt19937_64& r) { return uniform(r); }),
        "uniform" + tag);
    std::bernoulli_distribution fast(0.7);
    std::lognormal_distribution<double> fast_mode(std::log(5e-3), 0.2);
    std::lognormal_distribution<double> slow_mode(std::log(0.8), 0.3);
    expect_quantiles_within_bound(
        stream(seed, 20000,
               [&](std::mt19937_64& r) {
                 return fast(r) ? fast_mode(r) : slow_mode(r);
               }),
        "bimodal" + tag);
    expect_quantiles_within_bound(
        stream(seed, 2000, [](std::mt19937_64&) { return 0.125; }),
        "constant" + tag);
    // Both ends of the bucketed range: the first octave above 2^kMinExponent
    // and the last octave below 2^kMaxExponent.
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::bernoulli_distribution low_end(0.5);
    expect_quantiles_within_bound(
        stream(seed, 20000,
               [&](std::mt19937_64& r) {
                 return low_end(r) ? lo_edge * (1.0 + unit(r))
                                   : std::nextafter(hi_edge, 0.0) *
                                         (1.0 - 0.5 * unit(r));
               }),
        "range edges" + tag);
  }
}

TEST(LatencyStats, OutOfRangeLatenciesClampToExactExtremes) {
  LatencyStats s;
  s.add(1e-9, 2.0);
  s.add(0.0, 1.0);
  s.add(1e-3, 4.0);
  s.add(1e9, 3.0);
  EXPECT_EQ(s.quantile(0.0), 0.0);
  EXPECT_EQ(s.quantile(1.0), 1e9);
  double previous = 0.0;
  for (const double q : {0.01, 0.2, 0.5, 0.7, 0.9, 0.99}) {
    const double got = s.quantile(q);
    EXPECT_GE(got, previous) << "q=" << q;
    EXPECT_LE(got, 1e9) << "q=" << q;
    previous = got;
  }
  EXPECT_EQ(s.quantile(0.2), 0.0);
  EXPECT_NEAR(s.quantile(0.5), 1e-3, 1e-3 * LatencyStats::kRelativeError);
  EXPECT_EQ(s.quantile(0.9), 1e9);
}

TEST(MetricsDb, RecordAndQueryWindow) {
  MetricsDb db;
  const runtime::MetricId x = db.resolve("x");
  db.record(x, 0.0, 1.0);
  db.record(x, 1.0, 2.0);
  db.record(x, 2.0, 3.0);
  const auto [first, last] = db.range(x, 0.5, 2.0);
  ASSERT_EQ(last - first, 2u);
  const MetricsDb::SeriesView v = db.series(x);
  EXPECT_DOUBLE_EQ(v.values[first], 2.0);
  EXPECT_DOUBLE_EQ(v.values[last - 1], 3.0);
}

TEST(MetricsDb, UnknownSeriesEmpty) {
  const MetricsDb db;
  const runtime::MetricId nope = db.find("nope");
  EXPECT_FALSE(nope.valid());
  EXPECT_TRUE(db.series(nope).times.empty());
  EXPECT_FALSE(db.mean(nope, 0.0, 1.0).has_value());
  EXPECT_FALSE(db.last(nope).has_value());
  EXPECT_FALSE(db.has_series("nope"));
}

TEST(MetricsDb, TimeMustNotGoBackwards) {
  MetricsDb db;
  const runtime::MetricId x = db.resolve("x");
  const runtime::MetricId y = db.resolve("y");
  db.record(x, 5.0, 1.0);
  EXPECT_THROW(db.record(x, 4.0, 1.0), std::invalid_argument);
  EXPECT_NO_THROW(db.record(x, 5.0, 2.0));  // equal time is fine
  EXPECT_NO_THROW(db.record(y, 0.0, 1.0));  // other series independent
}

TEST(MetricsDb, MeanOverWindow) {
  MetricsDb db;
  const runtime::MetricId x = db.resolve("x");
  db.record(x, 0.0, 10.0);
  db.record(x, 1.0, 20.0);
  db.record(x, 2.0, 90.0);
  EXPECT_DOUBLE_EQ(db.mean(x, 0.0, 1.0).value(), 15.0);
  EXPECT_FALSE(db.mean(x, 10.0, 20.0).has_value());
}

TEST(MetricsDb, Last) {
  MetricsDb db;
  const runtime::MetricId x = db.resolve("x");
  db.record(x, 0.0, 1.0);
  db.record(x, 9.0, 42.0);
  const auto p = db.last(x);
  ASSERT_TRUE(p);
  EXPECT_DOUBLE_EQ(p->time, 9.0);
  EXPECT_DOUBLE_EQ(p->value, 42.0);
}

TEST(MetricsDb, SeriesNamesAndClear) {
  MetricsDb db;
  db.record(db.resolve("b"), 0.0, 1.0);
  db.record(db.resolve("a"), 0.0, 1.0);
  EXPECT_EQ(db.series_names(), (std::vector<std::string>{"a", "b"}));
  db.clear();
  EXPECT_TRUE(db.series_names().empty());
}

TEST(MetricsDb, CsvExportSelectedSeries) {
  MetricsDb db;
  const runtime::MetricId a = db.resolve("a");
  db.record(a, 0.0, 1.0);
  db.record(a, 1.0, 2.0);
  db.record(db.resolve("b"), 1.0, 20.0);
  std::ostringstream out;
  const std::vector<std::string> cols{"a", "b"};
  db.write_csv(out, cols);
  EXPECT_EQ(out.str(),
            "time,a,b\n"
            "0,1,\n"
            "1,2,20\n");
}

TEST(MetricsDb, CsvExportAllSeriesByDefault) {
  MetricsDb db;
  db.record(db.resolve("x"), 0.0, 5.0);
  std::ostringstream out;
  db.write_csv(out);
  EXPECT_EQ(out.str(), "time,x\n0,5\n");
}

TEST(MetricsDb, CsvExportUnknownSeriesGivesEmptyColumn) {
  MetricsDb db;
  db.record(db.resolve("x"), 0.0, 5.0);
  std::ostringstream out;
  const std::vector<std::string> cols{"x", "ghost"};
  db.write_csv(out, cols);
  EXPECT_EQ(out.str(), "time,x,ghost\n0,5,\n");
}

TEST(MetricNames, FlinkStylePaths) {
  EXPECT_EQ(metric_names::true_rate("count"),
            "taskmanager.job.task.trueProcessingRate.count");
  EXPECT_EQ(metric_names::observed_rate("count"),
            "taskmanager.job.task.observedProcessingRate.count");
  EXPECT_EQ(metric_names::input_rate("x"),
            "taskmanager.job.task.numRecordsInPerSecond.x");
  EXPECT_EQ(metric_names::output_rate("x"),
            "taskmanager.job.task.numRecordsOutPerSecond.x");
  EXPECT_EQ(metric_names::queue_size("x"),
            "taskmanager.job.task.inputQueueLength.x");
}

}  // namespace
}  // namespace autra::sim
