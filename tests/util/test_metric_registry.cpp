#include "util/metric_registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "support/json.hpp"
#include "util/error.hpp"

namespace chicsim::util {
namespace {

using test_support::JsonValue;
using test_support::parse_json;

TEST(MetricRegistry, CountersAccumulate) {
  MetricRegistry reg;
  reg.counter("jobs", "site=a").add();
  reg.counter("jobs", "site=a").add(4);
  reg.counter("jobs", "site=b").add();
  EXPECT_EQ(reg.counter("jobs", "site=a").value, 5u);
  EXPECT_EQ(reg.counter("jobs", "site=b").value, 1u);
  EXPECT_EQ(reg.size(), 2u);
}

TEST(MetricRegistry, GaugeLastWriteWins) {
  MetricRegistry reg;
  reg.gauge("depth").set(3.0);
  reg.gauge("depth").set(7.5);
  EXPECT_DOUBLE_EQ(reg.gauge("depth").value, 7.5);
}

TEST(MetricRegistry, KindMismatchThrows) {
  MetricRegistry reg;
  reg.counter("x", "d");
  EXPECT_THROW(reg.gauge("x", "d"), SimError);
  EXPECT_THROW(reg.histogram("x", "d"), SimError);
  // Same name with a different dimension is a different instrument.
  EXPECT_NO_THROW(reg.gauge("x", "other"));
}

TEST(MetricRegistry, ReferencesStayValidAcrossGrowth) {
  MetricRegistry reg;
  CounterMetric& first = reg.counter("first");
  for (int i = 0; i < 1000; ++i) reg.counter("c" + std::to_string(i)).add();
  first.add(42);
  EXPECT_EQ(reg.counter("first").value, 42u);
}

TEST(MetricRegistry, HistogramBucketsAndStats) {
  MetricRegistry reg;
  HistogramMetric& h = reg.histogram("lat", "site=a");
  h.observe(0.5);
  h.observe(1.5);
  h.observe(3.0);
  EXPECT_EQ(h.stats().count(), 3u);
  EXPECT_DOUBLE_EQ(h.stats().min(), 0.5);
  EXPECT_DOUBLE_EQ(h.stats().max(), 3.0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < h.bucket_count(); ++i) total += h.bucket(i);
  EXPECT_EQ(total, 3u);
  // Upper bounds are powers of two and strictly increasing.
  for (std::size_t i = 1; i < h.bucket_count(); ++i) {
    EXPECT_LT(HistogramMetric::bucket_upper_bound(i - 1),
              HistogramMetric::bucket_upper_bound(i));
  }
}

TEST(MetricRegistry, HistogramClampsExtremes) {
  HistogramMetric h;
  h.observe(0.0);     // non-positive -> bucket 0
  h.observe(-5.0);    // non-positive -> bucket 0
  h.observe(1e-300);  // below range -> clamped to bucket 0
  h.observe(1e300);   // above range -> clamped to last bucket
  EXPECT_EQ(h.bucket(0), 3u);
  EXPECT_EQ(h.bucket(h.bucket_count() - 1), 1u);
}

TEST(MetricRegistry, CsvHasOneRowPerInstrument) {
  MetricRegistry reg;
  reg.counter("jobs", "site=a").add(2);
  reg.gauge("depth").set(1.0);
  reg.histogram("lat", "site=a").observe(0.25);
  std::ostringstream out;
  reg.write_csv(out);
  std::string text = out.str();
  // Header + 3 rows.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("jobs,site=a,counter"), std::string::npos);
  EXPECT_NE(text.find("depth,,gauge"), std::string::npos);
  EXPECT_NE(text.find("lat,site=a,histogram"), std::string::npos);
}

TEST(MetricRegistry, JsonExportParses) {
  MetricRegistry reg;
  reg.counter("jobs", "site=a").add(2);
  reg.histogram("lat", "site=a").observe(0.25);
  reg.histogram("lat", "site=a").observe(4.0);
  std::ostringstream out;
  reg.write_json(out);
  JsonValue doc = parse_json(out.str());
  const JsonValue& metrics = doc.at("metrics");
  ASSERT_EQ(metrics.size(), 2u);
  const JsonValue& hist = metrics.items()[1];
  EXPECT_EQ(hist.at("kind").as_string(), "histogram");
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 2.0);
  const JsonValue& buckets = hist.at("buckets");
  ASSERT_GE(buckets.size(), 1u);
  for (const JsonValue& b : buckets.items()) {
    EXPECT_GT(b.at("le").as_number(), 0.0);
    EXPECT_GE(b.at("count").as_number(), 1.0);
  }
}

}  // namespace
}  // namespace chicsim::util
