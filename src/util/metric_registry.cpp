#include "util/metric_registry.hpp"

#include <cmath>
#include <ostream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::util {

void HistogramMetric::observe(double value) {
  stats_.add(value);
  int exp = kMinExp;
  if (value > 0.0) {
    exp = std::ilogb(value);
    if (exp < kMinExp) exp = kMinExp;
    if (exp > kMaxExp) exp = kMaxExp;
  }
  ++buckets_[static_cast<std::size_t>(exp - kMinExp)];
}

double HistogramMetric::bucket_upper_bound(std::size_t i) {
  return std::ldexp(1.0, static_cast<int>(i) + kMinExp + 1);
}

MetricRegistry::Entry& MetricRegistry::entry(const std::string& name,
                                             const std::string& dimension, Kind kind) {
  std::string key = name + '\x1f' + dimension;
  auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& e = entries_[it->second];
    if (e.kind != kind) {
      throw SimError("metric \"" + name + "\" (" + dimension +
                     ") already registered with a different kind");
    }
    return e;
  }
  index_.emplace(std::move(key), entries_.size());
  Entry e;
  e.name = name;
  e.dimension = dimension;
  e.kind = kind;
  entries_.push_back(std::move(e));
  return entries_.back();
}

CounterMetric& MetricRegistry::counter(const std::string& name,
                                       const std::string& dimension) {
  return entry(name, dimension, Kind::Counter).counter;
}

GaugeMetric& MetricRegistry::gauge(const std::string& name, const std::string& dimension) {
  return entry(name, dimension, Kind::Gauge).gauge;
}

HistogramMetric& MetricRegistry::histogram(const std::string& name,
                                           const std::string& dimension) {
  return entry(name, dimension, Kind::Histogram).histogram;
}

namespace {
const char* kind_name(int kind) {
  switch (kind) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}
}  // namespace

void MetricRegistry::write_csv(std::ostream& out) const {
  CsvWriter csv(out);
  csv.header({"name", "dimension", "kind", "count", "value", "mean", "min", "max"});
  for (const Entry& e : entries_) {
    switch (e.kind) {
      case Kind::Counter:
        csv.row({e.name, e.dimension, "counter", "1", std::to_string(e.counter.value), "",
                 "", ""});
        break;
      case Kind::Gauge:
        csv.row({e.name, e.dimension, "gauge", "1", format_fixed(e.gauge.value, 6), "", "",
                 ""});
        break;
      case Kind::Histogram: {
        const OnlineStats& s = e.histogram.stats();
        csv.row({e.name, e.dimension, "histogram", std::to_string(s.count()), "",
                 format_fixed(s.mean(), 6), format_fixed(s.min(), 6),
                 format_fixed(s.max(), 6)});
        break;
      }
    }
  }
}

void MetricRegistry::write_json(std::ostream& out) const {
  out << "{\n  \"metrics\": [";
  bool first = true;
  for (const Entry& e : entries_) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << json_escape(e.name) << "\", \"dimension\": \""
        << json_escape(e.dimension) << "\", \"kind\": \""
        << kind_name(static_cast<int>(e.kind)) << "\"";
    switch (e.kind) {
      case Kind::Counter: out << ", \"value\": " << e.counter.value; break;
      case Kind::Gauge: out << ", \"value\": " << e.gauge.value; break;
      case Kind::Histogram: {
        const OnlineStats& s = e.histogram.stats();
        out << ", \"count\": " << s.count() << ", \"mean\": " << s.mean()
            << ", \"min\": " << s.min() << ", \"max\": " << s.max() << ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t i = 0; i < e.histogram.bucket_count(); ++i) {
          if (e.histogram.bucket(i) == 0) continue;
          if (!first_bucket) out << ", ";
          first_bucket = false;
          out << "{\"le\": " << HistogramMetric::bucket_upper_bound(i)
              << ", \"count\": " << e.histogram.bucket(i) << "}";
        }
        out << "]";
        break;
      }
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace chicsim::util
