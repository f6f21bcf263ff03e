// End-to-end checks of the observability stack: event-stream causality
// across the policy matrix, span reconciliation against RunMetrics, the
// folded run counters against raw events and the per-site metric registry,
// and the Chrome trace JSON schema.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <tuple>
#include <vector>

#include "core/grid.hpp"
#include "core/site_metrics.hpp"
#include "core/spans.hpp"
#include "core/timeline.hpp"
#include "core/trace_export.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"

namespace chicsim::core {
namespace {

SimulationConfig obs_config() {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.es = EsAlgorithm::JobDataPresent;
  cfg.ds = DsAlgorithm::DataLeastLoaded;
  cfg.replication_threshold = 3.0;
  cfg.seed = 7;
  return cfg;
}

// Every completion event must be preceded by a matching start on the same
// coalescing key, and the stream must be stamped in non-decreasing time.
void check_causality(const EventLog& log) {
  double last_time = 0.0;
  // (dataset, dest) -> open job-fetch count; (dataset, src, dst) -> open
  // replication count.
  std::map<std::pair<data::DatasetId, data::SiteIndex>, int> open_fetches;
  std::map<std::tuple<data::DatasetId, data::SiteIndex, data::SiteIndex>, int>
      open_replications;
  for (const GridEvent& e : log.events()) {
    ASSERT_GE(e.time, last_time) << "time went backwards at " << to_string(e.type);
    last_time = e.time;
    switch (e.type) {
      case GridEventType::FetchStarted:
        ++open_fetches[{e.dataset, e.site_b}];
        break;
      case GridEventType::FetchJoined: {
        const int open = open_fetches[{e.dataset, e.site_b}];
        ASSERT_GT(open, 0) << "FetchJoined with no in-flight fetch (dataset "
                           << e.dataset << ")";
        break;
      }
      case GridEventType::FetchCompleted: {
        const int open = open_fetches[{e.dataset, e.site_b}];
        ASSERT_GT(open, 0) << "FetchCompleted without FetchStarted (dataset "
                           << e.dataset << ")";
        --open_fetches[{e.dataset, e.site_b}];
        break;
      }
      case GridEventType::ReplicationStarted:
        ++open_replications[{e.dataset, e.site_a, e.site_b}];
        break;
      case GridEventType::ReplicationCompleted: {
        const int open = open_replications[{e.dataset, e.site_a, e.site_b}];
        ASSERT_GT(open, 0) << "ReplicationCompleted without ReplicationStarted";
        --open_replications[{e.dataset, e.site_a, e.site_b}];
        break;
      }
      default:
        break;
    }
  }
}

TEST(Observability, CausalityHoldsAcrossPolicyMatrix) {
  const EsAlgorithm es_list[] = {EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded,
                                 EsAlgorithm::JobDataPresent, EsAlgorithm::JobLocal};
  const DsAlgorithm ds_list[] = {DsAlgorithm::DataDoNothing, DsAlgorithm::DataRandom,
                                 DsAlgorithm::DataLeastLoaded};
  for (EsAlgorithm es : es_list) {
    for (DsAlgorithm ds : ds_list) {
      SimulationConfig cfg = obs_config();
      cfg.es = es;
      cfg.ds = ds;
      Grid grid(cfg);
      EventLog log;
      SpanBuilder spans;
      grid.add_observer(&log);
      grid.add_observer(&spans);
      grid.run();
      SCOPED_TRACE(testing::Message() << "es=" << static_cast<int>(es)
                                      << " ds=" << static_cast<int>(ds));
      check_causality(log);

      const RunMetrics& m = grid.metrics();
      // One FetchStarted per counted remote fetch; joiners ride for free.
      EXPECT_EQ(log.count(GridEventType::FetchStarted), m.remote_fetches);
      EXPECT_EQ(log.count(GridEventType::FetchCompleted), m.remote_fetches);
      EXPECT_EQ(log.count(GridEventType::ReplicationStarted), m.replications);
      EXPECT_EQ(log.count(GridEventType::JobCompleted), m.jobs_completed);

      // Span reconciliation: every job completed, phase durations add up to
      // the response time, and the means match RunMetrics exactly (both are
      // folds of the same timestamps).
      EXPECT_EQ(spans.completed_jobs(), m.jobs_completed);
      double response_sum = 0.0;
      double queue_sum = 0.0;
      double compute_sum = 0.0;
      for (const JobSpans& j : spans.jobs()) {
        ASSERT_TRUE(j.completed);
        EXPECT_NEAR(j.placement_wait_s() + j.queue_wait_s() + j.compute_s() +
                        j.output_wait_s(),
                    j.response_s(), 1e-9);
        EXPECT_GE(j.queue_wait_s(), -1e-12);
        EXPECT_GE(j.compute_s(), 0.0);
        response_sum += j.response_s();
        queue_sum += j.queue_wait_s();
        compute_sum += j.compute_s();
      }
      const double n = static_cast<double>(m.jobs_completed);
      EXPECT_NEAR(response_sum / n, m.avg_response_time_s, 1e-9);
      EXPECT_NEAR(queue_sum / n, m.avg_queue_wait_s, 1e-9);
      EXPECT_NEAR(compute_sum / n, m.avg_compute_s, 1e-9);

      auto counts = spans.critical_path_counts();
      EXPECT_EQ(counts[0] + counts[1] + counts[2], m.jobs_completed);
    }
  }
}

TEST(Observability, FetchSpansCoverJoiners) {
  // With coalescing, jobs that join an in-flight fetch still get their own
  // FetchSpan, flagged `joined`, ending at the shared completion time.
  SimulationConfig cfg = obs_config();
  Grid grid(cfg);
  EventLog log;
  SpanBuilder spans;
  grid.add_observer(&log);
  grid.add_observer(&spans);
  grid.run();

  std::uint64_t joined_spans = 0;
  std::uint64_t fresh_spans = 0;
  for (const JobSpans& j : spans.jobs()) {
    for (const FetchSpan& f : j.fetches) {
      EXPECT_TRUE(f.completed);
      EXPECT_GE(f.end, f.start);
      EXPECT_GT(f.mb, 0.0);
      (f.joined ? joined_spans : fresh_spans)++;
    }
  }
  EXPECT_EQ(fresh_spans, log.count(GridEventType::FetchStarted));
  EXPECT_EQ(joined_spans, log.count(GridEventType::FetchJoined));
  // Each completed transfer appears exactly once in the transfer list.
  std::uint64_t fetch_transfers = 0;
  for (const TransferSpan& t : spans.transfers()) {
    EXPECT_TRUE(t.completed);
    if (t.kind == TransferSpan::Kind::Fetch) ++fetch_transfers;
  }
  EXPECT_EQ(fetch_transfers, log.count(GridEventType::FetchStarted));
}

TEST(Observability, SpanCsvHasOneRowPerJob) {
  Grid grid(obs_config());
  SpanBuilder spans;
  grid.add_observer(&spans);
  grid.run();
  std::ostringstream out;
  spans.write_csv(out);
  util::CsvTable table = util::parse_csv_string(out.str());
  EXPECT_EQ(table.rows.size(), spans.completed_jobs());
  EXPECT_EQ(table.columns[0], "job");
  EXPECT_NO_THROW((void)table.column_index("critical_path"));
  EXPECT_NO_THROW((void)table.column_index("queue_wait_s"));
}

TEST(Observability, SiteMetricsAccountForEveryJob) {
  SimulationConfig cfg = obs_config();
  Grid grid(cfg);
  SiteMetricsObserver site_metrics(grid.topology(), &grid.routing());
  grid.add_observer(&site_metrics);
  grid.run();

  // The per-site completion counters partition the grid-wide total.
  std::uint64_t completed = 0;
  std::uint64_t submitted = 0;
  for (std::size_t s = 0; s < grid.site_count(); ++s) {
    std::string dim = "site=" + grid.topology().node(static_cast<net::NodeId>(s)).name;
    completed += site_metrics.registry().counter("jobs_completed", dim).value;
    submitted += site_metrics.registry().counter("jobs_submitted", dim).value;
  }
  EXPECT_EQ(completed, grid.metrics().jobs_completed);
  EXPECT_EQ(submitted, grid.metrics().jobs_completed);

  // The registry exports parseable JSON.
  std::ostringstream out;
  site_metrics.registry().write_json(out);
  util::JsonValue doc = util::parse_json(out.str());
  EXPECT_GT(doc.at("metrics").size(), 0u);
}

TEST(Observability, FoldedCountersReconcileWithEventsAndSiteMetrics) {
  // Each run-level counter is counted once, by the metrics fold over the
  // event stream. A faulty run with output returns exercises all eight:
  // the RunMetrics value, the raw event count and the per-site partition
  // must agree.
  SimulationConfig cfg = obs_config();
  cfg.es = EsAlgorithm::JobRandom;  // remote placements: fetches + output legs
  cfg.output_fraction = 0.5;
  cfg.fault_site_crash_rate_per_hour = 1.0;
  cfg.fault_site_downtime_s = 300.0;  // inside the output-retry budget
  cfg.fault_transfer_fail_prob = 0.1;
  cfg.fault_catalog_loss_rate_per_hour = 10.0;
  Grid grid(cfg);
  EventLog log;
  SiteMetricsObserver site_metrics(grid.topology(), &grid.routing());
  grid.add_observer(&log);
  grid.add_observer(&site_metrics);
  grid.run();
  const RunMetrics& m = grid.metrics();

  // Output-return retries are the TransferRetried events without a dataset.
  std::uint64_t output_retry_events = 0;
  for (const GridEvent& e : log.events()) {
    if (e.type == GridEventType::TransferRetried && e.dataset == data::kNoDataset) {
      ++output_retry_events;
    }
  }
  const std::uint64_t fetch_retry_events =
      log.count(GridEventType::TransferRetried) - output_retry_events;

  struct Folded {
    const char* site_counter;
    std::uint64_t run_value;
    std::uint64_t event_count;
  };
  const Folded folded[] = {
      {"fetches_started", m.remote_fetches, log.count(GridEventType::FetchStarted)},
      {"replications_in", m.replications, log.count(GridEventType::ReplicationStarted)},
      {"site_crashes", m.site_crashes, log.count(GridEventType::SiteFailed)},
      {"site_recoveries", m.site_recoveries, log.count(GridEventType::SiteRecovered)},
      {"jobs_resubmitted", m.jobs_resubmitted, log.count(GridEventType::JobResubmitted)},
      {"transfer_retries", m.transfer_retries, fetch_retry_events},
      {"output_retries", m.output_retries, output_retry_events},
      {"catalog_invalidations", m.catalog_invalidations,
       log.count(GridEventType::CatalogInvalidated)},
  };
  for (const Folded& f : folded) {
    SCOPED_TRACE(f.site_counter);
    std::uint64_t per_site = 0;
    for (std::size_t s = 0; s < grid.site_count(); ++s) {
      std::string dim = "site=" + grid.topology().node(static_cast<net::NodeId>(s)).name;
      per_site += site_metrics.registry().counter(f.site_counter, dim).value;
    }
    EXPECT_GT(f.run_value, 0u);  // the scenario must exercise every counter
    EXPECT_EQ(f.run_value, f.event_count);
    EXPECT_EQ(f.run_value, per_site);
  }
}

TEST(Observability, ChromeTraceIsSchemaValidJson) {
  SimulationConfig cfg = obs_config();
  Grid grid(cfg);
  SpanBuilder spans;
  grid.add_observer(&spans);
  TimelineRecorder timeline(grid, 60.0);
  grid.run();

  std::ostringstream out;
  write_chrome_trace(out, spans, grid.topology(), grid.site_count(),
                     &grid.routing(), timeline.samples());
  util::JsonValue doc = util::parse_json(out.str());

  const util::JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_GT(events->size(), 0u);

  std::uint64_t complete = 0, async_begin = 0, async_end = 0, counters = 0,
                meta = 0;
  for (const util::JsonValue& e : events->items()) {
    const std::string ph = e.at("ph").as_string();
    ASSERT_NE(e.find("pid"), nullptr);
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      EXPECT_GE(e.at("ts").as_number(), 0.0);
      ASSERT_NE(e.find("tid"), nullptr);
    } else if (ph == "b") {
      ++async_begin;
      ASSERT_NE(e.find("id"), nullptr);
      ASSERT_NE(e.find("cat"), nullptr);
    } else if (ph == "e") {
      ++async_end;
    } else if (ph == "C") {
      ++counters;
      ASSERT_NE(e.find("args"), nullptr);
    } else if (ph == "M") {
      ++meta;
      ASSERT_NE(e.find("args"), nullptr);
    } else {
      FAIL() << "unexpected phase \"" << ph << "\"";
    }
  }
  // Every async begin is balanced by an end; all four track families exist.
  EXPECT_EQ(async_begin, async_end);
  EXPECT_GT(complete, 0u) << "no compute spans";
  EXPECT_GT(counters, 0u) << "no counter samples";
  EXPECT_GT(meta, 0u) << "no process/thread names";
  // One compute span per completed job.
  EXPECT_EQ(complete, grid.metrics().jobs_completed);
}

TEST(Observability, ChromeTraceWithoutRoutingOrTimelineHasNoCounterTracks) {
  SimulationConfig cfg = obs_config();
  Grid grid(cfg);
  SpanBuilder spans;
  grid.add_observer(&spans);
  grid.run();

  std::ostringstream out;
  write_chrome_trace(out, spans, grid.topology(), grid.site_count(),
                     /*routing=*/nullptr, /*timeline=*/{});
  util::JsonValue doc = util::parse_json(out.str());
  for (const util::JsonValue& e : doc.at("traceEvents").items()) {
    EXPECT_NE(e.at("ph").as_string(), "C");
  }
}

}  // namespace
}  // namespace chicsim::core
