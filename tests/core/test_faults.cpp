// Fault-injection framework tests (docs/robustness.md): deterministic
// replay of failure schedules, crash recovery across all four services,
// retry backoff shape, replica failover, and the bit-identity guarantee
// that fault-free runs are untouched by the framework's existence.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "core/audit.hpp"
#include "core/faults.hpp"
#include "core/grid.hpp"

namespace chicsim::core {
namespace {

SimulationConfig small_config() {
  SimulationConfig cfg;
  cfg.num_users = 12;
  cfg.num_sites = 6;
  cfg.num_regions = 3;
  cfg.num_datasets = 30;
  cfg.total_jobs = 120;
  cfg.storage_capacity_mb = 20000.0;
  cfg.es = EsAlgorithm::JobRandom;  // lots of network traffic
  cfg.ds = DsAlgorithm::DataDoNothing;
  cfg.seed = 31;
  return cfg;
}

/// Records every grid event verbatim, for assertions on fault streams.
class EventRecorder final : public GridObserver {
 public:
  void on_event(const GridEvent& e) override { events_.push_back(e); }

  [[nodiscard]] std::vector<GridEvent> of_type(GridEventType type) const {
    std::vector<GridEvent> out;
    for (const GridEvent& e : events_) {
      if (e.type == type) out.push_back(e);
    }
    return out;
  }

  [[nodiscard]] const std::vector<GridEvent>& events() const { return events_; }

 private:
  std::vector<GridEvent> events_;
};

/// The metric fields that together fingerprint a run; any divergence in
/// randomness, event order, or recovery behaviour shows up here.
void expect_identical_runs(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.remote_fetches, b.remote_fetches);
  EXPECT_EQ(a.replications, b.replications);
  EXPECT_EQ(a.cache_evictions, b.cache_evictions);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.site_crashes, b.site_crashes);
  EXPECT_EQ(a.site_recoveries, b.site_recoveries);
  EXPECT_EQ(a.jobs_resubmitted, b.jobs_resubmitted);
  EXPECT_EQ(a.transfer_retries, b.transfer_retries);
  EXPECT_EQ(a.output_retries, b.output_retries);
  EXPECT_EQ(a.transfers_aborted, b.transfers_aborted);
  EXPECT_EQ(a.catalog_invalidations, b.catalog_invalidations);
  // Bit-exact, not approximate: same seed + same plan must replay the
  // same virtual timeline.
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.avg_response_time_s, b.avg_response_time_s);
  EXPECT_EQ(a.avg_data_per_job_mb, b.avg_data_per_job_mb);
}

TEST(Faults, EmptyPlanIsBitIdenticalAcrossTheFullMatrix) {
  // The hard guarantee the framework is built around: with no faults
  // configured, every (ES, DS) cell is bit-identical to a run that never
  // heard of fault plans — even when the retry/backoff knobs differ.
  for (EsAlgorithm es : paper_es_algorithms()) {
    for (DsAlgorithm ds : paper_ds_algorithms()) {
      SimulationConfig cfg = small_config();
      cfg.total_jobs = 60;
      cfg.es = es;
      cfg.ds = ds;
      Grid plain(cfg);
      plain.run();

      SimulationConfig with_knobs = cfg;
      with_knobs.fetch_retry_base_s = 5.0;  // recovery knobs are inert fault-free
      with_knobs.resubmit_backoff_s = 7.0;
      Grid with_plan(with_knobs);
      with_plan.add_fault_plan(FaultPlan{});  // explicitly empty
      with_plan.run();

      expect_identical_runs(plain.metrics(), with_plan.metrics());
      EXPECT_EQ(with_plan.metrics().site_crashes, 0u);
      EXPECT_EQ(plain.metrics().site_crashes, 0u);
    }
  }
}

TEST(Faults, StochasticScheduleReplaysBitIdentically) {
  SimulationConfig cfg = small_config();
  cfg.fault_site_crash_rate_per_hour = 0.5;
  cfg.fault_site_downtime_s = 1200.0;
  cfg.fault_transfer_fail_prob = 0.2;
  cfg.fault_catalog_loss_rate_per_hour = 4.0;

  Grid a(cfg);
  a.run();
  Grid b(cfg);
  b.run();
  expect_identical_runs(a.metrics(), b.metrics());

  // And the generated plan itself is a pure function of the config.
  FaultPlan p1 = FaultPlan::generate(cfg);
  FaultPlan p2 = FaultPlan::generate(cfg);
  ASSERT_EQ(p1.size(), p2.size());
  EXPECT_GT(p1.size(), 0u);
  for (std::size_t i = 0; i < p1.size(); ++i) {
    EXPECT_EQ(p1.actions()[i].kind, p2.actions()[i].kind);
    EXPECT_EQ(p1.actions()[i].at, p2.actions()[i].at);
    EXPECT_EQ(p1.actions()[i].site, p2.actions()[i].site);
  }
}

TEST(Faults, CrashDuringComputeResubmitsAndCompletesEverything) {
  SimulationConfig cfg = small_config();
  Grid grid(cfg);
  // Two sites die while the grid is busy and come back much later; every
  // stranded job (queued, running, fetching) must be re-placed and finish.
  // Downtimes stay inside the parked-fetch no-progress budget
  // (fetch_max_retries polls with capped backoff, ~6 h at the defaults); a
  // longer continuous outage is an error by design — the planner refuses
  // to wait forever for a dataset that may never come back.
  grid.add_fault_plan(FaultPlan{}
                          .crash_site(150.0, 1)
                          .crash_site(400.0, 2)
                          .recover_site(3000.0, 1)
                          .recover_site(3500.0, 2));
  grid.run();

  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  EXPECT_EQ(grid.metrics().site_crashes, 2u);
  EXPECT_EQ(grid.metrics().site_recoveries, 2u);
  EXPECT_GT(grid.metrics().jobs_resubmitted, 0u);
  audit_grid(grid);  // dead-site and catalog invariants all hold
}

TEST(Faults, CrashDuringTransferFailsOverOrParksWaiters) {
  SimulationConfig cfg = small_config();
  cfg.ds = DsAlgorithm::DataFastSpread;  // spreads replicas -> alternate sources
  cfg.replication_threshold = 2.0;
  EventRecorder recorder;
  Grid grid(cfg);
  grid.add_observer(&recorder);
  // Crash a site while transfers are in flight (with 120 jobs fetching over
  // 10 Mbps links the wire is busy from the first seconds), recover later.
  grid.add_fault_plan(FaultPlan{}.crash_site(200.0, 0).recover_site(4000.0, 0));
  grid.run();

  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  // The crash tore down at least one in-flight fetch and the planner
  // retried it (failover to a live holder, or parked until recovery).
  EXPECT_GT(grid.metrics().transfer_retries, 0u);
  auto retries = recorder.of_type(GridEventType::TransferRetried);
  ASSERT_FALSE(retries.empty());
  // Coalesced waiters ride the failover: joins happened and every job
  // still completed, so no waiter was dropped by the source switch.
  EXPECT_FALSE(recorder.of_type(GridEventType::FetchJoined).empty());
  audit_grid(grid);
}

TEST(Faults, CrashFailoverRetriesInDestThenDatasetOrder) {
  // Site 3 dies at t=2000 while serving four in-flight fetches to three
  // destinations (two of them toward site 1). Its teardown fails each one
  // over to a live holder or parks it, in (dest, dataset) order, and every
  // fetch stays pending at its destination: failover moves the wire, never
  // the bookkeeping.
  SimulationConfig cfg = small_config();
  const data::SiteIndex victim = 3;
  const util::SimTime crash_at = 2000.0;

  class CrashWatch final : public GridObserver {
   public:
    CrashWatch(const Grid& grid, util::SimTime at) : grid_(grid), at_(at) {}
    void on_event(const GridEvent& e) override {
      if (e.type == GridEventType::SiteFailed && e.time == at_) {
        for (data::SiteIndex d = 0; d < grid_.site_count(); ++d) {
          before.push_back(grid_.fetch_planner().pending_fetches(d));
        }
      }
      if (e.type == GridEventType::TransferRetried && e.time == at_) retries.push_back(e);
    }
    std::vector<std::size_t> before;
    std::vector<GridEvent> retries;

   private:
    const Grid& grid_;
    util::SimTime at_;
  };

  Grid grid(cfg);
  CrashWatch watch(grid, crash_at);
  grid.add_observer(&watch);
  grid.add_fault_plan(FaultPlan{}.crash_site(crash_at, victim).recover_site(3000.0, victim));
  // Runs after everything at the crash instant, the teardown included.
  std::vector<std::size_t> after;
  grid.engine().schedule_at(std::nextafter(crash_at, 2.0 * crash_at), [&] {
    for (data::SiteIndex d = 0; d < grid.site_count(); ++d) {
      after.push_back(grid.fetch_planner().pending_fetches(d));
    }
  });
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);

  std::vector<std::pair<data::SiteIndex, data::DatasetId>> order;
  for (const GridEvent& e : watch.retries) order.emplace_back(e.site_b, e.dataset);
  std::vector<data::SiteIndex> dests;
  for (const auto& [dest, dataset] : order) dests.push_back(dest);
  dests.erase(std::unique(dests.begin(), dests.end()), dests.end());
  ASSERT_GE(order.size(), 3u);
  ASSERT_GE(dests.size(), 2u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(std::adjacent_find(order.begin(), order.end()), order.end());

  ASSERT_EQ(watch.before.size(), cfg.num_sites);
  ASSERT_EQ(after.size(), cfg.num_sites);
  for (data::SiteIndex d = 0; d < cfg.num_sites; ++d) {
    EXPECT_EQ(after[d], d == victim ? 0u : watch.before[d]) << "site " << d;
  }
  audit_grid(grid);
}

TEST(Faults, ParkedFetchBacksOffExponentially) {
  SimulationConfig cfg = small_config();
  cfg.num_sites = 4;
  cfg.num_regions = 2;
  cfg.num_users = 8;
  cfg.total_jobs = 40;
  EventRecorder recorder;
  Grid grid(cfg);
  grid.add_observer(&recorder);
  // Kill every site but 0 before the first submission: all jobs land on
  // site 0 and every fetch of a dataset mastered elsewhere parks (its only
  // holders are down) and polls with exponential backoff until recovery.
  grid.add_fault_plan(FaultPlan{}
                          .crash_site(0.0, 1)
                          .crash_site(0.0, 2)
                          .crash_site(0.0, 3)
                          .recover_site(1500.0, 1)
                          .recover_site(1500.0, 2)
                          .recover_site(1500.0, 3));
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);

  // Group the parked polls (TransferRetried with no source) per
  // (dest, dataset) and check consecutive gaps double: the schedule is
  // base * 2^(attempt-1), capped at fetch_retry_max_s.
  std::map<std::pair<data::SiteIndex, data::DatasetId>, std::vector<double>> polls;
  for (const GridEvent& e : recorder.of_type(GridEventType::TransferRetried)) {
    if (e.site_a == data::kNoSite) polls[{e.site_b, e.dataset}].push_back(e.time);
  }
  ASSERT_FALSE(polls.empty());
  bool saw_doubling = false;
  for (const auto& [key, times] : polls) {
    for (std::size_t i = 0; i + 2 < times.size(); ++i) {
      double gap1 = times[i + 1] - times[i];
      double gap2 = times[i + 2] - times[i + 1];
      if (gap1 < cfg.fetch_retry_max_s - 1e-9) {
        EXPECT_NEAR(gap2, std::min(2.0 * gap1, cfg.fetch_retry_max_s), 1e-6);
        saw_doubling = true;
      }
    }
    for (std::size_t i = 1; i < times.size(); ++i) {
      EXPECT_GE(times[i] - times[i - 1], cfg.fetch_retry_base_s - 1e-9);
    }
  }
  EXPECT_TRUE(saw_doubling);
  audit_grid(grid);
}

TEST(Faults, FlakyTransfersRetryUntilDelivery) {
  SimulationConfig cfg = small_config();
  cfg.fault_transfer_fail_prob = 0.3;  // roughly one in three fetches dies mid-air
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  EXPECT_GT(grid.metrics().transfers_aborted, 0u);
  EXPECT_GT(grid.metrics().transfer_retries, 0u);
  audit_grid(grid);
}

TEST(Faults, CatalogCorruptionIsDiscoveredAndReconciled) {
  SimulationConfig cfg = small_config();
  cfg.ds = DsAlgorithm::DataFastSpread;  // plenty of unpinned cached copies
  cfg.replication_threshold = 2.0;
  cfg.fault_catalog_loss_rate_per_hour = 60.0;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  EXPECT_GT(grid.fault_stats().catalog_corruptions, 0u);
  // Every silent loss was eventually noticed — lazily at source selection
  // or by the end-of-run sweep — so the audit sees a truthful catalog.
  EXPECT_GT(grid.metrics().catalog_invalidations, 0u);
  audit_grid(grid);
}

TEST(Faults, OutputReturnRetriesWhileOriginIsDown) {
  SimulationConfig cfg = small_config();
  cfg.output_fraction = 0.5;  // jobs ship output home before completing
  Grid grid(cfg);
  // Site 0 (home of users 0 and 6) is down for a stretch in which its
  // users' jobs finish computing elsewhere; the output returns must hold
  // and retry until the archive is back.
  grid.add_fault_plan(FaultPlan{}.crash_site(100.0, 0).recover_site(1500.0, 0));
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  EXPECT_GT(grid.metrics().output_retries, 0u);
  audit_grid(grid);
}

TEST(Faults, OutputReturnBacksOffThroughALongOriginOutage) {
  // Output returns back off like resubmissions (60 s doubling to 960 s),
  // so max_job_resubmissions (40) spans ~9.8 h of origin outage. A fixed
  // 60 s retry would exhaust it in this 5,000 s outage and abort the run.
  SimulationConfig cfg = small_config();
  cfg.output_fraction = 0.5;
  EventRecorder recorder;
  Grid grid(cfg);
  grid.add_observer(&recorder);
  grid.add_fault_plan(FaultPlan{}.crash_site(100.0, 0).recover_site(5100.0, 0));
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  EXPECT_GT(grid.metrics().output_retries, 0u);

  // Per job, the held output's retries are spaced 60, 120, 240, ... s.
  std::map<site::JobId, std::vector<double>> retries;
  for (const GridEvent& e : recorder.of_type(GridEventType::TransferRetried)) {
    if (e.dataset == data::kNoDataset) retries[e.job].push_back(e.time);  // output leg
  }
  bool saw_doubling = false;
  for (const auto& [job, times] : retries) {
    for (std::size_t i = 1; i < times.size(); ++i) {
      double doubled = std::ldexp(cfg.resubmit_backoff_s, static_cast<int>(i) - 1);
      double expected = std::min(doubled, 16.0 * cfg.resubmit_backoff_s);
      EXPECT_NEAR(times[i] - times[i - 1], expected, 1e-6) << "job " << job;
      if (i >= 2) saw_doubling = true;
    }
  }
  EXPECT_TRUE(saw_doubling);
  audit_grid(grid);
}

TEST(Faults, CrashHeavyStochasticRunStillCompletesEveryJob) {
  SimulationConfig cfg = small_config();
  cfg.fault_site_crash_rate_per_hour = 1.0;
  cfg.fault_site_downtime_s = 900.0;
  cfg.fault_transfer_fail_prob = 0.1;
  cfg.fault_catalog_loss_rate_per_hour = 10.0;
  Grid grid(cfg);
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  EXPECT_GT(grid.metrics().site_crashes, 0u);
  audit_grid(grid);
}

TEST(Faults, ResubmissionBudgetBoundsConsecutiveFailuresNotLifetime) {
  // max_job_resubmissions is the livelock guard: it bounds CONSECUTIVE
  // failed placements and resets once the ES lands the job on a live site.
  // Regression: the counter used to accumulate over the job's lifetime, so
  // a JobLocal job whose home site crashed in enough separate episodes
  // (each individually within budget) aborted the run with "the grid
  // cannot place it" even though it was making progress between episodes.
  SimulationConfig cfg = small_config();
  cfg.es = EsAlgorithm::JobLocal;  // pinned to home: every episode hits it
  cfg.max_job_resubmissions = 2;
  Grid grid(cfg);
  // Seven 100 s outages of site 1, 400 s apart. Within one episode a job
  // is hit at most twice (killed/held at the crash, held once more at the
  // 60 s retry; the 180 s one lands after recovery) — inside the budget of
  // 2. Across the run, site-1 jobs take far more than 2 hits total.
  FaultPlan plan;
  for (int k = 0; k < 7; ++k) {
    plan.crash_site(100.0 + 400.0 * k, 1).recover_site(200.0 + 400.0 * k, 1);
  }
  grid.add_fault_plan(std::move(plan));
  grid.run();

  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
  EXPECT_EQ(grid.metrics().site_crashes, 7u);
  // The lifetime total across site-1 jobs dwarfs the per-episode budget —
  // the scenario the old accumulate-forever counter rejected.
  EXPECT_GT(grid.metrics().jobs_resubmitted,
            static_cast<std::uint64_t>(cfg.max_job_resubmissions));
  audit_grid(grid);
}

TEST(Faults, ScriptedPlanValidationRejectsNonsense) {
  SimulationConfig cfg = small_config();
  Grid grid(cfg);
  EXPECT_THROW(grid.add_fault_plan(FaultPlan{}.crash_site(10.0, 99)), util::SimError);
  EXPECT_THROW(grid.add_fault_plan(FaultPlan{}.degrade_link(10.0, 999, 0.5)),
               util::SimError);
  EXPECT_THROW(grid.add_fault_plan(FaultPlan{}.degrade_link(10.0, 0, 0.0)),
               util::SimError);
  EXPECT_THROW(grid.add_fault_plan(FaultPlan{}.lose_catalog_entry(10.0, 9999)),
               util::SimError);
  // A valid plan is still accepted afterwards, and runs.
  grid.add_fault_plan(FaultPlan{}.crash_site(100.0, 1).recover_site(500.0, 1));
  grid.run();
  EXPECT_EQ(grid.metrics().jobs_completed, cfg.total_jobs);
}

TEST(Faults, FaultKindNamesAreStable) {
  EXPECT_STREQ(to_string(FaultKind::SiteCrash), "site_crash");
  EXPECT_STREQ(to_string(FaultKind::SiteRecover), "site_recover");
  EXPECT_STREQ(to_string(FaultKind::TransferAbort), "transfer_abort");
  EXPECT_STREQ(to_string(FaultKind::LinkDegrade), "link_degrade");
  EXPECT_STREQ(to_string(FaultKind::LinkRestore), "link_restore");
  EXPECT_STREQ(to_string(FaultKind::CatalogEntryLoss), "catalog_entry_loss");
}

}  // namespace
}  // namespace chicsim::core
