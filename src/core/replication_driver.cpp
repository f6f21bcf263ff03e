#include "core/replication_driver.hpp"

#include <algorithm>

#include "core/factory.hpp"
#include "util/error.hpp"

namespace chicsim::core {

namespace {
std::uint64_t push_key(data::DatasetId dataset, data::SiteIndex dest) {
  return (static_cast<std::uint64_t>(dataset) << 32) | dest;
}
}  // namespace

/// Adapter giving one site's DS instance its actions and demand signals.
class ReplicationDriver::Ctx final : public ReplicationContext {
 public:
  Ctx(ReplicationDriver& driver, data::SiteIndex self) : driver_(driver), self_(self) {}

  [[nodiscard]] data::SiteIndex self() const override { return self_; }
  [[nodiscard]] const GridView& view() const override { return driver_.view_; }

  void replicate(data::DatasetId dataset, data::SiteIndex destination) override {
    driver_.start_replication(self_, dataset, destination);
  }

  [[nodiscard]] std::vector<data::DatasetId> popular_datasets(
      double threshold) const override {
    std::vector<data::DatasetId> hot = driver_.demand_[self_].over_threshold(threshold);
    // Only datasets the site still holds can be pushed from here.
    std::erase_if(hot, [this](data::DatasetId d) {
      return !driver_.sites_[self_].storage().contains(d);
    });
    return hot;
  }

  void reset_popularity(data::DatasetId dataset) override {
    driver_.demand_[self_].reset(dataset);
  }

  [[nodiscard]] std::size_t inbound_replications(data::SiteIndex site) const override {
    return driver_.inbound_replications(site);
  }

  [[nodiscard]] data::SiteIndex top_requester(data::DatasetId dataset) const override {
    return driver_.top_requester(self_, dataset);
  }

 private:
  ReplicationDriver& driver_;
  data::SiteIndex self_;
};

ReplicationDriver::ReplicationDriver(const SimulationConfig& config, sim::Engine& engine,
                                     std::vector<site::Site>& sites,
                                     const data::DatasetCatalog& catalog,
                                     data::ReplicaCatalog& replicas,
                                     net::TransferManager& transfers, const GridView& view,
                                     EventBus& events)
    : config_(config),
      engine_(engine),
      sites_(sites),
      catalog_(catalog),
      replicas_(replicas),
      transfers_(transfers),
      view_(view),
      events_(events),
      ds_(make_dataset_scheduler(config.ds, config.replication_threshold)),
      rng_ds_(util::Rng::substream(config.seed, "ds")) {
  inbound_pushes_.assign(sites_.size(), 0);
  demand_.resize(sites_.size());
}

ReplicationDriver::~ReplicationDriver() = default;

void ReplicationDriver::set_dataset_scheduler(std::unique_ptr<DatasetScheduler> ds) {
  CHICSIM_ASSERT_MSG(ds != nullptr, "null dataset scheduler");
  ds_ = std::move(ds);
}

void ReplicationDriver::start() {
  timer_ = std::make_unique<sim::PeriodicTimer>(engine_, config_.ds_check_period_s,
                                                config_.ds_check_period_s,
                                                [this] { evaluate_all(); }, "ds_evaluate");
}

void ReplicationDriver::stop() {
  if (timer_) timer_->stop();
}

void ReplicationDriver::evaluate_all() {
  for (data::SiteIndex s = 0; s < sites_.size(); ++s) {
    Ctx ctx(*this, s);
    ds_->evaluate(ctx, rng_ds_);
  }
}

void ReplicationDriver::note_access(data::DatasetId dataset, data::SiteIndex source,
                                    data::SiteIndex client, data::SiteIndex fetch_dest) {
  demand_[source].record(dataset, client == source ? data::kNoSite : client);
  if (fetch_dest != data::kNoSite && fetch_dest != source) {
    Ctx ctx(*this, source);
    ds_->on_remote_fetch(ctx, dataset, fetch_dest, rng_ds_);
  }
}

std::size_t ReplicationDriver::inbound_replications(data::SiteIndex site) const {
  CHICSIM_ASSERT(site < inbound_pushes_.size());
  return inbound_pushes_[site];
}

data::SiteIndex ReplicationDriver::top_requester(data::SiteIndex self,
                                                 data::DatasetId dataset) const {
  CHICSIM_ASSERT(self < demand_.size());
  return demand_[self].top_requester(dataset);
}

data::StorageManager::AddOutcome ReplicationDriver::store_replica(data::SiteIndex s,
                                                                  data::DatasetId dataset) {
  auto outcome = sites_[s].storage().add_replica(dataset, catalog_.size_mb(dataset));
  drop_replicas(s, outcome.evicted);
  if (outcome.newly_added && !outcome.transient) {
    replicas_.add(dataset, s);
    events_.emit(GridEvent{GridEventType::ReplicaStored, 0.0, site::kNoJob, dataset, s,
                           data::kNoSite, catalog_.size_mb(dataset)});
  }
  return outcome;
}

void ReplicationDriver::drop_replicas(data::SiteIndex s,
                                      const std::vector<data::DatasetId>& gone) {
  for (data::DatasetId d : gone) {
    bool removed = replicas_.remove(d, s);
    CHICSIM_ASSERT_MSG(removed, "dropped a replica the catalog did not know");
    events_.emit(GridEvent{GridEventType::ReplicaEvicted, 0.0, site::kNoJob, d, s,
                           data::kNoSite, catalog_.size_mb(d)});
  }
}

void ReplicationDriver::invalidate_lies(data::DatasetId dataset) {
  const auto& holders = replicas_.locations(dataset);
  auto is_lie = [&](data::SiteIndex h) { return !sites_[h].storage().contains(dataset); };
  auto first_lie = std::find_if(holders.begin(), holders.end(), is_lie);
  if (first_lie == holders.end()) return;
  // Copy from the first lie on: remove() erases from `holders`.
  const std::vector<data::SiteIndex> suspects(first_lie, holders.end());
  for (data::SiteIndex h : suspects) {
    if (!is_lie(h)) continue;
    bool removed = replicas_.remove(dataset, h);
    CHICSIM_ASSERT(removed);
    events_.emit(GridEvent{GridEventType::CatalogInvalidated, 0.0, site::kNoJob, dataset, h,
                           data::kNoSite, catalog_.size_mb(dataset)});
  }
}

void ReplicationDriver::reconcile_catalog() {
  for (data::DatasetId d = 0; d < catalog_.size(); ++d) invalidate_lies(d);
}

void ReplicationDriver::start_replication(data::SiteIndex from, data::DatasetId dataset,
                                          data::SiteIndex dest) {
  CHICSIM_ASSERT_MSG(dest < sites_.size(), "replication to invalid site");
  if (dest == from) return;
  if (!sites_[from].alive() || !sites_[dest].alive()) return;
  if (replicas_.has(dataset, dest)) return;
  if (!sites_[from].storage().contains(dataset)) return;
  std::uint64_t key = push_key(dataset, dest);
  auto [it, inserted] =
      pending_pushes_.try_emplace(key, PushRecord{from, dataset, dest, net::kNoTransfer});
  if (!inserted) return;
  ++inbound_pushes_[dest];
  events_.emit(GridEvent{GridEventType::ReplicationStarted, 0.0, site::kNoJob, dataset,
                         from, dest, catalog_.size_mb(dataset)});
  sites_[from].storage().acquire(dataset);
  net::TransferId transfer = transfers_.start(
      from, dest, catalog_.size_mb(dataset), net::TransferPurpose::Replication,
      [this, from, dataset, dest, key](net::TransferId) {
        pending_pushes_.erase(key);
        CHICSIM_ASSERT(inbound_pushes_[dest] > 0);
        --inbound_pushes_[dest];
        sites_[from].storage().release(dataset);
        events_.emit(GridEvent{GridEventType::ReplicationCompleted, 0.0,
                               site::kNoJob, dataset, from, dest,
                               catalog_.size_mb(dataset)});
        auto outcome = store_replica(dest, dataset);
        // A push that landed over capacity has no takers (no
        // job references it); drop it rather than let it squat
        // above the storage budget.
        if (outcome.transient) (void)sites_[dest].storage().evict(dataset);
      });
  // Completion runs through the calendar, never synchronously, so `it`
  // still points at the record to take the wire handle.
  it->second.transfer = transfer;
}

void ReplicationDriver::on_site_crashed(data::SiteIndex s) {
  // Walk in key = (dataset, dest) order and tear down in place. Source
  // pins release against storage that is still intact — the crash wipe
  // runs after this.
  for (auto it = pending_pushes_.begin(); it != pending_pushes_.end();) {
    const PushRecord& record = it->second;
    if (record.from != s && record.dest != s) {
      ++it;
      continue;
    }
    CHICSIM_ASSERT(record.transfer != net::kNoTransfer);
    transfers_.abort(record.transfer);
    CHICSIM_ASSERT(inbound_pushes_[record.dest] > 0);
    --inbound_pushes_[record.dest];
    sites_[record.from].storage().release(record.dataset);
    it = pending_pushes_.erase(it);
  }
}

}  // namespace chicsim::core
