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
    std::vector<data::DatasetId> hot = driver_.sites_[self_].popularity().over_threshold(
        threshold, driver_.engine_.now());
    // Only datasets the site still holds can be pushed from here.
    std::erase_if(hot, [this](data::DatasetId d) {
      return !driver_.sites_[self_].storage().contains(d);
    });
    return hot;
  }

  void reset_popularity(data::DatasetId dataset) override {
    driver_.sites_[self_].popularity().reset(dataset);
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
  requester_counts_.resize(sites_.size());
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
  sites_[source].popularity().record(dataset, engine_.now());
  if (client != source) ++requester_counts_[source][dataset][client];
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
  CHICSIM_ASSERT(self < requester_counts_.size());
  const auto& per_dataset = requester_counts_[self];
  auto it = per_dataset.find(dataset);
  if (it == per_dataset.end()) return data::kNoSite;
  data::SiteIndex best = data::kNoSite;
  std::uint64_t best_count = 0;
  for (const auto& [requester, count] : it->second) {
    if (count > best_count || (count == best_count && requester < best)) {
      best = requester;
      best_count = count;
    }
  }
  return best;
}

data::StorageManager::AddOutcome ReplicationDriver::store_replica(data::SiteIndex s,
                                                                  data::DatasetId dataset) {
  auto outcome = sites_[s].storage().add_replica(dataset, catalog_.size_mb(dataset));
  for (data::DatasetId evicted : outcome.evicted) {
    bool removed = replicas_.remove(evicted, s);
    CHICSIM_ASSERT_MSG(removed, "evicted a replica the catalog did not know");
    events_.emit(GridEvent{GridEventType::ReplicaEvicted, 0.0, site::kNoJob, evicted, s,
                           data::kNoSite, catalog_.size_mb(evicted)});
  }
  if (outcome.newly_added && !outcome.transient) {
    replicas_.add(dataset, s);
    events_.emit(GridEvent{GridEventType::ReplicaStored, 0.0, site::kNoJob, dataset, s,
                           data::kNoSite, catalog_.size_mb(dataset)});
  }
  return outcome;
}

void ReplicationDriver::start_replication(data::SiteIndex from, data::DatasetId dataset,
                                          data::SiteIndex dest) {
  CHICSIM_ASSERT_MSG(dest < sites_.size(), "replication to invalid site");
  if (dest == from) return;
  if (!sites_[from].alive() || !sites_[dest].alive()) return;
  if (replicas_.has(dataset, dest)) return;
  if (!sites_[from].storage().contains(dataset)) return;
  std::uint64_t key = push_key(dataset, dest);
  if (pending_pushes_.count(key) > 0) return;
  pending_pushes_.emplace(key, PushRecord{from, dataset, dest, net::kNoTransfer});
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
  // Completion runs through the calendar, never synchronously, so the
  // record is still there to take the wire handle.
  auto it = pending_pushes_.find(key);
  CHICSIM_ASSERT(it != pending_pushes_.end());
  it->second.transfer = transfer;
}

void ReplicationDriver::on_site_crashed(data::SiteIndex s) {
  // Collect the doomed pushes first (sorted: map order is not
  // deterministic), then tear each down. Source pins release against
  // storage that is still intact — the crash wipe runs after this.
  std::vector<PushRecord> doomed;
  for (const auto& [key, record] : pending_pushes_) {
    if (record.from == s || record.dest == s) doomed.push_back(record);
  }
  std::sort(doomed.begin(), doomed.end(), [](const PushRecord& a, const PushRecord& b) {
    return a.dataset != b.dataset ? a.dataset < b.dataset : a.dest < b.dest;
  });
  for (const PushRecord& record : doomed) {
    CHICSIM_ASSERT(record.transfer != net::kNoTransfer);
    transfers_.abort(record.transfer);
    CHICSIM_ASSERT(inbound_pushes_[record.dest] > 0);
    --inbound_pushes_[record.dest];
    sites_[record.from].storage().release(record.dataset);
    pending_pushes_.erase(push_key(record.dataset, record.dest));
  }
}

}  // namespace chicsim::core
