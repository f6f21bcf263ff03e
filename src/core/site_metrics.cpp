#include "core/site_metrics.hpp"

#include "util/error.hpp"

namespace chicsim::core {

SiteMetricsObserver::SiteMetricsObserver(const net::Topology& topology,
                                         const net::Routing* routing)
    : topology_(topology), routing_(routing) {
  site_dims_.reserve(topology.node_count());
  for (net::NodeId n = 0; n < topology.node_count(); ++n) {
    site_dims_.push_back("site=" + topology.node(n).name);
  }
  link_dims_.reserve(topology.link_count());
  for (net::LinkId l = 0; l < topology.link_count(); ++l) {
    const net::Link& link = topology.link(l);
    link_dims_.push_back("link=" + topology.node(link.a).name + "-" +
                         topology.node(link.b).name);
  }
}

const std::string& SiteMetricsObserver::site_dim(data::SiteIndex site) {
  CHICSIM_ASSERT_MSG(site < site_dims_.size(), "site index out of range");
  return site_dims_[site];
}

void SiteMetricsObserver::count_link_traffic(data::SiteIndex src, data::SiteIndex dst,
                                             util::Megabytes mb) {
  if (routing_ == nullptr || src == dst) return;
  for (net::LinkId l : routing_->path(src, dst)) {
    registry_.counter("link_transfers", link_dims_[l]).add();
    registry_.counter("link_mb_started", link_dims_[l])
        .add(static_cast<std::uint64_t>(mb));
  }
}

void SiteMetricsObserver::on_event(const GridEvent& e) {
  switch (e.type) {
    case GridEventType::JobSubmitted:
      registry_.counter("jobs_submitted", site_dim(e.site_a)).add();
      break;
    case GridEventType::JobDispatched:
      registry_.counter("jobs_dispatched", site_dim(e.site_b)).add();
      dispatch_time_[e.job] = e.time;
      break;
    case GridEventType::JobDataReady: break;
    case GridEventType::JobStarted: {
      registry_.counter("jobs_started", site_dim(e.site_a)).add();
      auto it = dispatch_time_.find(e.job);
      if (it != dispatch_time_.end()) {
        registry_.histogram("queue_wait_s", site_dim(e.site_a)).observe(e.time - it->second);
        dispatch_time_.erase(it);
      }
      break;
    }
    case GridEventType::JobComputeDone: break;
    case GridEventType::JobCompleted:
      registry_.counter("jobs_completed", site_dim(e.site_a)).add();
      break;
    case GridEventType::FetchStarted:
      registry_.counter("fetches_started", site_dim(e.site_b)).add();
      registry_.histogram("fetch_size_mb", site_dim(e.site_b)).observe(e.mb);
      // site_a is kNoSite when the fetch parks with no live source (fault
      // recovery): nothing is served and no bytes hit the wire yet.
      if (e.site_a != data::kNoSite) {
        registry_.counter("fetches_served", site_dim(e.site_a)).add();
        count_link_traffic(e.site_a, e.site_b, e.mb);
      }
      break;
    case GridEventType::FetchJoined:
      registry_.counter("fetches_joined", site_dim(e.site_b)).add();
      break;
    case GridEventType::FetchCompleted:
      registry_.counter("fetches_completed", site_dim(e.site_b)).add();
      break;
    case GridEventType::ReplicationStarted:
      registry_.counter("replications_out", site_dim(e.site_a)).add();
      registry_.counter("replications_in", site_dim(e.site_b)).add();
      count_link_traffic(e.site_a, e.site_b, e.mb);
      break;
    case GridEventType::ReplicationCompleted: break;
    case GridEventType::ReplicaStored: {
      registry_.counter("replicas_stored", site_dim(e.site_a)).add();
      util::CounterMetric& stored = registry_.counter("replicas_stored", site_dim(e.site_a));
      util::CounterMetric& evicted =
          registry_.counter("replicas_evicted", site_dim(e.site_a));
      registry_.gauge("replicas_resident", site_dim(e.site_a))
          .set(static_cast<double>(stored.value) - static_cast<double>(evicted.value));
      break;
    }
    case GridEventType::ReplicaEvicted: {
      registry_.counter("replicas_evicted", site_dim(e.site_a)).add();
      util::CounterMetric& stored = registry_.counter("replicas_stored", site_dim(e.site_a));
      util::CounterMetric& evicted =
          registry_.counter("replicas_evicted", site_dim(e.site_a));
      registry_.gauge("replicas_resident", site_dim(e.site_a))
          .set(static_cast<double>(stored.value) - static_cast<double>(evicted.value));
      break;
    }
    case GridEventType::SiteFailed:
      registry_.counter("site_crashes", site_dim(e.site_a)).add();
      break;
    case GridEventType::SiteRecovered:
      registry_.counter("site_recoveries", site_dim(e.site_a)).add();
      break;
    case GridEventType::TransferRetried: {
      // Count the retry against the destination; a failover that found a
      // new source also puts fresh bytes on the wire. No dataset marks an
      // output return held because its origin (site_b) is down.
      if (e.dataset == data::kNoDataset) {
        registry_.counter("output_retries", site_dim(e.site_b)).add();
        break;
      }
      registry_.counter("transfer_retries", site_dim(e.site_b)).add();
      if (e.site_a != data::kNoSite) count_link_traffic(e.site_a, e.site_b, e.mb);
      break;
    }
    case GridEventType::JobResubmitted: {
      registry_.counter("jobs_resubmitted", site_dim(e.site_a)).add();
      // The recorded dispatch never led to a start; drop it so the queue
      // wait histogram only sees attempts that ran.
      dispatch_time_.erase(e.job);
      break;
    }
    case GridEventType::CatalogInvalidated:
      registry_.counter("catalog_invalidations", site_dim(e.site_a)).add();
      break;
    case GridEventType::LinkDegraded:
      // Link endpoints may be routers; site_dims_ covers every node.
      registry_.counter("link_degradations", site_dim(e.site_a)).add();
      break;
  }
}

}  // namespace chicsim::core
