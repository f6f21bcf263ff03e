#include "micro.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <numeric>
#include <vector>

#include "data/replica_catalog.hpp"
#include "data/storage.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace data = chicsim::data;
namespace net = chicsim::net;
namespace sim = chicsim::sim;
namespace util = chicsim::util;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Keeps results observable so the optimiser cannot drop the timed work.
volatile std::uint64_t g_sink = 0;

/// Repeat `once` (which returns one sample) for about `budget_s`, at
/// least three times, and return the median sample.
double median_of(const std::function<double()>& once, double budget_s) {
  std::vector<double> samples;
  const auto t0 = Clock::now();
  while (samples.size() < 3 || seconds_since(t0) < budget_s) samples.push_back(once());
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// ns per push+pop pair with `n` events live at the peak.
double push_pop_ns(util::Rng& rng, std::size_t n) {
  std::vector<double> times(n);
  for (double& t : times) t = rng.uniform(0.0, 1e6);
  sim::EventQueue q;
  const auto t0 = Clock::now();
  sim::EventId id = 1;
  for (double t : times) q.push(sim::Event{t, id++, [] {}, nullptr});
  while (!q.empty()) g_sink = g_sink + q.pop().id;
  return seconds_since(t0) / static_cast<double>(n) * 1e9;
}

/// ns per cancel of `n` live events, cancelled in random order.
double cancel_ns(util::Rng& rng, std::size_t n) {
  sim::EventQueue q;
  std::vector<sim::EventId> ids(n);
  std::iota(ids.begin(), ids.end(), sim::EventId{1});
  for (sim::EventId id : ids) q.push(sim::Event{rng.uniform(0.0, 1e6), id, [] {}, nullptr});
  for (std::size_t i = n; i > 1; --i) std::swap(ids[i - 1], ids[rng.index(i)]);
  const auto t0 = Clock::now();
  for (sim::EventId id : ids) g_sink = g_sink + static_cast<std::uint64_t>(q.cancel(id));
  return seconds_since(t0) / static_cast<double>(n) * 1e9;
}

/// Completed flows per second when `flows` random transfers start at once
/// on the Table-1 hierarchy and drain: every completion re-plans the rest.
double churn_flows_per_s(util::Rng& rng, std::size_t flows, net::SharePolicy policy) {
  sim::Engine engine;
  net::Topology topo = net::build_hierarchy({30, 6, 10.0});
  net::Routing routing(topo);
  net::TransferManager tm(engine, topo, routing, policy);
  for (std::size_t i = 0; i < flows; ++i) {
    auto src = static_cast<net::NodeId>(rng.index(30));
    net::NodeId dst = src;
    while (dst == src) dst = static_cast<net::NodeId>(rng.index(30));
    tm.start(src, dst, rng.uniform(100.0, 2000.0), net::TransferPurpose::JobFetch,
             [](net::TransferId) {});
  }
  const auto t0 = Clock::now();
  engine.run();
  const double wall = seconds_since(t0);
  g_sink = g_sink + tm.stats().transfers_completed;
  return static_cast<double>(tm.stats().transfers_completed) / wall;
}

/// Storage operations per second on a working set eight times the
/// capacity: lookups, touches on hits, and LRU-evicting adds on misses.
double lru_ops_per_s(util::Rng& rng) {
  constexpr std::size_t kOps = 65536;
  constexpr std::size_t kDatasets = 64;  // ~80 GB of 500-2000 MB files
  std::vector<double> sizes(kDatasets);
  for (double& s : sizes) s = rng.uniform(500.0, 2000.0);
  std::vector<data::DatasetId> ops(kOps);
  for (auto& id : ops) id = static_cast<data::DatasetId>(rng.index(kDatasets));
  data::StorageManager storage(10000.0);
  const auto t0 = Clock::now();
  for (data::DatasetId id : ops) {
    if (storage.lookup(id)) {
      storage.touch(id);
    } else {
      g_sink = g_sink + storage.add_replica(id, sizes[id]).evicted.size();
    }
  }
  const double wall = seconds_since(t0);
  g_sink = g_sink + storage.stats().evictions;
  return static_cast<double>(kOps) / wall;
}

/// Replica-catalog operations per second: a Table-1-sized catalog (200
/// datasets, 30 sites) under a mix of membership tests, location lookups,
/// adds and removes.
double catalog_ops_per_s(util::Rng& rng) {
  constexpr std::size_t kOps = 65536;
  constexpr std::size_t kDatasets = 200;
  constexpr std::size_t kSites = 30;
  struct Op {
    std::uint8_t kind;
    data::DatasetId dataset;
    data::SiteIndex site;
  };
  std::vector<Op> ops(kOps);
  for (Op& op : ops) {
    op.kind = static_cast<std::uint8_t>(rng.index(4));
    op.dataset = static_cast<data::DatasetId>(rng.index(kDatasets));
    op.site = static_cast<data::SiteIndex>(rng.index(kSites));
  }
  data::ReplicaCatalog catalog(kDatasets);
  for (data::DatasetId d = 0; d < kDatasets; ++d) {
    catalog.add(d, static_cast<data::SiteIndex>(d % kSites));
  }
  const auto t0 = Clock::now();
  for (const Op& op : ops) {
    switch (op.kind) {
      case 0: g_sink = g_sink + static_cast<std::uint64_t>(catalog.has(op.dataset, op.site)); break;
      case 1: g_sink = g_sink + catalog.locations(op.dataset).size(); break;
      case 2: catalog.add(op.dataset, op.site); break;
      default: g_sink = g_sink + static_cast<std::uint64_t>(catalog.remove(op.dataset, op.site));
    }
  }
  const double wall = seconds_since(t0);
  g_sink = g_sink + catalog.total_replicas();
  return static_cast<double>(kOps) / wall;
}

}  // namespace

std::map<std::string, std::pair<double, std::string>> run_microbenches(std::uint64_t seed,
                                                                       double seconds_each) {
  std::map<std::string, std::pair<double, std::string>> out;
  // Each sample redraws its inputs from one stream, so the median is over
  // distinct inputs of the same shape.
  auto bench = [&](const std::string& name, const char* unit,
                   const std::function<double(util::Rng&)>& once) {
    util::Rng rng = util::Rng::substream(seed, name);
    out[name] = {median_of([&] { return once(rng); }, seconds_each), unit};
  };
  for (auto [label, n] : {std::pair{"1k", 1024}, {"16k", 16384}, {"256k", 262144}}) {
    bench(std::string("sim.push_pop_ns.") + label, "ns",
          [n = n](util::Rng& r) { return push_pop_ns(r, static_cast<std::size_t>(n)); });
  }
  bench("sim.cancel_ns.16k", "ns", [](util::Rng& r) { return cancel_ns(r, 16384); });
  for (std::size_t flows : {64, 512, 2048}) {
    bench("net.churn_flows_per_s.equal." + std::to_string(flows), "1/s",
          [flows](util::Rng& r) {
            return churn_flows_per_s(r, flows, net::SharePolicy::EqualShare);
          });
  }
  bench("net.churn_flows_per_s.maxmin.256", "1/s",
        [](util::Rng& r) { return churn_flows_per_s(r, 256, net::SharePolicy::MaxMin); });
  bench("data.lru_ops_per_s", "1/s", lru_ops_per_s);
  bench("data.catalog_ops_per_s", "1/s", catalog_ops_per_s);
  return out;
}

}  // namespace perfbench
