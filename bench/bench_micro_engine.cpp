// Engine microbenchmarks (google-benchmark): event calendar throughput,
// transfer-manager rate reallocation under churn, and end-to-end simulation
// cost for the Table 1 scenario. These quantify the substrate, not the
// paper's results. The benchmark of record, with run-level metrics and
// per-layer probes, is perfbench/ (see perfbench/README.md).
#include <benchmark/benchmark.h>

#include <vector>

#include "core/grid.hpp"
#include "data/storage.hpp"
#include "net/transfer_manager.hpp"
#include "sim/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace chicsim;

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    sim::EventQueue q;
    sim::EventId id = 1;
    for (double t : times) q.push(sim::Event{t, id++, [] {}});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(16384);

void BM_EngineEventChain(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    std::uint64_t count = 0;
    std::function<void()> chain = [&] {
      if (++count < n) engine.schedule_in(1.0, chain);
    };
    engine.schedule_at(0.0, chain);
    engine.run();
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EngineEventChain)->Arg(10000);

void BM_TransferChurn(benchmark::State& state) {
  // Many concurrent flows over the Table 1 hierarchy; measures the cost of
  // the fluid model's settle + reallocate cycle.
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Topology topo = net::build_hierarchy({30, 6, 10.0});
    net::Routing routing(topo);
    net::TransferManager tm(engine, topo, routing);
    util::Rng rng(3);
    for (std::size_t i = 0; i < flows; ++i) {
      auto src = static_cast<net::NodeId>(rng.index(30));
      net::NodeId dst = src;
      while (dst == src) dst = static_cast<net::NodeId>(rng.index(30));
      tm.start(src, dst, rng.uniform(100.0, 2000.0), net::TransferPurpose::JobFetch,
               [](net::TransferId) {});
    }
    engine.run();
    benchmark::DoNotOptimize(tm.stats().transfers_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_TransferChurn)->Arg(64)->Arg(512);

void BM_MaxMinAllocation(benchmark::State& state) {
  // Same churn as BM_TransferChurn under the water-filling allocator.
  const auto flows = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine engine;
    net::Topology topo = net::build_hierarchy({30, 6, 10.0});
    net::Routing routing(topo);
    net::TransferManager tm(engine, topo, routing, net::SharePolicy::MaxMin);
    util::Rng rng(5);
    for (std::size_t i = 0; i < flows; ++i) {
      auto src = static_cast<net::NodeId>(rng.index(30));
      net::NodeId dst = src;
      while (dst == src) dst = static_cast<net::NodeId>(rng.index(30));
      tm.start(src, dst, rng.uniform(100.0, 2000.0), net::TransferPurpose::JobFetch,
               [](net::TransferId) {});
    }
    engine.run();
    benchmark::DoNotOptimize(tm.stats().transfers_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(flows));
}
BENCHMARK(BM_MaxMinAllocation)->Arg(256);

void BM_StorageLruChurn(benchmark::State& state) {
  // Hot-path storage operations at the churn rate a stressed site sees.
  const auto ops = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    data::StorageManager storage(10000.0);
    util::Rng rng(7);
    for (std::size_t i = 0; i < ops; ++i) {
      auto id = static_cast<data::DatasetId>(rng.index(64));
      if (storage.lookup(id)) {
        storage.touch(id);
      } else {
        benchmark::DoNotOptimize(storage.add_replica(id, rng.uniform(500.0, 2000.0)));
      }
    }
    benchmark::DoNotOptimize(storage.stats().evictions);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(ops));
}
BENCHMARK(BM_StorageLruChurn)->Arg(4096);

void BM_FullSimulation(benchmark::State& state) {
  // One complete Table 1 run (6000 jobs), JobDataPresent + DataLeastLoaded.
  for (auto _ : state) {
    core::SimulationConfig cfg;
    cfg.total_jobs = static_cast<std::size_t>(state.range(0));
    cfg.es = core::EsAlgorithm::JobDataPresent;
    cfg.ds = core::DsAlgorithm::DataLeastLoaded;
    core::Grid grid(cfg);
    grid.run();
    benchmark::DoNotOptimize(grid.metrics().jobs_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_FullSimulation)->Arg(6000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
