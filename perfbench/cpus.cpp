#include "cpus.hpp"

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <queue>
#include <unordered_set>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {

namespace {

constexpr std::size_t kProbeItems = 4096;
constexpr double kSlack = 1.25;

volatile std::uint64_t g_probe_sink = 0;

bool pin_to(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0;
}

/// ~0.5 ms of heap and hash-set traffic, the access pattern of the event
/// calendar, written with the standard library so the probe's cost does
/// not change with the simulator's code.
double probe_s(const std::vector<double>& keys) {
  const auto t0 = std::chrono::steady_clock::now();
  std::priority_queue<std::pair<double, std::uint64_t>> heap;
  std::unordered_set<std::uint64_t> live;
  std::uint64_t id = 0;
  for (double k : keys) {
    heap.emplace(k, id);
    live.insert(id++);
  }
  while (!heap.empty()) {
    live.erase(heap.top().second);
    g_probe_sink = g_probe_sink + heap.top().second;
    heap.pop();
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

CpuChooser::CpuChooser() : probe_keys_(kProbeItems) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus_.push_back(c);
    }
  }
  chicsim::util::Rng rng(1);
  for (double& k : probe_keys_) k = rng.uniform(0.0, 1.0);
}

void CpuChooser::pin(std::size_t run) {
  if (cpus_.size() < 2) return;
  int best_cpu = -1;
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < cpus_.size(); ++k) {
    const int cpu = cpus_[(run + batch_ + k) % cpus_.size()];
    if (!pin_to(cpu)) return;
    const double t = probe_s(probe_keys_);
    if (fastest_probe_s_ == 0.0 || t < fastest_probe_s_) fastest_probe_s_ = t;
    if (t <= kSlack * fastest_probe_s_) return;
    if (t < best_s) {
      best_s = t;
      best_cpu = cpu;
    }
  }
  pin_to(best_cpu);
}

}  // namespace perfbench
