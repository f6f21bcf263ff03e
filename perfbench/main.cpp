// The ChicSim++ benchmark's entry point.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--commit ID]
//
// --trace 0 measures the end-to-end metrics with nothing attached: the
// workload's batch runs once as a warm-up (its digests become the
// reference), then repeats until S seconds have passed; timings take each
// run's best repetition. --trace 1 runs the layer microbenchmarks, then
// alternates plain and probed repetitions of the batch and reports the
// per-layer metrics. Every run is checked (no exception, audit() passes,
// all jobs complete, digest equal to the reference) in both modes. The
// last line of stdout is one JSON object: correct, attempted, failed and
// metrics. See README.md.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cpus.hpp"
#include "micro.hpp"
#include "probes.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
using MetricMap = std::map<std::string, std::pair<double, std::string>>;

#if defined(__clang__)
constexpr const char* kCompiler = __VERSION__;  // already names clang
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string commit = "unknown";
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string value;
    if (key.rfind("--", 0) != 0) return false;
    if (auto eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return false;
    }
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(a.seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      a.trace = value == "1" ? 1 : 0;
    } else if (key == "--commit") {
      a.commit = value;
    } else {
      return false;
    }
  }
  return !a.workload.empty();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile `p` (0-100) of `v`.
double percentile(std::vector<double> v, double p) {
  std::sort(v.begin(), v.end());
  const double idx = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (idx - static_cast<double>(lo));
}

/// The highest of a fixed ladder of percentiles that leaves at least ten
/// samples beyond it; p50 when there are fewer than twenty samples.
double tail_percentile(std::size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

/// Peak resident memory of this process image. VmHWM, unlike
/// getrusage's ru_maxrss, restarts at exec, so the parent that launched
/// the benchmark does not leak into it.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Counts attempted and failed runs. The first batch sets each run's
/// reference digest; every later run of the same config must match it.
class Checker {
 public:
  explicit Checker(std::size_t runs) : reference_(runs, 0) {}

  void check(std::size_t i, const RunOutcome& r) {
    ++attempted_;
    std::string error = r.error;
    if (error.empty() && have_reference_ && r.digest != reference_[i]) {
      error = "digest differs from the first run of the same seed";
    }
    if (!have_reference_) reference_[i] = r.digest;
    if (!error.empty()) {
      ++failed_;
      std::fprintf(stderr, "run %zu failed: %s\n", i, error.c_str());
    }
  }
  void end_batch() { have_reference_ = true; }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  /// One digest for the whole batch (FNV-1a over the per-run digests).
  [[nodiscard]] std::uint64_t batch_digest() const {
    std::string text;
    for (std::uint64_t d : reference_) text += std::to_string(d) + ";";
    return chicsim::util::fnv1a(text);
  }

 private:
  std::vector<std::uint64_t> reference_;
  bool have_reference_ = false;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

struct Batch {
  std::uint64_t jobs = 0;
  std::vector<double> setup_times;  ///< per run, in batch order
  std::vector<double> run_times;    ///< per run, in batch order
};

Batch run_batch(const Workload& w, Checker& checker, CpuChooser& cpus, LayerProbe* probe) {
  Batch b;
  for (std::size_t i = 0; i < w.runs.size(); ++i) {
    cpus.pin(i);
    RunOutcome r = run_one(w.runs[i], probe);
    checker.check(i, r);
    b.jobs += r.jobs;
    b.setup_times.push_back(r.setup_s);
    b.run_times.push_back(r.run_s);
  }
  checker.end_batch();
  cpus.next_batch();
  return b;
}

/// Each run's fastest repetition of `times`. Noise on a shared machine only
/// ever adds time, and its slow spells can outlast many repetitions, so
/// the best of N repeats far better than a median.
std::vector<double> per_run_best(const std::vector<Batch>& reps,
                                 std::vector<double> Batch::*times) {
  std::vector<double> best = reps.front().*times;
  for (const Batch& b : reps) {
    for (std::size_t i = 0; i < best.size(); ++i) best[i] = std::min(best[i], (b.*times)[i]);
  }
  return best;
}

double sum(const std::vector<double>& v) { return std::accumulate(v.begin(), v.end(), 0.0); }

void print_result(const Checker& checker, const MetricMap& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              checker.failed() == 0 ? "true" : "false", checker.attempted(), checker.failed());
  const char* sep = "";
  for (const auto& [name, vu] : metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep, name.c_str(), v,
                vu.second.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

MetricMap measure_end_to_end(const Workload& w, const Args& a, Clock::time_point deadline,
                             Checker& checker) {
  CpuChooser cpus;
  run_batch(w, checker, cpus, nullptr);  // warm-up; sets the reference digests
  std::vector<Batch> reps;
  while (reps.size() < 2 || Clock::now() < deadline) {
    reps.push_back(run_batch(w, checker, cpus, nullptr));
  }
  const std::vector<double> best = per_run_best(reps, &Batch::run_times);
  const double wall_s = sum(best);
  MetricMap m;
  m["setup_s"] = {sum(per_run_best(reps, &Batch::setup_times)), "s"};
  m["wall_s"] = {wall_s, "s"};
  m["jobs_per_s"] = {static_cast<double>(reps.front().jobs) / wall_s, "1/s"};
  m["run_s_p50"] = {median(best), "s"};
  m["peak_rss_mb"] = {peak_rss_mb(), "MB"};

  std::printf("%s: %zu runs x %zu repetitions (%" PRIu64 " jobs per repetition), "
              "digest %016" PRIx64 "\n",
              a.workload.c_str(), w.runs.size(), reps.size(), reps.front().jobs,
              checker.batch_digest());
  std::printf("  (timings below take each run's best repetition)\n");
  std::printf("  setup_s     %.6f s   (sum over runs)\n", m["setup_s"].first);
  std::printf("  wall_s      %.6f s   (sum over runs)\n", wall_s);
  std::printf("  jobs_per_s  %.1f 1/s\n", m["jobs_per_s"].first);
  std::printf("  run_s_p50   %.6f s   (n=%zu runs)\n", m["run_s_p50"].first, best.size());
  std::printf("  peak_rss_mb %.1f MB\n", m["peak_rss_mb"].first);
  std::printf("  failed_frac %.6f     (%" PRIu64 " of %" PRIu64 " runs)\n",
              static_cast<double>(checker.failed()) / static_cast<double>(checker.attempted()),
              checker.failed(), checker.attempted());
  return m;
}

MetricMap measure_layers(const Workload& w, const Args& a, Clock::time_point deadline,
                         Checker& checker) {
  MetricMap m = run_microbenches(a.seed, 0.025 * a.seconds);
  CpuChooser cpus;
  run_batch(w, checker, cpus, nullptr);  // warm-up; sets the reference digests
  std::vector<Batch> plain;
  std::vector<Batch> traced;
  std::vector<double> world_s;
  std::vector<double> workload_s;
  std::vector<MetricMap> per_rep;
  while (plain.size() < 2 || Clock::now() < deadline) {
    plain.push_back(run_batch(w, checker, cpus, nullptr));
    LayerProbe probe;
    traced.push_back(run_batch(w, checker, cpus, &probe));
    per_rep.push_back(probe.metrics());
    SetupSplit total;
    for (const auto& config : w.runs) {
      SetupSplit s = time_setup_layers(config);
      total.world_s += s.world_s;
      total.workload_s += s.workload_s;
    }
    world_s.push_back(total.world_s);
    workload_s.push_back(total.workload_s);
  }
  // Counts repeat exactly across repetitions; timings take the median.
  for (const auto& [name, vu] : per_rep.front()) {
    std::vector<double> values;
    for (const MetricMap& rep : per_rep) values.push_back(rep.at(name).first);
    m[name] = {median(values), vu.second};
  }
  const double plain_s = sum(per_run_best(plain, &Batch::run_times));
  const double traced_s = sum(per_run_best(traced, &Batch::run_times));
  m["bus.trace_overhead_frac"] = {(traced_s - plain_s) / plain_s, "frac"};
  // The tail of single-run times tracks the machine's slow spells more than
  // the simulator, so it is a per-layer figure rather than a bounded one.
  std::vector<double> runs;
  for (const Batch& b : plain) runs.insert(runs.end(), b.run_times.begin(), b.run_times.end());
  const double tail_p = tail_percentile(runs.size());
  m["run_s_tail"] = {percentile(runs, tail_p), "s"};
  m["setup.world_ms"] = {median(world_s) * 1e3, "ms"};
  m["setup.workload_ms"] = {median(workload_s) * 1e3, "ms"};

  std::printf("%s traced: %zu plain + %zu probed batches of %zu runs, digest %016" PRIx64
              "\n",
              a.workload.c_str(), plain.size(), traced.size(), w.runs.size(),
              checker.batch_digest());
  for (const auto& [name, vu] : m) {
    std::printf("  %-40s %14.6g %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  std::printf("  (run_s_tail is p%g of n=%zu plain runs)\n", tail_p, runs.size());
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = Clock::now();
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] "
                 "[--commit ID]\n");
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report timings from a '%s' build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  Workload w;
  try {
    w = make_workload(a.workload, a.seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "perfbench: %s (known:", e.what());
    for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, ")\n");
    return 2;
  }
  std::printf("env {\"commit\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"nproc\": %u, \"threads\": 1, \"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"seconds\": %g, \"trace\": %d}\n",
              a.commit.c_str(), kCompiler, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), a.workload.c_str(), a.seed, a.seconds,
              a.trace);

  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(a.seconds));
  Checker checker(w.runs.size());
  MetricMap metrics = a.trace == 1 ? measure_layers(w, a, deadline, checker)
                                   : measure_end_to_end(w, a, deadline, checker);
  std::fflush(stdout);
  print_result(checker, metrics);
  return 0;
}
