// Probe non-interference: a run with every layer probe attached (policy
// decorators, counting proxies, observer, profiler) must give the same
// RunMetrics digest as a plain run of the same config, on every workload.
// Also checks that the probes actually saw the run, so a probe that was
// silently not installed cannot pass.
#include <cinttypes>
#include <cstdio>

#include "probes.hpp"
#include "workloads.hpp"

int main() {
  using namespace perfbench;
  int failures = 0;
  for (const std::string& name : workload_names()) {
    const Workload w = make_workload(name, 7);
    for (std::size_t i = 0; i < 2; ++i) {
      const RunOutcome plain = run_one(w.runs[i], nullptr);
      LayerProbe probe;
      const RunOutcome probed = run_one(w.runs[i], &probe);
      const auto m = probe.metrics();
      const PolicyProbe& p = probe.policy();
      const bool saw_run = p.es.calls() > 0 && p.ds.calls() > 0 && p.ls.calls() > 0 &&
                           m.at("bus.events_emitted").first > 0 &&
                           m.at("sim.handler_us.job_submission").first > 0;
      const bool ok = plain.error.empty() && probed.error.empty() &&
                      plain.digest == probed.digest && saw_run;
      std::printf("%-8s %s run %zu: plain %016" PRIx64 " probed %016" PRIx64 "%s%s\n",
                  ok ? "PASS" : "FAIL", name.c_str(), i, plain.digest, probed.digest,
                  saw_run ? "" : " (probes saw nothing)",
                  (plain.error + probed.error).empty() ? "" : " (run error)");
      if (!ok) ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}
