// Umbrella header: the complete public API of ChicSim++.
//
//   #include "chicsim.hpp"
//
//   chicsim::core::SimulationConfig cfg;        // Table 1 defaults
//   cfg.es = chicsim::core::EsAlgorithm::JobDataPresent;
//   cfg.ds = chicsim::core::DsAlgorithm::DataLeastLoaded;
//   chicsim::core::Grid grid(cfg);
//   grid.run();
//   auto& metrics = grid.metrics();
//
// Individual headers remain the preferred includes inside the library and
// its tests; this header is a convenience for applications.
#pragma once

// Foundations
#include "util/cli.hpp"
#include "util/config_file.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

// Discrete-event engine
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/event_queue.hpp"

// Network substrate
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "net/transfer_manager.hpp"

// Data substrate
#include "data/catalog.hpp"
#include "data/dataset.hpp"
#include "data/popularity.hpp"
#include "data/replica_catalog.hpp"
#include "data/storage.hpp"

// Sites and jobs
#include "site/compute.hpp"
#include "site/job.hpp"
#include "site/site.hpp"

// Workloads
#include "workload/generator.hpp"
#include "workload/popularity_dist.hpp"
#include "workload/trace.hpp"

// The scheduling framework (the paper's contribution)
#include "core/algorithms.hpp"
#include "core/audit.hpp"
#include "core/config.hpp"
#include "core/ds_policies.hpp"
#include "core/es_policies.hpp"
#include "core/events.hpp"
#include "core/experiment.hpp"
#include "core/factory.hpp"
#include "core/fetch_planner.hpp"
#include "core/grid.hpp"
#include "core/info_service.hpp"
#include "core/job_lifecycle.hpp"
#include "core/ls_policies.hpp"
#include "core/metrics.hpp"
#include "core/replication_driver.hpp"
#include "core/report.hpp"
#include "core/scheduler.hpp"
#include "core/timeline.hpp"
#include "core/world_builder.hpp"
