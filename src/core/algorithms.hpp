// Algorithm identifiers for the three scheduler families (§4) plus the
// extensions implemented beyond the paper.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::net {
enum class SharePolicy : std::uint8_t;  // net/transfer_manager.hpp
}

namespace chicsim::core {

/// External Scheduler algorithms: where does a submitted job run?
enum class EsAlgorithm : std::uint8_t {
  JobRandom,       ///< a randomly selected site
  JobLeastLoaded,  ///< the site with the fewest waiting jobs
  JobDataPresent,  ///< a site already holding the data (least loaded on ties)
  JobLocal,        ///< always run where the job originated
  JobAdaptive,     ///< extension: paper §5.4/§6 adaptive policy
  JobBestEstimate, ///< extension: full scan of the completion-time estimate
};

/// Dataset Scheduler algorithms: if/when/where to replicate popular data.
enum class DsAlgorithm : std::uint8_t {
  DataDoNothing,    ///< no active replication (fetch + LRU caching only)
  DataRandom,       ///< popular datasets pushed to a random site
  DataLeastLoaded,  ///< popular datasets pushed to the least-loaded neighbour
  DataBestClient,   ///< extension (GRID'01 companion): push to the top requester
  DataFastSpread,   ///< extension (GRID'01 companion): cache at every fetch requester tier
};

/// Local Scheduler algorithms: ordering within one site.
enum class LsAlgorithm : std::uint8_t {
  Fifo,      ///< paper default: strict arrival order (head-of-line blocking)
  FifoSkip,  ///< extension: first *data-ready* job in arrival order
  Sjf,       ///< extension: shortest data-ready job first
};

/// How External Schedulers are deployed (§3: "different mappings between
/// users and External Schedulers lead to different scenarios ... a single
/// ES in the system would mean a central scheduler").
enum class EsMapping : std::uint8_t {
  Distributed,  ///< one ES per site, decisions instantaneous (paper setup)
  Centralized,  ///< a single ES processes all submissions serially, each
                ///< decision taking central_decision_overhead_s
};

/// Network shape the Grid builds.
enum class TopologyKind : std::uint8_t {
  Hierarchy,  ///< GriPhyN-like tree: sites -> regional routers -> root (paper)
  Star,       ///< every site on one central router (flat ablation)
};

/// How users generate jobs over time.
enum class SubmissionMode : std::uint8_t {
  ClosedLoop,  ///< paper (§5.1): next job only after the previous completes
  OpenLoop,    ///< extension: exponential interarrivals regardless of
               ///< completions — enables offered-load sweeps
};

/// The Dataset Scheduler's "list of known sites" (its neighbours).
/// The paper defines neighbours loosely; its finding that DataLeastLoaded
/// and DataRandom perform alike indicates a grid-wide horizon, which is the
/// default. Region restricts the list to same-region leaf sites (ablation).
enum class NeighborScope : std::uint8_t {
  Grid,    ///< every other site
  Region,  ///< leaf sites under the same regional router
};

/// How the data mover picks a source replica for a fetch.
enum class ReplicaSelection : std::uint8_t {
  Closest,            ///< fewest hops; ties by source load, then index
  Random,             ///< uniformly random holder
  LeastLoadedSource,  ///< holder with the fewest waiting jobs
};

/// One row of an enum's name table.
template <typename E>
struct EnumName {
  E value;
  const char* name;
};

/// Each enum's {value, name} table in declaration order: the one place a
/// value's name is spelled. Specialised in algorithms.cpp for the enums
/// above and net::SharePolicy.
template <typename E>
[[nodiscard]] std::span<const EnumName<E>> names();
template <> std::span<const EnumName<EsAlgorithm>> names<EsAlgorithm>();
template <> std::span<const EnumName<DsAlgorithm>> names<DsAlgorithm>();
template <> std::span<const EnumName<LsAlgorithm>> names<LsAlgorithm>();
template <> std::span<const EnumName<EsMapping>> names<EsMapping>();
template <> std::span<const EnumName<TopologyKind>> names<TopologyKind>();
template <> std::span<const EnumName<SubmissionMode>> names<SubmissionMode>();
template <> std::span<const EnumName<NeighborScope>> names<NeighborScope>();
template <> std::span<const EnumName<ReplicaSelection>> names<ReplicaSelection>();
template <> std::span<const EnumName<net::SharePolicy>> names<net::SharePolicy>();

template <typename E>
  requires std::is_enum_v<E>
[[nodiscard]] const char* to_string(E value) {
  for (const EnumName<E>& row : names<E>()) {
    if (row.value == value) return row.name;
  }
  return "?";
}

/// Case-insensitive parse; throws util::SimError naming the valid values.
template <typename E>
[[nodiscard]] E from_string(std::string_view name) {
  const std::string wanted = util::to_lower(name);
  std::string valid;
  for (const EnumName<E>& row : names<E>()) {
    if (util::to_lower(row.name) == wanted) return row.value;
    valid += std::string(valid.empty() ? "" : " | ") + row.name;
  }
  throw util::SimError("unknown name '" + std::string(name) + "' (expected " + valid + ")");
}

/// The 4 ES and 3 DS algorithms evaluated in the paper (matrix order of
/// Figures 3-4).
[[nodiscard]] const std::vector<EsAlgorithm>& paper_es_algorithms();
[[nodiscard]] const std::vector<DsAlgorithm>& paper_ds_algorithms();

/// Everything implemented (paper + extensions).
[[nodiscard]] const std::vector<EsAlgorithm>& all_es_algorithms();
[[nodiscard]] const std::vector<DsAlgorithm>& all_ds_algorithms();

}  // namespace chicsim::core
