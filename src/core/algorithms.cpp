#include "core/algorithms.hpp"

#include "net/transfer_manager.hpp"

namespace chicsim::core {

template <>
std::span<const EnumName<EsAlgorithm>> names<EsAlgorithm>() {
  using enum EsAlgorithm;
  static constexpr EnumName<EsAlgorithm> table[] = {
      {JobRandom, "JobRandom"}, {JobLeastLoaded, "JobLeastLoaded"},
      {JobDataPresent, "JobDataPresent"}, {JobLocal, "JobLocal"}, {JobAdaptive, "JobAdaptive"},
      {JobBestEstimate, "JobBestEstimate"}};
  return table;
}

template <>
std::span<const EnumName<DsAlgorithm>> names<DsAlgorithm>() {
  using enum DsAlgorithm;
  static constexpr EnumName<DsAlgorithm> table[] = {
      {DataDoNothing, "DataDoNothing"}, {DataRandom, "DataRandom"},
      {DataLeastLoaded, "DataLeastLoaded"}, {DataBestClient, "DataBestClient"},
      {DataFastSpread, "DataFastSpread"}};
  return table;
}

template <>
std::span<const EnumName<LsAlgorithm>> names<LsAlgorithm>() {
  using enum LsAlgorithm;
  static constexpr EnumName<LsAlgorithm> table[] = {
      {Fifo, "Fifo"}, {FifoSkip, "FifoSkip"}, {Sjf, "Sjf"}};
  return table;
}

template <>
std::span<const EnumName<EsMapping>> names<EsMapping>() {
  using enum EsMapping;
  static constexpr EnumName<EsMapping> table[] = {
      {Distributed, "Distributed"}, {Centralized, "Centralized"}};
  return table;
}

template <>
std::span<const EnumName<TopologyKind>> names<TopologyKind>() {
  using enum TopologyKind;
  static constexpr EnumName<TopologyKind> table[] = {
      {Hierarchy, "Hierarchy"}, {Star, "Star"}};
  return table;
}

template <>
std::span<const EnumName<SubmissionMode>> names<SubmissionMode>() {
  using enum SubmissionMode;
  static constexpr EnumName<SubmissionMode> table[] = {
      {ClosedLoop, "ClosedLoop"}, {OpenLoop, "OpenLoop"}};
  return table;
}

template <>
std::span<const EnumName<NeighborScope>> names<NeighborScope>() {
  using enum NeighborScope;
  static constexpr EnumName<NeighborScope> table[] = {
      {Grid, "Grid"}, {Region, "Region"}};
  return table;
}

template <>
std::span<const EnumName<ReplicaSelection>> names<ReplicaSelection>() {
  using enum ReplicaSelection;
  static constexpr EnumName<ReplicaSelection> table[] = {
      {Closest, "Closest"}, {Random, "Random"}, {LeastLoadedSource, "LeastLoadedSource"}};
  return table;
}

template <>
std::span<const EnumName<net::SharePolicy>> names<net::SharePolicy>() {
  using enum net::SharePolicy;
  static constexpr EnumName<net::SharePolicy> table[] = {
      {EqualShare, "EqualShare"}, {MaxMin, "MaxMin"}, {NoContention, "NoContention"}};
  return table;
}

namespace {
template <typename E>
std::vector<E> values() {
  std::vector<E> out;
  for (const EnumName<E>& row : names<E>()) out.push_back(row.value);
  return out;
}
}  // namespace

const std::vector<EsAlgorithm>& paper_es_algorithms() {
  static const std::vector<EsAlgorithm> v{
      EsAlgorithm::JobRandom, EsAlgorithm::JobLeastLoaded, EsAlgorithm::JobDataPresent,
      EsAlgorithm::JobLocal};
  return v;
}

const std::vector<DsAlgorithm>& paper_ds_algorithms() {
  static const std::vector<DsAlgorithm> v{
      DsAlgorithm::DataDoNothing, DsAlgorithm::DataRandom, DsAlgorithm::DataLeastLoaded};
  return v;
}

const std::vector<EsAlgorithm>& all_es_algorithms() {
  static const std::vector<EsAlgorithm> v = values<EsAlgorithm>();
  return v;
}

const std::vector<DsAlgorithm>& all_ds_algorithms() {
  static const std::vector<DsAlgorithm> v = values<DsAlgorithm>();
  return v;
}

}  // namespace chicsim::core
