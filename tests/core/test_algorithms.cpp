#include "core/algorithms.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace chicsim::core {
namespace {

TEST(Algorithms, EsRoundTripThroughStrings) {
  for (EsAlgorithm a : all_es_algorithms()) {
    EXPECT_EQ(from_string<EsAlgorithm>(to_string(a)), a);
  }
}

TEST(Algorithms, DsRoundTripThroughStrings) {
  for (DsAlgorithm a : all_ds_algorithms()) {
    EXPECT_EQ(from_string<DsAlgorithm>(to_string(a)), a);
  }
}

TEST(Algorithms, ParsingIsCaseInsensitive) {
  EXPECT_EQ(from_string<EsAlgorithm>("jobdatapresent"), EsAlgorithm::JobDataPresent);
  EXPECT_EQ(from_string<DsAlgorithm>("DATARANDOM"), DsAlgorithm::DataRandom);
  EXPECT_EQ(from_string<LsAlgorithm>("fifo"), LsAlgorithm::Fifo);
  EXPECT_EQ(from_string<ReplicaSelection>("closest"), ReplicaSelection::Closest);
  EXPECT_EQ(from_string<NeighborScope>("region"), NeighborScope::Region);
}

TEST(Algorithms, UnknownNamesThrow) {
  EXPECT_THROW((void)from_string<EsAlgorithm>("JobMagic"), util::SimError);
  EXPECT_THROW((void)from_string<DsAlgorithm>(""), util::SimError);
  EXPECT_THROW((void)from_string<LsAlgorithm>("lifo"), util::SimError);
  EXPECT_THROW((void)from_string<ReplicaSelection>("furthest"), util::SimError);
  EXPECT_THROW((void)from_string<NeighborScope>("planet"), util::SimError);
}

TEST(Algorithms, PaperFamiliesMatchSection4) {
  // "We thus have a total of 4x3=12 algorithms to evaluate."
  EXPECT_EQ(paper_es_algorithms().size(), 4u);
  EXPECT_EQ(paper_ds_algorithms().size(), 3u);
  EXPECT_EQ(paper_es_algorithms().front(), EsAlgorithm::JobRandom);
  EXPECT_EQ(paper_es_algorithms().back(), EsAlgorithm::JobLocal);
  EXPECT_EQ(paper_ds_algorithms().front(), DsAlgorithm::DataDoNothing);
}

TEST(Algorithms, ExtensionsAreSupersets) {
  EXPECT_GT(all_es_algorithms().size(), paper_es_algorithms().size());
  EXPECT_GT(all_ds_algorithms().size(), paper_ds_algorithms().size());
  for (EsAlgorithm a : paper_es_algorithms()) {
    bool found = false;
    for (EsAlgorithm b : all_es_algorithms()) found = found || a == b;
    EXPECT_TRUE(found);
  }
}

TEST(Algorithms, LsAndScopeNames) {
  EXPECT_STREQ(to_string(LsAlgorithm::FifoSkip), "FifoSkip");
  EXPECT_STREQ(to_string(ReplicaSelection::LeastLoadedSource), "LeastLoadedSource");
  EXPECT_STREQ(to_string(NeighborScope::Grid), "Grid");
}

}  // namespace
}  // namespace chicsim::core
