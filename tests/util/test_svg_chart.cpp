#include "svg_chart.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"

namespace chicsim::bench {
namespace {

using util::SimError;

GroupedBarChart sample_chart() {
  GroupedBarChart chart("Figure 3a", "response time (s)");
  chart.set_groups({"JobRandom", "JobLeastLoaded", "JobDataPresent", "JobLocal"});
  chart.add_series("DataDoNothing", {1032.5, 908.1, 1749.4, 906.6});
  chart.add_series("DataRandom", {1042.5, 916.6, 537.7, 913.2});
  chart.add_series("DataLeastLoaded", {1054.1, 927.7, 559.4, 924.0});
  return chart;
}

TEST(NiceAxisMax, PicksOneTwoFiveSteps) {
  EXPECT_DOUBLE_EQ(nice_axis_max(7.3), 10.0);
  EXPECT_DOUBLE_EQ(nice_axis_max(14.0), 20.0);
  EXPECT_DOUBLE_EQ(nice_axis_max(42.0), 50.0);
  EXPECT_DOUBLE_EQ(nice_axis_max(100.0), 100.0);
  EXPECT_DOUBLE_EQ(nice_axis_max(1749.4), 2000.0);
  EXPECT_DOUBLE_EQ(nice_axis_max(0.0), 1.0);
  EXPECT_DOUBLE_EQ(nice_axis_max(0.03), 0.05);
}

TEST(XmlEscape, EscapesMarkup) {
  EXPECT_EQ(xml_escape("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(xml_escape("plain"), "plain");
}

TEST(GroupedBarChart, RendersWellFormedSkeleton) {
  std::string svg = sample_chart().render_svg();
  EXPECT_EQ(svg.rfind("<svg", 0), 0u);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("Figure 3a"), std::string::npos);
  EXPECT_NE(svg.find("response time (s)"), std::string::npos);
}

TEST(GroupedBarChart, ContainsEveryGroupSeriesAndBar) {
  GroupedBarChart chart = sample_chart();
  std::string svg = chart.render_svg();
  for (const char* label : {"JobRandom", "JobLeastLoaded", "JobDataPresent", "JobLocal",
                            "DataDoNothing", "DataRandom", "DataLeastLoaded"}) {
    EXPECT_NE(svg.find(label), std::string::npos) << label;
  }
  // 12 bars = 12 <rect> with tooltips, plus background and legend swatches.
  std::size_t bars = 0;
  std::size_t pos = 0;
  while ((pos = svg.find("<title>", pos)) != std::string::npos) {
    ++bars;
    ++pos;
  }
  EXPECT_EQ(bars, chart.group_count() * chart.series_count());
}

TEST(GroupedBarChart, DeterministicOutput) {
  EXPECT_EQ(sample_chart().render_svg(), sample_chart().render_svg());
}

TEST(GroupedBarChart, TooltipCarriesTheValue) {
  std::string svg = sample_chart().render_svg();
  EXPECT_NE(svg.find("JobDataPresent: 1749.4"), std::string::npos);
}

TEST(GroupedBarChart, MisuseThrows) {
  GroupedBarChart chart("t", "y");
  EXPECT_THROW(chart.add_series("s", {1.0}), SimError);  // groups not set
  EXPECT_THROW(chart.render_svg(), SimError);            // nothing to draw
  chart.set_groups({"a", "b"});
  EXPECT_THROW(chart.add_series("s", {1.0}), SimError);  // length mismatch
  EXPECT_THROW(chart.add_series("s", {1.0, -2.0}), SimError);
  chart.add_series("s", {1.0, 2.0});
  EXPECT_THROW(chart.render_svg(100, 100), SimError);  // too small
}

TEST(GroupedBarChart, SingleBarChartRenders) {
  GroupedBarChart chart("one", "y");
  chart.set_groups({"only"});
  chart.add_series("s", {5.0});
  std::string svg = chart.render_svg();
  EXPECT_NE(svg.find("only"), std::string::npos);
}

}  // namespace
}  // namespace chicsim::bench
