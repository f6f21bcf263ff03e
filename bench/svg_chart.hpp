// Self-contained SVG grouped-bar charts.
//
// The paper's Figures 3-5 are grouped bar charts (one group per External
// Scheduler, one bar per Dataset Scheduler). This renderer regenerates them
// as standalone SVG files from the bench binaries (`--svg-prefix`), with no
// external plotting dependency. Output is deterministic (stable ordering,
// fixed precision), so golden checks in tests are meaningful.
#pragma once

#include <string>
#include <vector>

namespace chicsim::bench {

class GroupedBarChart {
 public:
  GroupedBarChart(std::string title, std::string y_label);

  /// Labels under each group on the x axis. Must be set before rendering.
  void set_groups(std::vector<std::string> labels);

  /// Add one series (a bar in every group); `values` must match the group
  /// count. Colors cycle through a fixed palette.
  void add_series(std::string name, std::vector<double> values);

  /// Render the chart. Throws SimError when groups/series are inconsistent
  /// or empty.
  [[nodiscard]] std::string render_svg(int width = 860, int height = 480) const;

  [[nodiscard]] std::size_t group_count() const { return groups_.size(); }
  [[nodiscard]] std::size_t series_count() const { return series_.size(); }

 private:
  struct Series {
    std::string name;
    std::vector<double> values;
  };

  std::string title_;
  std::string y_label_;
  std::vector<std::string> groups_;
  std::vector<Series> series_;
};

/// A "nice" upper bound for an axis covering [0, max]: 1/2/5 x 10^k steps.
[[nodiscard]] double nice_axis_max(double max_value);

/// Escape &, <, > for safe embedding in SVG text nodes.
[[nodiscard]] std::string xml_escape(const std::string& text);

}  // namespace chicsim::bench
