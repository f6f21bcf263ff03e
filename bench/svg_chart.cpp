#include "svg_chart.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/string_util.hpp"

namespace chicsim::bench {

using util::format_fixed;

namespace {
// A small color palette with decent print contrast.
const char* kPalette[] = {"#4878a8", "#e1812c", "#3a923a", "#c03d3e", "#9372b2", "#845b53"};
constexpr int kPaletteSize = 6;
}  // namespace

double nice_axis_max(double max_value) {
  if (max_value <= 0.0) return 1.0;
  double magnitude = std::pow(10.0, std::floor(std::log10(max_value)));
  for (double step : {1.0, 2.0, 5.0, 10.0}) {
    if (max_value <= step * magnitude) return step * magnitude;
  }
  return 10.0 * magnitude;
}

std::string xml_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
  return out;
}

GroupedBarChart::GroupedBarChart(std::string title, std::string y_label)
    : title_(std::move(title)), y_label_(std::move(y_label)) {}

void GroupedBarChart::set_groups(std::vector<std::string> labels) {
  CHICSIM_ASSERT_MSG(!labels.empty(), "chart needs at least one group");
  groups_ = std::move(labels);
}

void GroupedBarChart::add_series(std::string name, std::vector<double> values) {
  CHICSIM_ASSERT_MSG(!groups_.empty(), "set_groups before add_series");
  CHICSIM_ASSERT_MSG(values.size() == groups_.size(),
                     "series length must equal the group count");
  for (double v : values) CHICSIM_ASSERT_MSG(v >= 0.0, "bar charts need non-negative values");
  series_.push_back(Series{std::move(name), std::move(values)});
}

std::string GroupedBarChart::render_svg(int width, int height) const {
  CHICSIM_ASSERT_MSG(!groups_.empty() && !series_.empty(), "chart has nothing to draw");
  CHICSIM_ASSERT_MSG(width > 200 && height > 150, "chart too small to render");

  const double margin_left = 70.0;
  const double margin_right = 20.0;
  const double margin_top = 50.0;
  const double margin_bottom = 70.0;
  const double plot_w = width - margin_left - margin_right;
  const double plot_h = height - margin_top - margin_bottom;

  double peak = 0.0;
  for (const Series& s : series_) {
    for (double v : s.values) peak = std::max(peak, v);
  }
  const double y_max = nice_axis_max(peak);
  const int ticks = 5;

  auto y_of = [&](double v) { return margin_top + plot_h * (1.0 - v / y_max); };

  std::string svg;
  svg += "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" + std::to_string(width) +
         "\" height=\"" + std::to_string(height) + "\" font-family=\"sans-serif\">\n";
  svg += "<rect width=\"100%\" height=\"100%\" fill=\"white\"/>\n";
  svg += "<text x=\"" + format_fixed(width / 2.0, 1) +
         "\" y=\"24\" text-anchor=\"middle\" font-size=\"16\">" + xml_escape(title_) +
         "</text>\n";
  // y axis label (rotated).
  svg += "<text x=\"18\" y=\"" + format_fixed(margin_top + plot_h / 2.0, 1) +
         "\" text-anchor=\"middle\" font-size=\"12\" transform=\"rotate(-90 18 " +
         format_fixed(margin_top + plot_h / 2.0, 1) + ")\">" + xml_escape(y_label_) +
         "</text>\n";

  // Gridlines and tick labels.
  for (int t = 0; t <= ticks; ++t) {
    double v = y_max * t / ticks;
    double y = y_of(v);
    svg += "<line x1=\"" + format_fixed(margin_left, 1) + "\" y1=\"" + format_fixed(y, 1) +
           "\" x2=\"" + format_fixed(margin_left + plot_w, 1) + "\" y2=\"" +
           format_fixed(y, 1) + "\" stroke=\"#dddddd\"/>\n";
    svg += "<text x=\"" + format_fixed(margin_left - 6.0, 1) + "\" y=\"" +
           format_fixed(y + 4.0, 1) + "\" text-anchor=\"end\" font-size=\"11\">" +
           format_fixed(v, v >= 100.0 ? 0 : 1) + "</text>\n";
  }

  // Bars.
  const double group_w = plot_w / static_cast<double>(groups_.size());
  const double slot_w = group_w * 0.8 / static_cast<double>(series_.size());
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    double group_x = margin_left + group_w * static_cast<double>(g) + group_w * 0.1;
    for (std::size_t s = 0; s < series_.size(); ++s) {
      double v = series_[s].values[g];
      double x = group_x + slot_w * static_cast<double>(s);
      double y = y_of(v);
      svg += "<rect x=\"" + format_fixed(x, 1) + "\" y=\"" + format_fixed(y, 1) +
             "\" width=\"" + format_fixed(slot_w * 0.92, 1) + "\" height=\"" +
             format_fixed(margin_top + plot_h - y, 1) + "\" fill=\"" +
             kPalette[s % kPaletteSize] + "\"><title>" + xml_escape(series_[s].name) + " / " +
             xml_escape(groups_[g]) + ": " + format_fixed(v, 1) + "</title></rect>\n";
    }
    svg += "<text x=\"" + format_fixed(group_x + group_w * 0.4, 1) + "\" y=\"" +
           format_fixed(margin_top + plot_h + 18.0, 1) +
           "\" text-anchor=\"middle\" font-size=\"11\">" + xml_escape(groups_[g]) +
           "</text>\n";
  }

  // Axes.
  svg += "<line x1=\"" + format_fixed(margin_left, 1) + "\" y1=\"" +
         format_fixed(margin_top, 1) + "\" x2=\"" + format_fixed(margin_left, 1) +
         "\" y2=\"" + format_fixed(margin_top + plot_h, 1) + "\" stroke=\"black\"/>\n";
  svg += "<line x1=\"" + format_fixed(margin_left, 1) + "\" y1=\"" +
         format_fixed(margin_top + plot_h, 1) + "\" x2=\"" +
         format_fixed(margin_left + plot_w, 1) + "\" y2=\"" +
         format_fixed(margin_top + plot_h, 1) + "\" stroke=\"black\"/>\n";

  // Legend, bottom row.
  double legend_x = margin_left;
  const double legend_y = height - 22.0;
  for (std::size_t s = 0; s < series_.size(); ++s) {
    svg += "<rect x=\"" + format_fixed(legend_x, 1) + "\" y=\"" +
           format_fixed(legend_y - 10.0, 1) + "\" width=\"12\" height=\"12\" fill=\"" +
           kPalette[s % kPaletteSize] + "\"/>\n";
    svg += "<text x=\"" + format_fixed(legend_x + 16.0, 1) + "\" y=\"" +
           format_fixed(legend_y, 1) + "\" font-size=\"12\">" +
           xml_escape(series_[s].name) + "</text>\n";
    legend_x += 22.0 + 7.0 * static_cast<double>(series_[s].name.size()) + 16.0;
  }

  svg += "</svg>\n";
  return svg;
}

}  // namespace chicsim::bench
