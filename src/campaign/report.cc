#include "campaign/report.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>

#include "common/json.h"

namespace safespec::campaign {

namespace {

std::string html_escape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out += c;
    }
  }
  return out;
}

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, value);
  return buf;
}

/// One MIPS series per cell key, aligned to the run axis (NaN = the key
/// is absent from that run). Keys in first-appearance order.
struct Series {
  std::vector<std::string> keys;
  std::map<std::string, std::vector<double>> by_key;
};

Series collect_series(const std::vector<PerfRun>& runs) {
  Series s;
  for (std::size_t r = 0; r < runs.size(); ++r) {
    for (const PerfCell& cell : runs[r].cells) {
      const std::string key = cell.key();
      auto [it, inserted] = s.by_key.emplace(
          key, std::vector<double>(runs.size(),
                                   std::numeric_limits<double>::quiet_NaN()));
      if (inserted) s.keys.push_back(key);
      it->second[r] = cell.mips;
    }
  }
  return s;
}

/// Inline SVG line chart of one series; gaps (NaN) break the line.
std::string svg_line(const std::vector<double>& values, int width,
                     int height) {
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (double v : values) {
    if (std::isnan(v)) continue;
    if (!any || v < lo) lo = v;
    if (!any || v > hi) hi = v;
    any = true;
  }
  if (!any) return "";
  if (hi <= lo) hi = lo + 1.0;  // flat series still renders mid-height

  std::string svg = "<svg width=\"" + std::to_string(width) +
                    "\" height=\"" + std::to_string(height) +
                    "\" viewBox=\"0 0 " + std::to_string(width) + " " +
                    std::to_string(height) + "\">";
  const double x_span = values.size() > 1
                            ? static_cast<double>(width - 8) /
                                  static_cast<double>(values.size() - 1)
                            : 0.0;
  std::string points;
  auto flush_segment = [&] {
    if (points.empty()) return;
    svg += "<polyline fill=\"none\" stroke=\"#2b6cb0\" stroke-width=\"1.5\" "
           "points=\"" + points + "\"/>";
    points.clear();
  };
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) {
      flush_segment();
      continue;
    }
    const double x = 4.0 + x_span * static_cast<double>(i);
    const double y = height - 4.0 -
                     (values[i] - lo) / (hi - lo) *
                         static_cast<double>(height - 8);
    if (!points.empty()) points += " ";
    points += fmt("%.1f", x) + "," + fmt("%.1f", y);
    svg += "<circle cx=\"" + fmt("%.1f", x) + "\" cy=\"" + fmt("%.1f", y) +
           "\" r=\"2\" fill=\"#2b6cb0\"/>";
  }
  flush_segment();
  svg += "</svg>";
  return svg;
}

double last_defined(const std::vector<double>& values) {
  for (std::size_t i = values.size(); i > 0; --i) {
    if (!std::isnan(values[i - 1])) return values[i - 1];
  }
  return std::numeric_limits<double>::quiet_NaN();
}

double first_defined(const std::vector<double>& values) {
  for (double v : values) {
    if (!std::isnan(v)) return v;
  }
  return std::numeric_limits<double>::quiet_NaN();
}

}  // namespace

std::string render_trend_html(const std::vector<PerfRun>& runs) {
  const Series series = collect_series(runs);
  std::vector<double> aggregate;
  for (const PerfRun& run : runs) aggregate.push_back(run.aggregate_mips);

  std::string html =
      "<!DOCTYPE html>\n<html>\n<head>\n<meta charset=\"utf-8\">\n"
      "<title>SafeSpec simulation-throughput trend</title>\n"
      "<style>\n"
      "body { font: 14px/1.4 sans-serif; margin: 2em; color: #1a202c; }\n"
      "table { border-collapse: collapse; }\n"
      "th, td { padding: 4px 10px; border-bottom: 1px solid #e2e8f0;"
      " text-align: left; }\n"
      "td.num { text-align: right; font-variant-numeric: tabular-nums; }\n"
      ".down { color: #c53030; } .up { color: #2f855a; }\n"
      "</style>\n</head>\n<body>\n"
      "<h1>SafeSpec simulation-throughput trend</h1>\n";
  html += "<p>" + std::to_string(runs.size()) + " runs, " +
          std::to_string(series.keys.size()) +
          " cell keys. MIPS = millions of simulated committed instructions "
          "per host second (higher is better).</p>\n";

  html += "<h2>Aggregate MIPS</h2>\n";
  html += svg_line(aggregate, 720, 160) + "\n";
  html += "<table>\n<tr><th>run</th><th>aggregate MIPS</th>"
          "<th>instrs/cell</th><th>cells</th></tr>\n";
  for (const PerfRun& run : runs) {
    html += "<tr><td>" + html_escape(run.label) + "</td><td class=\"num\">" +
            fmt("%.2f", run.aggregate_mips) + "</td><td class=\"num\">" +
            std::to_string(run.instrs_per_cell) + "</td><td class=\"num\">" +
            std::to_string(run.cells.size()) + "</td></tr>\n";
  }
  html += "</table>\n";

  html += "<h2>Per-cell MIPS</h2>\n";
  html += "<table>\n<tr><th>cell</th><th>trend</th><th>first</th>"
          "<th>last</th><th>delta</th></tr>\n";
  for (const std::string& key : series.keys) {
    const std::vector<double>& values = series.by_key.at(key);
    const double first = first_defined(values);
    const double last = last_defined(values);
    const double delta =
        first > 0.0 && !std::isnan(last) ? (last - first) / first * 100.0
                                         : 0.0;
    const char* cls = delta < -2.0 ? "down" : (delta > 2.0 ? "up" : "");
    html += "<tr><td>" + html_escape(key) + "</td><td>" +
            svg_line(values, 180, 36) + "</td><td class=\"num\">" +
            fmt("%.2f", first) + "</td><td class=\"num\">" +
            fmt("%.2f", last) + "</td><td class=\"num " + cls + "\">" +
            fmt("%+.1f", delta) + "%</td></tr>\n";
  }
  html += "</table>\n</body>\n</html>\n";
  return html;
}

std::string render_trend_json(const std::vector<PerfRun>& runs) {
  const Series series = collect_series(runs);
  std::string out = "{\n  \"runs\": [";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (r > 0) out += ", ";
    out += "\"" + json::escape(runs[r].label) + "\"";
  }
  out += "],\n  \"aggregate_mips\": [";
  for (std::size_t r = 0; r < runs.size(); ++r) {
    if (r > 0) out += ", ";
    out += fmt("%.2f", runs[r].aggregate_mips);
  }
  out += "],\n  \"cells\": [";
  for (std::size_t k = 0; k < series.keys.size(); ++k) {
    out += k == 0 ? "\n" : ",\n";
    const std::vector<double>& values = series.by_key.at(series.keys[k]);
    out += "    {\"key\": \"" + json::escape(series.keys[k]) +
           "\", \"mips\": [";
    for (std::size_t r = 0; r < values.size(); ++r) {
      if (r > 0) out += ", ";
      out += std::isnan(values[r]) ? "null" : fmt("%.2f", values[r]);
    }
    out += "]}";
  }
  out += series.keys.empty() ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

}  // namespace safespec::campaign
