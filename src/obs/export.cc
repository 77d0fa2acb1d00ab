#include "obs/export.h"

#include <cstdio>
#include <sstream>

namespace asti {

namespace {

// Minimal escaping for label values (graph names and algorithm names are
// benign, but a custom graph name could contain anything).
std::string Escape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size());
  for (char c : raw) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out.push_back(c);
  }
  return out;
}

std::string FormatNumber(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.9g", value);
  return buffer;
}

std::string PrometheusLabels(const MetricLabels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  for (const auto& [key, value] : labels) {
    if (out.size() > 1) out += ",";
    out += key + "=\"" + Escape(value) + "\"";
  }
  if (!extra.empty()) {
    if (out.size() > 1) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

}  // namespace

std::string ExportPrometheusText(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  std::string last_family;
  auto type_line = [&out, &last_family](const std::string& name, const char* type) {
    if (name != last_family) {
      out << "# TYPE " << name << " " << type << "\n";
      last_family = name;
    }
  };
  for (const CounterSample& sample : snapshot.counters) {
    type_line(sample.name, "counter");
    out << sample.name << PrometheusLabels(sample.labels) << " " << sample.value << "\n";
  }
  for (const GaugeSample& sample : snapshot.gauges) {
    type_line(sample.name, "gauge");
    out << sample.name << PrometheusLabels(sample.labels) << " " << sample.value << "\n";
  }
  for (const HistogramSample& sample : snapshot.histograms) {
    type_line(sample.name, "histogram");
    uint64_t cumulative = 0;
    for (size_t i = 0; i < sample.data.buckets.size(); ++i) {
      if (sample.data.buckets[i] == 0) continue;
      cumulative += sample.data.buckets[i];
      const double le =
          static_cast<double>(HistogramLayout::BucketMax(i)) * sample.scale;
      out << sample.name << "_bucket"
          << PrometheusLabels(sample.labels, "le=\"" + FormatNumber(le) + "\"") << " "
          << cumulative << "\n";
    }
    out << sample.name << "_bucket" << PrometheusLabels(sample.labels, "le=\"+Inf\"")
        << " " << cumulative << "\n";
    out << sample.name << "_sum" << PrometheusLabels(sample.labels) << " "
        << FormatNumber(static_cast<double>(sample.data.sum) * sample.scale) << "\n";
    out << sample.name << "_count" << PrometheusLabels(sample.labels) << " "
        << cumulative << "\n";
  }
  return out.str();
}

}  // namespace asti
