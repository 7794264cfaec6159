#include "obs/metrics.h"

#include <cstdio>
#include <stdexcept>

namespace ftgcs::obs {

void append_json_double(std::string& out, double v) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void append_json_u64(std::string& out, std::uint64_t v) {
  char buf[24];
  const int n = std::snprintf(buf, sizeof(buf), "%llu",
                              static_cast<unsigned long long>(v));
  out.append(buf, static_cast<std::size_t>(n));
}

void write_row(std::FILE* file, const std::string& row,
               const std::string& path) {
  if (std::fwrite(row.data(), 1, row.size(), file) != row.size()) {
    throw std::runtime_error("obs: short write to '" + path + "'");
  }
}

void close_file(std::FILE* file, const std::string& path) {
  if (std::fclose(file) != 0) {
    throw std::runtime_error("obs: cannot flush '" + path + "'");
  }
}

Counter* MetricsRegistry::add_counter(const std::string& name) {
  counters_.emplace_back();
  entries_.push_back({Kind::kCounter, name, counters_.size() - 1});
  return &counters_.back();
}

Gauge* MetricsRegistry::add_gauge(const std::string& name) {
  gauges_.emplace_back();
  entries_.push_back({Kind::kGauge, name, gauges_.size() - 1});
  return &gauges_.back();
}

LogLinearHistogram* MetricsRegistry::add_histogram(
    const std::string& name, const LogLinearHistogram::Spec& spec) {
  histograms_.emplace_back(spec);
  entries_.push_back({Kind::kHistogram, name, histograms_.size() - 1});
  return &histograms_.back();
}

namespace {

void append_key(std::string& out, const std::string& name,
                const char* suffix = "") {
  out += ",\"";
  out += name;
  out += suffix;
  out += "\":";
}

}  // namespace

void MetricsRegistry::append_fields(std::string& out) const {
  for (const Entry& entry : entries_) {
    switch (entry.kind) {
      case Kind::kCounter:
        append_key(out, entry.name);
        append_json_u64(out, counters_[entry.index].value);
        break;
      case Kind::kGauge:
        append_key(out, entry.name);
        append_json_double(out, gauges_[entry.index].value);
        break;
      case Kind::kHistogram: {
        const LogLinearHistogram& h = histograms_[entry.index];
        append_key(out, entry.name, "_max");
        append_json_double(out, h.max_seen());
        append_key(out, entry.name, "_p99");
        append_json_double(out, h.percentile(0.99));
        append_key(out, entry.name, "_p50");
        append_json_double(out, h.percentile(0.50));
        break;
      }
    }
  }
}

void MetricsRegistry::clear_histograms() {
  for (LogLinearHistogram& h : histograms_) h.clear();
}

std::size_t MetricsRegistry::line_reserve_hint() const {
  std::size_t hint = 64;  // "{"t":...,"probe":...}" prefix + newline
  for (const Entry& entry : entries_) {
    const std::size_t per_field = entry.name.size() + 40;
    hint += entry.kind == Kind::kHistogram ? 3 * per_field : per_field;
  }
  return hint;
}

}  // namespace ftgcs::obs
