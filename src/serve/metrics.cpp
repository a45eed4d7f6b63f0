#include "serve/metrics.hpp"

#include <cctype>
#include <sstream>

#include "common/error.hpp"
#include "linalg/expm_multiply.hpp"
#include "serve/artifact_cache.hpp"

namespace qtda {

namespace {

/// Folds one cache level into the report under cache.<level>.* names.  The
/// CacheStats see every access; entries/bytes are levels, so they land in
/// gauges.
void add_cache_level(MetricsReport& report, const std::string& level,
                     const CacheStats& stats) {
  const std::string prefix = "cache." + level + ".";
  report.counters[prefix + "hits"] = stats.hits;
  report.counters[prefix + "misses"] = stats.misses;
  report.counters[prefix + "evictions"] = stats.evictions;
  report.gauges[prefix + "entries"] = static_cast<std::int64_t>(stats.entries);
  report.gauges[prefix + "bytes"] = static_cast<std::int64_t>(stats.bytes);
}

void append_json_escaped(std::ostringstream& out, const std::string& text) {
  for (const char c : text) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
}

/// Minimal cursor over the exact JSON shape render_metrics_json emits.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_whitespace();
    QTDA_REQUIRE(position_ < text_.size() && text_[position_] == c,
                 "metrics JSON: expected '" << c << "' at offset "
                                            << position_);
    ++position_;
  }

  bool consume(char c) {
    skip_whitespace();
    if (position_ < text_.size() && text_[position_] == c) {
      ++position_;
      return true;
    }
    return false;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (position_ < text_.size() && text_[position_] != '"') {
      if (text_[position_] == '\\') ++position_;
      QTDA_REQUIRE(position_ < text_.size(), "metrics JSON: truncated string");
      out += text_[position_++];
    }
    expect('"');
    return out;
  }

  std::int64_t parse_integer() {
    skip_whitespace();
    const bool negative = consume('-');
    QTDA_REQUIRE(position_ < text_.size() &&
                     std::isdigit(static_cast<unsigned char>(text_[position_])),
                 "metrics JSON: expected digit at offset " << position_);
    std::uint64_t magnitude = 0;
    while (position_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[position_]))) {
      magnitude = magnitude * 10 + (text_[position_++] - '0');
    }
    return negative ? -static_cast<std::int64_t>(magnitude)
                    : static_cast<std::int64_t>(magnitude);
  }

  std::uint64_t parse_unsigned() {
    const std::int64_t value = parse_integer();
    QTDA_REQUIRE(value >= 0, "metrics JSON: expected non-negative integer");
    return static_cast<std::uint64_t>(value);
  }

 private:
  void skip_whitespace() {
    while (position_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[position_])))
      ++position_;
  }

  const std::string& text_;
  std::size_t position_ = 0;
};

/// Prometheus metric names allow [a-zA-Z0-9_:]; dots become underscores.
std::string prometheus_name(const std::string& name) {
  std::string out = "qtda_";
  for (const char c : name)
    out += (std::isalnum(static_cast<unsigned char>(c)) != 0) ? c : '_';
  return out;
}

}  // namespace

MetricsReport collect_metrics(const ArtifactStore* store) {
  MetricsReport report = telemetry::registry().snapshot();
  if (store != nullptr) {
    add_cache_level(report, "complex", store->complex_stats());
    add_cache_level(report, "laplacian", store->laplacian_stats());
    add_cache_level(report, "plan", store->plan_stats());
  }
  const ExpmCoefficientCacheStats expm = expm_coefficient_cache_stats();
  report.counters["cache.expm.hits"] = expm.hits;
  report.counters["cache.expm.misses"] = expm.misses;
  report.counters["cache.expm.evictions"] = expm.evictions;
  report.gauges["cache.expm.entries"] = static_cast<std::int64_t>(expm.entries);
  return report;
}

std::string render_stats_line(const MetricsReport& report) {
  std::ostringstream out;
  out << "stats";
  for (const auto& [name, value] : report.counters)
    out << ' ' << name << '=' << value;
  for (const auto& [name, value] : report.gauges)
    out << ' ' << name << '=' << value;
  return out.str();
}

std::string render_metrics_json(const MetricsReport& report) {
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : report.counters) {
    if (!first) out << ',';
    first = false;
    out << '"';
    append_json_escaped(out, name);
    out << "\":" << value;
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, value] : report.gauges) {
    if (!first) out << ',';
    first = false;
    out << '"';
    append_json_escaped(out, name);
    out << "\":" << value;
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, histogram] : report.histograms) {
    if (!first) out << ',';
    first = false;
    out << '"';
    append_json_escaped(out, name);
    out << "\":{\"count\":" << histogram.count << ",\"sum\":" << histogram.sum
        << ",\"buckets\":[";
    for (std::size_t i = 0; i < histogram.buckets.size(); ++i) {
      if (i > 0) out << ',';
      out << '[' << histogram.buckets[i].first << ','
          << histogram.buckets[i].second << ']';
    }
    out << "]}";
  }
  out << "}}";
  return out.str();
}

MetricsReport parse_metrics_json(const std::string& json) {
  MetricsReport report;
  JsonCursor cursor(json);
  cursor.expect('{');
  bool first_section = true;
  while (!cursor.consume('}')) {
    if (!first_section) cursor.expect(',');
    first_section = false;
    const std::string section = cursor.parse_string();
    cursor.expect(':');
    cursor.expect('{');
    bool first_entry = true;
    while (!cursor.consume('}')) {
      if (!first_entry) cursor.expect(',');
      first_entry = false;
      const std::string name = cursor.parse_string();
      cursor.expect(':');
      if (section == "counters") {
        report.counters[name] = cursor.parse_unsigned();
      } else if (section == "gauges") {
        report.gauges[name] = cursor.parse_integer();
      } else if (section == "histograms") {
        telemetry::HistogramSnapshot histogram;
        cursor.expect('{');
        bool first_field = true;
        while (!cursor.consume('}')) {
          if (!first_field) cursor.expect(',');
          first_field = false;
          const std::string field = cursor.parse_string();
          cursor.expect(':');
          if (field == "count") {
            histogram.count = cursor.parse_unsigned();
          } else if (field == "sum") {
            histogram.sum = cursor.parse_unsigned();
          } else if (field == "buckets") {
            cursor.expect('[');
            while (!cursor.consume(']')) {
              if (!histogram.buckets.empty()) cursor.expect(',');
              cursor.expect('[');
              const std::uint64_t index = cursor.parse_unsigned();
              cursor.expect(',');
              const std::uint64_t count = cursor.parse_unsigned();
              cursor.expect(']');
              histogram.buckets.emplace_back(
                  static_cast<std::size_t>(index), count);
            }
          } else {
            QTDA_REQUIRE(false,
                         "metrics JSON: unknown histogram field \"" << field
                                                                   << '"');
          }
        }
        report.histograms[name] = std::move(histogram);
      } else {
        QTDA_REQUIRE(false,
                     "metrics JSON: unknown section \"" << section << '"');
      }
    }
  }
  return report;
}

std::string render_prometheus(const MetricsReport& report) {
  std::ostringstream out;
  for (const auto& [name, value] : report.counters) {
    const std::string metric = prometheus_name(name);
    out << "# TYPE " << metric << " counter\n"
        << metric << ' ' << value << '\n';
  }
  for (const auto& [name, value] : report.gauges) {
    const std::string metric = prometheus_name(name);
    out << "# TYPE " << metric << " gauge\n"
        << metric << ' ' << value << '\n';
  }
  for (const auto& [name, histogram] : report.histograms) {
    const std::string metric = prometheus_name(name);
    out << "# TYPE " << metric << " histogram\n";
    std::uint64_t cumulative = 0;
    for (const auto& [index, count] : histogram.buckets) {
      cumulative += count;
      out << metric << "_bucket{le=\""
          << telemetry::Histogram::bucket_upper_bound(index) << "\"} "
          << cumulative << '\n';
    }
    out << metric << "_bucket{le=\"+Inf\"} " << histogram.count << '\n'
        << metric << "_sum " << histogram.sum << '\n'
        << metric << "_count " << histogram.count << '\n';
  }
  out << "# EOF";
  return out.str();
}

}  // namespace qtda
