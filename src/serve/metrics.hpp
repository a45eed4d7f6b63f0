/// \file metrics.hpp
/// \brief The serving layer's one metrics report and its renderings.
///
/// collect_metrics() builds the report every surface reads: the
/// process-wide telemetry registry (the server's admission, completion,
/// batch and per-code error counters, spans, histograms and gauges), an
/// artifact store's cache levels, and the process-wide expm memo.  Each
/// served event is counted once, in the registry, so the surfaces below
/// cannot disagree:
///
///  * **stats** — `stats name=value ...`, one line over the report's
///    counters and gauges (names as in the other two forms).
///  * **JSON** — one line, `metrics {...}`, integers only (histograms ship
///    their raw bucket counts, quantiles are computed client-side from the
///    fixed bucket layout).  ServeClient::metrics() parses this into a
///    MetricsReport.
///  * **Prometheus text** — `metrics format=prometheus` answers a
///    multi-line exposition (`qtda_`-prefixed, `.` → `_`) terminated by a
///    literal `# EOF` line so it can be scraped through the line protocol
///    with plain `socat`.
#pragma once

#include <string>

#include "common/telemetry.hpp"

namespace qtda {

class ArtifactStore;  // serve/artifact_cache.hpp

using telemetry::MetricsReport;

/// The registry snapshot plus \p store's cache levels
/// (`cache.<level>.hits/misses/evictions` counters, `.entries/.bytes`
/// gauges) and the expm memo (`cache.expm.*`).  \p store may be null
/// (library-only consumers).
MetricsReport collect_metrics(const ArtifactStore* store);

/// One line, `stats name=value ...`, over the report's counters and gauges.
std::string render_stats_line(const MetricsReport& report);

/// One-line JSON object (no newlines), the payload of `metrics `.
std::string render_metrics_json(const MetricsReport& report);

/// Inverse of render_metrics_json.  Throws qtda::Error on malformed input.
MetricsReport parse_metrics_json(const std::string& json);

/// Prometheus text exposition: # TYPE comments, qtda_ prefix, cumulative
/// histogram _bucket{le=...}/_sum/_count series, final "# EOF" line.
std::string render_prometheus(const MetricsReport& report);

}  // namespace qtda
