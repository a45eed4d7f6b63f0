#include "serve/protocol.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"
#include "quantum/precision.hpp"

namespace qtda {

namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string::size_type start = 0;
  while (start <= s.size()) {
    const auto end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

double parse_double(const std::string& token, const char* what) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  QTDA_REQUIRE(end != nullptr && *end == '\0' && !token.empty(),
               "malformed " << what << " \"" << token << '"');
  return value;
}

std::uint64_t parse_u64(const std::string& token, const char* what) {
  char* end = nullptr;
  const unsigned long long value = std::strtoull(token.c_str(), &end, 10);
  QTDA_REQUIRE(end != nullptr && *end == '\0' && !token.empty(),
               "malformed " << what << " \"" << token << '"');
  return value;
}

EstimatorBackend backend_from_name(const std::string& name) {
  for (EstimatorBackend backend :
       {EstimatorBackend::kAnalytic, EstimatorBackend::kCircuitExact,
        EstimatorBackend::kCircuitSparse, EstimatorBackend::kCircuitTrotter}) {
    if (name == estimator_backend_name(backend)) return backend;
  }
  QTDA_REQUIRE(false, "unknown backend \"" << name
                                           << "\" (valid: analytic, exact, "
                                              "sparse, trotter)");
  return EstimatorBackend::kCircuitSparse;
}

std::vector<std::vector<double>> parse_points(const std::string& token) {
  QTDA_REQUIRE(!token.empty(), "estimate request carries no points");
  std::vector<std::vector<double>> points;
  for (const std::string& point : split(token, ';')) {
    std::vector<double> coordinates;
    for (const std::string& coordinate : split(point, ','))
      coordinates.push_back(parse_double(coordinate, "coordinate"));
    QTDA_REQUIRE(!points.empty()
                     ? coordinates.size() == points.front().size()
                     : !coordinates.empty(),
                 "points disagree on dimension");
    points.push_back(std::move(coordinates));
  }
  return points;
}

std::string format_points(const std::vector<std::vector<double>>& points) {
  std::string out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out += ';';
    for (std::size_t d = 0; d < points[i].size(); ++d) {
      if (d > 0) out += ',';
      out += format_double(points[i][d]);
    }
  }
  return out;
}

}  // namespace

std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

ServeCommand classify_request_line(const std::string& line) {
  const auto space = line.find(' ');
  const std::string verb = line.substr(0, space);
  if (verb == "estimate") return ServeCommand::kEstimate;
  if (verb == "stats") return ServeCommand::kStats;
  if (verb == "metrics") return ServeCommand::kMetrics;
  if (verb == "ping") return ServeCommand::kPing;
  if (verb == "shutdown") return ServeCommand::kShutdown;
  QTDA_REQUIRE(false, "unknown request verb \"" << verb << '"');
  return ServeCommand::kPing;
}

EstimateRequest parse_request(const std::string& line) {
  QTDA_REQUIRE(classify_request_line(line) == ServeCommand::kEstimate,
               "parse_request expects an estimate line");
  EstimateRequest request;
  request.options.backend = EstimatorBackend::kCircuitSparse;
  bool have_points = false;
  const std::string params = line.size() > 9 ? line.substr(9) : "";
  for (const std::string& token : split(params, ' ')) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    QTDA_REQUIRE(eq != std::string::npos, "malformed token \"" << token << '"');
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "id") {
      request.id = value;
    } else if (key == "eps") {
      request.epsilon = parse_double(value, "eps");
    } else if (key == "k") {
      request.k = static_cast<int>(parse_u64(value, "k"));
    } else if (key == "t") {
      request.options.precision_qubits = parse_u64(value, "t");
    } else if (key == "shots") {
      request.options.shots = parse_u64(value, "shots");
    } else if (key == "seed") {
      request.options.seed = parse_u64(value, "seed");
    } else if (key == "delta") {
      request.options.delta = parse_double(value, "delta");
    } else if (key == "backend") {
      request.options.backend = backend_from_name(value);
    } else if (key == "mixed") {
      QTDA_REQUIRE(value == "purify" || value == "sampled",
                   "unknown mixed-state mode \"" << value << '"');
      request.options.mixed_state = value == "purify"
                                        ? MixedStateMode::kPurification
                                        : MixedStateMode::kSampledBasis;
    } else if (key == "simulator") {
      request.options.simulator = simulator_kind_from_name(value);
    } else if (key == "precision") {
      request.options.precision = precision_from_name(value);
    } else if (key == "trotter_steps") {
      request.options.trotter.steps = parse_u64(value, "trotter_steps");
    } else if (key == "trotter_order") {
      request.options.trotter.order =
          static_cast<int>(parse_u64(value, "trotter_order"));
    } else if (key == "deadline_ms") {
      request.deadline_ms = parse_u64(value, "deadline_ms");
    } else if (key == "points") {
      request.points = parse_points(value);
      have_points = true;
    } else {
      QTDA_REQUIRE(false, "unknown request key \"" << key << '"');
    }
  }
  QTDA_REQUIRE(have_points, "estimate request carries no points");
  return request;
}

std::string format_request(const EstimateRequest& request) {
  std::ostringstream out;
  out << "estimate id=" << request.id << " eps=" << format_double(request.epsilon)
      << " k=" << request.k << " t=" << request.options.precision_qubits
      << " shots=" << request.options.shots << " seed=" << request.options.seed
      << " backend=" << estimator_backend_name(request.options.backend)
      << " mixed="
      << (request.options.mixed_state == MixedStateMode::kPurification
              ? "purify"
              : "sampled")
      << " simulator=" << simulator_kind_name(request.options.simulator)
      << " precision=" << precision_name(request.options.precision);
  if (request.options.delta != 0.0)
    out << " delta=" << format_double(request.options.delta);
  if (request.options.backend == EstimatorBackend::kCircuitTrotter)
    out << " trotter_steps=" << request.options.trotter.steps
        << " trotter_order=" << request.options.trotter.order;
  if (request.deadline_ms != 0) out << " deadline_ms=" << request.deadline_ms;
  out << " points=" << format_points(request.points);
  return out.str();
}

std::string format_response(const EstimateResponse& response) {
  std::ostringstream out;
  if (!response.ok) {
    out << "error id=" << response.id;
    if (response.code != ServeErrorCode::kNone) {
      out << " code=" << serve_error_name(response.code)
          << " retryable=" << (response.retryable ? 1 : 0);
      if (response.retry_after_ms != 0)
        out << " retry_after_ms=" << response.retry_after_ms;
    }
    // The message rides as the rest of the line: spaces allowed, newlines
    // are the only forbidden byte in the protocol.
    out << " msg=" << response.error;
    return out.str();
  }
  const BettiEstimate& e = response.estimate;
  out << "ok id=" << response.id << " betti=" << format_double(e.estimated_betti)
      << " rounded=" << e.rounded_betti
      << " p0=" << format_double(e.zero_probability)
      << " exact_p0=" << format_double(e.exact_zero_probability)
      << " zeros=" << e.zero_counts << " shots=" << e.shots
      << " q=" << e.system_qubits << " t=" << e.precision_qubits
      << " width=" << e.total_qubits << " gates=" << e.circuit_gates
      << " depth=" << e.circuit_depth
      << " lambda_max=" << format_double(e.lambda_max)
      << " delta=" << format_double(e.delta)
      << " complex=" << (response.complex_hit ? "hit" : "miss")
      << " laplacian=" << (response.laplacian_hit ? "hit" : "miss")
      << " plan=" << (response.plan_hit ? "hit" : "miss")
      << " batch=" << response.batch_size;
  return out.str();
}

EstimateResponse parse_response(const std::string& line) {
  EstimateResponse response;
  const auto space = line.find(' ');
  const std::string verb = line.substr(0, space);
  if (verb == "error") {
    response.ok = false;
    // Old-style lines carry no code: default to the conservative
    // internal / not-retryable classification.
    response.code = ServeErrorCode::kInternal;
    response.retryable = false;
    const std::string rest = space == std::string::npos ? "" : line.substr(space + 1);
    for (const std::string& token : split(rest, ' ')) {
      if (token.rfind("id=", 0) == 0) {
        response.id = token.substr(3);
      } else if (token.rfind("code=", 0) == 0) {
        response.code = serve_error_from_name(token.substr(5));
      } else if (token.rfind("retryable=", 0) == 0) {
        response.retryable = token.substr(10) == "1";
      } else if (token.rfind("retry_after_ms=", 0) == 0) {
        response.retry_after_ms = parse_u64(token.substr(15), "retry_after_ms");
      } else if (token.rfind("msg=", 0) == 0) {
        // msg= starts the free-text remainder of the line.
        response.error = rest.substr(rest.find("msg=") + 4);
        break;
      }
    }
    return response;
  }
  QTDA_REQUIRE(verb == "ok", "unknown response verb \"" << verb << '"');
  response.ok = true;
  for (const std::string& token :
       split(space == std::string::npos ? "" : line.substr(space + 1), ' ')) {
    if (token.empty()) continue;
    const auto eq = token.find('=');
    QTDA_REQUIRE(eq != std::string::npos, "malformed token \"" << token << '"');
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    BettiEstimate& e = response.estimate;
    if (key == "id") response.id = value;
    else if (key == "betti") e.estimated_betti = parse_double(value, "betti");
    else if (key == "rounded") e.rounded_betti = parse_u64(value, "rounded");
    else if (key == "p0") e.zero_probability = parse_double(value, "p0");
    else if (key == "exact_p0")
      e.exact_zero_probability = parse_double(value, "exact_p0");
    else if (key == "zeros") e.zero_counts = parse_u64(value, "zeros");
    else if (key == "shots") e.shots = parse_u64(value, "shots");
    else if (key == "q") e.system_qubits = parse_u64(value, "q");
    else if (key == "t") e.precision_qubits = parse_u64(value, "t");
    else if (key == "width") e.total_qubits = parse_u64(value, "width");
    else if (key == "gates") e.circuit_gates = parse_u64(value, "gates");
    else if (key == "depth") e.circuit_depth = parse_u64(value, "depth");
    else if (key == "lambda_max") e.lambda_max = parse_double(value, "lambda_max");
    else if (key == "delta") e.delta = parse_double(value, "delta");
    else if (key == "complex") response.complex_hit = value == "hit";
    else if (key == "laplacian") response.laplacian_hit = value == "hit";
    else if (key == "plan") response.plan_hit = value == "hit";
    else if (key == "batch") response.batch_size = parse_u64(value, "batch");
    else QTDA_REQUIRE(false, "unknown response key \"" << key << '"');
  }
  return response;
}

}  // namespace qtda
