#include "serve/server.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <optional>
#include <sstream>

#include "common/cancel.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "quantum/precision.hpp"
#include "serve/errors.hpp"
#include "serve/metrics.hpp"

namespace qtda {

namespace {

/// The server's registry entries, resolved once per process (registry
/// entries are immortal).  The BettiServer constructor resolves them, so
/// every name appears from the first scrape.
struct ServeMetrics {
  telemetry::Counter& admitted =
      telemetry::registry().counter("serve.admitted");
  telemetry::Counter& completed =
      telemetry::registry().counter("serve.completed");
  telemetry::Counter& batches = telemetry::registry().counter("serve.batches");
  telemetry::Counter& batched_requests =
      telemetry::registry().counter("serve.batched_requests");
  telemetry::Histogram& queue_wait =
      telemetry::registry().histogram("serve.queue_wait_ns");
  telemetry::Histogram& batch_size =
      telemetry::registry().histogram("serve.batch_size");
  telemetry::Histogram& request_latency =
      telemetry::registry().histogram("serve.request_ns");
  telemetry::Gauge& queue_depth =
      telemetry::registry().gauge("serve.queue_depth");
  /// `serve.errors.<code>` for the codes a server answers with (kProtocol
  /// through kInternal; the rest are client-side).
  std::array<telemetry::Counter*,
             static_cast<std::size_t>(ServeErrorCode::kInternal) + 1>
      errors{};

  ServeMetrics() {
    for (const ServeErrorCode code :
         {ServeErrorCode::kProtocol, ServeErrorCode::kLimit,
          ServeErrorCode::kOverloaded, ServeErrorCode::kDeadline,
          ServeErrorCode::kShutdown, ServeErrorCode::kInternal})
      errors.at(static_cast<std::size_t>(code)) = &telemetry::registry().counter(
          std::string("serve.errors.") + serve_error_name(code));
  }

  telemetry::Counter& error(ServeErrorCode code) {
    return *errors.at(static_cast<std::size_t>(code));
  }
};

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics;
  return metrics;
}

/// Builds a typed error response (taxonomy code, retryable flag, optional
/// backoff hint) and counts it as `serve.errors.<code>` — before the caller
/// writes the reply, so a client that has read it sees it counted.
EstimateResponse make_error(std::string id, ServeErrorCode code,
                            std::string message,
                            std::uint64_t retry_after_ms = 0) {
  EstimateResponse response;
  response.id = std::move(id);
  response.ok = false;
  response.code = code;
  response.retryable = serve_error_retryable(code);
  response.retry_after_ms = retry_after_ms;
  response.error = std::move(message);
  serve_metrics().error(code).add(1);
  return response;
}

/// Best-effort id extraction from a raw request line (for errors on lines
/// that never reach parse_request, like oversized frames).
std::string request_id_of(const std::string& line) {
  const auto pos = line.find(" id=");
  if (pos == std::string::npos) return "";
  const auto start = pos + 4;
  const auto end = line.find(' ', start);
  return line.substr(start, end == std::string::npos ? std::string::npos
                                                     : end - start);
}

/// First limit the request violates, or "" when it fits them all.
std::string check_limits(const EstimateRequest& request,
                         const RequestLimits& limits) {
  std::ostringstream out;
  if (request.points.size() > limits.max_points) {
    out << "points=" << request.points.size() << " exceeds max_points="
        << limits.max_points;
  } else if (request.options.precision_qubits > limits.max_precision_qubits) {
    out << "t=" << request.options.precision_qubits
        << " exceeds max_precision_qubits=" << limits.max_precision_qubits;
  } else if (request.options.shots > limits.max_shots) {
    out << "shots=" << request.options.shots << " exceeds max_shots="
        << limits.max_shots;
  }
  return out.str();
}

std::uint64_t ns_since(std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

BettiServer::BettiServer(const ServerOptions& options)
    : options_(options), store_(options.cache) {
  if (options_.workers == 0) options_.workers = 1;
  serve_metrics();  // register every serve metric before the first scrape
}

BettiServer::~BettiServer() { stop(); }

void BettiServer::start(Transport& transport) {
  QTDA_REQUIRE(transport_ == nullptr, "server already started");
  telemetry::set_enabled(true);
  transport_ = &transport;
  completion_thread_ = std::thread([this] { completion_loop(); });
  for (std::size_t i = 0; i < options_.workers; ++i)
    worker_threads_.emplace_back([this] { worker_loop(); });
  acceptor_thread_ = std::thread([this] { acceptor_loop(transport_); });
}

void BettiServer::request_stop() {
  {
    MutexLock lock(stop_mutex_);
    stopping_.store(true);
  }
  stop_requested_.notify_all();
  // Unblock the acceptor and every parked worker so the drain can begin.
  if (transport_ != nullptr) transport_->shutdown();
  queue_ready_.notify_all();
}

void BettiServer::wait() {
  MutexLock lock(stop_mutex_);
  while (!stopping_.load()) stop_requested_.wait(stop_mutex_);
}

void BettiServer::stop() {
  if (stopped_.exchange(true)) return;
  request_stop();
  // Close connections: readers blocked on idle streams wake with EOF.  The
  // admission queue still holds whatever those readers admitted — workers
  // drain it below before exiting (graceful: admitted work completes).
  {
    MutexLock lock(connections_mutex_);
    for (const auto& weak : connections_)
      if (auto connection = weak.lock()) connection->close();
  }
  if (acceptor_thread_.joinable()) acceptor_thread_.join();
  // Readers take threads_mutex_ to mark themselves finished, so join them
  // outside it.  The acceptor is gone, so the list only shrinks from here;
  // splice keeps every entry where its reader's reference points.
  std::list<Reader> readers;
  {
    MutexLock lock(threads_mutex_);
    readers.splice(readers.end(), readers_);
  }
  for (Reader& reader : readers)
    if (reader.thread.joinable()) reader.thread.join();
  for (std::thread& worker : worker_threads_)
    if (worker.joinable()) worker.join();
  // Workers are gone: no further completions can be produced, so the
  // writer may exit as soon as it drains what is queued.
  workers_done_.store(true);
  completion_ready_.notify_all();
  if (completion_thread_.joinable()) completion_thread_.join();
}

void BettiServer::acceptor_loop(Transport* transport) {
  while (!stopping_.load()) {
    std::shared_ptr<Connection> connection = transport->accept();
    if (connection == nullptr) break;
    connection->set_max_line_bytes(options_.limits.max_line_bytes);
    reap_finished_readers();
    {
      MutexLock lock(connections_mutex_);
      connections_.push_back(connection);
    }
    MutexLock lock(threads_mutex_);
    Reader& reader = readers_.emplace_back();
    reader.thread = std::thread([this, connection, &reader] {
      reader_loop(connection);
      MutexLock done(threads_mutex_);
      reader.finished = true;
    });
  }
}

void BettiServer::reap_finished_readers() {
  {
    MutexLock lock(threads_mutex_);
    // A finished reader has released threads_mutex_ and only returns, so
    // the join waits for nothing but its exit.
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (!it->finished) {
        ++it;
        continue;
      }
      it->thread.join();
      it = readers_.erase(it);
    }
  }
  MutexLock lock(connections_mutex_);
  connections_.erase(
      std::remove_if(connections_.begin(), connections_.end(),
                     [](const std::weak_ptr<Connection>& weak) {
                       return weak.expired();
                     }),
      connections_.end());
}

void BettiServer::reader_loop(std::shared_ptr<Connection> connection) {
  for (;;) {
    const std::optional<std::string> line = connection->read_line();
    if (!line.has_value()) return;  // peer gone or server closing
    if (line->empty()) continue;
    if (line->size() > options_.limits.max_line_bytes) {
      // Refuse before parsing: the size check is the only work an
      // arbitrarily large frame gets to cause (a socket reader holds only
      // its first max_line_bytes + 1 bytes, see set_max_line_bytes).
      connection->write_line(format_response(make_error(
          request_id_of(*line), ServeErrorCode::kLimit,
          "request line exceeds max_line_bytes=" +
              std::to_string(options_.limits.max_line_bytes))));
      continue;
    }
    try {
      switch (classify_request_line(*line)) {
        case ServeCommand::kPing:
          connection->write_line("pong");
          break;
        case ServeCommand::kStats:
          connection->write_line(render_stats_line(metrics()));
          break;
        case ServeCommand::kMetrics:
          if (line->find("format=prometheus") != std::string::npos) {
            // Multi-line exposition: each line is one protocol frame; the
            // "# EOF" terminator tells the scraper when to stop reading.
            std::istringstream text(render_prometheus(metrics()));
            std::string metric_line;
            while (std::getline(text, metric_line))
              connection->write_line(metric_line);
          } else {
            connection->write_line("metrics " +
                                   render_metrics_json(metrics()));
          }
          break;
        case ServeCommand::kShutdown:
          connection->write_line("ok id=shutdown");
          request_stop();
          return;
        case ServeCommand::kEstimate: {
          EstimateRequest request = parse_request(*line);
          if (stopping_.load()) {
            connection->write_line(format_response(
                make_error(request.id, ServeErrorCode::kShutdown,
                           "server shutting down")));
            break;
          }
          const std::string violation =
              check_limits(request, options_.limits);
          if (!violation.empty()) {
            connection->write_line(format_response(make_error(
                request.id, ServeErrorCode::kLimit, violation)));
            break;
          }
          Pending pending;
          pending.batch_key = batch_key_of(request);
          pending.batchable =
              options_.batching &&
              request.options.backend != EstimatorBackend::kAnalytic &&
              request.options.mixed_state == MixedStateMode::kPurification;
          if (request.deadline_ms > 0) {
            pending.has_deadline = true;
            pending.deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(request.deadline_ms);
          }
          pending.request = std::move(request);
          pending.connection = connection;
          const std::string id = pending.request.id;
          if (!admit(std::move(pending))) {
            connection->write_line(format_response(make_error(
                id, ServeErrorCode::kOverloaded,
                "admission queue full — retry after backoff",
                options_.shed_retry_after_ms)));
          }
          break;
        }
      }
    } catch (const std::exception& error) {
      QTDA_ERROR << "protocol error: " << error.what();
      // Deliberately id-less even when the line carried an id= token: a
      // line that failed to classify or parse may be a corrupted frame, and
      // attributing a non-retryable error to an id extracted from corrupt
      // bytes would mis-answer some other request.  Clients recover via
      // their per-attempt timeout.
      connection->write_line(format_response(
          make_error("", ServeErrorCode::kProtocol, error.what())));
    }
  }
}

bool BettiServer::admit(Pending pending) {
  pending.admitted_at = std::chrono::steady_clock::now();
  {
    MutexLock lock(queue_mutex_);
    if (options_.max_queue > 0 && queue_.size() >= options_.max_queue)
      return false;
    // Increment before the push (still under the lock) so the worker's
    // decrement after popping can never observe the gauge below zero.
    if (telemetry::enabled()) serve_metrics().queue_depth.add(1);
    queue_.push_back(std::move(pending));
  }
  serve_metrics().admitted.add(1);
  queue_ready_.notify_one();
  return true;
}

void BettiServer::worker_loop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      MutexLock lock(queue_mutex_);
      while (!stopping_.load() && queue_.empty()) queue_ready_.wait(queue_mutex_);
      if (queue_.empty()) return;  // stopping and drained: graceful exit
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
      if (batch.front().batchable) {
        // Coalesce: sweep the queue for identical-plan requests.  FIFO
        // order is preserved inside the batch; requests with other keys
        // keep their queue positions.
        for (auto it = queue_.begin(); it != queue_.end();) {
          if (it->batchable && it->batch_key == batch.front().batch_key) {
            batch.push_back(std::move(*it));
            it = queue_.erase(it);
          } else {
            ++it;
          }
        }
      }
    }
    if (telemetry::enabled()) {
      serve_metrics().queue_depth.add(-static_cast<std::int64_t>(batch.size()));
      for (const Pending& pending : batch)
        serve_metrics().queue_wait.record(ns_since(pending.admitted_at));
    }
    try {
      execute_batch(std::move(batch));
    } catch (...) {
      // Poison-request isolation: execute_batch answers its members from
      // its own handlers, so anything landing here is unexpected — log and
      // keep the worker alive rather than losing an executor thread.
      QTDA_ERROR << "worker: unexpected exception escaped execution";
      serve_metrics().error(ServeErrorCode::kInternal).add(1);
    }
  }
}

void BettiServer::completion_loop() {
  for (;;) {
    std::pair<std::shared_ptr<Connection>, std::string> item;
    {
      MutexLock lock(completion_mutex_);
      while (completions_.empty() && !workers_done_.load())
        completion_ready_.wait(completion_mutex_);
      if (completions_.empty()) return;  // workers joined and queue drained
      item = std::move(completions_.front());
      completions_.pop_front();
    }
    // Count before relaying: a client that has received its response (and
    // immediately scrapes `metrics` or `stats`) must observe the completion
    // — the write below happens-after this increment on this thread, and
    // the client's scrape happens-after the write.
    serve_metrics().completed.add(1);
    if (item.first != nullptr) item.first->write_line(item.second);
  }
}

void BettiServer::complete(const std::shared_ptr<Connection>& connection,
                           std::string line) {
  {
    MutexLock lock(completion_mutex_);
    completions_.emplace_back(connection, std::move(line));
  }
  completion_ready_.notify_one();
}

std::string BettiServer::batch_key_of(const EstimateRequest& request) {
  // Cloud *content* (canonicalized fingerprint), the complex parameters,
  // the full plan-key axes, and the engine: requests equal on all of these
  // run the identical evolution and may share it.  Clouds that differ but
  // induce the same complex still share the cached plan — they just do not
  // coalesce into one execution (the batch key must be computable at
  // admission, before the Rips expansion runs).
  std::string key = "cloud=" +
                    fingerprint_hex(fingerprint_point_cloud(
                        PointCloud(request.points))) +
                    "|eps=" + format_double(request.epsilon);
  key += "|" + ArtifactStore::plan_key(0, request.k, request.options);
  key += "|sim=" + simulator_kind_name(request.options.simulator);
  // shots and seed are intentionally NOT key axes: they vary per request
  // inside one batched execution.
  return key;
}

EstimateResponse BettiServer::execute_single(const EstimateRequest& request) {
  EstimateResponse response;
  response.id = request.id;
  try {
    const PointCloud cloud(request.points);
    const EstimatorOptions& options = request.options;
    const ResolvedArtifacts artifacts =
        store_.resolve(cloud, request.epsilon, request.k, options);
    response.complex_hit = artifacts.complex_hit;
    response.laplacian_hit = artifacts.laplacian_hit;
    response.plan_hit = artifacts.plan_hit;
    if (artifacts.laplacian == nullptr) {
      // No k-simplices: exact zero estimate, mirroring estimate_betti.
      response.estimate.shots = options.shots;
      response.estimate.precision_qubits = options.precision_qubits;
      response.ok = true;
      return response;
    }
    MutexLock lock(artifacts.plan->exec_mutex);
    response.estimate =
        estimate_betti_with_plan(artifacts.plan->compiled, options);
    response.ok = true;
  } catch (const CancelledError&) {
    response = make_error(request.id, ServeErrorCode::kDeadline,
                          "deadline exceeded during execution");
  } catch (const std::exception& error) {
    response = make_error(request.id, ServeErrorCode::kInternal,
                          error.what());
  } catch (...) {
    // Poison request: even a non-standard exception must not take the
    // worker down — answer and move on.
    response = make_error(request.id, ServeErrorCode::kInternal,
                          "unexpected non-standard exception");
  }
  return response;
}

EstimateResponse BettiServer::handle(const EstimateRequest& request) {
  return execute_single(request);
}

void BettiServer::execute_batch(std::vector<Pending> batch) {
  // Expired-deadline requests answer immediately without occupying the
  // execution below.
  const auto now = std::chrono::steady_clock::now();
  std::vector<Pending> live;
  live.reserve(batch.size());
  for (Pending& pending : batch) {
    if (pending.has_deadline && now > pending.deadline) {
      complete(pending.connection,
               format_response(make_error(pending.request.id,
                                          ServeErrorCode::kDeadline,
                                          "deadline exceeded while queued")));
    } else {
      live.push_back(std::move(pending));
    }
  }
  if (live.empty()) return;

  // Execution deadline: armed only when *every* live member carries one —
  // a deadline-free request must not be cancelled by a neighbor's budget —
  // and set to the latest member deadline (checkpoints fire inside the
  // shared evolution, which serves the whole batch).
  std::optional<cancel::ScopedDeadline> execution_deadline;
  {
    bool all_have_deadlines = true;
    std::chrono::steady_clock::time_point latest{};
    for (const Pending& pending : live) {
      if (!pending.has_deadline) {
        all_have_deadlines = false;
        break;
      }
      latest = std::max(latest, pending.deadline);
    }
    if (all_have_deadlines) execution_deadline.emplace(latest);
  }

  QTDA_SPAN("request");
  // End-to-end latency is measured at response formatting (the completion
  // writer only relays), so a scrape never sees a served request missing
  // from the histogram that a client already heard back about.
  const auto finish = [this](const Pending& pending, std::string line) {
    if (telemetry::enabled())
      serve_metrics().request_latency.record(ns_since(pending.admitted_at));
    complete(pending.connection, std::move(line));
  };
  if (telemetry::enabled()) serve_metrics().batch_size.record(live.size());

  if (live.size() == 1) {
    EstimateResponse response = execute_single(live.front().request);
    finish(live.front(), format_response(response));
    return;
  }

  // Identical-plan batch: resolve once, evolve once, sample per request.
  try {
    const EstimateRequest& head = live.front().request;
    const PointCloud cloud(head.points);
    const ResolvedArtifacts artifacts =
        store_.resolve(cloud, head.epsilon, head.k, head.options);
    if (artifacts.laplacian == nullptr) {
      // Degenerate (empty complex): serve serially.
      for (const Pending& pending : live) {
        EstimateResponse response = execute_single(pending.request);
        response.batch_size = 1;
        finish(pending, format_response(response));
      }
      return;
    }
    std::vector<EstimatorOptions> request_options;
    request_options.reserve(live.size());
    for (const Pending& pending : live)
      request_options.push_back(pending.request.options);
    std::vector<BettiEstimate> estimates;
    {
      MutexLock lock(artifacts.plan->exec_mutex);
      estimates = estimate_betti_batch(artifacts.plan->compiled,
                                       request_options);
    }
    serve_metrics().batches.add(1);
    serve_metrics().batched_requests.add(live.size());
    for (std::size_t i = 0; i < live.size(); ++i) {
      EstimateResponse response;
      response.id = live[i].request.id;
      response.ok = true;
      response.estimate = estimates[i];
      response.complex_hit = artifacts.complex_hit;
      response.laplacian_hit = artifacts.laplacian_hit;
      response.plan_hit = artifacts.plan_hit;
      response.batch_size = live.size();
      finish(live[i], format_response(response));
    }
  } catch (const CancelledError&) {
    // The shared evolution ran out of deadline: every member of the batch
    // shares the outcome (re-running survivors would duplicate work the
    // clients will retry anyway — and with per-member deadlines all in the
    // past, they would cancel again immediately).
    for (const Pending& pending : live) {
      finish(pending,
             format_response(make_error(pending.request.id,
                                        ServeErrorCode::kDeadline,
                                        "deadline exceeded during execution")));
    }
  } catch (const std::exception& error) {
    for (const Pending& pending : live) {
      finish(pending, format_response(make_error(pending.request.id,
                                                 ServeErrorCode::kInternal,
                                                 error.what())));
    }
  }
}

MetricsReport BettiServer::metrics() const {
  return collect_metrics(&store_);
}

}  // namespace qtda
