#include "serve/chaos.hpp"

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "common/error.hpp"

namespace qtda {

namespace chaos_detail {

struct Shared {
  mutable Mutex mutex;
  // Transport-global event indices: scripted entries ("drop_read@3") match
  // against these, so a fault scheduled for the Nth read fires exactly once
  // no matter how many connections (or client reconnects) the run sees.
  std::uint64_t reads QTDA_GUARDED_BY(mutex) = 0;
  std::uint64_t writes QTDA_GUARDED_BY(mutex) = 0;
  std::uint64_t accepts QTDA_GUARDED_BY(mutex) = 0;
  ChaosStats stats QTDA_GUARDED_BY(mutex);
};

namespace {

bool is_read_kind(FaultKind kind) {
  return kind == FaultKind::kDropRead || kind == FaultKind::kDelayRead ||
         kind == FaultKind::kCorruptRead;
}

bool is_write_kind(FaultKind kind) {
  return kind == FaultKind::kDropWrite || kind == FaultKind::kTornWrite;
}

/// Scripted entry matching the current event index of the given operation
/// class, if any.  Read/delay/corrupt all consume the read counter; write
/// kinds the write counter; fail_accept the accept counter.
std::optional<FaultKind> scripted_for(const FaultPlan& plan,
                                      std::uint64_t index,
                                      bool (*classify)(FaultKind)) {
  for (const ScriptedFault& entry : plan.script) {
    if (classify(entry.kind) && entry.index == index) return entry.kind;
  }
  return std::nullopt;
}

void count_fault(ChaosStats& stats, FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropRead: ++stats.dropped_reads; break;
    case FaultKind::kDelayRead: ++stats.delayed_reads; break;
    case FaultKind::kCorruptRead: ++stats.corrupted_reads; break;
    case FaultKind::kDropWrite: ++stats.dropped_writes; break;
    case FaultKind::kTornWrite: ++stats.torn_writes; break;
    case FaultKind::kFailAccept: ++stats.failed_accepts; break;
  }
}

}  // namespace

}  // namespace chaos_detail

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDropRead: return "drop_read";
    case FaultKind::kDelayRead: return "delay_read";
    case FaultKind::kCorruptRead: return "corrupt_read";
    case FaultKind::kDropWrite: return "drop_write";
    case FaultKind::kTornWrite: return "torn_write";
    case FaultKind::kFailAccept: return "fail_accept";
  }
  return "unknown";
}

namespace {

std::optional<FaultKind> fault_kind_from_name(const std::string& name) {
  for (FaultKind kind :
       {FaultKind::kDropRead, FaultKind::kDelayRead, FaultKind::kCorruptRead,
        FaultKind::kDropWrite, FaultKind::kTornWrite,
        FaultKind::kFailAccept}) {
    if (name == fault_kind_name(kind)) return kind;
  }
  return std::nullopt;
}

double parse_probability(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  double p = 0.0;
  try {
    p = std::stod(value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  QTDA_REQUIRE(consumed == value.size() && p >= 0.0 && p <= 1.0,
               "chaos spec: " << key << "=" << value
                              << " is not a probability in [0,1]");
  return p;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::size_t consumed = 0;
  unsigned long long n = 0;  // NOLINT(runtime/int) — stoull's type
  try {
    n = std::stoull(value, &consumed);
  } catch (const std::exception&) {
    consumed = 0;
  }
  QTDA_REQUIRE(consumed == value.size() && !value.empty(),
               "chaos spec: " << key << "=" << value
                              << " is not a non-negative integer");
  return static_cast<std::uint64_t>(n);
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  const std::size_t colon = text.find(':');
  QTDA_REQUIRE(colon != std::string::npos,
               "chaos spec must look like <seed>:<key>=<value>,... got: "
                   << text);
  FaultPlan plan;
  plan.seed = parse_u64("seed", text.substr(0, colon));

  std::string rest = text.substr(colon + 1);
  std::stringstream tokens(rest);
  std::string token;
  while (std::getline(tokens, token, ',')) {
    if (token.empty()) continue;
    const std::size_t at = token.find('@');
    const std::size_t eq = token.find('=');
    if (at != std::string::npos && (eq == std::string::npos || at < eq)) {
      // Scripted entry: <fault>@<index>.
      const std::string name = token.substr(0, at);
      const std::optional<FaultKind> kind = fault_kind_from_name(name);
      QTDA_REQUIRE(kind.has_value(),
                   "chaos spec: unknown fault kind in scripted entry: "
                       << token);
      plan.script.push_back(
          ScriptedFault{*kind, parse_u64(name, token.substr(at + 1))});
      continue;
    }
    QTDA_REQUIRE(eq != std::string::npos,
                 "chaos spec: token is neither key=value nor fault@index: "
                     << token);
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "delay_ms") {
      plan.delay_ms = parse_u64(key, value);
      continue;
    }
    const std::optional<FaultKind> kind = fault_kind_from_name(key);
    QTDA_REQUIRE(kind.has_value(), "chaos spec: unknown key: " << key);
    const double p = parse_probability(key, value);
    switch (*kind) {
      case FaultKind::kDropRead: plan.drop_read = p; break;
      case FaultKind::kDelayRead: plan.delay_read = p; break;
      case FaultKind::kCorruptRead: plan.corrupt_read = p; break;
      case FaultKind::kDropWrite: plan.drop_write = p; break;
      case FaultKind::kTornWrite: plan.torn_write = p; break;
      case FaultKind::kFailAccept: plan.fail_accept = p; break;
    }
  }
  return plan;
}

std::string FaultPlan::spec() const {
  std::ostringstream out;
  out << seed << ':';
  bool first = true;
  const auto emit = [&](const char* key, double p) {
    if (p <= 0.0) return;
    if (!first) out << ',';
    first = false;
    out << key << '=' << p;
  };
  emit("drop_read", drop_read);
  emit("delay_read", delay_read);
  emit("corrupt_read", corrupt_read);
  emit("drop_write", drop_write);
  emit("torn_write", torn_write);
  emit("fail_accept", fail_accept);
  if (delay_ms != 1) {
    if (!first) out << ',';
    first = false;
    out << "delay_ms=" << delay_ms;
  }
  for (const ScriptedFault& entry : script) {
    if (!first) out << ',';
    first = false;
    out << fault_kind_name(entry.kind) << '@' << entry.index;
  }
  return out.str();
}

std::optional<FaultPlan> fault_plan_from_env() {
  const char* raw = std::getenv("QTDA_CHAOS");
  if (raw == nullptr || raw[0] == '\0') return std::nullopt;
  return FaultPlan::parse(raw);
}

// ---------------------------------------------------------------------------
// FaultInjectingConnection
// ---------------------------------------------------------------------------

FaultInjectingConnection::FaultInjectingConnection(
    std::shared_ptr<Connection> inner, FaultPlan plan, Rng rng,
    std::shared_ptr<chaos_detail::Shared> shared)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      shared_(std::move(shared)),
      rng_(rng) {}

std::optional<FaultKind> FaultInjectingConnection::decide_read() {
  MutexLock shared_lock(shared_->mutex);
  const std::uint64_t index = shared_->reads++;
  std::optional<FaultKind> fault = chaos_detail::scripted_for(
      plan_, index, &chaos_detail::is_read_kind);
  if (!fault.has_value()) {
    // Draw order is fixed (drop, delay, corrupt) so a given connection's
    // fault sequence depends only on its Rng stream, not on timing.
    if (rng_.bernoulli(plan_.drop_read)) {
      fault = FaultKind::kDropRead;
    } else if (rng_.bernoulli(plan_.delay_read)) {
      fault = FaultKind::kDelayRead;
    } else if (rng_.bernoulli(plan_.corrupt_read)) {
      fault = FaultKind::kCorruptRead;
    }
  }
  if (fault.has_value()) chaos_detail::count_fault(shared_->stats, *fault);
  return fault;
}

std::optional<FaultKind> FaultInjectingConnection::decide_write() {
  MutexLock shared_lock(shared_->mutex);
  const std::uint64_t index = shared_->writes++;
  std::optional<FaultKind> fault = chaos_detail::scripted_for(
      plan_, index, &chaos_detail::is_write_kind);
  if (!fault.has_value()) {
    if (rng_.bernoulli(plan_.drop_write)) {
      fault = FaultKind::kDropWrite;
    } else if (rng_.bernoulli(plan_.torn_write)) {
      fault = FaultKind::kTornWrite;
    }
  }
  if (fault.has_value()) chaos_detail::count_fault(shared_->stats, *fault);
  return fault;
}

std::optional<std::string> FaultInjectingConnection::apply_read_fault(
    std::optional<std::string> line) {
  if (!line.has_value()) return line;  // stream already ended: nothing to do
  std::optional<FaultKind> fault;
  {
    MutexLock lock(mutex_);
    fault = decide_read();
  }
  if (!fault.has_value()) return line;
  switch (*fault) {
    case FaultKind::kDropRead:
      inner_->close();
      return std::nullopt;
    case FaultKind::kDelayRead:
      std::this_thread::sleep_for(std::chrono::milliseconds(plan_.delay_ms));
      return line;
    case FaultKind::kCorruptRead: {
      // Flip the case bit of the leading byte: the verb no longer
      // classifies, so the peer observes a corrupted frame.  Guard against
      // producing framing bytes.
      std::string corrupted = *line;
      if (corrupted.empty()) corrupted = "#";
      char flipped = static_cast<char>(corrupted[0] ^ 0x20);
      if (flipped == '\n' || flipped == '\0') flipped = '#';
      corrupted[0] = flipped;
      return corrupted;
    }
    default:
      return line;
  }
}

std::optional<std::string> FaultInjectingConnection::read_line() {
  return apply_read_fault(inner_->read_line());
}

std::optional<std::string> FaultInjectingConnection::read_line_for(
    std::uint64_t timeout_ms, bool* timed_out) {
  bool local_timed_out = false;
  std::optional<std::string> line =
      inner_->read_line_for(timeout_ms, &local_timed_out);
  if (timed_out != nullptr) *timed_out = local_timed_out;
  if (local_timed_out) return std::nullopt;  // timeouts are not faultable
  return apply_read_fault(std::move(line));
}

void FaultInjectingConnection::set_max_line_bytes(std::size_t max_line_bytes) {
  inner_->set_max_line_bytes(max_line_bytes);
}

bool FaultInjectingConnection::write_line(const std::string& line) {
  std::optional<FaultKind> fault;
  {
    MutexLock lock(mutex_);
    fault = decide_write();
  }
  if (!fault.has_value()) return inner_->write_line(line);
  switch (*fault) {
    case FaultKind::kDropWrite:
      inner_->close();
      return false;
    case FaultKind::kTornWrite: {
      // Deliver a prefix, then drop the connection: the peer sees a partial
      // frame followed by end-of-stream.  The prefix goes out as a (torn)
      // line because the framing below us is line-based.
      const std::string prefix = line.substr(0, line.size() / 2);
      inner_->write_line(prefix);
      inner_->close();
      return false;
    }
    default:
      return inner_->write_line(line);
  }
}

void FaultInjectingConnection::close() { inner_->close(); }

// ---------------------------------------------------------------------------
// FaultInjectingTransport
// ---------------------------------------------------------------------------

FaultInjectingTransport::FaultInjectingTransport(Transport& inner,
                                                 FaultPlan plan)
    : inner_(inner),
      plan_(std::move(plan)),
      shared_(std::make_shared<chaos_detail::Shared>()),
      accept_rng_(plan_.seed) {}

FaultInjectingTransport::~FaultInjectingTransport() { shutdown(); }

std::shared_ptr<Connection> FaultInjectingTransport::accept() {
  for (;;) {
    std::shared_ptr<Connection> conn = inner_.accept();
    if (conn == nullptr) return nullptr;  // inner transport shut down

    bool fail = false;
    Rng conn_rng(0);
    {
      MutexLock lock(mutex_);
      const std::uint64_t connection_index = connections_++;
      // Per-connection stream: deterministic per connection index even when
      // several clients connect concurrently.
      conn_rng = accept_rng_.split(connection_index + 1);

      MutexLock shared_lock(shared_->mutex);
      const std::uint64_t accept_index = shared_->accepts++;
      const std::optional<FaultKind> scripted = chaos_detail::scripted_for(
          plan_, accept_index, [](FaultKind kind) {
            return kind == FaultKind::kFailAccept;
          });
      fail = scripted.has_value() || accept_rng_.bernoulli(plan_.fail_accept);
      if (fail) {
        chaos_detail::count_fault(shared_->stats, FaultKind::kFailAccept);
      }
    }
    if (fail) {
      conn->close();
      continue;  // the client sees an immediate end-of-stream
    }
    return std::make_shared<FaultInjectingConnection>(std::move(conn), plan_,
                                                      conn_rng, shared_);
  }
}

void FaultInjectingTransport::shutdown() { inner_.shutdown(); }

ChaosStats FaultInjectingTransport::stats() const {
  MutexLock lock(shared_->mutex);
  return shared_->stats;
}

}  // namespace qtda
