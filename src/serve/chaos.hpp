/// \file chaos.hpp
/// \brief Deterministic fault injection for the serving transports.
///
/// FaultInjectingTransport wraps any Transport (loopback, Unix socket, TCP)
/// and hands out FaultInjectingConnection decorators around every accepted
/// connection.  Faults fire from a seeded qtda::Rng schedule, so a chaos
/// run is reproducible the same way every simulator result is: the same
/// FaultPlan seed yields the same drops, delays, and corruptions on every
/// host.  Fault classes:
///
///   drop_read     reader-side connection drop: the pending read closes the
///                 connection and reports end-of-stream
///   delay_read    the read delivers normally after plan.delay_ms
///   corrupt_read  the delivered line has its leading byte flipped — the
///                 verb no longer classifies, so the peer sees a corrupted
///                 frame (requests draw an id-less protocol error, responses
///                 fail to parse; either way the retry path must recover)
///   drop_write    the write is swallowed and the connection closed — a
///                 connection drop mid-response
///   torn_write    a prefix of the line is delivered, then the connection
///                 closes — a short/torn write
///   fail_accept   the freshly accepted connection is closed before the
///                 server ever sees it — an accept failure
///
/// Per-event probabilities come from the plan; scripted entries fire a
/// fault deterministically on the Nth read/write/accept *across the whole
/// transport* ("fail the 3rd read"), which composes with client retries:
/// the retried operation has a new global index and proceeds.
///
/// `QTDA_CHAOS=<seed>:<spec>` arms the daemon's and --smoke's transports
/// from the environment, e.g.
///
///   QTDA_CHAOS='7:drop_read=0.05,torn_write=0.05,delay_read=0.1,delay_ms=2'
///   QTDA_CHAOS='7:drop_read@0,corrupt_read=0.02'   (scripted: first read)
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hpp"
#include "common/thread_annotations.hpp"
#include "serve/transport.hpp"

namespace qtda {

/// One injectable fault class (see the file comment for semantics).
enum class FaultKind {
  kDropRead,
  kDelayRead,
  kCorruptRead,
  kDropWrite,
  kTornWrite,
  kFailAccept,
};

/// Wire/spec name of a kind ("drop_read", ...).
const char* fault_kind_name(FaultKind kind);

/// A deterministic "fail the Nth operation" entry.  \p index counts events
/// of the kind's operation class (reads, writes, or accepts) across the
/// whole transport, starting at 0.
struct ScriptedFault {
  FaultKind kind = FaultKind::kDropRead;
  std::uint64_t index = 0;
};

/// The complete fault schedule: per-event probabilities, the read-delay
/// duration, and scripted entries.  Parsed from and rendered back to the
/// QTDA_CHAOS spec grammar `<seed>:<key>=<value>,...` where keys are the
/// fault names (probability in [0,1]), `delay_ms`, or scripted tokens
/// `<fault>@<index>`.
struct FaultPlan {
  std::uint64_t seed = 1;
  double drop_read = 0.0;
  double delay_read = 0.0;
  double corrupt_read = 0.0;
  double drop_write = 0.0;
  double torn_write = 0.0;
  double fail_accept = 0.0;
  std::uint64_t delay_ms = 1;
  std::vector<ScriptedFault> script;

  /// Parses `<seed>:<spec>`.  Throws qtda::Error on malformed input.
  static FaultPlan parse(const std::string& text);

  /// Renders back to the spec grammar (parse round-trips).
  std::string spec() const;
};

/// Reads QTDA_CHAOS; nullopt when unset or empty, throws on a bad spec.
std::optional<FaultPlan> fault_plan_from_env();

/// Injection counters, for asserting that a chaos run actually exercised
/// its fault class (a chaos test whose faults never fire is vacuous).
struct ChaosStats {
  std::uint64_t dropped_reads = 0;
  std::uint64_t delayed_reads = 0;
  std::uint64_t corrupted_reads = 0;
  std::uint64_t dropped_writes = 0;
  std::uint64_t torn_writes = 0;
  std::uint64_t failed_accepts = 0;

  std::uint64_t total() const {
    return dropped_reads + delayed_reads + corrupted_reads + dropped_writes +
           torn_writes + failed_accepts;
  }
};

namespace chaos_detail {
/// State shared by a transport and all its connections: scripted-fault
/// event counters are transport-global (so "fail the Nth read" means the
/// Nth read anywhere, and a retry after the fault proceeds), injection
/// stats likewise.
struct Shared;
}  // namespace chaos_detail

/// Decorates one connection with the plan's read/write faults.  Each
/// connection draws from its own Rng (split off the transport seed by
/// connection index), so concurrent connections stay deterministic
/// per-connection regardless of scheduling.
class FaultInjectingConnection final : public Connection {
 public:
  FaultInjectingConnection(std::shared_ptr<Connection> inner, FaultPlan plan,
                           Rng rng,
                           std::shared_ptr<chaos_detail::Shared> shared);

  std::optional<std::string> read_line() override;
  std::optional<std::string> read_line_for(std::uint64_t timeout_ms,
                                           bool* timed_out) override;
  void set_max_line_bytes(std::size_t max_line_bytes) override;
  bool write_line(const std::string& line) override;
  void close() override;

 private:
  std::optional<FaultKind> decide_read() QTDA_REQUIRES(mutex_);
  std::optional<FaultKind> decide_write() QTDA_REQUIRES(mutex_);
  std::optional<std::string> apply_read_fault(std::optional<std::string> line);

  std::shared_ptr<Connection> inner_;
  FaultPlan plan_;
  std::shared_ptr<chaos_detail::Shared> shared_;
  Mutex mutex_;
  Rng rng_ QTDA_GUARDED_BY(mutex_);
};

/// Decorates a Transport: accepted connections are chaos-wrapped (and
/// possibly dropped outright via fail_accept).  The inner transport must
/// outlive the decorator.  Clients connect through the *inner* transport —
/// faults injected on the server side of the stream exercise both
/// directions (requests corrupt on read, responses drop/tear on write).
class FaultInjectingTransport final : public Transport {
 public:
  FaultInjectingTransport(Transport& inner, FaultPlan plan);
  ~FaultInjectingTransport() override;

  std::shared_ptr<Connection> accept() override;
  void shutdown() override;

  /// Snapshot of the injection counters (safe during operation).
  ChaosStats stats() const;

 private:
  Transport& inner_;
  FaultPlan plan_;
  std::shared_ptr<chaos_detail::Shared> shared_;
  Mutex mutex_;
  Rng accept_rng_ QTDA_GUARDED_BY(mutex_);
  std::uint64_t connections_ QTDA_GUARDED_BY(mutex_) = 0;
};

}  // namespace qtda
