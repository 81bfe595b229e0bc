#pragma once

// Simulated-time span/event tracer emitting Chrome trace-event JSON
// (loadable in chrome://tracing or https://ui.perfetto.dev).
//
// The timeline is organized into row groups (Chrome "processes") holding one
// row (Chrome "thread") per simulated entity: one row per MPI rank process,
// one per fabric link, one per device endpoint.  Layers register rows lazily
// via row() and then emit complete spans ("X"), instant events ("i") and
// counter samples ("C") stamped with integer-picosecond simulated time, so
// two identical runs produce byte-identical trace files.
//
// A Tracer is attached to a sim::Engine (Engine::setTracer); every layer
// reaches it through engine().tracer(), which is nullptr by default — the
// disabled path costs one pointer test per instrumentation site and
// allocates nothing.
//
// The Tracer also owns the run's Metrics registry (obs/metrics.hpp).

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "sim/time.hpp"

namespace cbsim::obs {

/// Well-known row groups (Chrome "pid"s).  Group 0 hosts counter samples.
enum Group : int {
  kGroupCounters = 0,  ///< "C" counter tracks
  kGroupRanks = 1,     ///< simulated processes (one row per MPI rank)
  kGroupLinks = 2,     ///< fabric links (one row per up/down/trunk link)
  kGroupDevices = 3,   ///< device endpoints (NAM, storage)
};

/// One numeric event argument (all cbsim trace args are numeric, which keeps
/// JSON rendering trivial and bit-deterministic).
struct TraceArg {
  const char* key;
  double value;
};

class Tracer {
 public:
  Tracer();

  Metrics& metrics() { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const { return metrics_; }

  /// Metrics-only mode: the metrics registry keeps recording while the
  /// timeline stays empty.  Instrumented layers check the mode (through
  /// sim::Engine::timeline()) and skip timeline work altogether — no row
  /// registration, no argument building; span/instant/counter are no-ops
  /// as a backstop.  Campaign sweeps run hundreds of worlds with a tracer
  /// each and only want the numbers, not an unbounded timeline.
  void setMetricsOnly(bool on) { metricsOnly_ = on; }
  [[nodiscard]] bool metricsOnly() const { return metricsOnly_; }

  /// Registers a new timeline row in `group` and returns its row id (Chrome
  /// "tid").  Rows are never deduplicated; each simulated entity registers
  /// exactly once and caches the id.
  int row(Group group, std::string_view name);

  /// Complete span [start, end] on a row ("ph":"X").
  void span(Group group, int tid, std::string_view name, std::string_view cat,
            sim::SimTime start, sim::SimTime end,
            std::initializer_list<TraceArg> args = {});

  /// Instant event at `t` on a row ("ph":"i").
  void instant(Group group, int tid, std::string_view name,
               std::string_view cat, sim::SimTime t,
               std::initializer_list<TraceArg> args = {});

  /// Counter sample ("ph":"C"), rendered by the viewers as a step chart.
  void counter(std::string_view name, sim::SimTime t, double value);

  /// Serializes the whole trace as one JSON object.  The output depends only
  /// on the emitted events (no wall-clock, no pointers), so identical runs
  /// serialize byte-identically.
  void writeJson(std::ostream& os) const;
  [[nodiscard]] std::string json() const;

  [[nodiscard]] std::size_t eventCount() const { return events_.size(); }

 private:
  struct Event {
    char ph;               // 'X', 'i' or 'C'
    int pid;
    int tid;
    std::int64_t tsPs;     // simulated timestamp, picoseconds
    std::int64_t durPs;    // 'X' only
    std::string name;
    std::string cat;
    std::vector<std::pair<std::string, double>> args;
  };
  struct Row {
    int pid;
    int tid;
    std::string name;
  };

  std::vector<Row> rows_;
  std::vector<Event> events_;
  std::vector<int> nextTid_;  ///< per-group row id allocator
  bool metricsOnly_ = false;
  Metrics metrics_;
};

/// JSON text helpers shared by the trace writer and the campaign report
/// writers.  Appends `s` JSON-escaped, without the surrounding quotes.
void appendJsonEscaped(std::string& out, std::string_view s);
/// Appends `v` as `%.17g`, which round-trips doubles exactly and is
/// locale-independent for the finite values cbsim emits.
void appendJsonNumber(std::string& out, double v);

}  // namespace cbsim::obs
