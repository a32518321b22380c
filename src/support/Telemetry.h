//===- support/Telemetry.h - Metrics, spans, structured logging -*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The process-wide observability facade: a metrics registry (named
/// monotonic counters and histograms), scoped span timers that stream
/// Chrome `trace_event`-format JSON, and a leveled structured logger.
/// Every layer of the pipeline reports through this one API; see the
/// DESIGN.md "Observability" section for the design rationale and the
/// overhead budget.
///
/// Metrics. `counter(Name)` / `histogram(Name)` return small copyable
/// handles (register once in a function-local static, then use freely).
/// Updates land in per-thread shards -- a plain relaxed store into cells
/// owned by the updating thread -- so hot paths never contend on a shared
/// cache line. `snapshotMetrics()` merges the shards (plus the totals of
/// already-exited threads) under the registry lock. Counters are
/// monotonic; consumers that need interval numbers take before/after
/// snapshots and subtract.
///
/// Tracing. `Span` is an RAII timer: construction stamps the start,
/// destruction emits one Chrome `"ph":"X"` complete event. When tracing
/// is disabled (the default) a Span costs one relaxed atomic load and no
/// clock reads. Enable by setting `RFP_TRACE=<path>` in the environment,
/// calling `startTrace(Path)`, or setting `GenConfig::TracePath`. The
/// resulting file loads in chrome://tracing and Perfetto, and
/// `python3 -m json.tool` accepts it (CI validates exactly that).
///
/// Logging. Leveled (error < warn < info < debug < trace), default level
/// `warn` so default builds are silent; override with `RFP_LOG_LEVEL` or
/// `setLogLevel()`. Messages route to registered sinks, or to a stderr
/// formatter when no sink is registered.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_SUPPORT_TELEMETRY_H
#define RFP_SUPPORT_TELEMETRY_H

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace rfp {
namespace telemetry {

//===----------------------------------------------------------------------===//
// Leveled structured logging
//===----------------------------------------------------------------------===//

enum class LogLevel : int {
  Off = 0,
  Error = 1,
  Warn = 2,
  Info = 3,
  Debug = 4,
  Trace = 5,
};

/// Lower-case level name ("warn", "debug", ...).
const char *logLevelName(LogLevel L);

/// Current threshold. Initialized from RFP_LOG_LEVEL (name or integer) on
/// first use; defaults to Warn.
LogLevel logLevel();
void setLogLevel(LogLevel L);

/// True when a message at \p L would be emitted. Cheap (one relaxed
/// atomic load); guard call sites whose argument formatting is not free.
bool logEnabled(LogLevel L);

/// Emits \p Msg attributed to \p Component ("polygen", "simplex", ...).
/// No-op when the level is filtered. Thread-safe; messages from
/// concurrent threads are serialized, never interleaved.
void log(LogLevel L, const char *Component, const std::string &Msg);

/// printf-style convenience over log(). Formats only when enabled.
void logf(LogLevel L, const char *Component, const char *Fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 3, 4)))
#endif
    ;

/// Sink receiving every non-filtered message. While at least one sink is
/// registered, the default stderr formatter is suppressed.
using LogSink =
    std::function<void(LogLevel, const char *Component, const std::string &)>;

/// Registers \p S; returns an id for removeLogSink.
int addLogSink(LogSink S);
void removeLogSink(int Id);

/// RAII sink registration (tools, tests).
class ScopedLogSink {
public:
  explicit ScopedLogSink(LogSink S) : Id(addLogSink(std::move(S))) {}
  ~ScopedLogSink() { removeLogSink(Id); }
  ScopedLogSink(const ScopedLogSink &) = delete;
  ScopedLogSink &operator=(const ScopedLogSink &) = delete;

private:
  int Id;
};

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

/// Handle to a named monotonic counter. Default-constructed handles are
/// inert (add() drops the update).
class Counter {
public:
  Counter() = default;
  /// Adds \p N to this thread's shard. Lock-free; never blocks.
  void add(uint64_t N = 1) const;
  void inc() const { add(1); }

private:
  friend Counter counter(const char *Name);
  explicit Counter(uint32_t Id) : Id(Id) {}
  uint32_t Id = UINT32_MAX;
};

/// Finds or registers the counter named \p Name. Takes the registry lock;
/// call once and keep the handle (function-local static is the idiom).
Counter counter(const char *Name);

/// Merged value of the counter named \p Name across all threads, live and
/// exited. 0 for unknown names.
uint64_t counterValue(const char *Name);

/// Handle to a named histogram (distribution of double-valued samples,
/// e.g. per-solve milliseconds). Same sharding discipline as Counter.
class Histogram {
public:
  Histogram() = default;
  void record(double Value) const;

private:
  friend Histogram histogram(const char *Name);
  explicit Histogram(uint32_t Id) : Id(Id) {}
  uint32_t Id = UINT32_MAX;
};

Histogram histogram(const char *Name);

/// Merged histogram statistics. Quantiles are upper-bound estimates from
/// power-of-two buckets (each sample is bucketed by binary exponent).
struct HistogramData {
  uint64_t Count = 0;
  double Sum = 0.0;
  double Min = 0.0;
  double Max = 0.0;
  double P50 = 0.0;
  double P90 = 0.0;
  double P99 = 0.0;
  double avg() const { return Count ? Sum / static_cast<double>(Count) : 0.0; }
};

HistogramData histogramValue(const char *Name);

/// Point-in-time merge of every registered metric, sorted by name.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, HistogramData>> Histograms;
};
MetricsSnapshot snapshotMetrics();

/// Zeroes every shard and the exited-thread totals (test isolation).
void resetMetrics();

/// Serializes snapshotMetrics() as a JSON document (the `--metrics-json`
/// payload shared by the tools and benches).
void writeMetricsJson(FILE *Out);
/// Convenience: writes to \p Path ("-" for stdout). Returns false when
/// the file cannot be opened.
bool writeMetricsJsonFile(const char *Path);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// Opens \p Path and starts streaming Chrome trace events to it.
/// Idempotent while a trace is already active (the first path wins).
/// Returns false when the file cannot be opened. The stream is finalized
/// by stopTrace() or automatically at process exit.
bool startTrace(const char *Path);

/// Finalizes and closes the active trace stream (no-op when idle).
void stopTrace();

/// True when spans are being recorded. The first call consults RFP_TRACE;
/// afterwards this is one relaxed atomic load.
bool tracingEnabled();

/// Scoped span timer: emits one complete ("ph":"X") trace event covering
/// construction to destruction. Near-free when tracing is disabled.
class Span {
public:
  explicit Span(const char *Name);
  ~Span();
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

private:
  const char *Name = nullptr; ///< Null when tracing was off at entry.
  uint64_t StartUs = 0;
};

} // namespace telemetry
} // namespace rfp

#endif // RFP_SUPPORT_TELEMETRY_H
