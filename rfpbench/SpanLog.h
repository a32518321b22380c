//===- rfpbench/SpanLog.h - In-memory span recorder -------------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans for rfpbench's traced runs, recorded by the benchmark's own code
/// around each call it makes into a layer of the library. A span has a name
/// whose first dot-separated word is the layer ("libm.evalBatch" -> libm),
/// a start and an end, the span that caused it, and the id of the request
/// or work unit it belongs to (every span of one request shares the id).
/// Spans stay in memory and are written once, at exit, as Chrome
/// trace-event JSON (chrome://tracing, Perfetto).
///
/// Self time is a span's duration minus the durations of its children. A
/// workload that records only 1 in N requests gives those spans weight N,
/// and the per-layer totals scale by it.
///
/// Cost when tracing is off: the workloads hold a null SpanLog pointer and
/// a ScopedSpan over a null log does nothing, not even read the clock.
///
/// Spans are recorded by the benchmark's driving thread only; the class is
/// not thread-safe.
///
//===----------------------------------------------------------------------===//

#ifndef RFPBENCH_SPANLOG_H
#define RFPBENCH_SPANLOG_H

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace rfpbench {

class SpanLog {
public:
  using Clock = std::chrono::steady_clock;
  static constexpr uint32_t NoParent = UINT32_MAX;

  struct Span {
    const char *Name; ///< static string; the layer is the text before '.'
    Clock::time_point Start, End;
    uint64_t Id;     ///< request / unit id shared by one request's spans
    uint32_t Parent; ///< index of the causing span, or NoParent
    uint32_t Weight; ///< how many requests this sampled span stands for
    bool Async;      ///< timed elsewhere and added with add()
  };

  /// Opens a span starting now, as a child of the innermost open span.
  uint32_t open(const char *Name, uint64_t Id, uint32_t Weight = 1) {
    uint32_t Parent = OpenStack.empty() ? NoParent : OpenStack.back();
    uint32_t Index = static_cast<uint32_t>(Spans.size());
    Clock::time_point Now = Clock::now();
    Spans.push_back({Name, Now, Now, Id, Parent, Weight, false});
    OpenStack.push_back(Index);
    return Index;
  }

  /// Closes the innermost open span, which must be \p Index.
  void close(uint32_t Index) {
    Spans[Index].End = Clock::now();
    OpenStack.pop_back();
  }

  /// Records a span timed elsewhere, such as an asynchronous request from
  /// its due time to its completion.
  uint32_t add(const char *Name, uint64_t Id, Clock::time_point Start,
               Clock::time_point End, uint32_t Parent = NoParent,
               uint32_t Weight = 1) {
    Spans.push_back({Name, Start, End, Id, Parent, Weight, true});
    return static_cast<uint32_t>(Spans.size() - 1);
  }

  size_t size() const { return Spans.size(); }

  struct LayerTime {
    double SelfS = 0.0;  ///< weighted self time
    double TotalS = 0.0; ///< weighted span time (children included)
    uint64_t Spans = 0;  ///< spans recorded (unweighted)
  };

  /// Weighted self and total time per layer, over every recorded span.
  std::map<std::string, LayerTime> selfTimeByLayer() const {
    std::vector<double> ChildS(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent != NoParent)
        ChildS[S.Parent] += seconds(S);
    std::map<std::string, LayerTime> Out;
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      LayerTime &L = Out[layerOf(S.Name)];
      L.SelfS += (seconds(S) - ChildS[I]) * S.Weight;
      L.TotalS += seconds(S) * S.Weight;
      ++L.Spans;
    }
    return Out;
  }

  /// Writes every span as a Chrome trace "complete" event. Spans opened
  /// with open() go on thread 1; spans added with add() (asynchronous
  /// requests) on thread 2, where they may overlap.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Workload) const {
    FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"otherData\": {\"workload\": \"%s\"},\n"
                    "\"traceEvents\": [\n",
                 Workload.c_str());
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"span\": %zu, \"parent\": %lld, \"id\": "
                   "%llu, \"weight\": %u}}\n",
                   I ? "," : "", S.Name, layerOf(S.Name).c_str(),
                   S.Async ? 2 : 1, micros(Origin, S.Start),
                   micros(S.Start, S.End), I,
                   S.Parent == NoParent ? -1LL
                                        : static_cast<long long>(S.Parent),
                   static_cast<unsigned long long>(S.Id), S.Weight);
    }
    std::fprintf(F, "]}\n");
    return std::fclose(F) == 0;
  }

  static std::string layerOf(const char *Name) {
    std::string N(Name);
    size_t Dot = N.find('.');
    return Dot == std::string::npos ? N : N.substr(0, Dot);
  }

private:
  static double seconds(const Span &S) {
    return std::chrono::duration<double>(S.End - S.Start).count();
  }
  static double micros(Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double, std::micro>(B - A).count();
  }

  std::vector<Span> Spans;
  std::vector<uint32_t> OpenStack;
  Clock::time_point Origin = Clock::now();
};

/// Times one call into a layer; does nothing when \p Log is null.
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Name, uint64_t Id = 0,
             uint32_t Weight = 1)
      : Log(Log), Index(Log ? Log->open(Name, Id, Weight) : 0) {}
  ~ScopedSpan() {
    if (Log)
      Log->close(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
  uint32_t Index;
};

} // namespace rfpbench

#endif // RFPBENCH_SPANLOG_H
