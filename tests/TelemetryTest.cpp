//===- tests/TelemetryTest.cpp - Telemetry subsystem tests ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The observability contract (see src/support/Telemetry.h and DESIGN.md,
// "Observability"): counters merge across ThreadPool workers, histograms
// report sane aggregates, the leveled logger filters and fans out to
// sinks, the metrics export and the Chrome trace stream are valid JSON,
// and a traced generator run carries one polygen.lp_solve span per LP
// solve reported in GenStats.
//
//===----------------------------------------------------------------------===//

#include "support/Telemetry.h"

#include "core/PolyGen.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace rfp;
using namespace rfp::telemetry;

namespace {

/// Minimal recursive-descent JSON syntax validator -- enough to assert the
/// emitted documents parse, without a JSON library dependency.
struct JsonCursor {
  const char *P;
  const char *End;

  void ws() {
    while (P < End && (*P == ' ' || *P == '\n' || *P == '\t' || *P == '\r'))
      ++P;
  }
  bool lit(const char *S) {
    size_t L = std::strlen(S);
    if (static_cast<size_t>(End - P) >= L && std::strncmp(P, S, L) == 0) {
      P += L;
      return true;
    }
    return false;
  }
  bool str() {
    if (P >= End || *P != '"')
      return false;
    ++P;
    while (P < End && *P != '"') {
      if (*P == '\\') {
        ++P;
        if (P >= End)
          return false;
      }
      ++P;
    }
    if (P >= End)
      return false;
    ++P;
    return true;
  }
  bool number() {
    const char *Q = P;
    if (P < End && *P == '-')
      ++P;
    while (P < End && (std::isdigit(static_cast<unsigned char>(*P)) ||
                       *P == '.' || *P == 'e' || *P == 'E' || *P == '+' ||
                       *P == '-'))
      ++P;
    return P > Q;
  }
  bool value() {
    ws();
    if (P >= End)
      return false;
    if (*P == '{')
      return object();
    if (*P == '[')
      return array();
    if (*P == '"')
      return str();
    if (lit("true") || lit("false") || lit("null"))
      return true;
    return number();
  }
  bool object() {
    ++P; // '{'
    ws();
    if (P < End && *P == '}') {
      ++P;
      return true;
    }
    while (true) {
      ws();
      if (!str())
        return false;
      ws();
      if (P >= End || *P != ':')
        return false;
      ++P;
      if (!value())
        return false;
      ws();
      if (P < End && *P == ',') {
        ++P;
        continue;
      }
      if (P < End && *P == '}') {
        ++P;
        return true;
      }
      return false;
    }
  }
  bool array() {
    ++P; // '['
    ws();
    if (P < End && *P == ']') {
      ++P;
      return true;
    }
    while (true) {
      if (!value())
        return false;
      ws();
      if (P < End && *P == ',') {
        ++P;
        continue;
      }
      if (P < End && *P == ']') {
        ++P;
        return true;
      }
      return false;
    }
  }
};

bool isValidJson(const std::string &S) {
  JsonCursor C{S.data(), S.data() + S.size()};
  if (!C.value())
    return false;
  C.ws();
  return C.P == C.End;
}

std::string slurp(const std::string &Path) {
  FILE *In = std::fopen(Path.c_str(), "rb");
  if (!In)
    return std::string();
  std::string S;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), In)) > 0)
    S.append(Buf, N);
  std::fclose(In);
  return S;
}

size_t countOccurrences(const std::string &Hay, const std::string &Needle) {
  size_t Count = 0;
  for (size_t Pos = Hay.find(Needle); Pos != std::string::npos;
       Pos = Hay.find(Needle, Pos + Needle.size()))
    ++Count;
  return Count;
}

TEST(TelemetryTest, CountersMergeAcrossThreadPoolWorkers) {
  // Each worker thread updates its own shard; counterValue must see the
  // sum the instant the parallel section's barrier is passed.
  Counter C = counter("test.counters.merge");
  uint64_t Before = counterValue("test.counters.merge");
  constexpr size_t N = 20000;
  parallelFor(
      N,
      [&](size_t Begin, size_t End) {
        for (size_t I = Begin; I < End; ++I)
          C.inc();
      },
      /*NumThreads=*/4);
  EXPECT_EQ(counterValue("test.counters.merge") - Before, N);
}

TEST(TelemetryTest, CounterHandlesAreStableAndAdditive) {
  Counter A = counter("test.counters.stable");
  Counter B = counter("test.counters.stable"); // same name, same slot
  uint64_t Before = counterValue("test.counters.stable");
  A.add(5);
  B.add(7);
  EXPECT_EQ(counterValue("test.counters.stable") - Before, 12u);
  EXPECT_EQ(counterValue("test.counters.does.not.exist"), 0u);
}

TEST(TelemetryTest, HistogramAggregatesAcrossWorkers) {
  Histogram H = histogram("test.hist.workers");
  parallelFor(
      1000,
      [&](size_t Begin, size_t End) {
        for (size_t I = Begin; I < End; ++I)
          H.record(I < 600 ? 1.0 : 8.0);
      },
      /*NumThreads=*/4);
  HistogramData D = histogramValue("test.hist.workers");
  EXPECT_EQ(D.Count, 1000u);
  EXPECT_DOUBLE_EQ(D.Min, 1.0);
  EXPECT_DOUBLE_EQ(D.Max, 8.0);
  EXPECT_DOUBLE_EQ(D.Sum, 600 * 1.0 + 400 * 8.0);
  EXPECT_NEAR(D.avg(), 3.8, 1e-12);
  // Quantiles are power-of-two bucket *upper bounds* keyed by the frexp
  // exponent: 1.0 lands in the (1, 2] bucket (bound 2), 8.0 in (8, 16]
  // (bound 16). The p50 sample is a 1.0; p90 and p99 are 8.0 samples.
  EXPECT_DOUBLE_EQ(D.P50, 2.0);
  EXPECT_DOUBLE_EQ(D.P90, 16.0);
  EXPECT_DOUBLE_EQ(D.P99, 16.0);
}

TEST(TelemetryTest, LogLevelFiltersAndSinksReceive) {
  LogLevel Saved = logLevel();
  setLogLevel(LogLevel::Warn);
  EXPECT_TRUE(logEnabled(LogLevel::Error));
  EXPECT_TRUE(logEnabled(LogLevel::Warn));
  EXPECT_FALSE(logEnabled(LogLevel::Info));
  EXPECT_FALSE(logEnabled(LogLevel::Debug));

  std::vector<std::string> Got;
  {
    ScopedLogSink Sink([&](LogLevel L, const char *Component,
                           const std::string &Msg) {
      Got.push_back(std::string(logLevelName(L)) + "/" + Component + ": " +
                    Msg);
    });
    log(LogLevel::Info, "test", "filtered out");
    log(LogLevel::Warn, "test", "kept");
    logf(LogLevel::Error, "test", "value=%d", 42);
  }
  // Sink gone: this must not be delivered anywhere we can see.
  log(LogLevel::Warn, "test", "after scope");

  ASSERT_EQ(Got.size(), 2u);
  EXPECT_EQ(Got[0], "warn/test: kept");
  EXPECT_EQ(Got[1], "error/test: value=42");
  setLogLevel(Saved);
}

TEST(TelemetryTest, MetricsJsonExportIsValidJson) {
  counter("test.export.counter").add(3);
  histogram("test.export.hist").record(0.25);
  std::string Path = ::testing::TempDir() + "rfp_metrics_test.json";
  ASSERT_TRUE(writeMetricsJsonFile(Path.c_str()));
  std::string Doc = slurp(Path);
  ASSERT_FALSE(Doc.empty());
  EXPECT_TRUE(isValidJson(Doc)) << Doc;
  EXPECT_NE(Doc.find("\"test.export.counter\""), std::string::npos);
  EXPECT_NE(Doc.find("\"test.export.hist\""), std::string::npos);
  std::remove(Path.c_str());
}

TEST(TelemetryTest, TraceEmitsValidJsonWithSpanPerLPSolve) {
  // End-to-end acceptance: a traced generator run produces a valid Chrome
  // trace_event document containing exactly one polygen.lp_solve complete
  // event per LP solve reported in GenStats. The second scheme on the
  // same generator takes answers from its LP memo; those are not solves.
  std::string Path = ::testing::TempDir() + "rfp_trace_test.json";
  GenConfig Cfg;
  Cfg.SampleStride = 1048583; // very coarse: tracing smoke, not quality
  Cfg.BoundaryWindow = 64;
  Cfg.TracePath = Path;
  PolyGenerator Gen(ElemFunc::Exp2, Cfg);
  Gen.prepare();
  uint64_t Solved = 0, Reused = 0, Iterations = 0;
  for (EvalScheme S : {EvalScheme::Horner, EvalScheme::EstrinFMA}) {
    GeneratedImpl Impl = Gen.generate(S);
    ASSERT_TRUE(Impl.Success);
    EXPECT_GT(Impl.LPSolves, 0u);
    Solved += Impl.LPSolves - Impl.Stats.LPReused;
    Reused += Impl.Stats.LPReused;
    Iterations += Impl.LoopIterations;
  }
  stopTrace();
  EXPECT_GT(Reused, 0u);

  std::string Doc = slurp(Path);
  ASSERT_FALSE(Doc.empty());
  EXPECT_TRUE(isValidJson(Doc));
  EXPECT_NE(Doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(countOccurrences(Doc, "\"name\": \"polygen.lp_solve\""),
            Solved);
  // The per-iteration parent spans are present too.
  EXPECT_EQ(countOccurrences(Doc, "\"name\": \"polygen.iteration\""),
            Iterations);
  std::remove(Path.c_str());
}

TEST(TelemetryTest, SpansAreFreeWhenTracingDisabled) {
  // After the stopTrace() above, tracing is off: spans must be inert (this
  // is a behavioral check; the cycle-level overhead claim lives in
  // EXPERIMENTS.md).
  ASSERT_FALSE(tracingEnabled());
  for (int I = 0; I < 1000; ++I) {
    Span S("test.disabled.span");
    (void)S;
  }
  SUCCEED();
}

} // namespace
