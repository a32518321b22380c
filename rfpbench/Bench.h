//===- rfpbench/Bench.h - Shared pieces of the workloads -----*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every rfpbench workload shares: the run context, the result it
/// fills, seeded input generation, sample statistics, and the correctness
/// helpers. The workloads call only the library's kept public surfaces:
/// libm/rfp.h, FPFormat, serve::Server, verify::runSweep, PolyGenerator's
/// prepare/generate, and the oracle cache and fast path.
///
//===----------------------------------------------------------------------===//

#ifndef RFPBENCH_BENCH_H
#define RFPBENCH_BENCH_H

#include "SpanLog.h"

#include "libm/rfp.h"
#include "oracle/OracleCache.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace rfpbench {

using rfp::ElemFunc;
using rfp::EvalScheme;
using rfp::FPFormat;
using rfp::RoundingMode;
using rfp::VariantKey;
using Clock = std::chrono::steady_clock;

inline double nsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::nano>(B - A).count();
}
inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline Clock::time_point after(Clock::time_point T, double Seconds) {
  return T + std::chrono::duration_cast<Clock::duration>(
                 std::chrono::duration<double>(Seconds));
}

/// splitmix64: a seeded stream per (seed, purpose), identical on every
/// platform, so the same seed gives the same inputs.
class Rng {
public:
  Rng(uint64_t Seed, uint64_t Stream)
      : State(Seed * 0x9e3779b97f4a7c15ull ^
              (Stream + 1) * 0xbf58476d1ce4e5b9ull) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t State;
};

/// Nearest-rank percentile (0 < P <= 100) of a sample.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * V.size()));
  return V[std::min(V.size(), std::max<size_t>(Rank, 1)) - 1];
}
inline double median(const std::vector<double> &V) {
  return percentile(V, 50.0);
}

//===----------------------------------------------------------------------===//
// Inputs.
//===----------------------------------------------------------------------===//

/// The (function, scheme) pairs the library ships, in (func, scheme) order.
inline std::vector<std::pair<ElemFunc, EvalScheme>> shippedVariants() {
  std::vector<std::pair<ElemFunc, EvalScheme>> V;
  for (ElemFunc F : rfp::AllElemFuncs)
    for (EvalScheme S : rfp::AllEvalSchemes)
      if (rfp::available(F, S))
        V.emplace_back(F, S);
  return V;
}

inline float floatFromBits(uint32_t Bits) {
  float X;
  std::memcpy(&X, &Bits, sizeof(X));
  return X;
}
inline uint32_t bitsOfFloat(float X) {
  uint32_t Bits;
  std::memcpy(&Bits, &X, sizeof(Bits));
  return Bits;
}

/// An input on F's polynomial path. The exp family draws uniformly by
/// value over the range whose results are finite and not trivially 1 (and
/// non-integral for exp2, whose integers are exact cases). The log family
/// draws positive normal floats uniformly by bit pattern: uniform by value
/// would put nearly every input in the top binade.
inline float domainInput(ElemFunc F, Rng &R) {
  for (;;) {
    float X = 0.0f;
    switch (F) {
    case ElemFunc::Exp:
      X = static_cast<float>(-104.0 + 192.0 * R.uniform());
      break;
    case ElemFunc::Exp2:
      X = static_cast<float>(-151.0 + 279.0 * R.uniform());
      if (X == std::nearbyint(X))
        continue;
      break;
    case ElemFunc::Exp10:
      X = static_cast<float>(-45.0 + 83.0 * R.uniform());
      break;
    case ElemFunc::Log:
    case ElemFunc::Log2:
    case ElemFunc::Log10:
      X = floatFromBits(0x00800000u + static_cast<uint32_t>(R.below(
                                          0x7f7fffffu - 0x00800000u)));
      break;
    }
    if (std::fabs(X) >= 0x1p-26f)
      return X;
  }
}

/// N inputs for F: domain inputs, except exactly N/10 of them, at seeded
/// positions, that are uniformly random bit patterns -- NaN, infinities,
/// overflow, denormals, negative log arguments: the lanes the batch kernels
/// send to the scalar fallback, present as real callers' data has them.
/// The exact count keeps every chunk's share of slow lanes the same.
inline std::vector<float> mixedInputs(ElemFunc F, Rng &R, size_t N) {
  std::vector<float> V(N);
  for (float &X : V)
    X = domainInput(F, R);
  std::vector<uint32_t> Pos(N);
  for (size_t I = 0; I < N; ++I)
    Pos[I] = static_cast<uint32_t>(I);
  R.shuffle(Pos);
  for (size_t I = 0; I < N / 10; ++I)
    V[Pos[I]] = floatFromBits(static_cast<uint32_t>(R.next()));
  return V;
}

//===----------------------------------------------------------------------===//
// Correctness.
//===----------------------------------------------------------------------===//

/// The encoding K must return for X, from the certified oracle: RO_34(f(X))
/// rounded to K's format and mode, which round-to-odd makes exact for every
/// FP(k, 8) format with k <= 32.
inline uint64_t oracleEnc(const VariantKey &K, float X) {
  uint64_t RO = rfp::oracle_cache::evalToOdd34(K.Func, bitsOfFloat(X));
  return K.Format.roundDouble(FPFormat::fp34().decode(RO), K.Mode);
}

inline bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof(double)) == 0;
}

/// Order-sensitive digest of a word buffer: a repeat of a verified output
/// is checked by comparing digests.
inline uint64_t digest(const uint64_t *W, size_t N) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (size_t I = 0; I < N; ++I)
    H = (H ^ W[I]) * 0x100000001b3ull ^ (H >> 29);
  return H;
}

/// Check state of a repeated operation: verified once in full, then by
/// digest.
struct Verdict {
  enum State : uint8_t { Unseen, Good, Bad } S = Unseen;
  uint64_t Digest = 0;
};

//===----------------------------------------------------------------------===//
// Runs and results.
//===----------------------------------------------------------------------===//

struct RunContext {
  uint64_t Seed = 1;
  /// Measuring time of the run.
  double Seconds = 10.0;
  /// About 1/50 of the full size: the --smoke check and the layer probes
  /// of traced runs.
  bool Smoke = false;
  /// Threads the run may load (nproc, or RFP_THREADS).
  unsigned Threads = 1;
  /// Non-null only in a traced run.
  SpanLog *Spans = nullptr;
};

struct Metric {
  double Value = 0.0;
  const char *Unit = "";
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run reports.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// item_ns, op_p50_us, op_p99_us (rfpbench.cpp adds setup_s and
  /// peak_rss_mb).
  Metrics EndToEnd;
  /// Per-layer metrics; filled only in a traced run.
  Metrics Layers;
  /// Workload parameters for the run's metadata record.
  std::vector<std::pair<std::string, std::string>> Params;
  /// Sampled oracle checks, and those that disagreed with the shipped
  /// result. The tables are proven only where verify-16 sweeps, so a
  /// disagreement on another input is a finding about the tables, reported
  /// with its input, not a failed operation of the run.
  uint64_t OracleChecks = 0;
  std::vector<std::string> OracleDisagreements;

  void param(const std::string &K, const std::string &V) {
    Params.emplace_back(K, V);
  }
  void param(const std::string &K, double V) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.10g", V);
    Params.emplace_back(K, Buf);
  }
  void param(const std::string &K, const std::vector<double> &Vs) {
    std::string S;
    for (double V : Vs) {
      char Buf[32];
      std::snprintf(Buf, sizeof(Buf), "%s%.4g", S.empty() ? "" : ",", V);
      S += Buf;
    }
    Params.emplace_back(K, S);
  }
  /// The three latency/throughput metrics every workload reports.
  void endToEnd(double ItemNs, double P50Us, double P99Us) {
    EndToEnd["item_ns"] = {ItemNs, "ns"};
    EndToEnd["op_p50_us"] = {P50Us, "us"};
    EndToEnd["op_p99_us"] = {P99Us, "us"};
  }
  void endToEnd(double ItemNs, const std::vector<double> &OpUs) {
    endToEnd(ItemNs, percentile(OpUs, 50.0), percentile(OpUs, 99.0));
  }
  void oracleCheck(const VariantKey &K, float X, uint64_t Got) {
    ++OracleChecks;
    uint64_t Want = oracleEnc(K, X);
    if (Got == Want)
      return;
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf), "%s x=0x%08x got=0x%llx oracle=0x%llx",
                  rfp::variantKeyName(K).c_str(), bitsOfFloat(X),
                  static_cast<unsigned long long>(Got),
                  static_cast<unsigned long long>(Want));
    OracleDisagreements.push_back(Buf);
  }
};

/// The fastest time of each distinct operation (the same inputs through the
/// same variant) over its repeats in a run. On a host whose cores are
/// shared with other tenants, an operation's median time moves by up to
/// 20% from run to run with the share of repeats that met contention,
/// while its fastest repeat moves by 2-3%. The end-to-end times therefore
/// aggregate per-operation minima: every distinct operation counts once,
/// and the contended share of the run does not.
class OpMinima {
public:
  explicit OpMinima(size_t Ops)
      : Ns(Ops, std::numeric_limits<double>::infinity()) {}
  void add(size_t Op, double T) { Ns[Op] = std::min(Ns[Op], T); }
  double of(size_t Op) const { return Ns[Op]; }
  /// Minima of the operations that ran at least once.
  std::vector<double> ran() const {
    std::vector<double> Out;
    for (double T : Ns)
      if (std::isfinite(T))
        Out.push_back(T);
    return Out;
  }
  double sum() const {
    double Sum = 0.0;
    for (double T : ran())
      Sum += T;
    return Sum;
  }
  /// Mean of ran() divided by \p Items per operation: time per item.
  double perItem(double Items) const {
    size_t N = ran().size();
    return N ? sum() / (N * Items) : 0.0;
  }

private:
  std::vector<double> Ns;
};

/// One workload: setup() is everything before the first timed operation
/// (inputs from the seed, warm-up); run() measures for RunContext::Seconds
/// and checks every output outside the timed regions.
class Workload {
public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual void run(Outcome &Out) = 0;
};

std::unique_ptr<Workload> makeLibmCall(const RunContext &Ctx);
std::unique_ptr<Workload> makeLibmBatch(const RunContext &Ctx);
std::unique_ptr<Workload> makeServeMix(const RunContext &Ctx);
std::unique_ptr<Workload> makeVerify16(const RunContext &Ctx);
std::unique_ptr<Workload> makePolygen6(const RunContext &Ctx);

/// Runs whole passes of a pass-based workload: always one, then another
/// while the next (assumed as long as the mean so far) ends within
/// \p Seconds of \p Start.
inline bool anotherPass(Clock::time_point Start, double Seconds,
                        const std::vector<double> &PassSeconds) {
  if (PassSeconds.empty())
    return true;
  double Sum = 0.0;
  for (double S : PassSeconds)
    Sum += S;
  return secondsBetween(Start, Clock::now()) + Sum / PassSeconds.size() <=
         Seconds;
}

} // namespace rfpbench

#endif // RFPBENCH_BENCH_H
