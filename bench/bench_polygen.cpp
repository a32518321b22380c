//===- bench/bench_polygen.cpp - Generator pipeline wall-clock ------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the end-to-end polynomial generation pipeline -- prepare()
// (oracle-bound constraint construction) plus generate() for every
// available scheme -- across a ladder of thread counts, and emits a
// machine-readable JSON report:
//
//   * wall-clock ms for prepare and generate at each thread count
//   * speedup relative to the single-threaded run
//   * the oracle cache hit rate observed during the generate (check) phase
//   * whether the generated output is bit-identical across thread counts
//     (coefficients, piece degrees, special cases) -- the determinism
//     contract of the parallel layer
//   * LP accounting per run: warm/cold/presolve solve and pivot counters,
//     the answers the generator's LP memo reused across schemes, and the
//     presolve engagement rate of the base run (presolved solves over
//     presolved + pure cold). The generator's one LP path is the
//     presolving PolyLPSession; its results equal cold solves by the LP
//     layer's own differential tests
//   * certified fast-oracle accounting: the ladder runs with the fast
//     path on; one fast-off referee at the base thread count isolates the
//     prepare speedup (oracle_fast_prepare_speedup) and joins the
//     bit-identical comparison. Per run, the prepare phase is broken down
//     into oracle_ms / interval_ms / merge_ms / finalize_ms with
//     fast_accept / fast_fallback / ziv_retries tallies.
//
//   bench_polygen [func] [--stride N] [--threads a,b,c] [--json[=path]]
//
// Default stride is CI-scale (65537); pass --stride 1009 for the default
// GenConfig sampling density used by the shipped tables.
//
//===----------------------------------------------------------------------===//

#include "JsonWriter.h"

#include "core/PolyGen.h"
#include "oracle/OracleCache.h"
#include "oracle/OracleFast.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace rfp;

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

struct RunResult {
  unsigned Threads = 0;
  bool Fast = true; ///< Certified fast oracle enabled for this run.
  double PrepareMs = 0, GenerateMs = 0;
  double CheckPhaseHitRate = 0;
  /// Per-phase prepare breakdown plus the run's oracle telemetry deltas.
  PolyGenerator::PrepareBreakdown Prep;
  uint64_t ZivRetries = 0; ///< Exact-oracle Ziv retries during prepare.
  /// Per-phase LP stats summed over all schemes' generate() runs. The
  /// pivot/row counters are thread-count-invariant; only LPTimeMs moves.
  GeneratedImpl::GenStats LPStats;
  std::vector<GeneratedImpl> Impls;
};

bool identicalOutput(const GeneratedImpl &A, const GeneratedImpl &B) {
  if (A.Success != B.Success || A.NumPieces != B.NumPieces ||
      A.PieceDegrees != B.PieceDegrees ||
      A.Specials.size() != B.Specials.size())
    return false;
  for (size_t I = 0; I < A.Specials.size(); ++I)
    if (A.Specials[I].Bits != B.Specials[I].Bits ||
        std::memcmp(&A.Specials[I].H, &B.Specials[I].H, sizeof(double)) != 0)
      return false;
  for (int P = 0; P < A.NumPieces; ++P) {
    if (A.Pieces[P].Coeffs.size() != B.Pieces[P].Coeffs.size())
      return false;
    // memcmp, not ==: bit-identical includes the sign of zero and NaN bits.
    if (!A.Pieces[P].Coeffs.empty() &&
        std::memcmp(A.Pieces[P].Coeffs.data(), B.Pieces[P].Coeffs.data(),
                    A.Pieces[P].Coeffs.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

RunResult runPipeline(ElemFunc F, GenConfig Cfg, unsigned Threads,
                      bool Fast) {
  Cfg.NumThreads = Threads;
  oracle_cache::clear();
  oracle_fast::setEnabled(Fast);

  RunResult R;
  R.Threads = Threads;
  R.Fast = Fast;
  PolyGenerator Gen(F, Cfg);

  uint64_t RetriesBefore = telemetry::counterValue("oracle.ziv.retries");
  auto T0 = std::chrono::steady_clock::now();
  Gen.prepare();
  R.PrepareMs = msSince(T0);
  R.Prep = Gen.prepareBreakdown();
  R.ZivRetries =
      telemetry::counterValue("oracle.ziv.retries") - RetriesBefore;

  // The cache counters are process-wide monotonic telemetry; deltas
  // around the generate phase isolate this run's hit rate.
  uint64_t HitsBefore = telemetry::counterValue("oracle.cache.hits");
  uint64_t MissesBefore = telemetry::counterValue("oracle.cache.misses");
  T0 = std::chrono::steady_clock::now();
  for (EvalScheme S : AllEvalSchemes)
    R.Impls.push_back(Gen.generate(S));
  R.GenerateMs = msSince(T0);
  for (const GeneratedImpl &Impl : R.Impls) {
    R.LPStats.LPTimeMs += Impl.Stats.LPTimeMs;
    R.LPStats.LPPivots += Impl.Stats.LPPivots;
    R.LPStats.LPRows += Impl.Stats.LPRows;
    R.LPStats.LPExactPricings += Impl.Stats.LPExactPricings;
    R.LPStats.LPReused += Impl.Stats.LPReused;
    R.LPStats.LPWarmSolves += Impl.Stats.LPWarmSolves;
    R.LPStats.LPColdSolves += Impl.Stats.LPColdSolves;
    R.LPStats.LPWarmFallbacks += Impl.Stats.LPWarmFallbacks;
    R.LPStats.LPWarmPivots += Impl.Stats.LPWarmPivots;
    R.LPStats.LPColdPivots += Impl.Stats.LPColdPivots;
    R.LPStats.LPPresolveAttempts += Impl.Stats.LPPresolveAttempts;
    R.LPStats.LPPresolveSolves += Impl.Stats.LPPresolveSolves;
    R.LPStats.LPPresolveCertified += Impl.Stats.LPPresolveCertified;
    R.LPStats.LPPresolveRepaired += Impl.Stats.LPPresolveRepaired;
    R.LPStats.LPPresolveFallbacks += Impl.Stats.LPPresolveFallbacks;
    R.LPStats.LPPresolvePivots += Impl.Stats.LPPresolvePivots;
  }

  uint64_t Hits = telemetry::counterValue("oracle.cache.hits") - HitsBefore;
  uint64_t Misses =
      telemetry::counterValue("oracle.cache.misses") - MissesBefore;
  R.CheckPhaseHitRate =
      Hits + Misses == 0 ? 1.0
                         : static_cast<double>(Hits) / (Hits + Misses);
  oracle_fast::setEnabled(true);
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  ElemFunc Func = ElemFunc::Exp;
  GenConfig Cfg;
  Cfg.SampleStride = 65537; // CI-scale default; --stride 1009 = full density
  Cfg.BoundaryWindow = 256;
  std::vector<unsigned> ThreadLadder = {1, 2, 4};
  bench::ReportOptions Opts;
  Opts.JsonPath = "bench_polygen.json"; // written even without --json

  for (int I = 1; I < Argc; ++I) {
    if (Opts.parse(Argc, Argv, I, "bench_polygen.json")) {
      continue;
    } else if (std::strcmp(Argv[I], "--stride") == 0 && I + 1 < Argc) {
      Cfg.SampleStride = static_cast<uint32_t>(std::atol(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--threads") == 0 && I + 1 < Argc) {
      ThreadLadder.clear();
      for (const char *P = Argv[++I]; *P;) {
        if (*P < '0' || *P > '9') {
          std::fprintf(stderr,
                       "--threads expects a comma-separated list of counts "
                       "(0 = auto), got '%s'\n",
                       Argv[I]);
          return 2;
        }
        ThreadLadder.push_back(static_cast<unsigned>(std::atol(P)));
        while (*P && *P != ',')
          ++P;
        if (*P == ',')
          ++P;
      }
    } else {
      bool Known = false;
      for (ElemFunc F : AllElemFuncs)
        if (std::strcmp(Argv[I], elemFuncName(F)) == 0) {
          Func = F;
          Known = true;
        }
      if (!Known) {
        std::fprintf(stderr,
                     "unknown argument '%s'\nusage: bench_polygen [func] "
                     "[--stride N] [--threads a,b,c] %s\n",
                     Argv[I], bench::ReportOptions::usage());
        return 2;
      }
    }
  }

  std::printf("Generator pipeline wall-clock, %s, stride %u\n",
              elemFuncName(Func), Cfg.SampleStride);
  std::printf("%8s %5s %12s %12s %12s %10s %10s %10s %8s %20s\n",
              "threads", "fast", "prepare ms", "generate ms", "total ms",
              "speedup", "hit rate", "lp ms", "pivots",
              "warm/pre/cold/reused");

  // The thread ladder runs with the certified fast oracle on; a fast-off
  // referee at the base thread count isolates its prepare speedup and
  // joins the bit-identical output comparison.
  std::vector<RunResult> Runs;
  for (unsigned T : ThreadLadder)
    Runs.push_back(runPipeline(Func, Cfg, T, /*Fast=*/true));
  if (!ThreadLadder.empty())
    Runs.push_back(
        runPipeline(Func, Cfg, ThreadLadder.front(), /*Fast=*/false));

  double BaseTotal = Runs.empty()
                         ? 0
                         : Runs.front().PrepareMs + Runs.front().GenerateMs;
  bool AllIdentical = true;
  for (const RunResult &R : Runs) {
    double Total = R.PrepareMs + R.GenerateMs;
    std::printf(
        "%8u %5s %12.1f %12.1f %12.1f %9.2fx %9.1f%% %10.1f %8llu "
        "%4llu/%llu/%llu/%-4llu\n",
        R.Threads, R.Fast ? "on" : "off", R.PrepareMs, R.GenerateMs, Total,
        Total > 0 ? BaseTotal / Total : 0.0, 100.0 * R.CheckPhaseHitRate,
        R.LPStats.LPTimeMs,
        static_cast<unsigned long long>(R.LPStats.LPPivots),
        static_cast<unsigned long long>(R.LPStats.LPWarmSolves),
        static_cast<unsigned long long>(R.LPStats.LPPresolveSolves),
        static_cast<unsigned long long>(R.LPStats.LPColdSolves),
        static_cast<unsigned long long>(R.LPStats.LPReused));
    std::printf("         prepare: oracle %.1f + interval %.1f + merge %.1f "
                "+ finalize %.1f ms, fast accept/fallback %llu/%llu, ziv "
                "retries %llu\n",
                R.Prep.OracleMs, R.Prep.IntervalMs, R.Prep.MergeMs,
                R.Prep.FinalizeMs,
                static_cast<unsigned long long>(R.Prep.FastAccepts),
                static_cast<unsigned long long>(R.Prep.FastFallbacks),
                static_cast<unsigned long long>(R.ZivRetries));
    for (size_t S = 0; S < R.Impls.size(); ++S)
      if (!identicalOutput(Runs.front().Impls[S], R.Impls[S]))
        AllIdentical = false;
  }
  std::printf("output bit-identical across thread counts and fast-oracle "
              "modes: %s\n",
              AllIdentical ? "yes" : "NO -- DETERMINISM VIOLATION");

  // Fast-oracle prepare speedup: ladder base run vs the fast-off referee
  // at the same thread count (last entry).
  double FastPrepareSpeedup = 0;
  if (!Runs.empty() && !Runs.back().Fast && Runs.front().PrepareMs > 0)
    FastPrepareSpeedup = Runs.back().PrepareMs / Runs.front().PrepareMs;
  if (FastPrepareSpeedup > 0)
    std::printf("prepare speedup, fast oracle vs exact (%u threads): %.2fx\n",
                Runs.front().Threads, FastPrepareSpeedup);

  // Presolve engagement on the ladder base run: of the solves the warm
  // path could not serve, the fraction the presolver did.
  double PreEngagement = 0;
  if (!Runs.empty()) {
    const GeneratedImpl::GenStats &St = Runs.front().LPStats;
    uint64_t NonWarm = St.LPPresolveSolves + St.LPColdSolves;
    PreEngagement = NonWarm == 0 ? 1.0
                                 : static_cast<double>(St.LPPresolveSolves) /
                                       static_cast<double>(NonWarm);
    std::printf("presolve engagement (%u threads): %.0f%% (%llu presolved, "
                "%llu certified / %llu repaired / %llu fallbacks, %llu pure "
                "cold)\n",
                Runs.front().Threads, 100.0 * PreEngagement,
                static_cast<unsigned long long>(St.LPPresolveSolves),
                static_cast<unsigned long long>(St.LPPresolveCertified),
                static_cast<unsigned long long>(St.LPPresolveRepaired),
                static_cast<unsigned long long>(St.LPPresolveFallbacks),
                static_cast<unsigned long long>(St.LPColdSolves));
  }

  if (!Opts.JsonPath.empty()) {
    bench::Report Rep(Opts.JsonPath, "bench_polygen");
    if (!Rep.ok())
      return 1;
    json::Writer &W = Rep.writer();
    W.kv("func", elemFuncName(Func));
    W.kv("sample_stride", Cfg.SampleStride);
    W.kv("bit_identical_across_threads", AllIdentical);
    if (!Runs.empty())
      W.kvFixed("lp_presolve_engagement", PreEngagement, 4);
    if (FastPrepareSpeedup > 0)
      W.kvFixed("oracle_fast_prepare_speedup", FastPrepareSpeedup, 3);
    W.key("runs");
    W.beginArray();
    for (const RunResult &R : Runs) {
      double Total = R.PrepareMs + R.GenerateMs;
      W.inlineNext();
      W.beginObject();
      W.kv("threads", R.Threads);
      W.kv("fast_oracle", R.Fast);
      W.kvFixed("prepare_ms", R.PrepareMs, 2);
      W.kvFixed("oracle_ms", R.Prep.OracleMs, 2);
      W.kvFixed("interval_ms", R.Prep.IntervalMs, 2);
      W.kvFixed("merge_ms", R.Prep.MergeMs, 2);
      W.kvFixed("finalize_ms", R.Prep.FinalizeMs, 2);
      W.kv("fast_accept", R.Prep.FastAccepts);
      W.kv("fast_fallback", R.Prep.FastFallbacks);
      W.kv("ziv_retries", R.ZivRetries);
      W.kvFixed("generate_ms", R.GenerateMs, 2);
      W.kvFixed("total_ms", Total, 2);
      W.kvFixed("speedup_vs_1thread", Total > 0 ? BaseTotal / Total : 0.0, 3);
      W.kvFixed("check_phase_cache_hit_rate", R.CheckPhaseHitRate, 4);
      W.kvFixed("lp_time_ms", R.LPStats.LPTimeMs, 2);
      W.kv("lp_pivots", R.LPStats.LPPivots);
      W.kv("lp_rows", R.LPStats.LPRows);
      W.kv("lp_reused", R.LPStats.LPReused);
      W.kv("lp_warm_solves", R.LPStats.LPWarmSolves);
      W.kv("lp_cold_solves", R.LPStats.LPColdSolves);
      W.kv("lp_warm_fallbacks", R.LPStats.LPWarmFallbacks);
      W.kv("lp_warm_pivots", R.LPStats.LPWarmPivots);
      W.kv("lp_cold_pivots", R.LPStats.LPColdPivots);
      W.kv("lp_presolve_attempts", R.LPStats.LPPresolveAttempts);
      W.kv("lp_presolve_solves", R.LPStats.LPPresolveSolves);
      W.kv("lp_presolve_certified", R.LPStats.LPPresolveCertified);
      W.kv("lp_presolve_repaired", R.LPStats.LPPresolveRepaired);
      W.kv("lp_presolve_fallbacks", R.LPStats.LPPresolveFallbacks);
      W.kv("lp_presolve_pivots", R.LPStats.LPPresolvePivots);
      W.endObject();
    }
    W.endArray();
  }
  Opts.finish();
  return AllIdentical ? 0 : 1;
}
