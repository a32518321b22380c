//===- bench/bench_simplex.cpp - Exact LP solver wall-clock ---------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Measures the exact-rational simplex core on constraint systems captured
// from the real generation pipeline: prepare() builds the merged reduced
// rounding-interval constraints for a function, and the benchmark replays
// the LPs the generator would pose -- one degree-5 solve per piece of the
// 4-piece partition, plus one whole-domain degree-6 solve (the hardest
// system a shape escalation reaches). Each solve subsamples the piece the
// same way generatePiece does (MaxLPConstraints evenly spaced, extremes
// included), so row counts and coefficient magnitudes match production.
//
// Reported per system and thread count: best-of-N wall-clock ms of the
// cold solve (solvePolyLP), simplex pivot count, and LP rows. Pivot
// counts must be identical across the thread ladder (the determinism
// contract); a mismatch makes the run exit 1.
//
// --warm additionally replays every captured system through the
// incremental PolyLPSession under a bound-shrink schedule (the
// generate-check-constrain access pattern) against per-round cold
// rebuilds: warm-vs-cold wall time, pivots, and a per-round differential
// check that the exact optima agree. A mismatch exits 1.
//
//   bench_simplex [func] [--stride N] [--threads a,b,c] [--repeats N]
//                 [--warm] [--warm-rounds N] [--json[=path]]
//
//===----------------------------------------------------------------------===//

#include "JsonWriter.h"

#include "core/PolyGen.h"
#include "libm/RangeReduction.h"

#include <algorithm>
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

/// One captured LP system: a named constraint subset plus the polynomial
/// degree the generator would request for it.
struct LPSystem {
  std::string Name;
  unsigned Degree = 0;
  std::vector<IntervalConstraint> Cons;
};

/// Subsamples a constraint span exactly like PolyGenerator::generatePiece:
/// evenly spaced with the extremes included, capped near MaxLPConstraints.
std::vector<IntervalConstraint>
sampleLike(const std::vector<IntervalConstraint> &Piece, size_t MaxCons) {
  std::vector<IntervalConstraint> Out;
  if (Piece.empty())
    return Out;
  size_t Step = std::max<size_t>(1, Piece.size() / MaxCons);
  for (size_t I = 0; I < Piece.size(); I += Step)
    Out.push_back(Piece[I]);
  if ((Piece.size() - 1) % Step != 0)
    Out.push_back(Piece.back());
  return Out;
}

/// Builds the benchmark systems from one function's merged constraints.
std::vector<LPSystem> captureSystems(ElemFunc F, const GenConfig &Cfg) {
  PolyGenerator Gen(F, Cfg);
  Gen.prepare();
  std::vector<IntervalConstraint> All = Gen.exportLPConstraints();

  double TMin, TMax;
  libm::reducedDomain(F, TMin, TMax);
  constexpr int NumPieces = 4;
  std::vector<std::vector<IntervalConstraint>> Pieces(NumPieces);
  for (const IntervalConstraint &C : All)
    Pieces[libm::pieceIndex(C.X.toDouble(), TMin, TMax, NumPieces)].push_back(
        C);

  std::vector<LPSystem> Systems;
  for (int P = 0; P < NumPieces; ++P) {
    if (Pieces[P].empty())
      continue;
    LPSystem S;
    S.Name = std::string(elemFuncName(F)) + "/piece" + std::to_string(P) +
             "of4/deg5";
    S.Degree = 5;
    S.Cons = sampleLike(Pieces[P], Cfg.MaxLPConstraints);
    Systems.push_back(std::move(S));
  }
  LPSystem Whole;
  Whole.Name = std::string(elemFuncName(F)) + "/whole/deg6";
  Whole.Degree = 6;
  Whole.Cons = sampleLike(All, Cfg.MaxLPConstraints);
  Systems.push_back(std::move(Whole));
  return Systems;
}

struct Measurement {
  unsigned Threads = 0;
  double BestMs = 0;
  unsigned Pivots = 0;
  unsigned Rows = 0;
  bool Feasible = false;
};

Measurement measure(const LPSystem &Sys, unsigned Threads, unsigned Repeats) {
  Measurement M;
  M.Threads = Threads;
  M.BestMs = HUGE_VAL;
  for (unsigned R = 0; R < Repeats; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    PolyLPResult LP = solvePolyLP(Sys.Cons, Sys.Degree, Threads);
    M.BestMs = std::min(M.BestMs, msSince(T0));
    M.Pivots = LP.Pivots;
    M.Rows = LP.Rows;
    M.Feasible = LP.Feasible;
  }
  return M;
}

/// Exact-result equality: feasibility verdict, margin, and coefficients.
bool sameLPResult(const PolyLPResult &A, const PolyLPResult &B) {
  if (A.Feasible != B.Feasible)
    return false;
  if (!A.Feasible)
    return true;
  if (!(A.Margin == B.Margin))
    return false;
  if (A.Poly.Coeffs.size() != B.Poly.Coeffs.size())
    return false;
  for (size_t K = 0; K < A.Poly.Coeffs.size(); ++K)
    if (!(A.Poly.Coeffs[K] == B.Poly.Coeffs[K]))
      return false;
  return true;
}

/// --warm: replays one captured system through the generate-check-constrain
/// access pattern -- an initial solve followed by rounds of one-quantum
/// bound shrinks on a rotating third of the constraints -- once through a
/// persistent PolyLPSession (warm) and once through per-round solvePolyLP
/// rebuilds (cold). Both passes run the identical schedule; the replay is
/// also a differential test (margin + coefficients compared every round).
struct WarmReplay {
  unsigned Rounds = 0;       ///< Re-solve rounds actually executed.
  double WarmMs = 0, ColdMs = 0;
  uint64_t WarmPivots = 0, ColdPivots = 0; ///< Summed over all solves.
  uint64_t WarmSolves = 0;   ///< Session solves served from a warm basis.
  uint64_t Fallbacks = 0;    ///< Warm attempts that re-ran cold.
  bool Identical = true;     ///< Warm == cold results in every round.
};

WarmReplay replayWarm(const LPSystem &Sys, unsigned Threads, unsigned Rounds) {
  WarmReplay R;
  std::vector<unsigned> Terms(Sys.Degree + 1);
  for (unsigned E = 0; E <= Sys.Degree; ++E)
    Terms[E] = E;

  std::vector<IntervalConstraint> Cons = Sys.Cons;
  PolyLPSession Sess(Terms, Threads);
  std::vector<PolyLPSession::ConstraintId> Ids;
  for (const IntervalConstraint &C : Cons)
    Ids.push_back(Sess.addConstraint(C.X, C.Lo, C.Hi));

  auto SolveWarm = [&] {
    auto T0 = std::chrono::steady_clock::now();
    PolyLPResult LP = Sess.solve();
    R.WarmMs += msSince(T0);
    R.WarmPivots += LP.Pivots;
    return LP;
  };
  auto SolveCold = [&] {
    auto T0 = std::chrono::steady_clock::now();
    PolyLPResult LP = solvePolyLP(Cons, Terms, Threads);
    R.ColdMs += msSince(T0);
    R.ColdPivots += LP.Pivots;
    return LP;
  };
  R.Identical = sameLPResult(SolveWarm(), SolveCold());
  Rational Quantum(BigInt(1), BigInt(64));
  for (unsigned Round = 0; Round < Rounds && R.Identical; ++Round) {
    for (size_t I = Round % 3; I < Cons.size(); I += 3) {
      Rational Shrink = (Cons[I].Hi - Cons[I].Lo) * Quantum;
      Cons[I].Lo = Cons[I].Lo + Shrink;
      Cons[I].Hi = Cons[I].Hi - Shrink;
      Sess.updateBound(Ids[I], Cons[I].Lo, Cons[I].Hi);
    }
    PolyLPResult W = SolveWarm();
    R.Identical = sameLPResult(W, SolveCold());
    ++R.Rounds;
    if (!W.Feasible)
      break; // Shrunk into infeasibility: schedule exhausted.
  }
  R.WarmSolves = Sess.lpStats().WarmSolves;
  R.Fallbacks = Sess.lpStats().WarmAttempts - Sess.lpStats().WarmSolves;
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  ElemFunc Func = ElemFunc::Exp;
  GenConfig Cfg;
  Cfg.SampleStride = 65537; // CI-scale default, like bench_polygen
  Cfg.BoundaryWindow = 256;
  std::vector<unsigned> ThreadLadder = {1, 2, 4};
  unsigned Repeats = 3;
  bool Warm = false;
  unsigned WarmRounds = 12;
  bench::ReportOptions Opts;
  Opts.JsonPath = "bench_simplex.json"; // written even without --json

  for (int I = 1; I < Argc; ++I) {
    if (Opts.parse(Argc, Argv, I, "bench_simplex.json")) {
      continue;
    } else if (std::strcmp(Argv[I], "--warm") == 0) {
      Warm = true;
    } else if (std::strcmp(Argv[I], "--warm-rounds") == 0 && I + 1 < Argc) {
      Warm = true;
      WarmRounds = static_cast<unsigned>(std::atol(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--stride") == 0 && I + 1 < Argc) {
      Cfg.SampleStride = static_cast<uint32_t>(std::atol(Argv[++I]));
    } else if (std::strcmp(Argv[I], "--repeats") == 0 && I + 1 < Argc) {
      Repeats = static_cast<unsigned>(std::atol(Argv[++I]));
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
                     "unknown argument '%s'\nusage: bench_simplex [func] "
                     "[--stride N] [--threads a,b,c] [--repeats N] "
                     "[--warm] [--warm-rounds N] %s\n",
                     Argv[I], bench::ReportOptions::usage());
        return 2;
      }
    }
  }

  std::printf("Capturing constraint systems (%s, stride %u)...\n",
              elemFuncName(Func), Cfg.SampleStride);
  std::vector<LPSystem> Systems = captureSystems(Func, Cfg);

  std::printf("%-24s %8s %10s %8s %8s %10s\n", "system", "threads",
              "best ms", "pivots", "rows", "speedup");

  struct Row {
    const LPSystem *Sys;
    std::vector<Measurement> Ms;
  };
  std::vector<Row> Rows;
  bool PivotsInvariant = true;
  for (const LPSystem &Sys : Systems) {
    Row R{&Sys, {}};
    for (unsigned T : ThreadLadder)
      R.Ms.push_back(measure(Sys, T, Repeats));
    double BaseMs = R.Ms.front().BestMs;
    for (const Measurement &M : R.Ms) {
      if (M.Pivots != R.Ms.front().Pivots)
        PivotsInvariant = false;
      std::printf("%-24s %8u %10.2f %8u %8u %9.2fx\n", Sys.Name.c_str(),
                  M.Threads, M.BestMs, M.Pivots, M.Rows,
                  M.BestMs > 0 ? BaseMs / M.BestMs : 0.0);
    }
    Rows.push_back(std::move(R));
  }
  std::printf("pivot counts thread-invariant: %s\n",
              PivotsInvariant ? "yes" : "NO -- DETERMINISM VIOLATION");

  std::vector<WarmReplay> Replays;
  bool WarmIdentical = true;
  if (Warm) {
    std::printf("\nWarm-start replay (%u shrink rounds per system):\n",
                WarmRounds);
    std::printf("%-24s %9s %9s %8s %8s %6s %5s %8s %10s\n", "system",
                "warm ms", "cold ms", "w.piv", "c.piv", "warm", "fall",
                "speedup", "identical");
    for (const LPSystem &Sys : Systems) {
      WarmReplay R = replayWarm(Sys, ThreadLadder.front(), WarmRounds);
      std::printf("%-24s %9.2f %9.2f %8llu %8llu %6llu %5llu %7.2fx %10s\n",
                  Sys.Name.c_str(), R.WarmMs, R.ColdMs,
                  static_cast<unsigned long long>(R.WarmPivots),
                  static_cast<unsigned long long>(R.ColdPivots),
                  static_cast<unsigned long long>(R.WarmSolves),
                  static_cast<unsigned long long>(R.Fallbacks),
                  R.WarmMs > 0 ? R.ColdMs / R.WarmMs : 0.0,
                  R.Identical ? "yes" : "NO -- MISMATCH");
      WarmIdentical = WarmIdentical && R.Identical;
      Replays.push_back(R);
    }
    std::printf("warm results identical to cold: %s\n",
                WarmIdentical ? "yes" : "NO -- CORRECTNESS VIOLATION");
  }

  if (!Opts.JsonPath.empty()) {
    bench::Report Rep(Opts.JsonPath, "bench_simplex");
    if (!Rep.ok())
      return 1;
    json::Writer &W = Rep.writer();
    W.kv("func", elemFuncName(Func));
    W.kv("sample_stride", Cfg.SampleStride);
    W.kv("repeats", Repeats);
    W.kv("pivots_thread_invariant", PivotsInvariant);
    W.key("systems");
    W.beginArray();
    for (const Row &R : Rows) {
      W.beginObject();
      W.kv("name", R.Sys->Name);
      W.kv("degree", R.Sys->Degree);
      W.kv("constraints", static_cast<uint64_t>(R.Sys->Cons.size()));
      W.key("runs");
      W.beginArray();
      for (const Measurement &M : R.Ms) {
        W.inlineNext();
        W.beginObject();
        W.kv("threads", M.Threads);
        W.kvFixed("best_ms", M.BestMs, 3);
        W.kv("pivots", M.Pivots);
        W.kv("rows", M.Rows);
        W.kv("feasible", M.Feasible);
        W.endObject();
      }
      W.endArray();
      W.endObject();
    }
    W.endArray();
    if (Warm) {
      W.kv("warm_rounds", WarmRounds);
      W.kv("warm_identical_to_cold", WarmIdentical);
      W.key("warm_replay");
      W.beginArray();
      for (size_t I = 0; I < Replays.size(); ++I) {
        const WarmReplay &R = Replays[I];
        W.inlineNext();
        W.beginObject();
        W.kv("name", Rows[I].Sys->Name);
        W.kv("rounds", R.Rounds);
        W.kvFixed("warm_ms", R.WarmMs, 3);
        W.kvFixed("cold_ms", R.ColdMs, 3);
        W.kv("warm_pivots", R.WarmPivots);
        W.kv("cold_pivots", R.ColdPivots);
        W.kv("warm_solves", R.WarmSolves);
        W.kv("warm_fallbacks", R.Fallbacks);
        W.kvFixed("speedup", R.WarmMs > 0 ? R.ColdMs / R.WarmMs : 0.0, 3);
        W.kv("identical", R.Identical);
        W.endObject();
      }
      W.endArray();
    }
  }
  Opts.finish();
  return (PivotsInvariant && WarmIdentical) ? 0 : 1;
}
