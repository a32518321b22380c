//===- verify/Verify.cpp - Exhaustive multi-format verification -----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Group execution strategy. The engine runs a *group* at a time. A
// function's stride-1 units form one group whatever their format: every
// FP(k, 8) encoding e is the FP(w, 8) encoding e << (w - k) of the same
// value, so the group enumerates its widest format w (the driving format)
// and each narrower format k takes every 2^(w-k)-th driving input. Strided
// units group by (function, format, stride); there the driving format is
// the units' own. A group's driving encodings are processed in blocks of
// SweepConfig::BlockElems through parallelReduce with that exact chunk
// size, so the partition -- and therefore the merge order of counters and
// mismatch records -- is fixed by the configuration, not by the thread
// count. Per block, steps 1 and 2 run once per driving input, steps 3 and
// 4 once per format and unit:
//
//   1. Decode the block's driving encodings to float inputs (every FP(k,
//      8) value with k <= 32 is exactly a float) and query the oracle
//      once: the certified fast path in batch form, the exact memoized
//      oracle for the leftovers. This happens under the default FP
//      environment -- the oracle is the reference, not the thing under
//      test.
//   2. Evaluate H for every (scheme, path, lane). The base combination
//      (the first path, default FE lane) keeps its H; every other
//      combination bit-compares its H against it and keeps only the
//      inputs where the bits diverge.
//   3. Per format FP(k, 8), round its inputs' RO_34 values to the screen
//      format FP(k + 2, 8) under round-to-odd, one libm::roundBatch.
//   4. Per unit of the format, round the base H the same way and compare
//      one encoding per input. Equal encodings prove all five standard
//      modes at FP(k, 8): by RLIBM-ALL, rounding a value to odd with two
//      extra bits and then to FP(k, 8) in any standard mode equals
//      rounding it directly, so H and RO_34 round alike in every mode. The
//      unit is still charged its five comparisons. Only an input that
//      misses the screen gets the five-mode comparison, scalar
//      FPFormat::roundDouble of H and of RO_34 at FP(k, 8), which counts
//      and records what misrounds (a miss can still round correctly in
//      all five modes). At FP(32, 8) the screen format is FP34 and the
//      screen is the RO_34 comparison itself, one "mode" whose miss is a
//      mismatch. The base combination remembers how many modes misround
//      per input (BaseBad). Every other combination inherits the base
//      verdict where its H bits matched -- the comparisons and BaseBad
//      mismatches are counted without re-rounding -- and gets its own
//      screen, and where that misses its own comparison and records,
//      where they diverged.
//
// Each unit keeps its own counts and records, so a unit's result is the
// same whichever units share its group; only its Millis, its share of the
// group's wall-clock in proportion to its inputs, depends on them. A
// unit's records are the first MaxRecordsPerUnit in (input, path, lane,
// mode) order: each block caps every combination's records, sorts them
// into that order and truncates, and blocks merge in ascending order, so
// the list depends neither on BlockElems nor on the group. Shards split
// the plan's groups, never a group, so sharding costs no extra oracle
// query or evaluation.
//
// FE lanes pin the dynamic rounding mode only around the evaluation call
// itself: decode, oracle, and comparison all run under the default
// environment (they are mode-insensitive anyway -- format/mode rounding
// is integer-only -- but the lane is scoped tightly so the sweep tests
// exactly the public surface's own guard and nothing else). fesetround is
// per-thread, so parallel workers' lanes do not interfere.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "oracle/OracleCache.h"
#include "oracle/OracleFast.h"
#include "support/Telemetry.h"
#include "support/ShardFile.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cassert>
#include <cfenv>
#include <chrono>
#include <cstring>

using namespace rfp;
using namespace rfp::verify;

//===----------------------------------------------------------------------===//
// Names and small helpers
//===----------------------------------------------------------------------===//

std::string verify::pathSpecName(const PathSpec &P) {
  if (P.Path == EvalPath::ScalarCore)
    return "scalar-core";
  if (P.Path == EvalPath::Candidate)
    return "candidate";
  return std::string("batch-") + libm::batchISAName(P.ISA);
}

const char *verify::feLaneName(FeLane L) {
  switch (L) {
  case FeLane::Default:
    return "default";
  case FeLane::Upward:
    return "fe-upward";
  case FeLane::Downward:
    return "fe-downward";
  case FeLane::TowardZero:
    return "fe-towardzero";
  }
  return "?";
}

int verify::feLaneMode(FeLane L) {
  switch (L) {
  case FeLane::Default:
    return -1;
  case FeLane::Upward:
    return FE_UPWARD;
  case FeLane::Downward:
    return FE_DOWNWARD;
  case FeLane::TowardZero:
    return FE_TOWARDZERO;
  }
  return -1;
}

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

/// \p Listed without repeats, first occurrences in order; \p All when
/// empty. A name listed twice must not plan (and count) its units twice.
template <typename T, size_t K>
std::vector<T> firstOccurrences(const std::vector<T> &Listed,
                                const T (&All)[K]) {
  if (Listed.empty())
    return std::vector<T>(std::begin(All), std::end(All));
  std::vector<T> Out;
  for (T V : Listed)
    if (std::find(Out.begin(), Out.end(), V) == Out.end())
      Out.push_back(V);
  return Out;
}

std::vector<ElemFunc> effectiveFuncs(const SweepConfig &C) {
  return firstOccurrences(C.Funcs, AllElemFuncs);
}

std::vector<EvalScheme> effectiveSchemes(const SweepConfig &C) {
  return firstOccurrences(C.Schemes, AllEvalSchemes);
}

/// The canonical one-line identity of a sweep: everything the unit plan,
/// the comparison matrix, and the record selection depend on. The shard
/// manifest stores it verbatim; shard headers pin its hash. Threads and
/// BlockElems are deliberately absent (results, records included, do not
/// depend on them); the record cap is present because it shapes the
/// record lists.
std::string configLine(const SweepConfig &C, const std::vector<Unit> &Units,
                       const std::vector<PathSpec> &Paths,
                       const std::vector<FeLane> &Lanes) {
  std::string L = "v5 funcs=";
  bool First = true;
  for (ElemFunc F : effectiveFuncs(C)) {
    if (!First)
      L += ',';
    L += elemFuncName(F);
    First = false;
  }
  L += " schemes=";
  First = true;
  for (EvalScheme S : effectiveSchemes(C)) {
    if (!First)
      L += ',';
    L += evalSchemeName(S);
    First = false;
  }
  L += " bits=" + std::to_string(C.MinBits) + ".." + std::to_string(C.MaxBits);
  L += " exhaustive=" + std::to_string(C.ExhaustiveBits);
  L += " stride=" + std::to_string(C.Stride);
  L += " maxrec=" + std::to_string(C.MaxRecordsPerUnit);
  L += " paths=";
  First = true;
  for (const PathSpec &P : Paths) {
    if (!First)
      L += ',';
    L += pathSpecName(P);
    First = false;
  }
  L += " lanes=";
  First = true;
  for (FeLane Lane : Lanes) {
    if (!First)
      L += ',';
    L += feLaneName(Lane);
    First = false;
  }
  L += " units=" + std::to_string(Units.size());
  return L;
}

} // namespace

//===----------------------------------------------------------------------===//
// Planning
//===----------------------------------------------------------------------===//

std::vector<Unit> verify::planUnits(const SweepConfig &C) {
  const std::vector<EvalScheme> Schemes = effectiveSchemes(C);
  std::vector<Unit> Units;
  for (ElemFunc F : effectiveFuncs(C))
    for (unsigned Bits = C.MinBits; Bits <= C.MaxBits; ++Bits)
      for (EvalScheme S : Schemes) {
        if (!C.Candidate && !available(F, S))
          continue;
        Unit U;
        U.Func = F;
        U.Scheme = S;
        U.FormatBits = Bits;
        U.Stride = Bits <= C.ExhaustiveBits ? 1 : (C.Stride ? C.Stride : 1);
        uint64_t Space = 1ull << Bits;
        U.NumEncodings = (Space + U.Stride - 1) / U.Stride;
        Units.push_back(U);
      }
  return Units;
}

std::vector<PathSpec> verify::planPaths(const SweepConfig &C) {
  if (C.Candidate)
    return {PathSpec{EvalPath::Candidate, libm::BatchISA::Scalar}};
  std::vector<PathSpec> Paths;
  Paths.push_back(PathSpec{EvalPath::ScalarCore, libm::BatchISA::Scalar});
  if (C.AllISAs) {
    for (libm::BatchISA ISA : libm::AllBatchISAs)
      Paths.push_back(PathSpec{EvalPath::Batch, ISA});
  } else {
    Paths.push_back(PathSpec{EvalPath::Batch, libm::activeBatchISA()});
  }
  return Paths;
}

std::vector<FeLane> verify::planLanes(const SweepConfig &C) {
  if (!C.FeLanes)
    return {FeLane::Default};
  return {FeLane::Default, FeLane::Upward, FeLane::Downward,
          FeLane::TowardZero};
}

//===----------------------------------------------------------------------===//
// Group execution
//===----------------------------------------------------------------------===//

namespace {

/// One past the last unit of the group that starts at \p Begin. A
/// function's stride-1 units form one group, since their formats nest;
/// strided units group by (function, format, stride). The plan's
/// (function, bits, scheme) order keeps either kind contiguous.
size_t groupEnd(const std::vector<Unit> &Units, size_t Begin) {
  const Unit &First = Units[Begin];
  size_t I = Begin + 1;
  while (I < Units.size() && Units[I].Func == First.Func &&
         Units[I].Stride == First.Stride &&
         (First.Stride == 1 || Units[I].FormatBits == First.FormatBits))
    ++I;
  return I;
}

/// One format of a group: its units, a contiguous run of the group, and
/// its place among the driving encodings. Driving encoding j is the
/// format's encoding j >> Shift when its low Shift bits are zero.
struct GroupFormat {
  unsigned Bits = 0;
  unsigned Shift = 0;
  size_t UnitBegin = 0, UnitEnd = 0;
};

/// A (path, lane) combination's H at an input where it differs from the
/// base combination's H: the input's index in the block, and the H.
struct Divergence {
  size_t I;
  double H;
};

/// Runs one group: the \p NumUnits units at \p G, of one function, either
/// every stride-1 unit in the range (the formats nest) or the units that
/// share one strided format. Returns their results in the same order,
/// each unit's Millis its share of the group's wall-clock in proportion
/// to its inputs.
std::vector<UnitResult> runGroup(const SweepConfig &C, const Unit *G,
                                 size_t NumUnits) {
  static const telemetry::Counter CInputs = telemetry::counter("verify.inputs");
  static const telemetry::Counter CComparisons =
      telemetry::counter("verify.comparisons");
  static const telemetry::Counter CMismatches =
      telemetry::counter("verify.mismatches");
  static const telemetry::Counter CScreenMisses =
      telemetry::counter("verify.screen_misses");
  static const telemetry::Counter COracleQueries =
      telemetry::counter("verify.oracle.queries");
  static const telemetry::Counter COracleFast =
      telemetry::counter("verify.oracle.fast");
  static const telemetry::Counter COracleExact =
      telemetry::counter("verify.oracle.exact");
  static const telemetry::Counter CUnits = telemetry::counter("verify.units");
  static const telemetry::Histogram HUnitMs =
      telemetry::histogram("verify.unit_ms");

  const std::vector<PathSpec> Paths = planPaths(C);
  const std::vector<FeLane> Lanes = planLanes(C);
  const size_t NumCombos = Paths.size() * Lanes.size();
  const ElemFunc Func = G[0].Func;
  // Units come in (bits, scheme) order, so the last one has the widest
  // format: the driving format, whose encodings the group enumerates.
  const Unit &Drive = G[NumUnits - 1];
  const uint64_t Stride = Drive.Stride;
  const FPFormat DriveFmt = FPFormat::withBits(Drive.FormatBits);
  const FPFormat F34 = FPFormat::fp34();
  const unsigned MaxRecords = C.MaxRecordsPerUnit;
  const size_t BlockElems = C.BlockElems ? C.BlockElems : 4096;

  std::vector<GroupFormat> Formats;
  std::vector<EvalScheme> Schemes; // distinct, in first-occurrence order
  std::vector<size_t> UnitScheme(NumUnits); // index into Schemes
  for (size_t UI = 0; UI < NumUnits; ++UI) {
    if (Formats.empty() || Formats.back().Bits != G[UI].FormatBits)
      Formats.push_back(GroupFormat{G[UI].FormatBits,
                                    Drive.FormatBits - G[UI].FormatBits, UI,
                                    UI});
    ++Formats.back().UnitEnd;
    auto It = std::find(Schemes.begin(), Schemes.end(), G[UI].Scheme);
    UnitScheme[UI] = static_cast<size_t>(It - Schemes.begin());
    if (It == Schemes.end())
      Schemes.push_back(G[UI].Scheme);
  }
  const size_t NumSchemes = Schemes.size();

  auto Chunk = [&](size_t Begin, size_t End) {
    const size_t N = End - Begin;
    std::vector<UnitResult> Rs(NumUnits);

    // 1. Driving inputs and the oracle, once per input (default FP
    // environment).
    std::vector<float> In(N);
    std::vector<uint32_t> XB(N);
    for (size_t I = 0; I < N; ++I) {
      uint64_t Enc = (Begin + I) * Stride;
      float X = static_cast<float>(DriveFmt.decode(Enc));
      In[I] = X;
      std::memcpy(&XB[I], &X, 4);
    }
    std::vector<uint64_t> RO(N);
    std::vector<uint8_t> St(N);
    oracle_fast::evalToOdd34Batch(Func, XB.data(), N, RO.data(), St.data());
    std::vector<double> V34(N);
    for (size_t I = 0; I < N; ++I) {
      if (!St[I])
        RO[I] = oracle_cache::evalToOdd34(Func, XB[I], /*AllowFast=*/false);
      V34[I] = F34.decode(RO[I]);
    }

    // 2. H for every (scheme, path, lane), once per input: each scheme's
    // base H, and where every other combination's H bits diverge from it.
    auto evalCombo = [&](EvalScheme S, size_t Combo, double *Out) {
      const PathSpec &P = Paths[Combo / Lanes.size()];
      int FeMode = feLaneMode(Lanes[Combo % Lanes.size()]);
      int Saved = 0;
      if (FeMode >= 0) {
        Saved = std::fegetround();
        std::fesetround(FeMode);
      }
      if (P.Path == EvalPath::ScalarCore) {
        for (size_t I = 0; I < N; ++I)
          Out[I] = evalH(Func, S, In[I]);
      } else if (P.Path == EvalPath::Batch) {
        evalBatchH(P.ISA, Func, S, In.data(), Out, N);
      } else {
        C.Candidate(Func, S, In.data(), Out, N);
      }
      if (FeMode >= 0)
        std::fesetround(Saved);
    };
    std::vector<double> BaseH(NumSchemes * N), H(N);
    std::vector<std::vector<Divergence>> Div(NumSchemes * NumCombos);
    for (size_t SI = 0; SI < NumSchemes; ++SI) {
      double *Base = BaseH.data() + SI * N;
      evalCombo(Schemes[SI], 0, Base);
      for (size_t Co = 1; Co < NumCombos; ++Co) {
        evalCombo(Schemes[SI], Co, H.data());
        for (size_t I = 0; I < N; ++I) {
          uint64_t HB, BB;
          std::memcpy(&HB, &H[I], 8);
          std::memcpy(&BB, &Base[I], 8);
          if (HB != BB)
            Div[SI * NumCombos + Co].push_back({I, H[I]});
        }
      }
    }

    // 3. and 4. per format, on its inputs: every Step-th driving input
    // from First on, the format's K-th input at First + K * Step.
    std::vector<double> Sub(N);
    std::vector<uint64_t> Want(N), Got(N);
    std::vector<uint8_t> BaseBad(N);
    std::vector<std::pair<uint64_t, Mismatch>> Keyed;
    std::vector<size_t> PerCombo(NumCombos);
    uint64_t ScreenMisses = 0;
    for (const GroupFormat &GF : Formats) {
      const uint64_t Step = uint64_t{1} << GF.Shift;
      const size_t First = static_cast<size_t>((Step - Begin % Step) % Step);
      if (First >= N)
        continue;
      const size_t NK = (N - 1 - First) / Step + 1;
      // The screen format FP(k + 2, 8): FP34 at FP(32, 8), where the
      // screen is the RO_34 comparison itself, the unit's one "mode".
      static constexpr RoundingMode RoundToOdd[] = {RoundingMode::ToOdd};
      const bool RO34 = GF.Bits == 32;
      const FPFormat Screen = FPFormat::withBits(GF.Bits + 2);
      const FPFormat Cmp = RO34 ? Screen : FPFormat::withBits(GF.Bits);
      const RoundingMode *Modes = RO34 ? RoundToOdd : StandardRoundingModes;
      const unsigned NumModes = RO34 ? 1 : 5;
      // The format's values of a per-input array (the array itself when
      // the format is the driving one).
      auto gather = [&](const double *All) {
        if (Step == 1)
          return All;
        for (size_t K = 0; K < NK; ++K)
          Sub[K] = All[First + K * Step];
        return static_cast<const double *>(Sub.data());
      };

      // 3. RO_34's screen encodings.
      uint64_t Fast = 0;
      for (size_t K = 0; K < NK; ++K)
        Fast += St[First + K * Step] ? 1 : 0;
      libm::roundBatch(gather(V34.data()), Want.data(), NK, Screen,
                       RoundingMode::ToOdd);

      for (size_t UI = GF.UnitBegin; UI < GF.UnitEnd; ++UI) {
        const size_t SI = UnitScheme[UI];
        UnitResult &R = Rs[UI];
        R.Inputs = NK;
        R.OracleFast = Fast;
        R.OracleExact = NK - Fast;
        R.Comparisons = NK * NumModes * NumCombos;
        Keyed.clear();
        std::fill(PerCombo.begin(), PerCombo.end(), size_t{0});
        // Records keyed by (input, path, lane, mode); each combination's
        // first MaxRecords in that order are all a block can keep.
        auto record = [&](size_t K, uint64_t GotEnc, uint64_t WantEnc,
                          unsigned ModeIdx, size_t Combo) {
          if (PerCombo[Combo]++ >= MaxRecords)
            return;
          const PathSpec &P = Paths[Combo / Lanes.size()];
          Mismatch M;
          M.XBits = XB[First + K * Step];
          M.GotEnc = GotEnc;
          M.WantEnc = WantEnc;
          M.Func = static_cast<uint8_t>(Func);
          M.Scheme = static_cast<uint8_t>(Schemes[SI]);
          M.FormatBits = static_cast<uint8_t>(GF.Bits);
          M.Mode = static_cast<uint8_t>(Modes[ModeIdx]);
          M.Path = static_cast<uint8_t>(P.Path);
          M.ISA = static_cast<uint8_t>(P.ISA);
          M.Lane = static_cast<uint8_t>(Lanes[Combo % Lanes.size()]);
          Keyed.emplace_back((K * NumCombos + Combo) * NumModes + ModeIdx, M);
        };
        // Input K's H missed the screen: compare it mode by mode (at
        // FP(32, 8), the RO_34 "mode" misses again) and record what
        // misrounds for combination Combo.
        auto missed = [&](size_t K, double H, size_t Combo) {
          const double V = V34[First + K * Step];
          unsigned Bad = 0;
          for (unsigned M = 0; M < NumModes; ++M) {
            const uint64_t G = Cmp.roundDouble(H, Modes[M]);
            const uint64_t W = Cmp.roundDouble(V, Modes[M]);
            if (G != W) {
              ++Bad;
              record(K, G, W, M, Combo);
            }
          }
          return Bad;
        };

        // 4. The base combination: one screen comparison per input.
        const double *Hb = BaseH.data() + SI * N;
        libm::roundBatch(gather(Hb), Got.data(), NK, Screen,
                         RoundingMode::ToOdd);
        uint64_t BaseMismatches = 0;
        for (size_t K = 0; K < NK; ++K) {
          uint8_t Bad = 0;
          if (Got[K] != Want[K]) {
            ++ScreenMisses;
            Bad = static_cast<uint8_t>(missed(K, Hb[First + K * Step], 0));
          }
          BaseBad[K] = Bad;
          BaseMismatches += Bad;
        }
        // Every other combination inherits the base verdict, except at
        // the inputs where its H diverged: those get their own screen.
        R.Mismatches = BaseMismatches * NumCombos;
        for (size_t Co = 1; Co < NumCombos; ++Co)
          for (const Divergence &D : Div[SI * NumCombos + Co]) {
            if (D.I < First || (D.I - First) % Step != 0)
              continue;
            const size_t K = (D.I - First) / Step;
            R.Mismatches -= BaseBad[K];
            if (Screen.roundDouble(D.H, RoundingMode::ToOdd) != Want[K])
              R.Mismatches += missed(K, D.H, Co);
          }
        std::sort(Keyed.begin(), Keyed.end(), [](const auto &A, const auto &B) {
          return A.first < B.first;
        });
        const size_t Keep = std::min<size_t>(Keyed.size(), MaxRecords);
        R.Records.reserve(Keep);
        for (size_t J = 0; J < Keep; ++J)
          R.Records.push_back(Keyed[J].second);
      }
    }
    CScreenMisses.add(ScreenMisses);
    return Rs;
  };

  auto Merge = [MaxRecords](std::vector<UnitResult> A,
                            std::vector<UnitResult> B) {
    for (size_t UI = 0; UI < A.size(); ++UI) {
      UnitResult &RA = A[UI];
      const UnitResult &RB = B[UI];
      RA.Inputs += RB.Inputs;
      RA.Comparisons += RB.Comparisons;
      RA.Mismatches += RB.Mismatches;
      RA.OracleFast += RB.OracleFast;
      RA.OracleExact += RB.OracleExact;
      for (const Mismatch &M : RB.Records) {
        if (RA.Records.size() >= MaxRecords)
          break;
        RA.Records.push_back(M);
      }
    }
    return A;
  };

  auto T0 = std::chrono::steady_clock::now();
  std::vector<UnitResult> Rs = parallelReduce<std::vector<UnitResult>>(
      static_cast<size_t>(Drive.NumEncodings),
      std::vector<UnitResult>(NumUnits), Chunk, Merge, C.Threads,
      BlockElems);
  const double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - T0)
                        .count();

  // The driving format's units see every driving input: one oracle query
  // each.
  COracleQueries.add(Rs.back().Inputs);
  uint64_t GroupInputs = 0;
  for (const UnitResult &R : Rs)
    GroupInputs += R.Inputs;
  for (UnitResult &R : Rs) {
    R.Millis = GroupInputs ? Ms * static_cast<double>(R.Inputs) /
                                 static_cast<double>(GroupInputs)
                           : 0.0;
    CInputs.add(R.Inputs);
    CComparisons.add(R.Comparisons);
    CMismatches.add(R.Mismatches);
    COracleFast.add(R.OracleFast);
    COracleExact.add(R.OracleExact);
    CUnits.inc();
    HUnitMs.record(R.Millis);
  }
  return Rs;
}

/// Runs units [Begin, End) of the plan \p Units, whole groups, group by
/// group in plan order.
std::vector<UnitOutcome> runUnits(const SweepConfig &C,
                                  const std::vector<Unit> &Units,
                                  size_t Begin, size_t End,
                                  const UnitCallback &OnUnit) {
  std::vector<UnitOutcome> Out;
  Out.reserve(End - Begin);
  for (size_t B = Begin; B < End;) {
    const size_t E = groupEnd(Units, B);
    assert(E <= End && "a unit range must hold whole groups");
    std::vector<UnitResult> Rs = runGroup(C, &Units[B], E - B);
    for (size_t I = B; I < E; ++I) {
      Out.push_back(UnitOutcome{Units[I], std::move(Rs[I - B]), false});
      if (OnUnit)
        OnUnit(Out.back());
    }
    B = E;
  }
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Whole sweeps
//===----------------------------------------------------------------------===//

void SweepReport::accumulate() {
  Inputs = Comparisons = Mismatches = OracleFast = OracleExact = 0;
  UnitsResumed = 0;
  Millis = 0.0;
  for (const UnitOutcome &O : Units) {
    Inputs += O.R.Inputs;
    Comparisons += O.R.Comparisons;
    Mismatches += O.R.Mismatches;
    OracleFast += O.R.OracleFast;
    OracleExact += O.R.OracleExact;
    Millis += O.R.Millis;
    if (O.Resumed)
      ++UnitsResumed;
  }
}

SweepReport verify::runSweep(const SweepConfig &C,
                             const UnitCallback &OnUnit) {
  SweepReport Report;
  Report.Paths = planPaths(C);
  Report.Lanes = planLanes(C);
  const std::vector<Unit> Units = planUnits(C);
  Report.Units = runUnits(C, Units, 0, Units.size(), OnUnit);
  Report.accumulate();
  return Report;
}

//===----------------------------------------------------------------------===//
// Sharded runs: the unit-block codec for support/ShardFile.h payloads
//===----------------------------------------------------------------------===//

namespace {

template <typename T> void put(std::vector<unsigned char> &Out, T V) {
  size_t At = Out.size();
  Out.resize(At + sizeof(T));
  std::memcpy(Out.data() + At, &V, sizeof(T));
}

struct Cursor {
  const unsigned char *P;
  const unsigned char *End;
  bool Ok = true;

  template <typename T> T get() {
    T V{};
    if (static_cast<size_t>(End - P) < sizeof(T)) {
      Ok = false;
      return V;
    }
    std::memcpy(&V, P, sizeof(T));
    P += sizeof(T);
    return V;
  }
};

/// Serializes one unit outcome: an 80-byte fixed prefix followed by 32
/// packed bytes per mismatch record.
void serializeUnit(const UnitOutcome &U, std::vector<unsigned char> &Out) {
  put<uint32_t>(Out, static_cast<uint32_t>(U.U.Func));
  put<uint32_t>(Out, static_cast<uint32_t>(U.U.Scheme));
  put<uint32_t>(Out, U.U.FormatBits);
  put<uint32_t>(Out, static_cast<uint32_t>(U.R.Records.size()));
  put<uint64_t>(Out, U.U.Stride);
  put<uint64_t>(Out, U.U.NumEncodings);
  put<uint64_t>(Out, U.R.Inputs);
  put<uint64_t>(Out, U.R.Comparisons);
  put<uint64_t>(Out, U.R.Mismatches);
  put<uint64_t>(Out, U.R.OracleFast);
  put<uint64_t>(Out, U.R.OracleExact);
  put<double>(Out, U.R.Millis);
  for (const Mismatch &M : U.R.Records) {
    put<uint32_t>(Out, M.XBits);
    put<uint64_t>(Out, M.GotEnc);
    put<uint64_t>(Out, M.WantEnc);
    unsigned char Tail[12] = {M.Func, M.Scheme, M.FormatBits, M.Mode,
                              M.Path, M.ISA,    M.Lane};
    Out.insert(Out.end(), Tail, Tail + sizeof(Tail));
  }
}

bool deserializeUnit(Cursor &C, UnitOutcome &U) {
  U.U.Func = static_cast<ElemFunc>(C.get<uint32_t>());
  U.U.Scheme = static_cast<EvalScheme>(C.get<uint32_t>());
  U.U.FormatBits = C.get<uint32_t>();
  uint32_t NumRecords = C.get<uint32_t>();
  U.U.Stride = C.get<uint64_t>();
  U.U.NumEncodings = C.get<uint64_t>();
  U.R.Inputs = C.get<uint64_t>();
  U.R.Comparisons = C.get<uint64_t>();
  U.R.Mismatches = C.get<uint64_t>();
  U.R.OracleFast = C.get<uint64_t>();
  U.R.OracleExact = C.get<uint64_t>();
  U.R.Millis = C.get<double>();
  if (!C.Ok || NumRecords > static_cast<size_t>(C.End - C.P) / 32)
    return false;
  U.R.Records.resize(NumRecords);
  for (Mismatch &M : U.R.Records) {
    M.XBits = C.get<uint32_t>();
    M.GotEnc = C.get<uint64_t>();
    M.WantEnc = C.get<uint64_t>();
    M.Func = C.P[0];
    M.Scheme = C.P[1];
    M.FormatBits = C.P[2];
    M.Mode = C.P[3];
    M.Path = C.P[4];
    M.ISA = C.P[5];
    M.Lane = C.P[6];
    C.P += 12;
  }
  U.Resumed = true;
  return C.Ok;
}

/// Loads shard \p K's unit outcomes from disk; false when the shard is
/// missing, fails the ShardFile checks, or does not decode to exactly
/// \p NumUnits outcomes, the units of its groups.
bool loadShard(const shard::ShardSet &Set, unsigned K, size_t NumUnits,
               std::vector<UnitOutcome> &Out) {
  shard::ShardReader R;
  if (!R.open(Set, K))
    return false;
  std::vector<unsigned char> Payload(R.size());
  if (!R.read(Payload.data(), Payload.size()) || !R.finish())
    return false;
  Out.clear();
  Cursor Cur{Payload.data(), Payload.data() + Payload.size()};
  while (Cur.P != Cur.End) {
    Out.emplace_back();
    if (!deserializeUnit(Cur, Out.back()))
      return false;
  }
  return Out.size() == NumUnits;
}

/// The first unit of each group of the plan, then Units.size(): group G
/// holds units [Starts[G], Starts[G + 1]).
std::vector<size_t> groupStarts(const std::vector<Unit> &Units) {
  std::vector<size_t> Starts;
  for (size_t B = 0; B < Units.size(); B = groupEnd(Units, B))
    Starts.push_back(B);
  Starts.push_back(Units.size());
  return Starts;
}

} // namespace

bool verify::runShard(const SweepConfig &C, const ShardOptions &Opts,
                      unsigned K, std::vector<UnitOutcome> &Out,
                      std::string *Err) {
  static const telemetry::Counter CResumed =
      telemetry::counter("verify.units_resumed");

  if (Opts.Dir.empty())
    return fail(Err, "shard directory not set");
  // The shard domain is the plan's groups, so a group's oracle queries
  // and evaluations run once, in one shard, whatever the shard count.
  const std::vector<Unit> Units = planUnits(C);
  const std::vector<size_t> Starts = groupStarts(Units);
  const shard::ShardSet Set{Opts.Dir, "verify",
                            configLine(C, Units, planPaths(C), planLanes(C)),
                            Opts.NumShards, Starts.size() - 1};
  const auto [GroupBegin, GroupEnd] = Set.range(K);
  const size_t Begin = Starts[GroupBegin], End = Starts[GroupEnd];

  // One read: a shard that loads is used as is, any other is recomputed.
  if (Opts.Resume && loadShard(Set, K, End - Begin, Out)) {
    CResumed.add(Out.size());
    return true;
  }

  shard::ShardWriter W;
  if (!W.open(Set, K, Err))
    return false;
  Out = runUnits(C, Units, Begin, End, {});
  std::vector<unsigned char> Payload;
  for (const UnitOutcome &O : Out)
    serializeUnit(O, Payload);
  return W.write(Payload.data(), Payload.size(), Err) && W.finalize(Err);
}

bool verify::runShardedSweep(const SweepConfig &C, const ShardOptions &Opts,
                             SweepReport &Report, std::string *Err) {
  Report = SweepReport();
  Report.Paths = planPaths(C);
  Report.Lanes = planLanes(C);
  for (unsigned K = 0; K < Opts.NumShards; ++K) {
    std::vector<UnitOutcome> Out;
    if (!runShard(C, Opts, K, Out, Err))
      return false;
    for (UnitOutcome &O : Out)
      Report.Units.push_back(std::move(O));
  }
  Report.accumulate();
  return true;
}
