//===- verify/Verify.cpp - Exhaustive multi-format verification -----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit execution strategy. A unit's encoding space is processed in blocks
// of SweepConfig::BlockElems through parallelReduce with that exact chunk
// size, so the partition -- and therefore the merge order of counters and
// capped mismatch records -- is fixed by the configuration, not by the
// thread count. Per block:
//
//   1. Decode the block's encodings to float inputs (every FP(k, 8) value
//      with k <= 32 is exactly a float) and query the oracle once: the
//      certified fast path in batch form, the exact memoized oracle for
//      the leftovers. This happens under the default FP environment --
//      the oracle is the reference, not the thing under test.
//   2. Precompute the wanted encodings from RO_34, one libm::roundBatch
//      per mode: the five standard modes of the unit's format, or, for
//      FP(32, 8), the single FP34 round-to-odd "mode" (RO_34 itself).
//   3. Evaluate the base combination (the first path, default FE lane),
//      round it with one more roundBatch per mode, and run the full
//      comparison per input, remembering how many modes misround per
//      input (BaseBad).
//   4. For every other (path, lane) combination: evaluate, bit-compare H
//      against the base H. Identical bits inherit the base verdict --
//      count the comparisons and BaseBad mismatches without re-rounding.
//      Divergent bits get the full comparison and their own mismatch
//      records.
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

std::vector<ElemFunc> effectiveFuncs(const SweepConfig &C) {
  if (!C.Funcs.empty())
    return C.Funcs;
  return std::vector<ElemFunc>(std::begin(AllElemFuncs),
                               std::end(AllElemFuncs));
}

std::vector<EvalScheme> effectiveSchemes(const SweepConfig &C) {
  if (!C.Schemes.empty())
    return C.Schemes;
  return std::vector<EvalScheme>(std::begin(AllEvalSchemes),
                                 std::end(AllEvalSchemes));
}

/// The canonical one-line identity of a sweep: everything the unit plan,
/// the comparison matrix, and the record selection depend on. The shard
/// manifest stores it verbatim; shard headers pin its hash. Threads are
/// deliberately absent (results are thread-count invariant); BlockElems
/// and the record cap are present because they shape the record lists.
std::string configLine(const SweepConfig &C, const std::vector<Unit> &Units,
                       const std::vector<PathSpec> &Paths,
                       const std::vector<FeLane> &Lanes) {
  std::string L = "v2 funcs=";
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
  L += " block=" + std::to_string(C.BlockElems);
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
  std::vector<Unit> Units;
  for (ElemFunc F : effectiveFuncs(C))
    for (EvalScheme S : effectiveSchemes(C)) {
      if (!C.Candidate && !available(F, S))
        continue;
      for (unsigned Bits = C.MinBits; Bits <= C.MaxBits; ++Bits) {
        Unit U;
        U.Func = F;
        U.Scheme = S;
        U.FormatBits = Bits;
        U.Stride = Bits <= C.ExhaustiveBits ? 1 : (C.Stride ? C.Stride : 1);
        uint64_t Space = 1ull << Bits;
        U.NumEncodings = (Space + U.Stride - 1) / U.Stride;
        Units.push_back(U);
      }
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
// Unit execution
//===----------------------------------------------------------------------===//

UnitResult verify::runUnit(const SweepConfig &C, const Unit &U) {
  static const telemetry::Counter CInputs = telemetry::counter("verify.inputs");
  static const telemetry::Counter CComparisons =
      telemetry::counter("verify.comparisons");
  static const telemetry::Counter CMismatches =
      telemetry::counter("verify.mismatches");
  static const telemetry::Counter COracleFast =
      telemetry::counter("verify.oracle.fast");
  static const telemetry::Counter COracleExact =
      telemetry::counter("verify.oracle.exact");
  static const telemetry::Counter CUnits = telemetry::counter("verify.units");
  static const telemetry::Histogram HUnitMs =
      telemetry::histogram("verify.unit_ms");

  const std::vector<PathSpec> Paths = planPaths(C);
  const std::vector<FeLane> Lanes = planLanes(C);
  const FPFormat Fmt = FPFormat::withBits(U.FormatBits);
  const FPFormat F34 = FPFormat::fp34();
  // FP(32, 8) inputs are exactly the float32 values, so one round-to-odd
  // comparison at 34 bits proves every FP(k <= 32, 8) format in every
  // standard mode (RLIBM-ALL); narrower units compare each standard mode.
  static constexpr RoundingMode RoundToOdd[] = {RoundingMode::ToOdd};
  const bool RO34 = U.FormatBits == 32;
  const FPFormat Cmp = RO34 ? F34 : Fmt;
  const RoundingMode *Modes = RO34 ? RoundToOdd : StandardRoundingModes;
  const unsigned NumModes = RO34 ? 1 : 5;
  const unsigned MaxRecords = C.MaxRecordsPerUnit;
  const size_t BlockElems = C.BlockElems ? C.BlockElems : 4096;

  auto Chunk = [&](size_t Begin, size_t End) -> UnitResult {
    const size_t N = End - Begin;
    UnitResult R;
    R.Inputs = N;

    // 1. Inputs and the oracle (default FP environment).
    std::vector<float> In(N);
    std::vector<uint32_t> XB(N);
    for (size_t I = 0; I < N; ++I) {
      uint64_t Enc = (Begin + I) * U.Stride;
      float X = static_cast<float>(Fmt.decode(Enc));
      In[I] = X;
      std::memcpy(&XB[I], &X, 4);
    }
    std::vector<uint64_t> RO(N);
    std::vector<uint8_t> St(N);
    oracle_fast::evalToOdd34Batch(U.Func, XB.data(), N, RO.data(), St.data());
    for (size_t I = 0; I < N; ++I) {
      if (St[I]) {
        ++R.OracleFast;
      } else {
        RO[I] = oracle_cache::evalToOdd34(U.Func, XB[I], /*AllowFast=*/false);
        ++R.OracleExact;
      }
    }

    // 2. Wanted encodings per mode, mode-major: Want[M * N + I].
    std::vector<double> V34(N);
    for (size_t I = 0; I < N; ++I)
      V34[I] = F34.decode(RO[I]);
    std::vector<uint64_t> Want(N * NumModes);
    for (unsigned M = 0; M < NumModes; ++M)
      libm::roundBatch(V34.data(), Want.data() + M * N, N, Cmp, Modes[M]);

    auto evalCombo = [&](const PathSpec &P, FeLane L, double *Out) {
      int FeMode = feLaneMode(L);
      int Saved = 0;
      if (FeMode >= 0) {
        Saved = std::fegetround();
        std::fesetround(FeMode);
      }
      if (P.Path == EvalPath::ScalarCore) {
        for (size_t I = 0; I < N; ++I)
          Out[I] = evalH(U.Func, U.Scheme, In[I]);
      } else if (P.Path == EvalPath::Batch) {
        evalBatchH(P.ISA, U.Func, U.Scheme, In.data(), Out, N);
      } else {
        C.Candidate(U.Func, U.Scheme, In.data(), Out, N);
      }
      if (FeMode >= 0)
        std::fesetround(Saved);
    };
    auto record = [&](size_t I, uint64_t Got, unsigned ModeIdx,
                      const PathSpec &P, FeLane L) {
      ++R.Mismatches;
      if (R.Records.size() >= MaxRecords)
        return;
      Mismatch M;
      M.XBits = XB[I];
      M.GotEnc = Got;
      M.WantEnc = Want[ModeIdx * N + I];
      M.Func = static_cast<uint8_t>(U.Func);
      M.Scheme = static_cast<uint8_t>(U.Scheme);
      M.FormatBits = static_cast<uint8_t>(U.FormatBits);
      M.Mode = static_cast<uint8_t>(Modes[ModeIdx]);
      M.Path = static_cast<uint8_t>(P.Path);
      M.ISA = static_cast<uint8_t>(P.ISA);
      M.Lane = static_cast<uint8_t>(L);
      R.Records.push_back(M);
    };

    // 3. Base combination: full comparison per input, rounded mode-major
    // like Want and compared in (input, mode) record order.
    std::vector<double> BaseH(N), H(N);
    std::vector<uint8_t> BaseBad(N, 0);
    evalCombo(Paths[0], Lanes[0], BaseH.data());
    std::vector<uint64_t> BaseGot(N * NumModes);
    for (unsigned M = 0; M < NumModes; ++M)
      libm::roundBatch(BaseH.data(), BaseGot.data() + M * N, N, Cmp,
                       Modes[M]);
    for (size_t I = 0; I < N; ++I) {
      for (unsigned M = 0; M < NumModes; ++M) {
        uint64_t Got = BaseGot[M * N + I];
        ++R.Comparisons;
        if (Got != Want[M * N + I]) {
          ++BaseBad[I];
          record(I, Got, M, Paths[0], Lanes[0]);
        }
      }
    }
    // 4. Every other (path, lane): bit-compare against the base H.
    for (size_t PI = 0; PI < Paths.size(); ++PI)
      for (size_t LI = 0; LI < Lanes.size(); ++LI) {
        if (PI == 0 && LI == 0)
          continue;
        evalCombo(Paths[PI], Lanes[LI], H.data());
        for (size_t I = 0; I < N; ++I) {
          uint64_t HB, BB;
          std::memcpy(&HB, &H[I], 8);
          std::memcpy(&BB, &BaseH[I], 8);
          if (HB == BB) {
            // Identical H inherits the base verdict for every mode.
            R.Comparisons += NumModes;
            R.Mismatches += BaseBad[I];
            continue;
          }
          for (unsigned M = 0; M < NumModes; ++M) {
            uint64_t Got = Cmp.roundDouble(H[I], Modes[M]);
            ++R.Comparisons;
            if (Got != Want[M * N + I])
              record(I, Got, M, Paths[PI], Lanes[LI]);
          }
        }
      }
    return R;
  };

  auto Merge = [MaxRecords](UnitResult A, UnitResult B) {
    A.Inputs += B.Inputs;
    A.Comparisons += B.Comparisons;
    A.Mismatches += B.Mismatches;
    A.OracleFast += B.OracleFast;
    A.OracleExact += B.OracleExact;
    for (const Mismatch &M : B.Records) {
      if (A.Records.size() >= MaxRecords)
        break;
      A.Records.push_back(M);
    }
    return A;
  };

  auto T0 = std::chrono::steady_clock::now();
  UnitResult R = parallelReduce<UnitResult>(
      static_cast<size_t>(U.NumEncodings), UnitResult{}, Chunk, Merge,
      C.Threads, BlockElems);
  R.Millis = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T0)
                 .count();

  CInputs.add(R.Inputs);
  CComparisons.add(R.Comparisons);
  CMismatches.add(R.Mismatches);
  COracleFast.add(R.OracleFast);
  COracleExact.add(R.OracleExact);
  CUnits.inc();
  HUnitMs.record(R.Millis);
  return R;
}

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

SweepReport verify::runSweep(const SweepConfig &C) {
  SweepReport Report;
  Report.Paths = planPaths(C);
  Report.Lanes = planLanes(C);
  for (const Unit &U : planUnits(C))
    Report.Units.push_back(UnitOutcome{U, runUnit(C, U), false});
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
/// missing, fails the ShardFile checks, or does not decode to exactly its
/// unit range.
bool loadShard(const shard::ShardSet &Set, unsigned K,
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
  const auto [Begin, End] = Set.range(K);
  return Out.size() == End - Begin;
}

} // namespace

bool verify::runShard(const SweepConfig &C, const ShardOptions &Opts,
                      unsigned K, std::vector<UnitOutcome> &Out,
                      std::string *Err) {
  static const telemetry::Counter CResumed =
      telemetry::counter("verify.units_resumed");

  if (Opts.Dir.empty())
    return fail(Err, "shard directory not set");
  const std::vector<Unit> Units = planUnits(C);
  const shard::ShardSet Set{Opts.Dir, "verify",
                            configLine(C, Units, planPaths(C), planLanes(C)),
                            Opts.NumShards, Units.size()};

  // One read: a shard that loads is used as is, any other is recomputed.
  if (Opts.Resume && loadShard(Set, K, Out)) {
    CResumed.add(Out.size());
    return true;
  }

  shard::ShardWriter W;
  if (!W.open(Set, K, Err))
    return false;
  const auto [Begin, End] = Set.range(K);
  std::vector<unsigned char> Payload;
  Out.clear();
  for (uint64_t I = Begin; I < End; ++I) {
    Out.push_back(UnitOutcome{Units[I], runUnit(C, Units[I]), false});
    serializeUnit(Out.back(), Payload);
  }
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
