//===- tests/VerifyTest.cpp - Verification engine tests -------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The verify engine is the referee of last resort, so it gets its own
// referees: small exhaustive sweeps must come back clean on every path
// and lane, an injected wrong H must be detected with exact counts and
// faithful records (the engine can't be blind), float32 units must make
// one RO_34 comparison per input that catches every per-format misround,
// the round-to-odd screen must give a five-mode referee's counts and
// records exactly, a candidate H source must be swept whatever the
// shipped tables offer, results must be bit-identical across thread
// counts and block sizes, a
// group -- every scheme and exhaustive format of a function -- must share
// one oracle query per input without changing any unit's counts or
// records, and the sharded store must round-trip, reject corruption, and
// resume without changing a single count or record, with every shard
// holding whole groups so that sharding adds no oracle query.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "oracle/Oracle.h"
#include "support/ShardFile.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfenv>
#include <climits>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <tuple>

using namespace rfp;
using namespace rfp::verify;

namespace {

/// Small, fast baseline: two functions, one scheme, the 10/11-bit formats
/// exhaustively. ~3k inputs per unit; whole sweeps finish in milliseconds.
SweepConfig smallConfig() {
  SweepConfig C;
  C.Funcs = {ElemFunc::Exp, ElemFunc::Log2};
  C.Schemes = {EvalScheme::EstrinFMA};
  C.MinBits = 10;
  C.MaxBits = 11;
  return C;
}

uint32_t bitsOf(float X) {
  uint32_t B;
  std::memcpy(&B, &X, sizeof(B));
  return B;
}

/// A candidate H source: the shipped batch kernels, with H scaled by
/// Factor(F, XBits) wherever that is not 1 (mismatch injection).
template <typename FactorFn>
decltype(SweepConfig::Candidate) perturbed(FactorFn Factor) {
  return [Factor](ElemFunc F, EvalScheme S, const float *In, double *H,
                  size_t N) {
    evalBatchH(F, S, In, H, N);
    for (size_t I = 0; I < N; ++I) {
      double K = Factor(F, bitsOf(In[I]));
      if (K != 1.0)
        H[I] *= K;
    }
  };
}

/// Per-test scratch directory, wiped on entry: TempDir() contents survive
/// across runs, and a stale shard set would defeat the resume assertions.
std::string tempDir(const char *Name) {
  std::string Dir = ::testing::TempDir() + "rfp_verify_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

/// One unit's identity, counts, oracle split and records, in order.
void expectSameUnit(const UnitOutcome &A, const UnitOutcome &B, size_t I) {
  EXPECT_EQ(A.U.Func, B.U.Func) << "unit " << I;
  EXPECT_EQ(A.U.Scheme, B.U.Scheme) << "unit " << I;
  EXPECT_EQ(A.U.FormatBits, B.U.FormatBits) << "unit " << I;
  const UnitResult &RA = A.R;
  const UnitResult &RB = B.R;
  EXPECT_EQ(RA.Inputs, RB.Inputs) << "unit " << I;
  EXPECT_EQ(RA.Comparisons, RB.Comparisons) << "unit " << I;
  EXPECT_EQ(RA.Mismatches, RB.Mismatches) << "unit " << I;
  EXPECT_EQ(RA.OracleFast, RB.OracleFast) << "unit " << I;
  EXPECT_EQ(RA.OracleExact, RB.OracleExact) << "unit " << I;
  ASSERT_EQ(RA.Records.size(), RB.Records.size()) << "unit " << I;
  for (size_t J = 0; J < RA.Records.size(); ++J)
    EXPECT_TRUE(RA.Records[J] == RB.Records[J])
        << "unit " << I << " record " << J;
}

void expectSameOutcomes(const SweepReport &A, const SweepReport &B) {
  ASSERT_EQ(A.Units.size(), B.Units.size());
  EXPECT_EQ(A.Inputs, B.Inputs);
  EXPECT_EQ(A.Comparisons, B.Comparisons);
  EXPECT_EQ(A.Mismatches, B.Mismatches);
  for (size_t I = 0; I < A.Units.size(); ++I)
    expectSameUnit(A.Units[I], B.Units[I], I);
}

/// A sweep over every listed scheme must equal one single-scheme sweep
/// per scheme, unit by unit: sharing the oracle across a group must not
/// change what any unit counts or records.
void expectGroupsMatchPerSchemeSweeps(const SweepConfig &C) {
  SweepReport All = runSweep(C);
  ASSERT_FALSE(All.Units.empty());
  size_t Matched = 0;
  for (EvalScheme S : C.Schemes) {
    SweepConfig One = C;
    One.Schemes = {S};
    SweepReport R = runSweep(One);
    size_t J = 0;
    for (size_t I = 0; I < All.Units.size(); ++I) {
      if (All.Units[I].U.Scheme != S)
        continue;
      ASSERT_LT(J, R.Units.size());
      expectSameUnit(All.Units[I], R.Units[J++], I);
    }
    EXPECT_EQ(J, R.Units.size()) << evalSchemeName(S);
    Matched += J;
  }
  EXPECT_EQ(Matched, All.Units.size());
}

/// A candidate that nudges the shipped batch H by a relative 2^-12 ..
/// 2^-40 at inputs chosen per scheme and per FE lane, so the schemes of
/// one function misround on different inputs, and so does every lane: its
/// H diverges from the base H and gets records of its own.
decltype(SweepConfig::Candidate) nudgedPerScheme() {
  return [](ElemFunc F, EvalScheme S, const float *In, double *H, size_t N) {
    evalBatchH(F, S, In, H, N);
    const int Fe = std::fegetround();
    const uint32_t Lane = Fe == FE_TONEAREST ? 0
                          : Fe == FE_UPWARD  ? 1
                          : Fe == FE_DOWNWARD ? 2
                                              : 3;
    for (size_t I = 0; I < N; ++I) {
      const uint32_t XBits =
          bitsOf(In[I]) + static_cast<uint32_t>(S) + 2 * Lane;
      if (XBits % 5 != 2)
        continue;
      int E = 12 + static_cast<int>((XBits >> 3) % 29);
      H[I] *= 1.0 + ((XBits >> 9) & 1 ? -1.0 : 1.0) * std::ldexp(1.0, -E);
    }
  };
}

/// The nudged candidate over FP(10..13), every scheme and FE lane, with
/// three records per unit: the record lists mix (path, lane) combinations
/// and the cap cuts them.
SweepConfig nudgedCrossFormat() {
  SweepConfig C;
  C.Funcs = {ElemFunc::Exp2, ElemFunc::Log};
  C.Schemes.assign(std::begin(AllEvalSchemes), std::end(AllEvalSchemes));
  C.MinBits = 10;
  C.MaxBits = 13;
  C.FeLanes = true;
  C.MaxRecordsPerUnit = 3;
  C.Candidate = nudgedPerScheme();
  return C;
}

TEST(VerifyPlanTest, UnitsCoverTheRequestedMatrix) {
  SweepConfig C;
  C.MinBits = 10;
  C.MaxBits = 12;
  std::vector<Unit> Units = planUnits(C);

  // Every available (func, scheme) pair, times three formats, in (func,
  // bits, scheme) order with no duplicates: a group's units are adjacent.
  size_t Pairs = 0;
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme S : AllEvalSchemes)
      Pairs += available(F, S) ? 1 : 0;
  EXPECT_EQ(Units.size(), Pairs * 3);

  for (size_t I = 0; I < Units.size(); ++I) {
    EXPECT_TRUE(available(Units[I].Func, Units[I].Scheme));
    // Bits 10..12 are all <= ExhaustiveBits: stride 1, full space.
    EXPECT_EQ(Units[I].Stride, 1u);
    EXPECT_EQ(Units[I].NumEncodings, 1ull << Units[I].FormatBits);
    if (I > 0) {
      bool Ordered =
          std::make_tuple(static_cast<int>(Units[I - 1].Func),
                          Units[I - 1].FormatBits,
                          static_cast<int>(Units[I - 1].Scheme)) <
          std::make_tuple(static_cast<int>(Units[I].Func),
                          Units[I].FormatBits,
                          static_cast<int>(Units[I].Scheme));
      EXPECT_TRUE(Ordered) << "unit " << I;
    }
  }
}

TEST(VerifyPlanTest, RepeatedNamesPlanEachVariantOnce) {
  SweepConfig Once;
  Once.Funcs = {ElemFunc::Exp2, ElemFunc::Log};
  Once.Schemes = {EvalScheme::Horner, EvalScheme::Estrin};
  Once.MaxBits = 10;
  SweepConfig Twice = Once;
  Twice.Funcs = {ElemFunc::Exp2, ElemFunc::Log, ElemFunc::Exp2};
  Twice.Schemes = {EvalScheme::Horner, EvalScheme::Horner,
                   EvalScheme::Estrin};

  std::vector<Unit> A = planUnits(Once), B = planUnits(Twice);
  ASSERT_EQ(A.size(), 4u); // 2 funcs x 2 schemes x 1 format
  ASSERT_EQ(B.size(), A.size());
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].Func, B[I].Func) << "unit " << I;
    EXPECT_EQ(A[I].Scheme, B[I].Scheme) << "unit " << I;
    EXPECT_EQ(A[I].FormatBits, B[I].FormatBits) << "unit " << I;
  }
  SweepReport R = runSweep(Twice);
  EXPECT_EQ(R.Inputs, 4u * 1024);

  // The config line sees each variant once too: a shard set written for
  // one spelling is the same sweep for the other.
  std::string Dir = tempDir("repeated");
  ShardOptions Opts;
  Opts.Dir = Dir;
  std::vector<UnitOutcome> Out;
  std::string Err;
  ASSERT_TRUE(runShard(Twice, Opts, 0, Out, &Err)) << Err;
  Opts.Resume = true;
  ASSERT_TRUE(runShard(Once, Opts, 0, Out, &Err)) << Err;
  ASSERT_EQ(Out.size(), A.size());
  for (const UnitOutcome &O : Out)
    EXPECT_TRUE(O.Resumed);
  std::filesystem::remove_all(Dir);
}

TEST(VerifyPlanTest, StridedUnitsCeilTheirEncodingSpace) {
  SweepConfig C = smallConfig();
  C.MinBits = 32;
  C.MaxBits = 32;
  C.Stride = 1000003;
  for (const Unit &U : planUnits(C)) {
    EXPECT_EQ(U.Stride, C.Stride);
    EXPECT_EQ(U.NumEncodings, ((1ull << 32) + C.Stride - 1) / C.Stride);
  }
}

TEST(VerifyPlanTest, PathsAndLanes) {
  SweepConfig C = smallConfig();
  std::vector<PathSpec> Paths = planPaths(C);
  ASSERT_GE(Paths.size(), 2u);
  EXPECT_EQ(Paths[0].Path, EvalPath::ScalarCore);
  EXPECT_EQ(Paths[1].Path, EvalPath::Batch);
  EXPECT_EQ(Paths[1].ISA, libm::activeBatchISA());
  EXPECT_EQ(planLanes(C).size(), 1u);

  C.AllISAs = true;
  C.FeLanes = true;
  EXPECT_EQ(planPaths(C).size(), 1 + std::size(libm::AllBatchISAs));
  EXPECT_EQ(planLanes(C).size(), 4u);
}

TEST(VerifyTest, SmallExhaustiveSweepIsClean) {
  SweepConfig C = smallConfig();
  SweepReport R = runSweep(C);

  EXPECT_EQ(R.Mismatches, 0u);
  ASSERT_EQ(R.Units.size(), 4u); // 2 funcs x 2 formats
  uint64_t WantInputs = 2 * (1024 + 2048);
  EXPECT_EQ(R.Inputs, WantInputs);
  // Every (path, lane) combo proves all five modes per input, whether it
  // ran the rounded comparisons directly or inherited them bitwise.
  uint64_t Combos = R.Paths.size() * R.Lanes.size();
  EXPECT_EQ(R.Comparisons, WantInputs * 5 * Combos);
  EXPECT_EQ(R.OracleFast + R.OracleExact, WantInputs);
  for (const UnitOutcome &U : R.Units) {
    EXPECT_FALSE(U.Resumed);
    EXPECT_TRUE(U.R.Records.empty());
  }
}

TEST(VerifyTest, FeLanesAndAllISAsStayClean) {
  // The full matrix on a tiny format: every compiled ISA (unsupported
  // ones legally fall back to scalar) under every dynamic rounding mode.
  SweepConfig C = smallConfig();
  C.MaxBits = 10;
  C.AllISAs = true;
  C.FeLanes = true;
  SweepReport R = runSweep(C);
  EXPECT_EQ(R.Mismatches, 0u);
  EXPECT_EQ(R.Lanes.size(), 4u);
  EXPECT_EQ(R.Comparisons,
            R.Inputs * 5 * R.Paths.size() * R.Lanes.size());
}

TEST(VerifyTest, InjectedWrongHIsDetectedAcrossTheWholeMatrix) {
  // Perturb H for exactly one input of one function. The candidate is the
  // sweep's only path, and its perturbation applies identically under
  // every FE lane, so each lane's H bits match the base combo's: the
  // engine's transitive accounting must charge every (path, lane) combo
  // for the five misrounds while recording only the base combo's entries
  // (records from other combos would mean a *divergence*, which an
  // identical perturbation cannot produce).
  SweepConfig C = smallConfig();
  C.FeLanes = true;
  const uint32_t BadBits = bitsOf(0.25f);
  C.Candidate = perturbed([BadBits](ElemFunc F, uint32_t XBits) {
    return (F == ElemFunc::Exp && XBits == BadBits) ? 1.5 : 1.0;
  });
  SweepReport R = runSweep(C);

  uint64_t Combos = R.Paths.size() * R.Lanes.size();
  EXPECT_EQ(Combos, 4u); // the candidate path x 4 lanes
  // 0.25f is representable in both formats; H*1.5 misrounds in all five
  // modes (exp(0.25) ~ 1.284, H*1.5 ~ 1.93 -- a different value entirely).
  EXPECT_EQ(R.Mismatches, 2 * 5 * Combos);
  ASSERT_FALSE(R.Units.empty());
  for (const UnitOutcome &U : R.Units) {
    if (U.U.Func != ElemFunc::Exp) {
      EXPECT_EQ(U.R.Mismatches, 0u);
      continue;
    }
    EXPECT_EQ(U.R.Mismatches, 5 * Combos);
    EXPECT_EQ(U.R.Records.size(), 5u);
    for (const Mismatch &M : U.R.Records) {
      EXPECT_EQ(M.XBits, BadBits);
      EXPECT_EQ(M.Func, static_cast<uint8_t>(ElemFunc::Exp));
      EXPECT_EQ(M.FormatBits, U.U.FormatBits);
      EXPECT_NE(M.GotEnc, M.WantEnc);
      EXPECT_EQ(M.Path, static_cast<uint8_t>(EvalPath::Candidate));
      EXPECT_EQ(M.Lane, static_cast<uint8_t>(FeLane::Default));
    }
    // All five modes show up exactly once.
    uint32_t ModeMask = 0;
    for (const Mismatch &M : U.R.Records)
      ModeMask |= 1u << M.Mode;
    EXPECT_EQ(ModeMask, 0x1Fu);
  }
}

TEST(VerifyTest, RecordCapBoundsRecordsButNotCounts) {
  SweepConfig C = smallConfig();
  C.Funcs = {ElemFunc::Exp};
  C.MaxBits = 10;
  C.MaxRecordsPerUnit = 3;
  // Break every positive input.
  C.Candidate = perturbed([](ElemFunc, uint32_t XBits) {
    return (XBits & 0x80000000u) == 0 && XBits != 0 ? 2.0 : 1.0;
  });
  SweepReport R = runSweep(C);
  ASSERT_EQ(R.Units.size(), 1u);
  EXPECT_EQ(R.Units[0].R.Records.size(), 3u);
  EXPECT_GT(R.Units[0].R.Mismatches, 1000u);
}

TEST(VerifyTest, ThreadCountInvariant) {
  SweepConfig C = smallConfig();
  C.BlockElems = 256; // force many blocks even on the 10-bit format
  // An injected mismatch stresses record-order determinism too.
  C.Candidate = perturbed([](ElemFunc, uint32_t XBits) {
    return XBits % 97 == 13 ? 4.0 : 1.0;
  });
  C.Threads = 1;
  SweepReport R1 = runSweep(C);
  C.Threads = 4;
  SweepReport R4 = runSweep(C);
  EXPECT_GT(R1.Mismatches, 0u);
  expectSameOutcomes(R1, R4);
}

TEST(VerifyTest, Float32UnitsCompareRO34OncePerInput) {
  // Shipped tables: one comparison per input per (path, lane) combo.
  SweepConfig C = smallConfig();
  C.Funcs = {ElemFunc::Exp};
  C.MinBits = C.MaxBits = 32;
  C.Stride = 1000003;
  SweepReport R = runSweep(C);
  ASSERT_EQ(R.Units.size(), 1u);
  EXPECT_EQ(R.Inputs, ((1ull << 32) + C.Stride - 1) / C.Stride);
  EXPECT_EQ(R.Comparisons, R.Inputs * R.Paths.size() * R.Lanes.size());

  // An injected misround is charged once per combo and recorded once, as
  // round-to-odd with FP34 encodings.
  const uint32_t BadBits = static_cast<uint32_t>(1000 * C.Stride);
  C.FeLanes = true;
  C.Candidate = perturbed([BadBits](ElemFunc, uint32_t XBits) {
    return XBits == BadBits ? 1.5 : 1.0;
  });
  R = runSweep(C);
  ASSERT_EQ(R.Units.size(), 1u);
  EXPECT_EQ(R.Comparisons, R.Inputs * 4); // the candidate path x 4 lanes
  EXPECT_EQ(R.Mismatches, 4u);
  ASSERT_EQ(R.Units[0].R.Records.size(), 1u);
  const Mismatch &M = R.Units[0].R.Records[0];
  EXPECT_EQ(M.XBits, BadBits);
  EXPECT_EQ(M.FormatBits, 32u);
  EXPECT_EQ(M.Mode, static_cast<uint8_t>(RoundingMode::ToOdd));
  EXPECT_EQ(M.Path, static_cast<uint8_t>(EvalPath::Candidate));
  EXPECT_EQ(M.Lane, static_cast<uint8_t>(FeLane::Default));
  float X;
  std::memcpy(&X, &BadBits, sizeof(X));
  const FPFormat F34 = FPFormat::fp34();
  EXPECT_EQ(M.GotEnc,
            F34.roundDouble(evalH(ElemFunc::Exp, EvalScheme::EstrinFMA, X) *
                                1.5,
                            RoundingMode::ToOdd));
  EXPECT_EQ(M.WantEnc,
            Oracle::eval(ElemFunc::Exp, X, F34, RoundingMode::ToOdd));
}

TEST(VerifyTest, RO34RecordsCoverEveryPerFormatMisround) {
  // The RO_34 rule's differential referee. A candidate nudges H by a
  // relative 2^-12 .. 2^-40 at a fixed subset of a strided float32 slice.
  // The test finds on its own every nudged input that misrounds at some
  // FP(k, 8), k in {10, 16, 24, 32}, in some standard mode -- against the
  // exact oracle's RO_34 -- and each must be among the float32 unit's
  // records.
  const ElemFunc F = ElemFunc::Exp2;
  const EvalScheme S = EvalScheme::EstrinFMA;
  auto Nudge = [](uint32_t XBits) { // relative nudge; 0 = untouched
    if (XBits % 5 != 2)
      return 0.0;
    int E = 12 + static_cast<int>((XBits >> 3) % 29);
    return ((XBits >> 9) & 1 ? -1.0 : 1.0) * std::ldexp(1.0, -E);
  };
  SweepConfig C;
  C.Funcs = {F};
  C.Schemes = {S};
  C.MinBits = C.MaxBits = 32;
  C.Stride = 1000003;
  C.MaxRecordsPerUnit = UINT_MAX;
  C.Candidate = perturbed(
      [&](ElemFunc, uint32_t XBits) { return 1.0 + Nudge(XBits); });
  SweepReport R = runSweep(C);
  ASSERT_EQ(R.Units.size(), 1u);
  std::set<uint32_t> Flagged;
  for (const Mismatch &M : R.Units[0].R.Records)
    Flagged.insert(M.XBits);

  const FPFormat F34 = FPFormat::fp34();
  unsigned Misrounded = 0;
  for (uint64_t Idx = 0; Idx < R.Units[0].U.NumEncodings; ++Idx) {
    const uint32_t XBits = static_cast<uint32_t>(Idx * C.Stride);
    float X;
    std::memcpy(&X, &XBits, sizeof(X));
    if (Nudge(XBits) == 0.0 || std::isnan(X))
      continue;
    const double H = evalH(F, S, X) * (1.0 + Nudge(XBits));
    const double RO = F34.decode(Oracle::eval(F, X, F34, RoundingMode::ToOdd));
    bool Wrong = false;
    for (unsigned K : {10u, 16u, 24u, 32u}) {
      const FPFormat Fmt = FPFormat::withBits(K);
      for (RoundingMode M : StandardRoundingModes)
        Wrong |= Fmt.roundDouble(H, M) != Fmt.roundDouble(RO, M);
    }
    if (!Wrong)
      continue;
    ++Misrounded;
    EXPECT_EQ(Flagged.count(XBits), 1u) << std::hex << "x=0x" << XBits;
  }
  EXPECT_GT(Misrounded, 0u);
}

TEST(VerifyTest, SharedOracleMatchesPerSchemeSweeps) {
  // Shipped tables, every function and scheme, the widest matrix.
  SweepConfig C;
  C.Schemes.assign(std::begin(AllEvalSchemes), std::end(AllEvalSchemes));
  C.MinBits = 10;
  C.MaxBits = 12;
  C.AllISAs = true;
  C.FeLanes = true;
  expectGroupsMatchPerSchemeSweeps(C);

  // A candidate whose schemes misround on different inputs, under every
  // FE lane, so each scheme's inherited verdicts and records differ from
  // its neighbours'.
  SweepConfig N;
  N.Funcs = {ElemFunc::Exp2, ElemFunc::Log};
  N.Schemes = C.Schemes;
  N.MinBits = N.MaxBits = 32;
  N.Stride = 1000003;
  N.FeLanes = true;
  N.MaxRecordsPerUnit = UINT_MAX;
  N.Candidate = nudgedPerScheme();
  SweepReport R = runSweep(N);
  ASSERT_EQ(R.Units.size(), 8u);
  for (const UnitOutcome &U : R.Units)
    EXPECT_GT(U.R.Mismatches, 0u) << evalSchemeName(U.U.Scheme);
  expectGroupsMatchPerSchemeSweeps(N);

  // The same at the five-mode formats, on one block per unit.
  N.MinBits = 10;
  N.MaxBits = 11;
  N.Stride = 1;
  expectGroupsMatchPerSchemeSweeps(N);
}

TEST(VerifyTest, CrossFormatGroupMatchesPerFormatSweeps) {
  // One group per function enumerates FP(13) and hands each narrower
  // format its nested inputs. Every unit, records included, must equal
  // the same unit swept in a single-format sweep.
  const SweepConfig C = nudgedCrossFormat();
  SweepReport All = runSweep(C);
  ASSERT_EQ(All.Units.size(), 2u * 4 * 4);
  // Every format misrounds, and the capped lists mix the base
  // combination's records with the other lanes'.
  std::set<unsigned> Misrounding;
  unsigned BaseRecords = 0, LaneRecords = 0;
  for (const UnitOutcome &U : All.Units) {
    if (U.R.Mismatches > 0)
      Misrounding.insert(U.U.FormatBits);
    for (const Mismatch &M : U.R.Records)
      ++(M.Lane == static_cast<uint8_t>(FeLane::Default) ? BaseRecords
                                                         : LaneRecords);
  }
  EXPECT_EQ(Misrounding.size(), 4u);
  EXPECT_GT(BaseRecords, 0u);
  EXPECT_GT(LaneRecords, 0u);
  // A unit's Millis is its group's wall-clock in proportion to its
  // inputs: the same per input across a function's units.
  std::map<ElemFunc, double> MsPerInput;
  for (const UnitOutcome &U : All.Units) {
    const double PerInput = U.R.Millis / static_cast<double>(U.R.Inputs);
    const double First = MsPerInput.emplace(U.U.Func, PerInput).first->second;
    EXPECT_NEAR(PerInput, First, 1e-9 * First);
  }

  size_t Matched = 0;
  for (unsigned K = C.MinBits; K <= C.MaxBits; ++K) {
    SweepConfig One = C;
    One.MinBits = One.MaxBits = K;
    SweepReport R = runSweep(One);
    size_t J = 0;
    for (size_t I = 0; I < All.Units.size(); ++I) {
      if (All.Units[I].U.FormatBits != K)
        continue;
      ASSERT_LT(J, R.Units.size());
      expectSameUnit(All.Units[I], R.Units[J++], I);
    }
    EXPECT_EQ(J, R.Units.size()) << "fp" << K;
    Matched += J;
  }
  EXPECT_EQ(Matched, All.Units.size());
}

TEST(VerifyTest, ScreenedSweepMatchesFiveModeReferee) {
  // The engine screens each (unit, input) with one round-to-odd comparison
  // at FP(k + 2, 8) and compares the five modes only where that misses.
  // The referee here compares all five modes at every input itself, with
  // FPFormat::roundDouble of the candidate's H under each lane and of the
  // exact oracle's RO_34, and the engine must match its counts and
  // records exactly.
  //
  // RO at FP(k + 2) tells apart an FP(k) value, the open lower half of its
  // cell, the midpoint and the open upper half; the five modes tell apart
  // all of these but the midpoint and the upper half when the tie goes up.
  // So besides the nudges, which misround wherever they miss, some inputs
  // get an H exactly on the midpoint of its FP(13) cell when H lies above
  // it and the upper end is even: at FP(13) that H misses the screen but
  // rounds like RO_34 in all five modes, the fallback's clean branch.
  SweepConfig C = nudgedCrossFormat();
  C.MaxRecordsPerUnit = UINT_MAX;
  C.Candidate = [Nudged = C.Candidate](ElemFunc F, EvalScheme S,
                                       const float *In, double *H, size_t N) {
    Nudged(F, S, In, H, N);
    const FPFormat F13 = FPFormat::withBits(13);
    for (size_t I = 0; I < N; ++I) {
      if (bitsOf(In[I]) % 3 != 1 || !(H[I] > 0) || std::isinf(H[I]))
        continue;
      const uint64_t Lo = F13.roundDouble(H[I], RoundingMode::TowardZero);
      const uint64_t Hi = F13.roundDouble(H[I], RoundingMode::Upward);
      const double Mid = (F13.decode(Lo) + F13.decode(Hi)) / 2;
      if (Hi % 2 == 0 && F13.isFinite(Hi) && H[I] > Mid)
        H[I] = Mid;
    }
  };
  const uint64_t Misses0 = telemetry::counterValue("verify.screen_misses");
  const SweepReport R = runSweep(C);
  const uint64_t ScreenMisses =
      telemetry::counterValue("verify.screen_misses") - Misses0;
  const std::vector<FeLane> Lanes = planLanes(C);
  ASSERT_EQ(R.Units.size(), 2u * 4 * 4);

  const FPFormat F34 = FPFormat::fp34();
  std::map<std::pair<ElemFunc, uint32_t>, double> RO34;
  uint64_t BaseMisrounding = 0; // (unit, input) pairs, default lane
  for (const UnitOutcome &O : R.Units) {
    const Unit &U = O.U;
    const FPFormat Fmt = FPFormat::withBits(U.FormatBits);
    std::vector<float> In(U.NumEncodings);
    for (uint64_t E = 0; E < U.NumEncodings; ++E)
      In[E] = static_cast<float>(Fmt.decode(E));
    std::vector<std::vector<double>> H(Lanes.size(),
                                       std::vector<double>(In.size()));
    for (size_t L = 0; L < Lanes.size(); ++L) {
      const int Fe = feLaneMode(Lanes[L]);
      if (Fe >= 0)
        std::fesetround(Fe);
      C.Candidate(U.Func, U.Scheme, In.data(), H[L].data(), In.size());
      std::fesetround(FE_TONEAREST);
    }

    uint64_t Mismatches = 0;
    std::vector<Mismatch> Records;
    for (size_t I = 0; I < In.size(); ++I) {
      const uint32_t XBits = bitsOf(In[I]);
      auto [It, New] = RO34.try_emplace({U.Func, XBits}, 0.0);
      if (New)
        It->second = F34.decode(
            Oracle::eval(U.Func, In[I], F34, RoundingMode::ToOdd));
      bool BaseWrong = false;
      for (size_t L = 0; L < Lanes.size(); ++L)
        for (RoundingMode M : StandardRoundingModes) {
          const uint64_t Got = Fmt.roundDouble(H[L][I], M);
          const uint64_t Want = Fmt.roundDouble(It->second, M);
          if (Got == Want)
            continue;
          ++Mismatches;
          BaseWrong |= L == 0;
          Mismatch Rec;
          Rec.XBits = XBits;
          Rec.GotEnc = Got;
          Rec.WantEnc = Want;
          Rec.Func = static_cast<uint8_t>(U.Func);
          Rec.Scheme = static_cast<uint8_t>(U.Scheme);
          Rec.FormatBits = static_cast<uint8_t>(U.FormatBits);
          Rec.Mode = static_cast<uint8_t>(M);
          Rec.Path = static_cast<uint8_t>(EvalPath::Candidate);
          Rec.ISA = static_cast<uint8_t>(libm::BatchISA::Scalar);
          Rec.Lane = static_cast<uint8_t>(Lanes[L]);
          Records.push_back(Rec);
        }
      BaseMisrounding += BaseWrong ? 1 : 0;
    }

    const UnitResult &Got = O.R;
    const std::string Name = std::string(elemFuncName(U.Func)) + "/" +
                             evalSchemeName(U.Scheme) + " fp" +
                             std::to_string(U.FormatBits);
    EXPECT_EQ(Got.Inputs, In.size()) << Name;
    EXPECT_EQ(Got.Comparisons, In.size() * 5 * Lanes.size()) << Name;
    EXPECT_EQ(Got.Mismatches, Mismatches) << Name;
    ASSERT_EQ(Got.Records.size(), Records.size()) << Name;
    for (size_t J = 0; J < Records.size(); ++J)
      EXPECT_TRUE(Got.Records[J] == Records[J]) << Name << " record " << J;
  }
  // Some inputs miss the screen yet round correctly in all five modes, so
  // the five-mode fallback's clean branch ran.
  EXPECT_GT(BaseMisrounding, 0u);
  EXPECT_GT(ScreenMisses, BaseMisrounding);
}

TEST(VerifyTest, RecordsDoNotDependOnBlockElems) {
  // Records are the first MaxRecordsPerUnit in (input, path, lane, mode)
  // order, whatever the blocks: 64-element blocks give FP(10) eight inputs
  // per block of its FP(13) group, 4096-element ones 512, 100-element
  // ones start FP(10)'s inputs at varying offsets into a block, and
  // 5-element ones leave some blocks without an FP(10) input (and make
  // more chunks than one parallelReduce wave).
  SweepConfig C = nudgedCrossFormat();
  C.BlockElems = 4096;
  SweepReport Large = runSweep(C);
  EXPECT_GT(Large.Mismatches, 0u);
  for (size_t Elems : {5u, 64u, 100u}) {
    C.BlockElems = Elems;
    expectSameOutcomes(runSweep(C), Large);
  }
}

TEST(VerifyTest, OracleQueriedOncePerFunctionInput) {
  SweepConfig C = smallConfig();
  C.Schemes.assign(std::begin(AllEvalSchemes), std::end(AllEvalSchemes));
  C.AllISAs = true;
  auto Count = [](const char *Name) { return telemetry::counterValue(Name); };
  const uint64_t Queries0 = Count("verify.oracle.queries");
  const uint64_t Fast0 = Count("oracle.fast.accepts") +
                         Count("oracle.fast.fallbacks") +
                         Count("oracle.fast.rejects");
  const uint64_t Accepts0 = Count("oracle.fast.accepts");
  const uint64_t Exact0 = Count("oracle.cache.hits") +
                          Count("oracle.cache.misses");
  SweepReport R = runSweep(C);

  // Two functions x 2048 FP(11) encodings, whatever the four schemes:
  // FP(10)'s inputs are every other FP(11) input.
  const uint64_t Distinct = 2 * 2048;
  ASSERT_EQ(R.Units.size(), 2u * 2 * 4);
  EXPECT_EQ(R.Inputs, 4 * 2 * (1024 + 2048));
  EXPECT_EQ(Count("verify.oracle.queries") - Queries0, Distinct);
  // The fast batch sees each query once; the exact oracle only those it
  // declines, once each.
  const uint64_t Fast = Count("oracle.fast.accepts") +
                        Count("oracle.fast.fallbacks") +
                        Count("oracle.fast.rejects") - Fast0;
  const uint64_t Accepted = Count("oracle.fast.accepts") - Accepts0;
  EXPECT_EQ(Fast, Distinct);
  EXPECT_EQ(Count("oracle.cache.hits") + Count("oracle.cache.misses") -
                Exact0,
            Distinct - Accepted);
  // Each unit's split still covers its own inputs, and one scheme's FP(11)
  // units, which see every query, split them as the fast oracle did.
  uint64_t DrivingFast = 0;
  for (const UnitOutcome &U : R.Units) {
    EXPECT_EQ(U.R.OracleFast + U.R.OracleExact, U.R.Inputs);
    if (U.U.FormatBits == 11 && U.U.Scheme == C.Schemes[0])
      DrivingFast += U.R.OracleFast;
  }
  EXPECT_EQ(DrivingFast, Accepted);
}

TEST(VerifyTest, CandidateSweepsAVariantTheShippedTablesLack) {
  // log10/Knuth ships unavailable, so the shipped-table plan omits it. A
  // candidate listed for it is swept (log10's Estrin+FMA kernels stand in
  // for a Knuth table here).
  SweepConfig C = smallConfig();
  C.Funcs = {ElemFunc::Log10};
  C.Schemes = {EvalScheme::Knuth};
  ASSERT_FALSE(available(ElemFunc::Log10, EvalScheme::Knuth));
  EXPECT_TRUE(planUnits(C).empty());

  C.Candidate = [](ElemFunc F, EvalScheme, const float *In, double *H,
                   size_t N) {
    evalBatchH(F, EvalScheme::EstrinFMA, In, H, N);
  };
  SweepReport R = runSweep(C);
  ASSERT_EQ(R.Units.size(), 2u); // 10- and 11-bit formats
  for (const UnitOutcome &U : R.Units)
    EXPECT_EQ(U.U.Scheme, EvalScheme::Knuth);
  ASSERT_EQ(R.Paths.size(), 1u);
  EXPECT_EQ(pathSpecName(R.Paths[0]), "candidate");
  EXPECT_EQ(R.Inputs, 1024u + 2048u);
  EXPECT_EQ(R.Comparisons, R.Inputs * 5);
  EXPECT_EQ(R.Mismatches, 0u);
}

TEST(VerifyStoreTest, ShardRoundTripAndCorruptionRejection) {
  SweepConfig C = smallConfig();
  std::string Dir = tempDir("roundtrip");
  ShardOptions Opts;
  Opts.Dir = Dir;
  Opts.NumShards = 3;

  std::string Err;
  std::vector<UnitOutcome> Written;
  ASSERT_TRUE(runShard(C, Opts, 1, Written, &Err)) << Err;

  // Reconstruct the identity the engine stored (the manifest holds the
  // config line and the domain, the plan's group count).
  shard::ShardSet Set{Dir, "verify", "", 3, 0};
  {
    std::ifstream In(Set.manifestPath());
    std::string Tag, Ver, Line;
    In >> Tag >> Ver;
    std::getline(In, Line); // rest of the version line
    std::getline(In, Line); // "config <line>"
    ASSERT_EQ(Line.rfind("config ", 0), 0u);
    Set.ConfigLine = Line.substr(7);
    std::string Key;
    unsigned Shards = 0;
    In >> Key >> Shards >> Key >> Set.DomainSize;
    ASSERT_EQ(Key, "domain");
    ASSERT_EQ(Shards, 3u);
  }
  // smallConfig's two functions sweep exhaustive formats: one group each.
  EXPECT_EQ(Set.DomainSize, 2u);
  ASSERT_FALSE(Written.empty());
  ASSERT_TRUE(shard::shardValid(Set, 1));

  // Resume loads the shard back instead of recomputing it.
  Opts.Resume = true;
  std::vector<UnitOutcome> Read;
  ASSERT_TRUE(runShard(C, Opts, 1, Read, &Err)) << Err;
  ASSERT_EQ(Read.size(), Written.size());
  for (size_t I = 0; I < Read.size(); ++I) {
    EXPECT_EQ(Read[I].U.FormatBits, Written[I].U.FormatBits);
    EXPECT_EQ(Read[I].R.Inputs, Written[I].R.Inputs);
    EXPECT_EQ(Read[I].R.Comparisons, Written[I].R.Comparisons);
    EXPECT_TRUE(Read[I].Resumed);
  }

  // A wrong identity is rejected before any byte is trusted.
  shard::ShardSet Wrong = Set;
  Wrong.ConfigLine += " x";
  EXPECT_FALSE(shard::shardValid(Wrong, 1));

  // Flip one payload byte: the checksum must catch it, and resume
  // recomputes the shard instead of loading it.
  {
    std::fstream F(Set.shardPath(1),
                   std::ios::in | std::ios::out | std::ios::binary);
    F.seekp(-5, std::ios::end);
    char B;
    F.seekg(F.tellp());
    F.read(&B, 1);
    F.seekp(-5, std::ios::end);
    B ^= 0x40;
    F.write(&B, 1);
  }
  EXPECT_FALSE(shard::shardValid(Set, 1));
  std::vector<UnitOutcome> Again;
  ASSERT_TRUE(runShard(C, Opts, 1, Again, &Err)) << Err;
  ASSERT_EQ(Again.size(), Written.size());
  for (const UnitOutcome &U : Again)
    EXPECT_FALSE(U.Resumed);
  EXPECT_TRUE(shard::shardValid(Set, 1));
  std::filesystem::remove_all(Dir);
}

TEST(VerifyStoreTest, ManifestPinsTheConfiguration) {
  SweepConfig C = smallConfig();
  std::string Dir = tempDir("pin");
  ShardOptions Opts;
  Opts.Dir = Dir;
  Opts.NumShards = 2;
  std::vector<UnitOutcome> Out;
  std::string Err;
  ASSERT_TRUE(runShard(C, Opts, 0, Out, &Err)) << Err;

  // Same directory, different sweep: refused, not silently mixed.
  SweepConfig Other = C;
  Other.Funcs = {ElemFunc::Log10};
  Err.clear();
  EXPECT_FALSE(runShard(Other, Opts, 0, Out, &Err));
  EXPECT_NE(Err.find("manifest"), std::string::npos) << Err;
  std::filesystem::remove_all(Dir);
}

TEST(VerifyStoreTest, ResumeAfterKillIsBitIdentical) {
  SweepConfig C = smallConfig();
  SweepReport Ref = runSweep(C);

  std::string Dir = tempDir("resume");
  ShardOptions Opts;
  Opts.Dir = Dir;
  Opts.NumShards = 4;

  // "Killed run": only shards 0 and 2 completed.
  std::vector<UnitOutcome> Out;
  std::string Err;
  ASSERT_TRUE(runShard(C, Opts, 0, Out, &Err)) << Err;
  ASSERT_TRUE(runShard(C, Opts, 2, Out, &Err)) << Err;
  // Shard 3's write died mid-flight: junk under a temporary name only.
  { std::ofstream(Dir + "/verify.shard3of4.bin.tmp") << "junk"; }

  Opts.Resume = true;
  SweepReport R;
  ASSERT_TRUE(runShardedSweep(C, Opts, R, &Err)) << Err;
  unsigned Resumed = 0;
  for (const UnitOutcome &U : R.Units)
    Resumed += U.Resumed ? 1 : 0;
  EXPECT_GT(Resumed, 0u);
  EXPECT_LT(Resumed, R.Units.size());
  EXPECT_EQ(R.UnitsResumed, Resumed);
  expectSameOutcomes(Ref, R);

  // A second resume loads everything.
  SweepReport R2;
  ASSERT_TRUE(runShardedSweep(C, Opts, R2, &Err)) << Err;
  EXPECT_EQ(R2.UnitsResumed, R2.Units.size());
  expectSameOutcomes(Ref, R2);
  std::filesystem::remove_all(Dir);
}

TEST(VerifyStoreTest, ShardedSweepMatchesInProcessSweep) {
  // Records survive persistence bit-for-bit, in order.
  SweepConfig C = smallConfig();
  C.Candidate = perturbed([](ElemFunc, uint32_t XBits) {
    return XBits % 211 == 5 ? 3.0 : 1.0;
  });
  SweepReport Ref = runSweep(C);
  ASSERT_GT(Ref.Mismatches, 0u);

  std::string Dir = tempDir("parity");
  ShardOptions Opts;
  Opts.Dir = Dir;
  Opts.NumShards = 3;
  SweepReport R;
  std::string Err;
  ASSERT_TRUE(runShardedSweep(C, Opts, R, &Err)) << Err;
  expectSameOutcomes(Ref, R);

  // And once more from disk alone.
  Opts.Resume = true;
  SweepReport R2;
  ASSERT_TRUE(runShardedSweep(C, Opts, R2, &Err)) << Err;
  EXPECT_EQ(R2.UnitsResumed, R2.Units.size());
  expectSameOutcomes(Ref, R2);
  std::filesystem::remove_all(Dir);
}

TEST(VerifyStoreTest, ShardBoundaryInsideAGroupMatchesInProcessSweep) {
  // Three functions' four schemes at FP(10) and FP(11): 24 units in three
  // groups of 8, so a split of the units into 2, 3 or 7 shards would cut
  // groups. Shards split the groups instead: no shard holds part of a
  // group, the assembled report equals runSweep's, and the oracle answers
  // exactly the unsharded run's queries.
  SweepConfig C = smallConfig();
  C.Funcs = {ElemFunc::Exp2, ElemFunc::Log, ElemFunc::Exp10};
  C.Schemes.assign(std::begin(AllEvalSchemes), std::end(AllEvalSchemes));
  C.Candidate = nudgedPerScheme();
  ASSERT_EQ(planUnits(C).size(), 24u);
  auto Queries = [] {
    return telemetry::counterValue("verify.oracle.queries");
  };
  const uint64_t Q0 = Queries();
  SweepReport Ref = runSweep(C);
  const uint64_t RefQueries = Queries() - Q0;
  ASSERT_GT(Ref.Mismatches, 0u);
  ASSERT_GT(RefQueries, 0u);

  for (unsigned M : {2u, 3u, 7u}) {
    SCOPED_TRACE(std::to_string(M) + " shards");
    std::string Dir = tempDir("splitgroup");
    ShardOptions Opts;
    Opts.Dir = Dir;
    Opts.NumShards = M;
    SweepReport R;
    R.Paths = Ref.Paths;
    R.Lanes = Ref.Lanes;
    const uint64_t Before = Queries();
    for (unsigned K = 0; K < M; ++K) {
      std::vector<UnitOutcome> Out;
      std::string Err;
      ASSERT_TRUE(runShard(C, Opts, K, Out, &Err)) << Err;
      std::map<ElemFunc, size_t> PerFunc;
      for (UnitOutcome &O : Out) {
        ++PerFunc[O.U.Func];
        R.Units.push_back(std::move(O));
      }
      for (const auto &[F, N] : PerFunc)
        EXPECT_EQ(N, 8u) << "shard " << K << " holds part of "
                         << elemFuncName(F) << "'s group";
    }
    EXPECT_EQ(Queries() - Before, RefQueries);
    R.accumulate();
    expectSameOutcomes(Ref, R);
    std::filesystem::remove_all(Dir);
  }
}

} // namespace
