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
// a candidate H source must be swept whatever the shipped tables offer,
// results must be bit-identical across thread counts, and the sharded
// store must round-trip, reject corruption, and resume without changing
// a single count or record.
//
//===----------------------------------------------------------------------===//

#include "verify/Verify.h"

#include "oracle/Oracle.h"
#include "support/ShardFile.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
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

void expectSameOutcomes(const SweepReport &A, const SweepReport &B) {
  ASSERT_EQ(A.Units.size(), B.Units.size());
  EXPECT_EQ(A.Inputs, B.Inputs);
  EXPECT_EQ(A.Comparisons, B.Comparisons);
  EXPECT_EQ(A.Mismatches, B.Mismatches);
  for (size_t I = 0; I < A.Units.size(); ++I) {
    const UnitResult &RA = A.Units[I].R;
    const UnitResult &RB = B.Units[I].R;
    EXPECT_EQ(RA.Inputs, RB.Inputs) << "unit " << I;
    EXPECT_EQ(RA.Comparisons, RB.Comparisons) << "unit " << I;
    EXPECT_EQ(RA.Mismatches, RB.Mismatches) << "unit " << I;
    ASSERT_EQ(RA.Records.size(), RB.Records.size()) << "unit " << I;
    for (size_t J = 0; J < RA.Records.size(); ++J)
      EXPECT_TRUE(RA.Records[J] == RB.Records[J])
          << "unit " << I << " record " << J;
  }
}

TEST(VerifyPlanTest, UnitsCoverTheRequestedMatrix) {
  SweepConfig C;
  C.MinBits = 10;
  C.MaxBits = 12;
  std::vector<Unit> Units = planUnits(C);

  // Every available (func, scheme) pair, times three formats, in (func,
  // scheme, bits) order with no duplicates.
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
                          static_cast<int>(Units[I - 1].Scheme),
                          Units[I - 1].FormatBits) <
          std::make_tuple(static_cast<int>(Units[I].Func),
                          static_cast<int>(Units[I].Scheme),
                          Units[I].FormatBits);
      EXPECT_TRUE(Ordered) << "unit " << I;
    }
  }
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

  // Reconstruct the identity the engine stored (manifest holds the line).
  shard::ShardSet Set{Dir, "verify", "", 3, planUnits(C).size()};
  {
    std::ifstream In(Set.manifestPath());
    std::string Tag, Ver, Line;
    In >> Tag >> Ver;
    std::getline(In, Line); // rest of the version line
    std::getline(In, Line); // "config <line>"
    ASSERT_EQ(Line.rfind("config ", 0), 0u);
    Set.ConfigLine = Line.substr(7);
  }
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

} // namespace
