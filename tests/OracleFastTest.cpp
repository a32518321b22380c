//===- tests/OracleFastTest.cpp - Certified fast oracle tests -------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The certified fast path's contract is absolute: whenever it accepts, the
// encoding equals the exact oracle's, bit for bit. These tests check that
// differentially over dense random inputs and over neighbourhoods of the
// FP34 rounding boundaries (anchors with exactly representable results,
// where a wrong acceptance predicate would first go wrong), plus the
// cache-transparency, batch-consistency, and acceptance-rate properties
// the prepare pipeline relies on. The lane kernels must match the scalar
// loop on every ISA, and the committed constant tables must equal the MP
// layer's recipe bit for bit.
//
//===----------------------------------------------------------------------===//

#include "oracle/OracleFast.h"

#include "fp/FPFormat.h"
#include "libm/RangeReduction.h"
#include "oracle/Oracle.h"
#include "oracle/OracleCache.h"
#include "oracle/OracleFastTables.h"
#include "support/Telemetry.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cfenv>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

using namespace rfp;

namespace {

float bitsToFloat(uint32_t Bits) {
  float F;
  std::memcpy(&F, &Bits, sizeof(F));
  return F;
}

uint32_t floatToBits(float F) {
  uint32_t B;
  std::memcpy(&B, &F, sizeof(B));
  return B;
}

/// Deterministic 32-bit LCG (Numerical Recipes constants): the tests must
/// sample the same inputs in every run and configuration.
struct Lcg {
  uint32_t State;
  explicit Lcg(uint32_t Seed) : State(Seed) {}
  uint32_t next() { return State = State * 1664525u + 1013904223u; }
};

/// Edges of the fast path's structural classes: |x| = 2^-29 (the exp
/// family's tiny class ends there) and, for the exp family, the x at which
/// b^x reaches Oracle::eval's FP34 saturation clamps, x * log2(b) = 129
/// and -154.
std::vector<float> structuralEdges(ElemFunc F) {
  std::vector<float> Edges = {0x1p-29f};
  if (isExpFamily(F)) {
    double Log2B = F == ElemFunc::Exp2  ? 1.0
                   : F == ElemFunc::Exp ? std::log2(std::exp(1.0))
                                        : std::log2(10.0);
    Edges.push_back(static_cast<float>(129.0 / Log2B));
    Edges.push_back(static_cast<float>(-154.0 / Log2B));
  }
  return Edges;
}

/// Membership in a structural class, decided from the class definitions
/// rather than from the fast path: non-finite x, log-family x <= 0,
/// exp-family 0 < |x| < 2^-29, and exp-family saturation.
bool inStructuralClass(ElemFunc F, uint32_t Bits) {
  float X = bitsToFloat(Bits);
  if (!std::isfinite(X))
    return true;
  if (!isExpFamily(F))
    return X <= 0.0f;
  if (X != 0.0f && std::fabs(X) < 0x1p-29f)
    return true;
  return Oracle::expSaturation(F, X, FPFormat::fp34()) !=
         Oracle::Saturation::None;
}

/// Bit patterns whose results sit on or next to FP34 rounding boundaries:
/// exactly representable results (integer exp2 inputs, powers of two into
/// the log family) and the surrounding windows, plus the structural class
/// edges. The certified path must refuse or agree -- never accept a wrong
/// side of the boundary.
std::vector<uint32_t> boundaryPatterns(ElemFunc F) {
  std::vector<float> Anchors = {0.0f, 1.0f, -1.0f, 2.0f, 0.5f, 4.0f, 0.25f};
  for (float E : structuralEdges(F)) {
    Anchors.push_back(E);
    Anchors.push_back(-E);
  }
  if (isExpFamily(F))
    for (int K = 3; K <= 24; K += 3) {
      Anchors.push_back(std::ldexp(1.0f, -K));
      Anchors.push_back(-std::ldexp(1.0f, -K));
    }
  switch (F) {
  case ElemFunc::Exp2:
    for (int I = -150; I <= 127; I += 7)
      Anchors.push_back(static_cast<float>(I));
    break;
  case ElemFunc::Exp10:
    for (int I = -44; I <= 38; I += 3)
      Anchors.push_back(static_cast<float>(I));
    break;
  case ElemFunc::Log:
  case ElemFunc::Log2:
  case ElemFunc::Log10: {
    for (int I = -149; I <= 127; I += 11)
      Anchors.push_back(std::ldexp(1.0f, I));
    float P10 = 1.0f;
    for (int I = 0; I <= 10; ++I, P10 *= 10.0f)
      Anchors.push_back(P10);
    break;
  }
  case ElemFunc::Exp:
    Anchors.insert(Anchors.end(), {88.72284f, -87.0f, -103.97f});
    break;
  }
  std::vector<uint32_t> Bits;
  for (float A : Anchors) {
    uint32_t C = floatToBits(A);
    for (uint32_t D = 0; D <= 200; ++D) {
      Bits.push_back(C + D);
      Bits.push_back(C - D);
    }
  }
  return Bits;
}

/// Every accepted verdict must equal the exact oracle's encoding.
void expectAgreement(ElemFunc F, const std::vector<uint32_t> &Bits) {
  FPFormat F34 = FPFormat::fp34();
  size_t Accepted = 0;
  for (uint32_t B : Bits) {
    float X = bitsToFloat(B);
    if (std::isnan(X))
      continue;
    uint64_t FastEnc;
    if (!oracle_fast::tryEvalToOdd34(F, B, FastEnc))
      continue;
    ++Accepted;
    uint64_t ExactEnc = Oracle::eval(F, X, F34, RoundingMode::ToOdd);
    ASSERT_EQ(FastEnc, ExactEnc)
        << elemFuncName(F) << " x bits=0x" << std::hex << B;
  }
  // The sample must actually exercise the fast path, or the test is vacuous.
  EXPECT_GT(Accepted, Bits.size() / 20);
}

class OracleFastTest : public ::testing::TestWithParam<ElemFunc> {};

TEST_P(OracleFastTest, DifferentialDenseRandom) {
  Lcg Rng(0xC0FFEE42u + static_cast<uint32_t>(GetParam()));
  std::vector<uint32_t> Bits;
  for (int I = 0; I < 8000; ++I)
    Bits.push_back(Rng.next());
  expectAgreement(GetParam(), Bits);
}

TEST_P(OracleFastTest, DifferentialBoundaryNeighbourhoods) {
  expectAgreement(GetParam(), boundaryPatterns(GetParam()));
}

TEST_P(OracleFastTest, BatchMatchesSingle) {
  ElemFunc F = GetParam();
  Lcg Rng(0xBA7C4u + static_cast<uint32_t>(F));
  std::vector<uint32_t> Bits = boundaryPatterns(F);
  for (int I = 0; I < 2000; ++I)
    Bits.push_back(Rng.next());

  std::vector<uint64_t> Enc(Bits.size(), ~0ull);
  std::vector<uint8_t> Status(Bits.size(), 0xFF);
  oracle_fast::evalToOdd34Batch(F, Bits.data(), Bits.size(), Enc.data(),
                                Status.data());
  for (size_t I = 0; I < Bits.size(); ++I) {
    uint64_t Single;
    bool Ok = oracle_fast::tryEvalToOdd34(F, Bits[I], Single);
    ASSERT_EQ(Status[I] != 0, Ok) << "bits=0x" << std::hex << Bits[I];
    // The header's contract: Enc is set where certified, untouched else.
    ASSERT_EQ(Enc[I], Ok ? Single : ~0ull) << "bits=0x" << std::hex
                                           << Bits[I];
  }
}

/// Every input of a structural class must be *accepted* -- a class that
/// silently stops firing fails here -- and bit-equal to the exact oracle:
/// every FP(14, 8) input (FP(10..13, 8) are subsets) and float32
/// neighbourhoods, both signs, of each class edge.
TEST_P(OracleFastTest, StructuralClassesMatchExact) {
  ElemFunc F = GetParam();
  FPFormat F14 = FPFormat::withBits(14);
  std::vector<uint32_t> Bits;
  for (uint64_t E = 0; E < F14.encodingCount(); ++E)
    Bits.push_back(floatToBits(static_cast<float>(F14.decode(E))));
  for (float Edge : structuralEdges(F))
    for (float Anchor : {Edge, -Edge}) {
      uint32_t C = floatToBits(Anchor);
      for (uint32_t D = 0; D <= 2000; ++D) {
        Bits.push_back(C + D);
        Bits.push_back(C - D);
      }
    }

  FPFormat F34 = FPFormat::fp34();
  size_t InClass = 0;
  for (uint32_t B : Bits) {
    if (!inStructuralClass(F, B))
      continue;
    ++InClass;
    uint64_t FastEnc;
    ASSERT_TRUE(oracle_fast::tryEvalToOdd34(F, B, FastEnc))
        << elemFuncName(F) << " x bits=0x" << std::hex << B;
    ASSERT_EQ(FastEnc, Oracle::eval(F, bitsToFloat(B), F34,
                                    RoundingMode::ToOdd))
        << elemFuncName(F) << " x bits=0x" << std::hex << B;
  }
  EXPECT_GT(InClass, Bits.size() / 4);
}

/// The prepare speedup hinges on near-total acceptance over the inputs
/// that matter: the polynomial-path domain. (Raw random bits include the
/// out-of-domain patterns the sweep filters out anyway.)
TEST_P(OracleFastTest, PolyPathAcceptanceFloor) {
  ElemFunc F = GetParam();
  size_t PolyPath = 0, Accepted = 0;
  for (uint64_t B = 0; B < (1ull << 32); B += 65537) {
    uint32_t Bits = static_cast<uint32_t>(B);
    float X = bitsToFloat(Bits);
    if (std::isnan(X) || !libm::reduceInput(F, X).PolyPath)
      continue;
    ++PolyPath;
    uint64_t Enc;
    if (oracle_fast::tryEvalToOdd34(F, Bits, Enc))
      ++Accepted;
  }
  ASSERT_GT(PolyPath, 0u);
  EXPECT_GE(static_cast<double>(Accepted),
            0.90 * static_cast<double>(PolyPath))
      << elemFuncName(F) << ": " << Accepted << "/" << PolyPath;
}

/// The memoizing cache must be transparent to the fast path: identical
/// encodings with the certified path on and off.
TEST_P(OracleFastTest, CacheTransparency) {
  ElemFunc F = GetParam();
  Lcg Rng(0x5EED5u + static_cast<uint32_t>(F));
  std::vector<uint32_t> Bits;
  for (int I = 0; I < 1500; ++I)
    Bits.push_back(Rng.next());

  std::vector<uint64_t> FastOn, FastOff;
  oracle_cache::clear();
  oracle_fast::setEnabled(true);
  for (uint32_t B : Bits)
    if (!std::isnan(bitsToFloat(B)))
      FastOn.push_back(oracle_cache::evalToOdd34(F, B));
  oracle_cache::clear();
  oracle_fast::setEnabled(false);
  for (uint32_t B : Bits)
    if (!std::isnan(bitsToFloat(B)))
      FastOff.push_back(oracle_cache::evalToOdd34(F, B));
  oracle_fast::setEnabled(true);
  oracle_cache::clear();

  ASSERT_EQ(FastOn.size(), FastOff.size());
  for (size_t I = 0; I < FastOn.size(); ++I)
    ASSERT_EQ(FastOn[I], FastOff[I]);
}

/// The oracle.fast.* verdict counters, read together.
struct VerdictCounts {
  uint64_t Accepts, Fallbacks, Rejects;
  static VerdictCounts read() {
    return {telemetry::counterValue("oracle.fast.accepts"),
            telemetry::counterValue("oracle.fast.fallbacks"),
            telemetry::counterValue("oracle.fast.rejects")};
  }
  VerdictCounts operator-(const VerdictCounts &O) const {
    return {Accepts - O.Accepts, Fallbacks - O.Fallbacks, Rejects - O.Rejects};
  }
};

/// The lane-kernel inputs for \p F: the boundary neighbourhoods, +-2000
/// ulps around each structural edge, every FP(16, 8) encoding, and a
/// seeded float32 sample in which one draw in eight is a subnormal.
std::vector<uint32_t> laneInputs(ElemFunc F) {
  std::vector<uint32_t> Bits = boundaryPatterns(F);
  for (float Edge : structuralEdges(F))
    for (float Anchor : {Edge, -Edge}) {
      uint32_t C = floatToBits(Anchor);
      for (uint32_t D = 0; D <= 2000; ++D) {
        Bits.push_back(C + D);
        Bits.push_back(C - D);
      }
    }
  FPFormat F16 = FPFormat::withBits(16);
  for (uint64_t E = 0; E < F16.encodingCount(); ++E)
    Bits.push_back(floatToBits(static_cast<float>(F16.decode(E))));
  Lcg Rng(0x1A7E5u + static_cast<uint32_t>(F));
  for (int I = 0; I < 20000; ++I) {
    uint32_t B = Rng.next();
    Bits.push_back(I % 8 == 0 ? B & 0x807fffffu : B);
  }
  return Bits;
}

/// Each compiled ISA's kernel (through the explicit-ISA overload) against
/// the scalar loop, bit for bit: equal Status, equal Enc where accepted,
/// the caller's Enc untouched where not, and equal verdict-counter deltas.
/// The inputs run in slices of lengths 0, 1, 7, 8, 9, 4095 and 4097 (every
/// full-block/tail split of both lane widths) from a misaligned base
/// between guard words, under every FP rounding mode.
TEST(OracleFastTest, LanesMatchScalarOnEveryISA) {
  const size_t Lengths[] = {0, 1, 7, 8, 9, 4095, 4097};
  const int Modes[] = {FE_TONEAREST, FE_UPWARD, FE_DOWNWARD, FE_TOWARDZERO};
  constexpr uint64_t Sentinel = 0x5e5e5e5e5e5e5e5eull;
  constexpr uint64_t Guard = 0x6a6a6a6a6a6a6a6aull;
  constexpr size_t Pad = 3; // Guard elements on each side.

  struct Run {
    std::vector<uint64_t> Enc;
    std::vector<uint8_t> Status;
    VerdictCounts Delta;
  };
  // One slice on one ISA. In each buffer the guards start at a 64-byte
  // boundary, so the first live element sits Pad elements past it,
  // misaligned for every vector width.
  auto RunSlice = [&](BatchISA ISA, ElemFunc F, const uint32_t *In,
                      size_t N) {
    std::vector<uint32_t> XB(N + 2 * Pad + 16, 0u);
    std::vector<uint64_t> EncBuf(N + 2 * Pad + 8, Guard);
    std::vector<uint8_t> StBuf(N + 2 * Pad + 64, 0xA5);
    auto Live = [&](auto *P) {
      auto A = reinterpret_cast<uintptr_t>(P);
      return P + (64 - A % 64) % 64 / sizeof(*P) + Pad;
    };
    uint32_t *X = Live(XB.data());
    uint64_t *E = Live(EncBuf.data());
    uint8_t *S = Live(StBuf.data());
    std::copy(In, In + N, X);
    std::fill(E, E + N, Sentinel);
    VerdictCounts Before = VerdictCounts::read();
    oracle_fast::evalToOdd34Batch(ISA, F, X, N, E, S);
    Run R{std::vector<uint64_t>(E, E + N), std::vector<uint8_t>(S, S + N),
          VerdictCounts::read() - Before};
    for (size_t G = 1; G <= Pad; ++G) {
      EXPECT_EQ(E[-static_cast<ptrdiff_t>(G)], Guard);
      EXPECT_EQ(E[N + G - 1], Guard);
      EXPECT_EQ(S[-static_cast<ptrdiff_t>(G)], 0xA5);
      EXPECT_EQ(S[N + G - 1], 0xA5);
    }
    return R;
  };

  size_t Compared = 0;
  for (ElemFunc F : AllElemFuncs) {
    const std::vector<uint32_t> In = laneInputs(F);
    for (int Mode : Modes) {
      ASSERT_EQ(std::fesetround(Mode), 0);
      size_t Begin = 0;
      for (size_t Slice = 0; Begin < In.size(); ++Slice) {
        size_t N = std::min(Lengths[Slice % std::size(Lengths)],
                            In.size() - Begin);
        const uint32_t *X = In.data() + Begin;
        Run Want = RunSlice(BatchISA::Scalar, F, X, N);
        for (BatchISA ISA : AllBatchISAs) {
          if (ISA == BatchISA::Scalar)
            continue;
          Run Got = RunSlice(ISA, F, X, N);
          for (size_t I = 0; I < N; ++I) {
            ASSERT_EQ(Got.Status[I], Want.Status[I])
                << batchISAName(ISA) << " " << elemFuncName(F) << " mode "
                << Mode << " x bits=0x" << std::hex << X[I];
            ASSERT_EQ(Got.Enc[I], Want.Status[I] ? Want.Enc[I] : Sentinel)
                << batchISAName(ISA) << " " << elemFuncName(F) << " mode "
                << Mode << " x bits=0x" << std::hex << X[I];
          }
          EXPECT_EQ(Got.Delta.Accepts, Want.Delta.Accepts);
          EXPECT_EQ(Got.Delta.Fallbacks, Want.Delta.Fallbacks);
          EXPECT_EQ(Got.Delta.Rejects, Want.Delta.Rejects);
          Compared += N;
        }
        Begin += N;
      }
    }
    std::fesetround(FE_TONEAREST);
  }
  if (batchISAUsable(BatchISA::AVX2) || batchISAUsable(BatchISA::AVX512)) {
    EXPECT_GT(Compared, 0u);
  }
}

/// One oracle.fast.elems.<isa> add per batch, under the ISA whose kernel
/// ran it: the pinned ISA's where it has a usable oracle kernel (AVX2,
/// AVX-512), scalar otherwise (the scalar set and NEON).
TEST(OracleFastTest, ElemsCountersNameTheKernelISA) {
  const char *Names[3] = {"scalar", "avx2", "avx512"};
  auto Read = [&](uint64_t (&Out)[3]) {
    for (int I = 0; I < 3; ++I)
      Out[I] = telemetry::counterValue(
          (std::string("oracle.fast.elems.") + Names[I]).c_str());
  };
  const uint32_t In[5] = {floatToBits(1.5f), floatToBits(-3.0f),
                          floatToBits(0x1p-40f), 0x7fc00000u,
                          floatToBits(100.0f)};
  uint64_t Enc[5];
  uint8_t Status[5];
  auto KernelISA = [](BatchISA ISA) {
    bool Lanes = ISA == BatchISA::AVX2 || ISA == BatchISA::AVX512;
    return Lanes && batchISAUsable(ISA) ? ISA : BatchISA::Scalar;
  };
  for (BatchISA ISA : AllBatchISAs) {
    uint64_t Before[3], After[3];
    Read(Before);
    oracle_fast::evalToOdd34Batch(ISA, ElemFunc::Exp, In, 5, Enc, Status);
    Read(After);
    int Want = static_cast<int>(KernelISA(ISA));
    for (int I = 0; I < 3; ++I)
      EXPECT_EQ(After[I] - Before[I], I == Want ? 5u : 0u)
          << batchISAName(ISA) << " counter " << Names[I];
  }
  // The default dispatch runs the process ISA's kernel, and says so.
  EXPECT_EQ(oracle_fast::batchISA(), KernelISA(activeBatchISA()));
  uint64_t Before[3], After[3];
  Read(Before);
  oracle_fast::evalToOdd34Batch(ElemFunc::Log, In, 5, Enc, Status);
  Read(After);
  int Want = static_cast<int>(oracle_fast::batchISA());
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(After[I] - Before[I], I == Want ? 5u : 0u)
        << "default dispatch, counter " << Names[I];
}

/// The committed constant tables are the MP layer's, bit for bit: every
/// entry recomputed by the one recipe that also writes the file.
TEST(OracleFastTest, ConstantTablesMatchTheMPLayer) {
  using oracle_fast::DD;
  const oracle_fast::Tables Want = oracle_fast::computeTables();
  DD W[oracle_fast::NumTableEntries], G[oracle_fast::NumTableEntries];
  std::memcpy(W, &Want, sizeof(W));
  std::memcpy(G, &oracle_fast::tables(), sizeof(G));
  unsigned Differ = 0;
  for (size_t I = 0; I < oracle_fast::NumTableEntries; ++I)
    if (std::memcmp(&W[I], &G[I], sizeof(DD)) != 0 && Differ++ < 8)
      ADD_FAILURE() << "entry " << I << ": committed {" << std::hexfloat
                    << G[I].Hi << ", " << G[I].Lo << "}, MP layer {"
                    << W[I].Hi << ", " << W[I].Lo
                    << "}; regenerate with tools/gentables";
  EXPECT_EQ(Differ, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllFuncs, OracleFastTest,
                         ::testing::ValuesIn(AllElemFuncs),
                         [](const auto &Info) {
                           return std::string(elemFuncName(Info.param));
                         });

} // namespace
