//===- tests/PrepareStreamTest.cpp - Streaming prepare tests --------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The streaming prepare's determinism contract: constraints, forced
// specials, and generated polynomials are bit-identical for every thread
// count and block size. The candidate domain it streams (the strided
// sweep plus the boundary windows) is checked against a brute-force
// construction.
//
//===----------------------------------------------------------------------===//

#include "core/PolyGen.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstring>
#include <vector>

using namespace rfp;

namespace {

/// Small but multi-block configuration: enough candidates to cross block
/// boundaries, small enough to keep the oracle work in the certified fast
/// path's millisecond range.
GenConfig testConfig(uint64_t BlockCandidates = 0) {
  GenConfig C;
  C.SampleStride = 1048573;
  C.BoundaryWindow = 96;
  C.PrepareBlockCandidates = BlockCandidates;
  C.NumThreads = 1;
  return C;
}

uint64_t bitsOf(double D) {
  uint64_t K;
  std::memcpy(&K, &D, sizeof(K));
  return K;
}

void expectSameConstraints(PolyGenerator &A, PolyGenerator &B) {
  EXPECT_EQ(A.numInputs(), B.numInputs());
  ASSERT_EQ(A.numConstraints(), B.numConstraints());
  std::vector<IntervalConstraint> CA = A.exportLPConstraints();
  std::vector<IntervalConstraint> CB = B.exportLPConstraints();
  ASSERT_EQ(CA.size(), CB.size());
  for (size_t I = 0; I < CA.size(); ++I) {
    ASSERT_TRUE(CA[I].X == CB[I].X) << "constraint " << I;
    ASSERT_TRUE(CA[I].Lo == CB[I].Lo) << "constraint " << I;
    ASSERT_TRUE(CA[I].Hi == CB[I].Hi) << "constraint " << I;
  }
}

void expectSameImpl(const GeneratedImpl &A, const GeneratedImpl &B) {
  ASSERT_EQ(A.Success, B.Success);
  ASSERT_EQ(A.NumPieces, B.NumPieces);
  ASSERT_EQ(A.PieceDegrees, B.PieceDegrees);
  ASSERT_EQ(A.Pieces.size(), B.Pieces.size());
  for (size_t P = 0; P < A.Pieces.size(); ++P) {
    ASSERT_EQ(A.Pieces[P].Coeffs.size(), B.Pieces[P].Coeffs.size());
    for (size_t D = 0; D < A.Pieces[P].Coeffs.size(); ++D)
      ASSERT_EQ(bitsOf(A.Pieces[P].Coeffs[D]), bitsOf(B.Pieces[P].Coeffs[D]))
          << "piece " << P << " coeff " << D;
  }
  ASSERT_EQ(A.Specials.size(), B.Specials.size());
  for (size_t S = 0; S < A.Specials.size(); ++S) {
    ASSERT_EQ(A.Specials[S].Bits, B.Specials[S].Bits);
    ASSERT_EQ(bitsOf(A.Specials[S].H), bitsOf(B.Specials[S].H));
  }
  EXPECT_EQ(A.LPSolves, B.LPSolves);
  EXPECT_EQ(A.LoopIterations, B.LoopIterations);
}

TEST(PrepareStreamTest, BlockSizeAndThreadsInvariant) {
  const ElemFunc F = ElemFunc::Exp2;
  PolyGenerator Ref(F, testConfig());
  Ref.prepare();

  // A block size that forces many partial blocks, and a threaded run.
  GenConfig Small = testConfig(/*BlockCandidates=*/777);
  PolyGenerator GSmall(F, Small);
  GSmall.prepare();
  expectSameConstraints(Ref, GSmall);

  GenConfig Threads = testConfig(/*BlockCandidates=*/4096);
  Threads.NumThreads = 4;
  PolyGenerator GThreads(F, Threads);
  GThreads.prepare();
  expectSameConstraints(Ref, GThreads);

  expectSameImpl(Ref.generate(EvalScheme::Horner),
                 GSmall.generate(EvalScheme::Horner));
}

/// The window set as first written: four patterns per anchor and offset
/// (C + D, C - D and their sign mirrors, all modulo 2^32), sorted and
/// deduplicated. Kept as the referee for the range-merging construction.
std::vector<uint32_t> bruteForceWindow(const std::vector<uint32_t> &Anchors,
                                       uint32_t W) {
  std::vector<uint32_t> Bits;
  for (uint32_t C : Anchors)
    for (uint32_t D = 0; D <= W; ++D) {
      Bits.push_back(C + D);
      Bits.push_back(C - D);
      Bits.push_back((C + D) ^ 0x80000000u);
      Bits.push_back((C - D) ^ 0x80000000u);
    }
  std::sort(Bits.begin(), Bits.end());
  Bits.erase(std::unique(Bits.begin(), Bits.end()), Bits.end());
  return Bits;
}

TEST(WindowBitsTest, MergedRangesMatchBruteForce) {
  for (ElemFunc F : AllElemFuncs) {
    const std::vector<uint32_t> Anchors = windowAnchors(F);
    for (uint32_t W : {0u, 1u, 256u, 1024u}) {
      const std::vector<uint32_t> All = bruteForceWindow(Anchors, W);
      for (uint32_t Stride : {1009u, 65537u, 131071u}) {
        std::vector<uint32_t> Want;
        for (uint32_t B : All)
          if (B % Stride != 0)
            Want.push_back(B);
        EXPECT_EQ(windowOnlyBits(Anchors, W, Stride), Want)
            << elemFuncName(F) << " window " << W << " stride " << Stride;
        GenConfig C;
        C.SampleStride = Stride;
        C.BoundaryWindow = W;
        PolyGenerator G(F, C);
        EXPECT_EQ(G.candidateCount(), 0xFFFFFFFFull / Stride + 1 + Want.size())
            << elemFuncName(F) << " window " << W << " stride " << Stride;
      }
    }
  }
}

TEST(WindowBitsTest, RangesWrapAtBothEndsOfTheSpace) {
  // Anchors next to 0, 2^31 and 2^32 - 1: their ranges and their mirrors'
  // wrap around both ends of the 32-bit space and collide with each other.
  const std::vector<uint32_t> Anchors = {0u, 1u, 0x7ffffffeu, 0x80000001u,
                                         0xfffffffeu, 0xffffffffu};
  for (uint32_t W : {0u, 1u, 2u, 3u, 17u})
    for (uint32_t Stride : {1u, 2u, 3u, 1009u}) {
      std::vector<uint32_t> Want;
      for (uint32_t B : bruteForceWindow(Anchors, W))
        if (B % Stride != 0)
          Want.push_back(B);
      EXPECT_EQ(windowOnlyBits(Anchors, W, Stride), Want)
          << "window " << W << " stride " << Stride;
    }
}

} // namespace
