//===- tests/PrepareShardTest.cpp - Streaming + sharded prepare tests -----===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The streaming prepare's determinism contract: constraints, forced
// specials, and generated polynomials are bit-identical for every thread
// count, block size, and sharding -- including a sharded run that was
// killed half-way and resumed. Shard files themselves are byte-identical
// however they are produced, and corruption is detected.
//
//===----------------------------------------------------------------------===//

#include "core/PolyGen.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace rfp;

namespace {

/// Small but multi-block configuration: enough candidates to cross block
/// and shard boundaries, small enough to keep the oracle work in the
/// certified fast path's millisecond range.
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

/// Per-test scratch directory, wiped on entry: TempDir() contents survive
/// across runs, and a stale shard set would defeat the resume assertions.
std::string tempDir(const char *Name) {
  std::string Dir = ::testing::TempDir() + "rfp_shard_" + Name;
  std::filesystem::remove_all(Dir);
  return Dir;
}

std::vector<char> fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<char>(std::istreambuf_iterator<char>(In),
                           std::istreambuf_iterator<char>());
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

TEST(PrepareShardTest, ShardedEqualsPlain) {
  const ElemFunc F = ElemFunc::Log;
  const unsigned M = 4;
  std::string Dir = tempDir("equals_plain");

  GenConfig Cfg = testConfig(/*BlockCandidates=*/5000);
  PolyGenerator Worker(F, Cfg);
  std::string Err;
  for (unsigned K = 0; K < M; ++K)
    ASSERT_TRUE(Worker.prepareShard(K, M, Dir, &Err)) << Err;

  PolyGenerator FromShards(F, Cfg);
  ASSERT_TRUE(FromShards.prepareFromShards(Dir, M, &Err)) << Err;

  PolyGenerator Plain(F, testConfig());
  Plain.prepare();

  expectSameConstraints(Plain, FromShards);
  expectSameImpl(Plain.generate(EvalScheme::Horner),
                 FromShards.generate(EvalScheme::Horner));
}

TEST(PrepareShardTest, KillAndResumeByteIdentical) {
  const ElemFunc F = ElemFunc::Exp2;
  const unsigned M = 4;
  GenConfig Cfg = testConfig(/*BlockCandidates=*/3000);
  std::string Err;

  // An uninterrupted reference shard set.
  std::string FullDir = tempDir("resume_full");
  {
    PolyGenerator G(F, Cfg);
    for (unsigned K = 0; K < M; ++K)
      ASSERT_TRUE(G.prepareShard(K, M, FullDir, &Err)) << Err;
  }

  // The "killed" run: only shards 0 and 1 were completed.
  std::string Dir = tempDir("resume_partial");
  {
    PolyGenerator G(F, Cfg);
    ASSERT_TRUE(G.prepareShard(0, M, Dir, &Err)) << Err;
    ASSERT_TRUE(G.prepareShard(1, M, Dir, &Err)) << Err;
  }
  // Resume in a fresh process (generator): valid shards are skipped, the
  // missing ones computed.
  PolyGenerator Resumed(F, Cfg);
  const shard::ShardSet Set = Resumed.shardSet(Dir, M);
  const shard::ShardSet FullSet = Resumed.shardSet(FullDir, M);
  std::vector<char> Shard0 = fileBytes(Set.shardPath(0));
  std::vector<char> Shard1 = fileBytes(Set.shardPath(1));
  EXPECT_TRUE(shard::shardValid(Set, 0));
  EXPECT_TRUE(shard::shardValid(Set, 1));
  EXPECT_FALSE(shard::shardValid(Set, 2));
  EXPECT_FALSE(shard::shardValid(Set, 3));
  for (unsigned K = 0; K < M; ++K)
    if (!shard::shardValid(Set, K)) {
      ASSERT_TRUE(Resumed.prepareShard(K, M, Dir, &Err)) << Err;
    }

  // The pre-kill shards were not touched, and every shard is byte-equal
  // to the uninterrupted set's.
  EXPECT_EQ(Shard0, fileBytes(Set.shardPath(0)));
  EXPECT_EQ(Shard1, fileBytes(Set.shardPath(1)));
  for (unsigned K = 0; K < M; ++K)
    EXPECT_EQ(fileBytes(FullSet.shardPath(K)), fileBytes(Set.shardPath(K)))
        << "shard " << K;

  // And the resumed set assembles into the same tables as a plain run.
  ASSERT_TRUE(Resumed.prepareFromShards(Dir, M, &Err)) << Err;
  PolyGenerator Plain(F, testConfig());
  Plain.prepare();
  expectSameConstraints(Plain, Resumed);
  expectSameImpl(Plain.generate(EvalScheme::Horner),
                 Resumed.generate(EvalScheme::Horner));
}

TEST(PrepareShardTest, CorruptionDetected) {
  const ElemFunc F = ElemFunc::Exp10;
  const unsigned M = 2;
  GenConfig Cfg = testConfig();
  std::string Dir = tempDir("corrupt");
  std::string Err;

  PolyGenerator G(F, Cfg);
  ASSERT_TRUE(G.prepareShard(0, M, Dir, &Err)) << Err;
  const shard::ShardSet Set = G.shardSet(Dir, M);
  ASSERT_TRUE(shard::shardValid(Set, 0));

  std::string Path = Set.shardPath(0);
  std::vector<char> Good = fileBytes(Path);
  ASSERT_GT(Good.size(), 100u);

  auto Rewrite = [&](const std::vector<char> &Bytes) {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  };

  // Flipped record byte: header parses, checksum must catch it.
  std::vector<char> Flipped = Good;
  Flipped[Good.size() / 2] ^= 0x20;
  Rewrite(Flipped);
  EXPECT_FALSE(shard::shardValid(Set, 0));

  // Truncation: record stream ends early.
  std::vector<char> Truncated(Good.begin(),
                              Good.end() - static_cast<long>(24));
  Rewrite(Truncated);
  EXPECT_FALSE(shard::shardValid(Set, 0));

  // Header from a different configuration (shard index corrupted).
  std::vector<char> BadHeader = Good;
  BadHeader[8] ^= 0x01; // ShardIdx field, right after the 8-byte magic.
  Rewrite(BadHeader);
  EXPECT_FALSE(shard::shardValid(Set, 0));

  // Restoring the original bytes restores validity.
  Rewrite(Good);
  EXPECT_TRUE(shard::shardValid(Set, 0));

  // A manifest for a different configuration is rejected.
  GenConfig Other = testConfig();
  Other.SampleStride = 999983;
  PolyGenerator GOther(F, Other);
  EXPECT_FALSE(GOther.prepareShard(0, M, Dir, &Err));
  EXPECT_FALSE(Err.empty());
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
