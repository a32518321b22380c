//===- tests/ThreadPoolTest.cpp - Parallel execution layer tests ----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contract under test (see src/support/ThreadPool.h): chunk partitions
// depend only on N and the chunk size, per-chunk results merge in ascending
// chunk order, exceptions propagate to the submitter, and nested parallel
// sections are safe (they run inline). Together these make every
// parallelFor/parallelReduce computation bit-identical for any thread
// count -- the property the generator's determinism guarantee rests on.
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

using namespace rfp;

namespace {

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  for (unsigned Threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> Touched(10007);
    for (auto &T : Touched)
      T.store(0);
    parallelFor(
        Touched.size(),
        [&](size_t Begin, size_t End) {
          for (size_t I = Begin; I < End; ++I)
            Touched[I].fetch_add(1);
        },
        Threads);
    for (size_t I = 0; I < Touched.size(); ++I)
      ASSERT_EQ(Touched[I].load(), 1) << "index " << I << " with " << Threads
                                      << " threads";
  }
}

TEST(ThreadPoolTest, ChunkPartitionIsIndependentOfThreadCount) {
  // The partition must depend only on (N, ChunkSize): record the chunk
  // boundaries seen at several thread counts and require equality.
  auto Boundaries = [](unsigned Threads) {
    std::set<std::pair<size_t, size_t>> B;
    std::mutex M;
    parallelFor(
        5000,
        [&](size_t Begin, size_t End) {
          std::lock_guard<std::mutex> L(M);
          B.insert({Begin, End});
        },
        Threads);
    return B;
  };
  auto Serial = Boundaries(1);
  EXPECT_EQ(Serial, Boundaries(2));
  EXPECT_EQ(Serial, Boundaries(4));
  EXPECT_EQ(Serial, Boundaries(16));
}

TEST(ThreadPoolTest, ReduceMergesInChunkIndexOrder) {
  // String concatenation is not commutative: only an index-ordered merge
  // yields the same string for every thread count.
  auto Concat = [](unsigned Threads) {
    return parallelReduce<std::string>(
        1000, std::string(),
        [](size_t Begin, size_t End) {
          std::string S;
          for (size_t I = Begin; I < End; ++I)
            S += std::to_string(I) + ",";
          return S;
        },
        [](std::string A, std::string B) { return A + B; }, Threads,
        /*ChunkSize=*/37);
  };
  std::string Expected;
  for (size_t I = 0; I < 1000; ++I)
    Expected += std::to_string(I) + ",";
  EXPECT_EQ(Concat(1), Expected);
  EXPECT_EQ(Concat(2), Expected);
  EXPECT_EQ(Concat(4), Expected);
  EXPECT_EQ(Concat(13), Expected);
}

TEST(ThreadPoolTest, ReduceSumMatchesSerial) {
  auto Sum = [](unsigned Threads) {
    return parallelReduce<long>(
        100000, 0L,
        [](size_t Begin, size_t End) {
          long S = 0;
          for (size_t I = Begin; I < End; ++I)
            S += static_cast<long>(I);
          return S;
        },
        [](long A, long B) { return A + B; }, Threads);
  };
  long Expected = 100000L * 99999L / 2;
  EXPECT_EQ(Sum(1), Expected);
  EXPECT_EQ(Sum(4), Expected);
}

TEST(ThreadPoolTest, ReduceOverManyWavesMatchesSerialFold) {
  // 1001 chunks run in four waves of at most MaxFanOut. The fold
  // Acc * 31 + Partial is neither associative nor commutative, so only
  // the serial chunk order reproduces the serial result.
  const size_t N = 3001, ChunkSize = 3;
  auto Chunk = [](size_t Begin, size_t End) {
    uint64_t S = 0;
    for (size_t I = Begin; I < End; ++I)
      S = S * 7 + I;
    return S;
  };
  auto Merge = [](uint64_t A, uint64_t B) { return A * 31 + B; };
  ASSERT_GT(numChunksFor(N, ChunkSize), 3 * MaxFanOut);
  uint64_t Serial = 1;
  for (size_t B = 0; B < N; B += ChunkSize)
    Serial = Merge(Serial, Chunk(B, std::min(N, B + ChunkSize)));
  for (unsigned Threads : {1u, 2u, 4u})
    EXPECT_EQ(parallelReduce<uint64_t>(N, 1, Chunk, Merge, Threads,
                                       ChunkSize),
              Serial)
        << Threads << " threads";
}

/// A partial that counts how many of its kind are alive at once.
struct Tracked {
  static std::atomic<int> Live, Peak;
  uint64_t V = 0;

  Tracked() { born(); }
  Tracked(const Tracked &O) : V(O.V) { born(); }
  Tracked &operator=(const Tracked &) = default;
  ~Tracked() { --Live; }

  static void born() {
    int L = ++Live, P = Peak.load();
    while (L > P && !Peak.compare_exchange_weak(P, L)) {
    }
  }
};
std::atomic<int> Tracked::Live{0}, Tracked::Peak{0};

TEST(ThreadPoolTest, ReduceKeepsAtMostOneWaveOfPartials) {
  // 10,000 one-element chunks: the partials alive at once are one wave's
  // plus the accumulator and a few in flight, not one per chunk.
  Tracked::Peak = Tracked::Live.load();
  Tracked Sum = parallelReduce<Tracked>(
      10000, Tracked(),
      [](size_t Begin, size_t) {
        Tracked T;
        T.V = Begin;
        return T;
      },
      [](Tracked A, const Tracked &B) {
        A.V += B.V;
        return A;
      },
      4, /*ChunkSize=*/1);
  EXPECT_EQ(Sum.V, 10000u * 9999u / 2);
  EXPECT_LE(Tracked::Peak.load(), static_cast<int>(MaxFanOut) + 16);
}

TEST(ThreadPoolTest, ExceptionPropagatesToSubmitter) {
  for (unsigned Threads : {1u, 4u}) {
    EXPECT_THROW(
        parallelFor(
            1000,
            [](size_t Begin, size_t End) {
              for (size_t I = Begin; I < End; ++I)
                if (I == 613)
                  throw std::runtime_error("chunk failure");
            },
            Threads),
        std::runtime_error);
  }
}

TEST(ThreadPoolTest, ExceptionDoesNotPoisonThePool) {
  // After a throwing job the pool must still run subsequent jobs normally.
  EXPECT_THROW(parallelFor(
                   100, [](size_t, size_t) { throw std::logic_error("x"); },
                   4),
               std::logic_error);
  std::atomic<size_t> Count{0};
  parallelFor(
      100, [&](size_t Begin, size_t End) { Count += End - Begin; }, 4);
  EXPECT_EQ(Count.load(), 100u);
}

TEST(ThreadPoolTest, NestedParallelForRunsInlineAndCompletes) {
  // A nested parallel section must neither deadlock (the pool runs one job
  // at a time) nor change results: it executes inline on whichever thread
  // issued it.
  std::vector<std::atomic<int>> Touched(64 * 64);
  for (auto &T : Touched)
    T.store(0);
  parallelFor(
      64,
      [&](size_t OuterBegin, size_t OuterEnd) {
        for (size_t Outer = OuterBegin; Outer < OuterEnd; ++Outer)
          parallelFor(
              64,
              [&](size_t InnerBegin, size_t InnerEnd) {
                for (size_t Inner = InnerBegin; Inner < InnerEnd; ++Inner)
                  Touched[Outer * 64 + Inner].fetch_add(1);
              },
              4);
      },
      4);
  for (size_t I = 0; I < Touched.size(); ++I)
    ASSERT_EQ(Touched[I].load(), 1) << "cell " << I;
}

TEST(ThreadPoolTest, ResolveThreadsPrefersExplicitRequest) {
  EXPECT_EQ(ThreadPool::resolveThreads(3), 3u);
  EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
}

/// Fixture that saves and restores RFP_THREADS around each test so the
/// env-variable cases below cannot leak into other tests (or inherit state
/// from the invoking shell).
class ResolveThreadsEnvTest : public ::testing::Test {
protected:
  void SetUp() override {
    const char *Old = std::getenv("RFP_THREADS");
    HadOld = Old != nullptr;
    if (HadOld)
      OldValue = Old;
  }
  void TearDown() override {
    if (HadOld)
      setenv("RFP_THREADS", OldValue.c_str(), 1);
    else
      unsetenv("RFP_THREADS");
  }

private:
  bool HadOld = false;
  std::string OldValue;
};

TEST_F(ResolveThreadsEnvTest, ExplicitRequestBeatsEnvironment) {
  setenv("RFP_THREADS", "7", 1);
  EXPECT_EQ(ThreadPool::resolveThreads(2), 2u);
  EXPECT_EQ(ThreadPool::resolveThreads(0), 7u);
}

TEST_F(ResolveThreadsEnvTest, UnsetFallsBackToHardwareConcurrency) {
  unsetenv("RFP_THREADS");
  unsigned HW = std::thread::hardware_concurrency();
  EXPECT_EQ(ThreadPool::resolveThreads(0), HW > 0 ? HW : 1u);
}

TEST_F(ResolveThreadsEnvTest, GarbageValuesFallThroughToHardware) {
  unsigned Fallback = [] {
    unsigned HW = std::thread::hardware_concurrency();
    return HW > 0 ? HW : 1u;
  }();
  // Anything but decimal digits is malformed, including a valid prefix or
  // a number too large for 64 bits; 0 means the default.
  for (const char *Bad : {"abc", "0", "-3", "", "  ", "4x", "1e3", " 4", "+4",
                          "99999999999999999999"}) {
    setenv("RFP_THREADS", Bad, 1);
    EXPECT_EQ(ThreadPool::resolveThreads(0), Fallback)
        << "RFP_THREADS='" << Bad << "'";
  }
}

TEST_F(ResolveThreadsEnvTest, AbsurdlyLargeValueIsClamped) {
  setenv("RFP_THREADS", "999999999", 1);
  EXPECT_EQ(ThreadPool::resolveThreads(0), 1024u);
  setenv("RFP_THREADS", "1024", 1);
  EXPECT_EQ(ThreadPool::resolveThreads(0), 1024u);
  setenv("RFP_THREADS", "1025", 1);
  EXPECT_EQ(ThreadPool::resolveThreads(0), 1024u);
  setenv("RFP_THREADS", "18446744073709551615", 1); // 2^64 - 1: well formed.
  EXPECT_EQ(ThreadPool::resolveThreads(0), 1024u);
  setenv("RFP_THREADS", "004", 1);
  EXPECT_EQ(ThreadPool::resolveThreads(0), 4u);
}

TEST_F(ResolveThreadsEnvTest, ParallelForStillRunsUnderGarbageEnv) {
  // GenConfig::NumThreads = 0 reaches resolveThreads(0) through
  // parallelFor; a garbage environment must degrade to a working default,
  // never to zero workers or a crash.
  setenv("RFP_THREADS", "not-a-number", 1);
  std::atomic<size_t> Count{0};
  parallelFor(
      1000, [&](size_t Begin, size_t End) { Count += End - Begin; },
      /*NumThreads=*/0);
  EXPECT_EQ(Count.load(), 1000u);
}

TEST(ThreadPoolTest, EmptyRangeIsANoop) {
  bool Called = false;
  parallelFor(0, [&](size_t, size_t) { Called = true; }, 4);
  EXPECT_FALSE(Called);
  EXPECT_EQ(parallelReduce<int>(
                0, 42, [](size_t, size_t) { return 0; },
                [](int A, int B) { return A + B; }, 4),
            42);
}

} // namespace
