//===- tests/ServeTest.cpp - Serving-layer correctness --------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving layer's contract on top of the batch layer's: coalescing
// requests into shared kernel invocations must never change a single
// output bit. The differential suite pins H against the scalar per-call
// core and Enc against roundResult for every (function, scheme) variant,
// across output formats and all five standard rounding modes, for
// requests small enough to be coalesced and large enough to be split.
// Concurrency is pinned by a multi-submitter stress test (run under TSan
// in CI) plus backpressure, flush, and shutdown-ordering cases. The wake
// rule -- a submit wakes a drainer only for a ready queue or an uncovered
// deadline -- is pinned from both sides: a lone request and a target
// crossing still complete without flush(), and sub-target submits wake at
// most one drainer each until one is armed. The closed-loop coalescing
// guard checks that small same-variant requests share kernel calls.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "libm/rlibm.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

using namespace rfp;
using namespace rfp::serve;

namespace {

uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

float floatFromBits(uint32_t Bits) {
  float X;
  std::memcpy(&X, &Bits, sizeof(X));
  return X;
}

std::vector<float> stridedInputs(uint64_t Stride) {
  std::vector<float> Inputs;
  for (uint64_t B = 0; B < (1ull << 32); B += Stride)
    Inputs.push_back(floatFromBits(static_cast<uint32_t>(B)));
  return Inputs;
}

/// Checks one fulfilled result against the scalar core + roundResult.
void expectExact(const Result &Res, const Request &R) {
  ASSERT_EQ(Res.H.size(), R.N);
  ASSERT_EQ(Res.Enc.size(), R.N);
  for (size_t I = 0; I < R.N; ++I) {
    double Want = libm::evalCore(R.Key.Func, R.Key.Scheme, R.In[I]);
    ASSERT_EQ(bitsOf(Want), bitsOf(Res.H[I]))
        << elemFuncName(R.Key.Func) << "/" << evalSchemeName(R.Key.Scheme)
        << " x=" << R.In[I] << " I=" << I;
    ASSERT_EQ(libm::roundResult(Want, R.Key.Format, R.Key.Mode), Res.Enc[I])
        << elemFuncName(R.Key.Func) << "/" << evalSchemeName(R.Key.Scheme) << " "
        << roundingModeName(R.Key.Mode) << " x=" << R.In[I];
  }
}

TEST(ServeTest, DifferentialParityAllVariantsFormatsModes) {
  // Small per-variant spans with a long flush deadline, so requests for
  // the same variant coalesce; exactness must survive that.
  std::vector<float> Pool = stridedInputs(50000017); // ~86 inputs, specials too
  Server S({.Threads = 2, .TargetBatchElems = 512, .FlushDeadlineUs = 2000});
  const FPFormat Formats[] = {FPFormat::float32(), FPFormat::bfloat16(),
                              FPFormat::tensorfloat32(), FPFormat::withBits(27)};
  std::vector<std::pair<Request, std::future<Result>>> Outstanding;
  int FormatIdx = 0, ModeIdx = 0;
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme Sch : AllEvalSchemes) {
      if (!libm::variantInfo(F, Sch).Available)
        continue;
      // Rotate formats and modes across variants; every mode and format
      // is exercised several times.
      Request R;
      R.Key.Func = F;
      R.Key.Scheme = Sch;
      R.Key.Format = Formats[FormatIdx++ % 4];
      R.Key.Mode = StandardRoundingModes[ModeIdx++ % 5];
      R.In = Pool.data();
      R.N = Pool.size();
      std::future<Result> Fut = S.submit(R);
      Outstanding.emplace_back(std::move(R), std::move(Fut));
    }
  for (auto &[R, Fut] : Outstanding)
    expectExact(Fut.get(), R);
}

TEST(ServeTest, AllFiveModesOnOneVariant) {
  std::vector<float> Pool = stridedInputs(20000003);
  Server S;
  for (RoundingMode M : StandardRoundingModes)
    for (const FPFormat &Fmt :
         {FPFormat::float32(), FPFormat::bfloat16(), FPFormat::withBits(10)}) {
      Request R;
      R.Key.Func = ElemFunc::Log;
      R.Key.Scheme = EvalScheme::Knuth;
      R.Key.Format = Fmt;
      R.Key.Mode = M;
      R.In = Pool.data();
      R.N = Pool.size();
      expectExact(S.submit(R).get(), R);
    }
}

TEST(ServeTest, CoalescesSmallRequestsIntoWideBatches) {
  // Many tiny single-function requests with a generous deadline: the mean
  // batch width must comfortably exceed the per-request size (the
  // closed-loop guard below checks the same property under load).
  std::vector<float> Pool = stridedInputs(9000011);
  Server S({.Threads = 1, .TargetBatchElems = 64, .FlushDeadlineUs = 5000});
  std::vector<std::future<Result>> Futs;
  const size_t ReqSize = 4;
  for (size_t At = 0; At + ReqSize <= Pool.size(); At += ReqSize) {
    Request R;
    R.Key.Func = ElemFunc::Exp;
    R.In = Pool.data() + At;
    R.N = ReqSize;
    Futs.push_back(S.submit(R));
  }
  for (auto &F : Futs)
    F.get();
  ServerStats St = S.stats();
  EXPECT_GT(St.Requests, 50u);
  EXPECT_GT(St.meanBatchWidth(), static_cast<double>(ReqSize));
  EXPECT_GT(St.CoalescedBatches, 0u);
}

TEST(ServeTest, ConcurrentSubmittersBitExact) {
  // Several threads hammer overlapping variants; every future must still
  // deliver scalar-core-exact results. This is the test CI runs under
  // TSan for the synchronization story.
  std::vector<float> Pool = stridedInputs(30000001);
  Server S({.Threads = 2, .TargetBatchElems = 128, .FlushDeadlineUs = 100});
  constexpr int NumThreads = 4, ReqsPerThread = 40;
  std::vector<std::thread> Threads;
  std::vector<int> Failures(NumThreads, 0);
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      const ElemFunc Funcs[] = {ElemFunc::Exp, ElemFunc::Log, ElemFunc::Exp2,
                                ElemFunc::Log2};
      for (int I = 0; I < ReqsPerThread; ++I) {
        Request R;
        R.Key.Func = Funcs[(T + I) % 4];
        R.Key.Scheme = I % 2 ? EvalScheme::EstrinFMA : EvalScheme::Knuth;
        R.Key.Mode = StandardRoundingModes[I % 5];
        R.Tenant = T % 2 ? "alpha" : "beta";
        size_t Off = static_cast<size_t>((T * 37 + I * 11) % 64);
        R.In = Pool.data() + Off;
        R.N = Pool.size() - Off;
        Result Res = S.submit(R).get();
        for (size_t J = 0; J < R.N; ++J) {
          double Want = libm::evalCore(R.Key.Func, R.Key.Scheme, R.In[J]);
          if (bitsOf(Want) != bitsOf(Res.H[J]) ||
              libm::roundResult(Want, R.Key.Format, R.Key.Mode) != Res.Enc[J]) {
            ++Failures[T];
            break;
          }
        }
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < NumThreads; ++T)
    EXPECT_EQ(Failures[T], 0) << "thread " << T;
}

TEST(ServeTest, OversizedRequestSplitsAcrossBatches) {
  // A request bigger than MaxBatchElems is served by several kernel
  // invocations scattering into one result; still exact, still one future.
  std::vector<float> Pool = stridedInputs(2000003);
  Server S({.Threads = 2, .MaxBatchElems = 256, .TargetBatchElems = 128});
  Request R;
  R.Key.Func = ElemFunc::Exp10;
  R.Key.Scheme = EvalScheme::Estrin;
  R.In = Pool.data();
  R.N = Pool.size(); // ~2148 elements >> MaxBatchElems
  expectExact(S.submit(R).get(), R);
  EXPECT_GE(S.stats().Batches, Pool.size() / 256);
}

TEST(ServeTest, BackpressureBoundsTheQueue) {
  // A capacity smaller than the offered load: submits block instead of
  // growing the queue without bound, and everything still completes.
  std::vector<float> Pool = stridedInputs(9000011);
  Server S({.Threads = 1,
            .QueueCapacityElems = 64,
            .MaxBatchElems = 32,
            .TargetBatchElems = 32,
            .FlushDeadlineUs = 50});
  std::vector<std::future<Result>> Futs;
  for (int I = 0; I < 100; ++I) {
    Request R;
    R.Key.Func = ElemFunc::Log10;
    R.Key.Scheme = EvalScheme::Horner;
    R.In = Pool.data();
    R.N = 48;
    Futs.push_back(S.submit(R)); // blocks when 64-element queue is full
  }
  for (auto &F : Futs) {
    Result Res = F.get();
    ASSERT_EQ(Res.H.size(), 48u);
    ASSERT_EQ(bitsOf(libm::evalCore(ElemFunc::Log10, EvalScheme::Horner,
                                    Pool[0])),
              bitsOf(Res.H[0]));
  }
}

TEST(ServeTest, FlushDrainsEverythingQueued) {
  std::vector<float> Pool = stridedInputs(40000007);
  // Deadline and target both far away: only flush() can drain these.
  Server S({.Threads = 1,
            .TargetBatchElems = size_t(1) << 20,
            .FlushDeadlineUs = 60u * 1000u * 1000u});
  Request R;
  R.Key.Func = ElemFunc::Log2;
  R.Key.Scheme = EvalScheme::EstrinFMA;
  R.In = Pool.data();
  R.N = Pool.size();
  std::future<Result> Fut = S.submit(R);
  EXPECT_NE(Fut.wait_for(std::chrono::milliseconds(30)),
            std::future_status::ready);
  S.flush();
  ASSERT_EQ(Fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  expectExact(Fut.get(), R);
}

TEST(ServeTest, ShutdownFulfillsQueuedRequests) {
  std::vector<float> Pool = stridedInputs(40000007);
  std::future<Result> Fut;
  Request R;
  R.Key.Func = ElemFunc::Exp2;
  R.Key.Scheme = EvalScheme::Horner;
  R.In = Pool.data();
  R.N = Pool.size();
  {
    Server S({.Threads = 1,
              .TargetBatchElems = size_t(1) << 20,
              .FlushDeadlineUs = 60u * 1000u * 1000u});
    Fut = S.submit(R);
  } // destructor must drain, not drop
  expectExact(Fut.get(), R);
}

/// Positive in-range inputs, valid for both the exp and the log family,
/// from a fixed LCG: the requests stay on the polynomial fast path.
std::vector<float> inRangePool(size_t N) {
  std::vector<float> Pool(N);
  uint64_t State = 0x9e3779b97f4a7c15ull;
  for (size_t I = 0; I < N; ++I) {
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    double U = static_cast<double>(State >> 11) * 0x1p-53;
    Pool[I] = static_cast<float>(0x1p-8 + U * 8.0); // (2^-8, 8)
  }
  return Pool;
}

TEST(ServeTest, UniformClosedLoopCoalesces) {
  // The serving layer's reason to exist: a pipelined closed loop of tiny
  // requests over six same-scheme queues (8 elements each, 64 in flight)
  // must share kernel calls. Draining one request at a time would pass
  // every exactness test; it fails here.
  std::vector<float> Pool = inRangePool(size_t(1) << 14);
  Server S({.TargetBatchElems = 128, .FlushDeadlineUs = 300});
  constexpr size_t Requests = 4000, Window = 64, ReqSize = 8;
  std::deque<std::pair<Request, std::future<Result>>> Inflight;
  auto RetireOldest = [&] {
    expectExact(Inflight.front().second.get(), Inflight.front().first);
    Inflight.pop_front();
  };
  for (size_t I = 0; I < Requests; ++I) {
    Request R;
    R.Key.Func = AllElemFuncs[I % 6];
    R.Key.Scheme = EvalScheme::EstrinFMA;
    R.In = Pool.data() + (I * 131) % (Pool.size() - ReqSize);
    R.N = ReqSize;
    std::future<Result> Fut = S.submit(R);
    Inflight.emplace_back(std::move(R), std::move(Fut));
    if (Inflight.size() == Window)
      RetireOldest();
  }
  while (!Inflight.empty())
    RetireOldest();
  ServerStats St = S.stats();
  EXPECT_EQ(St.Requests, Requests);
  EXPECT_GE(St.meanBatchWidth(), 4.0) << St.Batches << " batches";
  EXPECT_GT(St.CoalescedBatches, 0u);
}

TEST(ServeTest, LoneRequestOnAnIdleServerMeetsItsDeadline) {
  // Every drainer parks untimed once nothing is pending; the first pending
  // element must wake one to arm the deadline, or this request would wait
  // for the next unrelated submit.
  std::vector<float> Pool = inRangePool(16);
  Server S({.Threads = 3,
            .TargetBatchElems = size_t(1) << 20,
            .FlushDeadlineUs = 2000});
  for (int Round = 0; Round < 3; ++Round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Request R;
    R.Key.Func = ElemFunc::Exp2;
    R.Key.Scheme = EvalScheme::EstrinFMA;
    R.In = Pool.data();
    R.N = Pool.size();
    std::future<Result> Fut = S.submit(R);
    ASSERT_EQ(Fut.wait_for(std::chrono::seconds(1)), std::future_status::ready)
        << "round " << Round;
    expectExact(Fut.get(), R);
  }
}

TEST(ServeTest, CrossingTheTargetWakesADrainer) {
  // The deadline is out of reach: only the submit whose push makes the
  // queue reach TargetBatchElems can start the batch.
  std::vector<float> Pool = inRangePool(64);
  Server S({.TargetBatchElems = 64, .FlushDeadlineUs = 60u * 1000u * 1000u});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<std::pair<Request, std::future<Result>>> Outstanding;
  for (size_t At = 0; At < Pool.size(); At += 16) {
    Request R;
    R.Key.Func = ElemFunc::Log;
    R.Key.Scheme = EvalScheme::Horner;
    R.In = Pool.data() + At;
    R.N = 16;
    std::future<Result> Fut = S.submit(R);
    Outstanding.emplace_back(std::move(R), std::move(Fut));
  }
  for (auto &[R, Fut] : Outstanding) {
    ASSERT_EQ(Fut.wait_for(std::chrono::seconds(1)), std::future_status::ready);
    expectExact(Fut.get(), R);
  }
  EXPECT_EQ(S.stats().Batches, 1u);
}

TEST(ServeTest, SubTargetSubmitsDoNotWakeDrainers) {
  // Sub-target requests onto an idle server, in bursts spread over every
  // available variant: once a woken drainer has armed the earliest
  // deadline, later deadlines are covered and submits wake nobody. Before
  // that, each notify wakes at most one of the parked drainers. A server
  // that woke a drainer per submit would count one or more per burst.
  std::vector<float> Pool = inRangePool(256);
  constexpr unsigned Threads = 3;
  Server S({.Threads = Threads,
            .TargetBatchElems = size_t(1) << 20,
            .FlushDeadlineUs = 60u * 1000u * 1000u});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::vector<VariantKey> Keys;
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme Sch : AllEvalSchemes)
      if (available(F, Sch))
        Keys.push_back(VariantKey{F, Sch, FPFormat::float32(),
                                  RoundingMode::NearestEven});
  std::vector<std::pair<Request, std::future<Result>>> Outstanding;
  for (size_t I = 0; I < 200; ++I) {
    Request R;
    R.Key = Keys[I % Keys.size()];
    R.Key.Mode = StandardRoundingModes[I % 5];
    R.In = Pool.data() + I % 240;
    R.N = 4 + I % 13;
    std::future<Result> Fut = S.submit(R);
    Outstanding.emplace_back(std::move(R), std::move(Fut));
    if (I % 10 == 9) // let any woken drainer park again between bursts
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ServerStats St = S.stats();
  EXPECT_LE(St.Wakeups, Threads);
  EXPECT_LE(St.IdleWakeups, St.Wakeups);
  EXPECT_EQ(St.Batches, 0u);
  S.flush();
  for (auto &[R, Fut] : Outstanding) {
    ASSERT_EQ(Fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    expectExact(Fut.get(), R);
  }
}

/// Sets an environment variable for one scope and restores its previous
/// value (or absence) afterwards.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = Old;
    else
      WasSet = false;
    setenv(Name, Value, 1);
  }
  ~ScopedEnv() {
    if (WasSet)
      setenv(Name, Saved.c_str(), 1);
    else
      unsetenv(Name);
  }
  ScopedEnv(const ScopedEnv &) = delete;
  ScopedEnv &operator=(const ScopedEnv &) = delete;

private:
  const char *Name;
  std::string Saved;
  bool WasSet = true;
};

TEST(ServeTest, MalformedFlushEnvFallsBackToTheOption) {
  // RFP_SERVE_FLUSH_US must be a whole decimal below 2^32. A wrapped
  // 2^32 (a 0 us deadline), a sign, a leading space or an overflow falls
  // back to ServerOptions::FlushDeadlineUs, here 60 s: only flush()
  // completes the request.
  std::vector<float> Pool = inRangePool(16);
  Request R;
  R.Key.Func = ElemFunc::Exp;
  R.Key.Scheme = EvalScheme::Knuth;
  R.In = Pool.data();
  R.N = Pool.size();
  for (const char *Bad :
       {"4294967296", "-0", " 5", "99999999999999999999", "", "12us"}) {
    ScopedEnv Env("RFP_SERVE_FLUSH_US", Bad);
    Server S({.Threads = 1,
              .TargetBatchElems = size_t(1) << 20,
              .FlushDeadlineUs = 60u * 1000u * 1000u});
    std::future<Result> Fut = S.submit(R);
    EXPECT_NE(Fut.wait_for(std::chrono::milliseconds(30)),
              std::future_status::ready)
        << "RFP_SERVE_FLUSH_US=\"" << Bad << "\"";
    S.flush();
    expectExact(Fut.get(), R);
  }
  // A well-formed value still overrides the option.
  ScopedEnv Env("RFP_SERVE_FLUSH_US", "100");
  Server S({.Threads = 1,
            .TargetBatchElems = size_t(1) << 20,
            .FlushDeadlineUs = 60u * 1000u * 1000u});
  std::future<Result> Fut = S.submit(R);
  ASSERT_EQ(Fut.wait_for(std::chrono::seconds(1)), std::future_status::ready);
  expectExact(Fut.get(), R);
}

TEST(ServeTest, UnavailableVariantAndEmptyRequest) {
  Server S;
  Request Bad;
  Bad.Key.Func = ElemFunc::Log10;
  Bad.Key.Scheme = EvalScheme::Knuth; // not generated (paper Table 1: N/A)
  EXPECT_THROW(S.submit(Bad).get(), std::invalid_argument);

  Request Empty;
  Empty.Key.Func = ElemFunc::Exp;
  Empty.N = 0;
  Result Res = S.submit(Empty).get();
  EXPECT_TRUE(Res.H.empty());
  EXPECT_TRUE(Res.Enc.empty());
}

} // namespace
