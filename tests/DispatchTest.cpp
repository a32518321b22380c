//===- tests/DispatchTest.cpp - libm API surface consistency --------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "libm/Batch.h"
#include "libm/rfp.h"
#include "libm/rlibm.h"
#include "support/Telemetry.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>

using namespace rfp;
using namespace rfp::libm;

namespace {

uint64_t bitsOfDouble(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

TEST(DispatchTest, EvalCoreMatchesNamedEntryPoints) {
  std::mt19937_64 Rng(1);
  for (int T = 0; T < 2000; ++T) {
    float X;
    uint32_t Bits = static_cast<uint32_t>(Rng());
    std::memcpy(&X, &Bits, sizeof(X));
    if (std::isnan(X))
      continue;
    auto Same = [](double A, double B) {
      return (std::isnan(A) && std::isnan(B)) || A == B;
    };
    EXPECT_TRUE(Same(evalCore(ElemFunc::Exp, EvalScheme::Horner, X),
                     exp_horner(X)));
    EXPECT_TRUE(Same(evalCore(ElemFunc::Exp2, EvalScheme::Estrin, X),
                     exp2_estrin(X)));
    EXPECT_TRUE(Same(evalCore(ElemFunc::Log, EvalScheme::EstrinFMA, X),
                     log_estrin_fma(X)));
    EXPECT_TRUE(Same(evalCore(ElemFunc::Log10, EvalScheme::Horner, X),
                     log10_horner(X)));
  }
}

TEST(DispatchTest, SchemesAgreeOnRoundedResults) {
  // Different evaluation schemes may return different H doubles, but every
  // rounded result must agree (they were all validated against the same
  // rounding intervals).
  std::mt19937_64 Rng(2);
  FPFormat F32 = FPFormat::float32();
  for (int T = 0; T < 3000; ++T) {
    float X;
    uint32_t Bits = static_cast<uint32_t>(Rng());
    std::memcpy(&X, &Bits, sizeof(X));
    if (std::isnan(X))
      continue;
    for (ElemFunc F : AllElemFuncs) {
      double Ref = evalCore(F, EvalScheme::Horner, X);
      uint64_t RefEnc = roundResult(Ref, F32, RoundingMode::NearestEven);
      for (EvalScheme S :
           {EvalScheme::Knuth, EvalScheme::Estrin, EvalScheme::EstrinFMA}) {
        if (!variantInfo(F, S).Available)
          continue;
        uint64_t Enc =
            roundResult(evalCore(F, S, X), F32, RoundingMode::NearestEven);
        EXPECT_EQ(Enc, RefEnc)
            << elemFuncName(F) << "/" << evalSchemeName(S) << " x=" << X;
      }
    }
  }
}

TEST(DispatchTest, RoundResultMatchesFormatRounding) {
  FPFormat BF16 = FPFormat::bfloat16();
  double H = exp_estrin_fma(1.5f);
  EXPECT_EQ(roundResult(H, BF16, RoundingMode::Upward),
            BF16.roundDouble(H, RoundingMode::Upward));
}

TEST(DispatchTest, MonotonicityAcrossTheFullDomain) {
  // exp-family functions are monotone increasing; walking strided float
  // inputs in value order must give non-decreasing float results.
  for (ElemFunc F : {ElemFunc::Exp, ElemFunc::Exp2, ElemFunc::Exp10}) {
    float Prev = 0.0f;
    bool First = true;
    for (int Milli = -95000; Milli <= 35000; Milli += 7) {
      float X = Milli * 1e-3f;
      float V = static_cast<float>(evalCore(F, EvalScheme::EstrinFMA, X));
      if (!First)
        EXPECT_GE(V, Prev) << elemFuncName(F) << " at x=" << X;
      Prev = V;
      First = false;
    }
  }
  // log-family likewise over positive inputs.
  for (ElemFunc F : {ElemFunc::Log, ElemFunc::Log2, ElemFunc::Log10}) {
    float Prev = 0.0f;
    bool First = true;
    for (int E = -40; E <= 40; ++E) {
      for (int M = 0; M < 8; ++M) {
        float X = std::ldexp(1.0f + M / 8.0f, E);
        float V = static_cast<float>(evalCore(F, EvalScheme::Estrin, X));
        if (!First)
          EXPECT_GE(V, Prev) << elemFuncName(F) << " at x=" << X;
        Prev = V;
        First = false;
      }
    }
  }
}

TEST(DispatchTest, GarbageBatchISAEnvWarnsAndResolvesAsAuto) {
  // This binary's only use of the active-ISA batch API (the test after it
  // pins ISAs explicitly), so the one-time ISA resolution happens here,
  // under the garbage override. The contract: an unrecognized
  // RFP_BATCH_ISA value warns once through the leveled logger and degrades
  // to the best detected ISA (never to a silent scalar downgrade, never a
  // crash).
  setenv("RFP_BATCH_ISA", "avx9000", /*overwrite=*/1);
  int Warnings = 0;
  std::string LastMsg;
  telemetry::setLogLevel(telemetry::LogLevel::Warn);
  {
    telemetry::ScopedLogSink Sink(
        [&](telemetry::LogLevel L, const char *Component,
            const std::string &Msg) {
          if (L == telemetry::LogLevel::Warn &&
              std::strcmp(Component, "libm.batch") == 0 &&
              Msg.find("RFP_BATCH_ISA") != std::string::npos) {
            ++Warnings;
            LastMsg = Msg;
          }
        });
    BatchISA Resolved = activeBatchISA();
    // Resolved as auto: a real ISA with a real name, stable across calls.
    EXPECT_EQ(Resolved, activeBatchISA());
    bool Named = false;
    for (BatchISA ISA : AllBatchISAs)
      Named |= Resolved == ISA && std::strcmp(batchISAName(ISA), "??") != 0;
    EXPECT_TRUE(Named);
    // Warned exactly once (resolution is cached); repeat calls are silent.
    activeBatchISA();
    activeBatchISA();
  }
  EXPECT_EQ(Warnings, 1) << LastMsg;
  EXPECT_NE(LastMsg.find("avx9000"), std::string::npos) << LastMsg;
  // The message must also say which fallback set it chose -- pinned text,
  // including the resolved ISA's name (so a typo'd override is diagnosable
  // from the log alone).
  std::string Fallback = std::string("using best detected ISA (") +
                         batchISAName(activeBatchISA()) + ")";
  EXPECT_NE(LastMsg.find(Fallback), std::string::npos)
      << "expected \"" << Fallback << "\" in: " << LastMsg;

  // And the resolved set actually evaluates correctly.
  const float In[5] = {0.5f, 1.0f, -2.25f, 3.75f, 100.0f};
  double H[5];
  evalBatch(ElemFunc::Exp, EvalScheme::EstrinFMA, In, H, 5);
  for (int I = 0; I < 5; ++I)
    EXPECT_EQ(bitsOfDouble(exp_estrin_fma(In[I])), bitsOfDouble(H[I]));
  unsetenv("RFP_BATCH_ISA");
}

TEST(DispatchTest, RoundElemsCountersNameTheRoundingISA) {
  // One libm.round.elems.<isa> add per roundBatch call, under the ISA that
  // rounded: the pinned set's own where it has rounding kernels (AVX2,
  // AVX-512), scalar where encodings come from the roundDouble loop (the
  // scalar and NEON sets, and any format with precision > 52).
  const char *Names[4] = {"scalar", "avx2", "avx512", "neon"};
  auto Read = [&](const char *Prefix, uint64_t (&Out)[4]) {
    for (int I = 0; I < 4; ++I)
      Out[I] =
          telemetry::counterValue((std::string(Prefix) + Names[I]).c_str());
  };
  const double H[5] = {1.0, -0x1.8p-130, 0x1p200, -0.0, 3.25};
  const float X = 1.5f;
  for (BatchISA ISA : AllBatchISAs) {
    // The set this pin resolves to is the one whose call counter moves.
    uint64_t Before[4], After[4];
    Read("libm.batch.calls.", Before);
    double Unused;
    evalBatchWithISA(ISA, ElemFunc::Exp, EvalScheme::EstrinFMA, &X, &Unused,
                     1);
    Read("libm.batch.calls.", After);
    int Resolved = -1;
    for (int I = 0; I < 4; ++I)
      if (After[I] != Before[I])
        Resolved = I;
    ASSERT_GE(Resolved, 0) << batchISAName(ISA);
    BatchISA R = static_cast<BatchISA>(Resolved);
    int Vector = R == BatchISA::AVX2 || R == BatchISA::AVX512
                     ? Resolved
                     : static_cast<int>(BatchISA::Scalar);

    for (FPFormat F : {FPFormat::float32(), FPFormat(63, 10)}) {
      int Want = F.precision() <= 52 ? Vector
                                     : static_cast<int>(BatchISA::Scalar);
      uint64_t Enc[5];
      Read("libm.round.elems.", Before);
      roundBatch(ISA, H, Enc, 5, F, RoundingMode::Upward);
      Read("libm.round.elems.", After);
      for (int I = 0; I < 4; ++I)
        EXPECT_EQ(After[I] - Before[I], I == Want ? 5u : 0u)
            << batchISAName(ISA) << " fp" << F.totalBits() << " counter "
            << Names[I];
      for (int I = 0; I < 5; ++I)
        EXPECT_EQ(Enc[I], F.roundDouble(H[I], RoundingMode::Upward));
    }
  }
}

TEST(DispatchTest, InverseFunctionPairsRoundTrip) {
  // exp2(log2(x)) returns to x within a float ulp or two (not exact --
  // correctly rounded composition is not the identity, but it is tight).
  std::mt19937_64 Rng(3);
  std::uniform_real_distribution<float> Dist(0.001f, 1000.0f);
  const FPFormat F32 = FPFormat::float32();
  auto Eval = [&](ElemFunc F, float X) {
    return static_cast<float>(F32.decode(rfp::eval(VariantKey{F}, X).Enc));
  };
  for (int T = 0; T < 300; ++T) {
    float X = Dist(Rng);
    float RoundTrip = Eval(ElemFunc::Exp2, Eval(ElemFunc::Log2, X));
    EXPECT_NEAR(RoundTrip, X, std::fabs(X) * 4e-7f) << X;
  }
}

} // namespace
