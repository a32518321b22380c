//===- tests/LibmSpecialTest.cpp - Special-value semantics ----------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "libm/Batch.h"
#include "libm/rfp.h"
#include "libm/rlibm.h"

#include "oracle/Oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

using namespace rfp;
using namespace rfp::libm;

namespace {

constexpr float Inf = std::numeric_limits<float>::infinity();
constexpr float NaN = std::numeric_limits<float>::quiet_NaN();

TEST(LibmSpecialTest, ExpFamilyIEEESemantics) {
  for (ElemFunc F : {ElemFunc::Exp, ElemFunc::Exp2, ElemFunc::Exp10}) {
    for (EvalScheme S : AllEvalSchemes) {
      if (!variantInfo(F, S).Available)
        continue;
      EXPECT_TRUE(std::isnan(evalCore(F, S, NaN)));
      EXPECT_TRUE(std::isinf(evalCore(F, S, Inf)));
      EXPECT_EQ(static_cast<float>(evalCore(F, S, -Inf)), 0.0f);
      EXPECT_EQ(evalCore(F, S, 0.0f), 1.0);
      EXPECT_EQ(evalCore(F, S, -0.0f), 1.0);
    }
  }
}

TEST(LibmSpecialTest, LogFamilyIEEESemantics) {
  for (ElemFunc F : {ElemFunc::Log, ElemFunc::Log2, ElemFunc::Log10}) {
    for (EvalScheme S : AllEvalSchemes) {
      if (!variantInfo(F, S).Available)
        continue;
      EXPECT_TRUE(std::isnan(evalCore(F, S, NaN)));
      EXPECT_TRUE(std::isnan(evalCore(F, S, -1.0f)));
      EXPECT_TRUE(std::isnan(evalCore(F, S, -Inf)));
      EXPECT_EQ(evalCore(F, S, 0.0f), -HUGE_VAL);
      EXPECT_EQ(evalCore(F, S, -0.0f), -HUGE_VAL);
      EXPECT_TRUE(std::isinf(evalCore(F, S, Inf)));
      EXPECT_EQ(evalCore(F, S, 1.0f), 0.0);
    }
  }
}

TEST(LibmSpecialTest, ExactValuesAreExact) {
  for (EvalScheme S : AllEvalSchemes) {
    if (variantInfo(ElemFunc::Exp2, S).Available) {
      EXPECT_EQ(evalCore(ElemFunc::Exp2, S, 10.0f), 1024.0);
      EXPECT_EQ(evalCore(ElemFunc::Exp2, S, -149.0f), 0x1p-149);
      EXPECT_EQ(evalCore(ElemFunc::Exp2, S, -126.0f), 0x1p-126);
    }
    if (variantInfo(ElemFunc::Log2, S).Available) {
      EXPECT_EQ(evalCore(ElemFunc::Log2, S, 1024.0f), 10.0);
      EXPECT_EQ(evalCore(ElemFunc::Log2, S, 0x1p-149f), -149.0);
    }
    if (variantInfo(ElemFunc::Exp10, S).Available)
      EXPECT_EQ(static_cast<float>(evalCore(ElemFunc::Exp10, S, 2.0f)),
                100.0f);
    if (variantInfo(ElemFunc::Log10, S).Available)
      EXPECT_EQ(static_cast<float>(evalCore(ElemFunc::Log10, S, 1000.0f)),
                3.0f);
  }
}

TEST(LibmSpecialTest, OverflowBehaviourPerMode) {
  // Inputs just past the overflow boundary: rn gives inf, rz gives the
  // format's max finite value.
  FPFormat F32 = FPFormat::float32();
  double H = exp_estrin_fma(89.0f);
  EXPECT_TRUE(F32.isInf(roundResult(H, F32, RoundingMode::NearestEven)));
  EXPECT_EQ(F32.decode(roundResult(H, F32, RoundingMode::TowardZero)),
            F32.maxFinite());
  FPFormat BF16 = FPFormat::bfloat16();
  EXPECT_TRUE(BF16.isInf(roundResult(H, BF16, RoundingMode::NearestEven)));
  EXPECT_EQ(BF16.decode(roundResult(H, BF16, RoundingMode::TowardZero)),
            BF16.maxFinite());
}

TEST(LibmSpecialTest, UnderflowBehaviourPerMode) {
  FPFormat F32 = FPFormat::float32();
  double H = exp2_estrin_fma(-160.0f);
  EXPECT_EQ(F32.decode(roundResult(H, F32, RoundingMode::NearestEven)), 0.0);
  EXPECT_EQ(F32.decode(roundResult(H, F32, RoundingMode::Upward)),
            F32.minSubnormal());
  EXPECT_EQ(F32.decode(roundResult(H, F32, RoundingMode::TowardZero)), 0.0);
}

TEST(LibmSpecialTest, TinyInputsNearOne) {
  // exp-family results for tiny inputs sit strictly between 1 and its
  // neighbours: correct under directed rounding.
  FPFormat F32 = FPFormat::float32();
  double H = exp_estrin_fma(1e-30f);
  EXPECT_GT(H, 1.0);
  EXPECT_EQ(F32.decode(roundResult(H, F32, RoundingMode::NearestEven)), 1.0);
  EXPECT_GT(F32.decode(roundResult(H, F32, RoundingMode::Upward)), 1.0);
  double HN = exp_estrin_fma(-1e-30f);
  EXPECT_LT(HN, 1.0);
  EXPECT_EQ(F32.decode(roundResult(HN, F32, RoundingMode::NearestEven)), 1.0);
  EXPECT_LT(F32.decode(roundResult(HN, F32, RoundingMode::Downward)), 1.0);
}

TEST(LibmSpecialTest, SubnormalInputsLogFamily) {
  FPFormat F32 = FPFormat::float32();
  for (float X : {0x1p-149f, 3 * 0x1p-149f, 0x1.8p-140f, 0x1.cp-127f}) {
    for (EvalScheme S : AllEvalSchemes) {
      if (!variantInfo(ElemFunc::Log, S).Available)
        continue;
      double H = evalCore(ElemFunc::Log, S, X);
      uint64_t Want =
          Oracle::eval(ElemFunc::Log, X, F32, RoundingMode::NearestEven);
      EXPECT_EQ(F32.roundDouble(H, RoundingMode::NearestEven), Want)
          << X << " " << evalSchemeName(S);
    }
  }
}

TEST(LibmSpecialTest, MonotoneNearOverflowBoundary) {
  // Walking the float inputs toward the exp overflow threshold, the float
  // results are non-decreasing and end at inf.
  const FPFormat F32 = FPFormat::float32();
  auto Exp = [&](float X) {
    return F32.decode(rfp::eval(VariantKey{ElemFunc::Exp}, X).Enc);
  };
  float X = 88.5f;
  double Prev = Exp(X);
  for (int I = 0; I < 2000; ++I) {
    X = std::nextafterf(X, HUGE_VALF);
    double Cur = Exp(X);
    EXPECT_GE(Cur, Prev) << X;
    Prev = Cur;
  }
  EXPECT_TRUE(std::isinf(Exp(89.5f)));
}

TEST(LibmSpecialTest, SpecialsTablesAreConsulted) {
  // Every generated special-case input must produce the correctly rounded
  // float, by construction of the table.
  FPFormat F32 = FPFormat::float32();
  for (ElemFunc F : AllElemFuncs) {
    for (EvalScheme S : AllEvalSchemes) {
      VariantInfo Info = variantInfo(F, S);
      if (!Info.Available || Info.NumSpecials == 0)
        continue;
      // Just exercise a broad sweep; specific bit patterns are covered by
      // the correctness sweeps. Check the count is small like the paper's.
      EXPECT_LE(Info.NumSpecials, 24);
    }
  }
}

//===----------------------------------------------------------------------===//
// Batch layer: special values in adjacent lanes
//===----------------------------------------------------------------------===//

/// Bitwise comparison (NaN payloads and signed zeros included).
uint64_t bitsOf(double V) {
  uint64_t B;
  std::memcpy(&B, &V, sizeof(B));
  return B;
}

/// Asserts evalBatch over In equals per-element evalCore bitwise, under
/// both the dispatched ISA and the forced-scalar path.
void expectBatchMatchesCore(ElemFunc F, EvalScheme S, const float *In,
                            size_t N) {
  std::vector<double> H(N, -42.0), Want(N);
  for (size_t I = 0; I < N; ++I)
    Want[I] = evalCore(F, S, In[I]);
  for (BatchISA ISA : {activeBatchISA(), BatchISA::Scalar}) {
    std::fill(H.begin(), H.end(), -42.0);
    evalBatchWithISA(ISA, F, S, In, H.data(), N);
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(bitsOf(H[I]), bitsOf(Want[I]))
          << elemFuncName(F) << "/" << evalSchemeName(S) << " isa "
          << batchISAName(ISA) << " lane " << I << " x=" << In[I];
  }
}

TEST(LibmSpecialTest, BatchAdjacentSpecialLanes) {
  // Every lane of a 4-wide block can need the scalar fallback for a
  // different reason; interleave them with polynomial-path neighbours so
  // the lane mask must route each lane individually.
  const float Mixed[] = {
      NaN,        0.5f,       Inf,      1.5f,       // NaN / inf next to normals
      -Inf,       1e30f,      0x1p-149f, 10.0f,     // overflow-huge, subnormal,
      -0.0f,      0.0f,       1.0f,      1024.0f,   //   table-exact (exp2/log2)
      88.9f,      -104.5f,    -150.0f,   127.5f,    // exp-family over/underflow
      0x1.8p-140f, 3.7f,      -2.0f,     0x1.cp-127f,
      NaN,        NaN,        Inf,       -Inf,      // specials filling a block
  };
  constexpr size_t N = sizeof(Mixed) / sizeof(Mixed[0]);
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme S : AllEvalSchemes)
      if (variantInfo(F, S).Available)
        expectBatchMatchesCore(F, S, Mixed, N);
}

TEST(LibmSpecialTest, BatchMisalignedAndOddLengths) {
  // Odd lengths exercise the scalar tail; the +1 element offsets make both
  // buffers misaligned for any 16/32-byte vector access.
  std::vector<float> Backing;
  for (int I = 0; I < 70; ++I)
    Backing.push_back(-20.0f + 0.61f * static_cast<float>(I));
  Backing[13] = NaN;
  Backing[14] = Inf;
  Backing[37] = 0x1p-149f;
  for (size_t N : {0u, 1u, 2u, 3u, 5u, 7u, 31u, 69u}) {
    const float *In = Backing.data() + 1;
    std::vector<double> H(N + 1), Want(N);
    for (size_t I = 0; I < N; ++I)
      Want[I] = evalCore(ElemFunc::Exp, EvalScheme::EstrinFMA, In[I]);
    evalBatch(ElemFunc::Exp, EvalScheme::EstrinFMA, In, H.data() + 1, N);
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(bitsOf(H[I + 1]), bitsOf(Want[I])) << "N=" << N << " lane " << I;
  }
}

} // namespace
