//===- tests/LibmCorrectnessTest.cpp - Shipped-function correctness -------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The flagship guarantee (paper Section 6.3): every shipped implementation
// produces correctly rounded results for all FP(k, 8) formats with
// 10 <= k <= 32 and all five standard rounding modes. The paper checks all
// 2^32 inputs against 12 GB oracle files; here we check dense deterministic
// samples (a different stride from the generator's) plus targeted regions,
// computing the oracle on the fly.
//
//===----------------------------------------------------------------------===//

#include "libm/rlibm.h"

#include "oracle/Oracle.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

using namespace rfp;
using namespace rfp::libm;

namespace {

struct Variant {
  ElemFunc Func;
  EvalScheme Scheme;
};

class LibmCorrectnessTest : public ::testing::TestWithParam<Variant> {};

std::string variantName(const ::testing::TestParamInfo<Variant> &Info) {
  std::string S = std::string(elemFuncName(Info.param.Func)) + "_" +
                  evalSchemeName(Info.param.Scheme);
  for (char &C : S)
    if (C == '-')
      C = '_';
  return S;
}

/// float32 round-to-nearest correctness on a strided sweep.
TEST_P(LibmCorrectnessTest, Float32NearestSweep) {
  auto [Func, Scheme] = GetParam();
  VariantInfo Info = variantInfo(Func, Scheme);
  if (!Info.Available)
    GTEST_SKIP() << "variant not generated (paper reports N/A cases too)";

  FPFormat F32 = FPFormat::float32();
  size_t Wrong = 0, Checked = 0;
  constexpr uint64_t Stride = 104729; // prime; != generation stride
  for (uint64_t B = 0; B < (1ull << 32) && Wrong < 5; B += Stride) {
    float X;
    uint32_t Bits = static_cast<uint32_t>(B);
    std::memcpy(&X, &Bits, sizeof(X));
    double H = evalCore(Func, Scheme, X);
    uint64_t Want = Oracle::eval(Func, X, F32, RoundingMode::NearestEven);
    uint64_t Got = F32.roundDouble(H, RoundingMode::NearestEven);
    ++Checked;
    if (F32.isNaN(Want)) {
      if (!F32.isNaN(Got)) {
        ++Wrong;
        ADD_FAILURE() << "x=" << X << " want NaN";
      }
      continue;
    }
    if (Got != Want) {
      ++Wrong;
      ADD_FAILURE() << elemFuncName(Func) << "/" << evalSchemeName(Scheme)
                    << " x=" << X << std::hexfloat << " got "
                    << F32.decode(Got) << " want " << F32.decode(Want);
    }
  }
  EXPECT_GT(Checked, 30000u);
  EXPECT_EQ(Wrong, 0u);
}

/// Multiple representations and rounding modes from a single H result.
TEST_P(LibmCorrectnessTest, AllFormatsAllModes) {
  auto [Func, Scheme] = GetParam();
  if (!variantInfo(Func, Scheme).Available)
    GTEST_SKIP();

  FPFormat F34 = FPFormat::fp34();
  size_t Wrong = 0, Checked = 0;
  constexpr uint64_t Stride = 2000003;
  for (uint64_t B = 0; B < (1ull << 32) && Wrong < 5; B += Stride) {
    float X;
    uint32_t Bits = static_cast<uint32_t>(B);
    std::memcpy(&X, &Bits, sizeof(X));
    double H = evalCore(Func, Scheme, X);
    uint64_t Enc34 = Oracle::eval(Func, X, F34, RoundingMode::ToOdd);
    if (F34.isNaN(Enc34)) {
      EXPECT_TRUE(std::isnan(H));
      continue;
    }
    double RO = F34.decode(Enc34);
    ++Checked;
    for (unsigned K = 10; K <= 32; K += 2) {
      FPFormat Narrow = FPFormat::withBits(K);
      for (RoundingMode M : StandardRoundingModes) {
        uint64_t Want = Narrow.roundDouble(RO, M);
        uint64_t Got = roundResult(H, Narrow, M);
        if (Got != Want) {
          ++Wrong;
          ADD_FAILURE() << elemFuncName(Func) << "/"
                        << evalSchemeName(Scheme) << " x=" << X << " k=" << K
                        << " mode " << roundingModeName(M);
          break;
        }
      }
    }
  }
  EXPECT_GT(Checked, 800u);
  EXPECT_EQ(Wrong, 0u);
}

/// Dense coverage around the hardest regions: results near 1, domain
/// boundaries, and subnormal outputs.
TEST_P(LibmCorrectnessTest, BoundaryRegionsDense) {
  auto [Func, Scheme] = GetParam();
  if (!variantInfo(Func, Scheme).Available)
    GTEST_SKIP();

  std::vector<float> Anchors;
  switch (Func) {
  case ElemFunc::Exp:
    Anchors = {0.0f, 88.72284f, -104.7f, -87.33f, 1.0f, -1.0f};
    break;
  case ElemFunc::Exp2:
    Anchors = {0.0f, 128.0f, -151.0f, -126.0f, 1.0f, 64.37f, -149.62f};
    break;
  case ElemFunc::Exp10:
    Anchors = {0.0f, 38.53184f, -45.46f, 1.0f, -37.92f};
    break;
  case ElemFunc::Log:
  case ElemFunc::Log2:
  case ElemFunc::Log10:
    Anchors = {1.0f, 0x1p-149f, 0x1p-126f, 2.0f, 0.5f, 3.4e38f, 10.0f};
    break;
  }
  FPFormat F32 = FPFormat::float32();
  size_t Wrong = 0;
  for (float A : Anchors) {
    uint32_t Center;
    std::memcpy(&Center, &A, sizeof(Center));
    for (int D = -60; D <= 60 && Wrong < 3; ++D) {
      uint32_t Bits = Center + static_cast<uint32_t>(D);
      float X;
      std::memcpy(&X, &Bits, sizeof(X));
      if (std::isnan(X))
        continue;
      double H = evalCore(Func, Scheme, X);
      uint64_t Want = Oracle::eval(Func, X, F32, RoundingMode::NearestEven);
      uint64_t Got = F32.roundDouble(H, RoundingMode::NearestEven);
      if (F32.isNaN(Want) ? !F32.isNaN(Got) : Got != Want) {
        ++Wrong;
        ADD_FAILURE() << elemFuncName(Func) << "/" << evalSchemeName(Scheme)
                      << " anchor " << A << " x=" << std::hexfloat << X;
      }
    }
  }
  EXPECT_EQ(Wrong, 0u);
}

std::vector<Variant> allVariants() {
  std::vector<Variant> V;
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme S : AllEvalSchemes)
      V.push_back({F, S});
  return V;
}

INSTANTIATE_TEST_SUITE_P(All24, LibmCorrectnessTest,
                         ::testing::ValuesIn(allVariants()), variantName);

TEST(LibmApiTest, VariantInfoIsPopulated) {
  int Available = 0;
  for (ElemFunc F : AllElemFuncs)
    for (EvalScheme S : AllEvalSchemes) {
      VariantInfo I = variantInfo(F, S);
      if (!I.Available)
        continue;
      ++Available;
      EXPECT_GE(I.NumPieces, 1);
      EXPECT_GE(I.MaxDegree, 2u);
      EXPECT_LE(I.MaxDegree, 8u);
      EXPECT_GT(I.GenInputs, 0u);
      EXPECT_GT(I.GenConstraints, 0u);
    }
  // The RLibm baseline and the Estrin variants must exist for all six
  // functions; Knuth may be N/A (as in the paper's Table 1).
  EXPECT_GE(Available, 18);
  for (ElemFunc F : AllElemFuncs) {
    EXPECT_TRUE(variantInfo(F, EvalScheme::Horner).Available);
    EXPECT_TRUE(variantInfo(F, EvalScheme::Estrin).Available);
    EXPECT_TRUE(variantInfo(F, EvalScheme::EstrinFMA).Available);
  }
}

} // namespace
