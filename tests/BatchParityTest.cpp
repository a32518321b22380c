//===- tests/BatchParityTest.cpp - Batch vs scalar bit-identity -----------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The batch layer's whole contract is one invariant: for every element,
// the H value written by evalBatch is bit-identical to the per-call scalar
// core's. These tests pin it for all 24 (function, scheme) variants under
// both the active ISA and the forced scalar kernels, over:
//
//   * strided sweeps of the full float bit space (sampled tier-1 version
//     of the 2^28-point sweep `bench_batch --verify` runs in full),
//   * dense windows around every special-case threshold, where the lane
//     mask's classification must flip at exactly the scalar bit,
//   * odd lengths and misaligned buffers (the kernels use unaligned
//     loads/stores; nothing may assume N % 4 == 0 or 32-byte bases).
//
// The rounding kernels behind roundBatch are held to the same standard
// against FPFormat::roundDouble, on the boundary table that FPFormatTest
// checks roundDouble against roundRational with; the public encoded entry,
// rfp::evalBatch, is held to rfp::eval lane by lane.
//
//===----------------------------------------------------------------------===//

#include "libm/Batch.h"
#include "libm/rfp.h"
#include "libm/rlibm.h"

#include "RoundingCases.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

using namespace rfp;
using namespace rfp::libm;

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

/// Checks every available variant over \p Inputs under \p ISA: batch H
/// must equal the scalar core H bit for bit (NaNs included -- the scalar
/// core produces one canonical NaN, and fallback lanes reuse it).
void expectParity(BatchISA ISA, const std::vector<float> &Inputs) {
  std::vector<double> H(Inputs.size());
  for (ElemFunc F : AllElemFuncs) {
    for (EvalScheme S : AllEvalSchemes) {
      if (!variantInfo(F, S).Available)
        continue;
      evalBatchWithISA(ISA, F, S, Inputs.data(), H.data(), Inputs.size());
      for (size_t I = 0; I < Inputs.size(); ++I) {
        double Want = evalCore(F, S, Inputs[I]);
        ASSERT_EQ(bitsOf(Want), bitsOf(H[I]))
            << elemFuncName(F) << "/" << evalSchemeName(S) << " under "
            << batchISAName(ISA) << " x=" << Inputs[I] << " ("
            << std::hexfloat << Inputs[I] << ") batch=" << H[I]
            << " scalar=" << Want;
      }
    }
  }
}

std::vector<float> stridedInputs(uint64_t Stride) {
  std::vector<float> Inputs;
  Inputs.reserve((1ull << 32) / Stride + 1);
  for (uint64_t B = 0; B < (1ull << 32); B += Stride)
    Inputs.push_back(floatFromBits(static_cast<uint32_t>(B)));
  return Inputs;
}

/// Dense windows around the inputs where the lane mask's classification
/// changes: overflow/underflow/small-input thresholds, the subnormal
/// boundary, powers of two (log table-exact), and integers (exp2).
std::vector<float> boundaryInputs() {
  const float Centers[] = {
      // exp thresholds: 128*ln2, -104.7 region, 2^-27
      0x1.62e42ep+6f, -104.7f, 0x1p-27f, -0x1p-27f,
      // exp2 thresholds and an exact-integer neighborhood
      128.0f, -151.0f, 0x1p-26f, -0x1p-26f, 3.0f, -7.0f,
      // exp10 thresholds
      0x1.344135p+5f, -45.46f, 0x1p-28f, -0x1p-28f,
      // log family: 1.0 (T==0, J==0), other powers of two, the
      // subnormal/normal boundary, zero
      1.0f, 2.0f, 0.25f, 0x1p-126f, 0.0f,
      // infinities and the largest finites
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
  };
  std::vector<float> Inputs;
  for (float C : Centers) {
    uint32_t Bits;
    std::memcpy(&Bits, &C, sizeof(Bits));
    for (int D = -48; D <= 48; ++D)
      Inputs.push_back(floatFromBits(Bits + static_cast<uint32_t>(D)));
  }
  return Inputs;
}

TEST(BatchParityTest, StridedSweepActiveISA) {
  expectParity(activeBatchISA(), stridedInputs(15013));
}

TEST(BatchParityTest, StridedSweepForcedScalar) {
  expectParity(BatchISA::Scalar, stridedInputs(104729));
}

TEST(BatchParityTest, StridedSweepForcedAVX2) {
  // On machines (or builds) without AVX2 this resolves to scalar kernels
  // and still must hold.
  expectParity(BatchISA::AVX2, stridedInputs(104729));
}

TEST(BatchParityTest, StridedSweepForcedAVX512) {
  // Falls back to scalar on machines (or builds) without AVX-512.
  expectParity(BatchISA::AVX512, stridedInputs(104729));
}

TEST(BatchParityTest, StridedSweepForcedNEON) {
  // Scalar everywhere except aarch64 builds, where the NEON kernels are
  // additionally behind the full dispatch-time parity probe.
  expectParity(BatchISA::NEON, stridedInputs(104729));
}

TEST(BatchParityTest, BoundaryWindows) {
  std::vector<float> Inputs = boundaryInputs();
  expectParity(activeBatchISA(), Inputs);
  expectParity(BatchISA::Scalar, Inputs);
}

TEST(BatchParityTest, NaNInfDenormalLaneMixes) {
  // Special values must classify into the fallback mask in whatever lane
  // they land, without disturbing the pure-polynomial lanes beside them.
  // The pattern pool cycles specials against ordinary values so every
  // lane position of every kernel width (2/4/8) sees every special.
  const float Specials[] = {
      std::numeric_limits<float>::quiet_NaN(),
      -std::numeric_limits<float>::quiet_NaN(),
      floatFromBits(0x7f800001u), // signaling NaN
      floatFromBits(0xff800001u),
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      0.0f, -0.0f,
      floatFromBits(0x00000001u), // smallest subnormal
      floatFromBits(0x007fffffu), // largest subnormal
      -floatFromBits(0x00000001u),
      -floatFromBits(0x007fffffu),
      0x1p-126f, // smallest normal
  };
  const float Normals[] = {0.5f, 1.5f, -2.25f, 3.0f, 88.0f, -10.0f, 0.125f};
  std::vector<float> Inputs;
  const size_t NumSpec = sizeof(Specials) / sizeof(Specials[0]);
  const size_t NumNorm = sizeof(Normals) / sizeof(Normals[0]);
  // Phase-shifted interleavings: for every stride 1..8, place each special
  // at every residue so it visits every SIMD lane.
  for (size_t Stride = 1; Stride <= 8; ++Stride)
    for (size_t Phase = 0; Phase < Stride; ++Phase)
      for (size_t I = 0; I < 8 * NumSpec; ++I)
        Inputs.push_back(I % Stride == Phase ? Specials[(I / Stride) % NumSpec]
                                             : Normals[I % NumNorm]);
  // And a block of back-to-back specials (whole vector falls back).
  for (size_t R = 0; R < 4; ++R)
    Inputs.insert(Inputs.end(), Specials, Specials + NumSpec);
  for (BatchISA ISA : AllBatchISAs)
    expectParity(ISA, Inputs);
}

TEST(BatchParityTest, ZeroLengthAndSingleElementTails) {
  // N = 0 must not touch either buffer; tiny N exercises the masked tail
  // (AVX-512) and scalar-tail (AVX2/NEON) paths from element zero.
  std::vector<float> In = {0.75f};
  for (BatchISA ISA : AllBatchISAs) {
    double Guard = -42.0;
    for (ElemFunc F : AllElemFuncs)
      for (EvalScheme S : AllEvalSchemes) {
        if (!variantInfo(F, S).Available)
          continue;
        evalBatchWithISA(ISA, F, S, nullptr, &Guard, 0);
        ASSERT_EQ(Guard, -42.0);
        double H = 0.0;
        evalBatchWithISA(ISA, F, S, In.data(), &H, 1);
        ASSERT_EQ(bitsOf(evalCore(F, S, In[0])), bitsOf(H))
            << elemFuncName(F) << "/" << evalSchemeName(S) << " under "
            << batchISAName(ISA);
      }
  }
}

TEST(BatchParityTest, OddLengthsAndMisalignedBuffersAllISAs) {
  // Every tail length 0..17 from element-misaligned bases, under every
  // forceable ISA: nothing may assume N % width == 0 or aligned pointers,
  // and a masked tail store must not touch H[N].
  std::vector<float> Pool = boundaryInputs();
  std::vector<float> In(Pool.size() + 3);
  std::copy(Pool.begin(), Pool.end(), In.begin() + 3);
  std::vector<double> Out(Pool.size() + 4);
  for (BatchISA ISA : AllBatchISAs)
    for (size_t Off : {size_t(1), size_t(3)})
      for (size_t N = 0; N <= 17; ++N) {
        std::fill(Out.begin(), Out.end(), -42.0);
        evalBatchWithISA(ISA, ElemFunc::Log2, EvalScheme::Knuth,
                         In.data() + Off, Out.data() + Off, N);
        for (size_t I = 0; I < N; ++I)
          ASSERT_EQ(bitsOf(log2_knuth(In[Off + I])), bitsOf(Out[Off + I]))
              << batchISAName(ISA) << " Off=" << Off << " N=" << N
              << " I=" << I;
        ASSERT_EQ(Out[Off + N], -42.0)
            << batchISAName(ISA) << " wrote past N=" << N;
      }
}

TEST(BatchParityTest, OddLengthsAndMisalignedBuffers) {
  // Inputs sized and offset so the kernels see every tail length and
  // byte-misaligned bases (the float base odd by one element, the double
  // base too).
  std::vector<float> Pool = stridedInputs(2000003);
  std::vector<float> In(Pool.size() + 1);
  std::vector<double> Out(Pool.size() + 1);
  std::copy(Pool.begin(), Pool.end(), In.begin() + 1);
  for (size_t N : {size_t(0), size_t(1), size_t(2), size_t(3), size_t(4),
                   size_t(5), size_t(7), size_t(9), size_t(31),
                   Pool.size()}) {
    evalBatch(ElemFunc::Exp, EvalScheme::EstrinFMA, In.data() + 1,
              Out.data() + 1, N);
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(bitsOf(exp_estrin_fma(In[1 + I])), bitsOf(Out[1 + I]))
          << "N=" << N << " I=" << I;
  }
}

TEST(BatchParityTest, RoundBatchMatchesRoundDouble) {
  // Every ISA's rounding kernels against FPFormat::roundDouble, element for
  // element, over the rounding-rule boundary table of every test format in
  // all six modes, plus FP(63, 10) (precision 53, past the kernels' bound,
  // so the scalar loop on every ISA). Lengths cover the empty call, the
  // masked tails around both vector widths and long runs, all from a
  // base one element off; neither neighbour of the written range may
  // change.
  const uint64_t Guard = 0x5a5a5a5a5a5a5a5aull;
  std::vector<FPFormat> Formats = roundcases::formats();
  Formats.emplace_back(63, 10);
  for (const FPFormat &F : Formats) {
    std::vector<double> Cases = roundcases::inputs(F);
    std::vector<size_t> Lengths = {0, 1, 3, 7, 8, 9, 1023, 1025,
                                   Cases.size()};
    std::vector<double> In(std::max<size_t>(Cases.size(), 1025) + 1);
    for (size_t I = 1; I < In.size(); ++I)
      In[I] = Cases[(I - 1) % Cases.size()];
    std::vector<uint64_t> Out(In.size() + 1);
    for (BatchISA ISA : AllBatchISAs)
      for (RoundingMode M : roundcases::AllModes)
        for (size_t N : Lengths) {
          std::fill(Out.begin(), Out.end(), Guard);
          roundBatch(ISA, In.data() + 1, Out.data() + 1, N, F, M);
          for (size_t I = 1; I <= N; ++I)
            ASSERT_EQ(Out[I], F.roundDouble(In[I], M))
                << batchISAName(ISA) << " FP(" << F.totalBits() << ", "
                << F.expBits() << ") " << roundingModeName(M) << " N=" << N
                << " v=" << std::hexfloat << In[I];
          ASSERT_EQ(Out[0], Guard) << batchISAName(ISA) << " N=" << N;
          ASSERT_EQ(Out[N + 1], Guard)
              << batchISAName(ISA) << " wrote past N=" << N;
        }
  }
}

TEST(BatchParityTest, EncodedBatchMatchesEval) {
  // The public encoded entry, rfp::evalBatch(K, In, Enc, N, H): every lane
  // equals rfp::eval(K, x), special lanes included, both through the
  // internal H staging (N crosses its 1024-element chunk) and with a
  // caller-supplied H.
  constexpr float Inf = std::numeric_limits<float>::infinity();
  std::vector<float> In = {std::numeric_limits<float>::quiet_NaN(),
                           -Inf, Inf, 0.0f, -0.0f, 1.0f, 0.5f, 2.0f, 100.0f,
                           1e30f, 0x1p-149f, -3.25f, 88.9f};
  std::vector<float> Strided = stridedInputs(1999993);
  In.insert(In.end(), Strided.begin(), Strided.end());
  ASSERT_GT(In.size(), 2048u);
  std::vector<uint64_t> Enc(In.size());
  std::vector<double> H(In.size());
  for (ElemFunc F : AllElemFuncs) {
    const VariantKey Keys[2] = {
        VariantKey{F},
        VariantKey{F, EvalScheme::EstrinFMA, FPFormat::withBits(12),
                   RoundingMode::Upward}};
    for (const VariantKey &K : Keys) {
      std::fill(Enc.begin(), Enc.end(), ~0ull);
      rfp::evalBatch(K, In.data(), Enc.data(), In.size());
      for (size_t I = 0; I < In.size(); ++I)
        ASSERT_EQ(Enc[I], rfp::eval(K, In[I]).Enc)
            << variantKeyName(K) << " staged, lane " << I << " x=" << In[I];

      std::fill(Enc.begin(), Enc.end(), ~0ull);
      rfp::evalBatch(K, In.data(), Enc.data(), In.size(), H.data());
      for (size_t I = 0; I < In.size(); ++I) {
        EvalResult Want = rfp::eval(K, In[I]);
        ASSERT_EQ(Enc[I], Want.Enc)
            << variantKeyName(K) << " with H, lane " << I << " x=" << In[I];
        ASSERT_EQ(bitsOf(H[I]), bitsOf(Want.H))
            << variantKeyName(K) << " H, lane " << I << " x=" << In[I];
      }
    }
  }
}

TEST(BatchParityTest, ISAResolutionIsStableAndNamed) {
  // Holds under any RFP_BATCH_ISA value, including the garbage ones CI
  // forces: resolution is cached and lands on a real, named ISA.
  BatchISA First = activeBatchISA();
  EXPECT_EQ(First, activeBatchISA()); // cached, not re-resolved
  bool Named = false;
  for (BatchISA ISA : AllBatchISAs)
    Named |= First == ISA && std::strcmp(batchISAName(ISA), "??") != 0;
  EXPECT_TRUE(Named) << static_cast<int>(First);
}

} // namespace
