//===- tests/RoundingCases.h - Boundary inputs for rounding ----*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The format table and per-format input table shared by the rounding-rule
/// test (FPFormatTest: roundDouble against roundRational) and the kernel
/// parity test (BatchParityTest: roundBatch against roundDouble). The
/// inputs follow Goldberg's list of the places rounding goes wrong: binade
/// edges, ties, the subnormal range, overflow, signed zeros, infinities
/// and NaNs -- each with its double neighbours and both signs.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_TESTS_ROUNDINGCASES_H
#define RFP_TESTS_ROUNDINGCASES_H

#include "fp/FPFormat.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

namespace rfp {
namespace roundcases {

/// All six rounding modes, round-to-odd included.
inline constexpr RoundingMode AllModes[6] = {
    RoundingMode::NearestEven, RoundingMode::NearestAway,
    RoundingMode::TowardZero,  RoundingMode::Upward,
    RoundingMode::Downward,    RoundingMode::ToOdd};

/// FP(10..34, 8), plus half precision FP(16, 5), the two-bit-exponent
/// FP(12, 2) and the double-range FP(40, 11), whose subnormal range reaches
/// into the double subnormals.
inline std::vector<FPFormat> formats() {
  std::vector<FPFormat> Fs;
  for (unsigned Bits = 10; Bits <= 34; ++Bits)
    Fs.emplace_back(Bits, 8);
  Fs.emplace_back(16, 5);
  Fs.emplace_back(12, 2);
  Fs.emplace_back(40, 11);
  return Fs;
}

/// Boundary inputs for \p F, as doubles:
///   * every binade edge 2^e from below half the smallest subnormal to
///     above the largest finite, with the ties just above it, one ulp
///     further (an odd neighbour), and just below the next edge (where a
///     mantissa carry walks into the next binade);
///   * the subnormal range: small and large multiples of the smallest
///     subnormal and the midpoints between them, half and a quarter of
///     the smallest subnormal;
///   * max-finite, the nearest-mode overflow threshold max + ulp/2, the
///     next binade edge and the largest double;
///   * double subnormals;
///   * a seeded spread of ordinary values across the format's range;
/// each with its double neighbours (one double ulp either side) and both
/// signs; then +-0, +-inf and NaN of both signs.
inline std::vector<double> inputs(const FPFormat &F) {
  std::vector<double> V;
  auto addNear = [&V](double X) {
    const double Inf = std::numeric_limits<double>::infinity();
    for (double Y : {std::nextafter(X, 0.0), X, std::nextafter(X, Inf)}) {
      V.push_back(Y);
      V.push_back(-Y);
    }
  };
  const int MBits = static_cast<int>(F.mantBits());
  for (int E = F.minExp() - MBits - 2; E <= F.maxExp() + 2; ++E) {
    double Edge = std::ldexp(1.0, E);
    double Ulp = std::ldexp(1.0, std::max(E, F.minExp()) - MBits);
    addNear(Edge);
    addNear(Edge + Ulp / 2);
    addNear(Edge + Ulp * 1.5);
    addNear(2 * Edge - Ulp / 2);
  }

  const double MinSub = F.minSubnormal();
  const uint64_t SubCount = 1ull << MBits; // subnormals plus zero
  for (uint64_t K : {uint64_t(1), uint64_t(2), uint64_t(3), uint64_t(4),
                     SubCount / 2 - 1, SubCount / 2, SubCount - 2,
                     SubCount - 1}) {
    addNear(static_cast<double>(K) * MinSub);
    addNear((static_cast<double>(K) + 0.5) * MinSub);
  }
  addNear(MinSub / 2);
  addNear(MinSub / 4);

  const double Max = F.maxFinite();
  const double MaxUlp = std::ldexp(1.0, F.maxExp() - MBits);
  addNear(Max);
  addNear(Max + MaxUlp / 2);
  addNear(Max + MaxUlp);
  addNear(std::numeric_limits<double>::max());

  for (double D : {0x1p-1074, 0x1p-1073, 0x3p-1074, 0x1.8p-1060, 0x1p-1040,
                   0x1p-1022 - 0x1p-1074})
    addNear(D);

  std::mt19937_64 Rng(F.totalBits() * 16 + F.expBits());
  const int Span = F.maxExp() - F.minExp() + MBits + 4;
  for (int T = 0; T < 256; ++T) {
    int E = F.minExp() - MBits - 2 + static_cast<int>(Rng() % Span) - 63;
    addNear(std::ldexp(static_cast<double>(Rng() >> 1), E));
  }

  const double Inf = std::numeric_limits<double>::infinity();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  for (double S : {0.0, Inf, NaN}) {
    V.push_back(S);
    V.push_back(-S);
  }
  return V;
}

} // namespace roundcases
} // namespace rfp

#endif // RFP_TESTS_ROUNDINGCASES_H
