//===- bench/bench_bigint.cpp - BigInt/Rational hot-path microbench -------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Microbenchmarks for the arithmetic the exact-rational LP solver leans on,
// structured as limb-size ladders that bracket the small-buffer capacity
// (4 limbs) and the Karatsuba threshold (BigInt::KaratsubaThreshold limbs):
//
//   * BM_MulBalanced vs BM_MulSchoolbook -- the same balanced products with
//     the Karatsuba dispatch on and off; the crossover locates the right
//     threshold (recorded in EXPERIMENTS.md).
//   * BM_MagMulSingleLimb / BM_MagMulLopsided -- the pivot-loop shapes
//     (long x short) that must stay on the schoolbook fast path.
//   * BM_Gcd -- the Lehmer gcd on operands with a planted common factor
//     (the simplex's read-back of y / P, the Henrici rational paths).
//   * BM_DivMod vs BM_DivExact -- Algorithm D against the 2-adic exact
//     division at the fraction-free pivot's shape.
//   * BM_SmallValueChurn -- copy/arithmetic churn at 1..4 limbs, where the
//     small-buffer representation avoids every heap touch.
//   * BM_RationalNormalize* -- the Den.isOne() and Henrici fast paths.
//
// Emits google-benchmark JSON to bench_bigint.json by default (the custom
// main injects --benchmark_out; pass your own to override).
//
//===----------------------------------------------------------------------===//

#include "support/Rational.h"

#include <benchmark/benchmark.h>

#include "JsonWriter.h" // after benchmark.h: enables runBenchmarkMain

#include <cstring>
#include <string>
#include <vector>

using namespace rfp;

namespace {

/// A reproducible ~NumLimbs-limb positive integer; another \p Seed and
/// \p Mult give an unrelated one.
BigInt bigOperand(unsigned NumLimbs, uint64_t Mult = 0xdeadbeefcafef00dull,
                  uint64_t Seed = 0x9e3779b97f4a7c15ull) {
  BigInt V(Seed, true);
  for (unsigned I = 1; I * 2 < NumLimbs; ++I)
    V = V * BigInt(Mult, true) + BigInt(12345);
  return V;
}

/// Balanced product ladder bracketing the Karatsuba threshold: sizes below,
/// at, and well above BigInt::KaratsubaThreshold limbs.
void BM_MulBalanced(benchmark::State &State) {
  BigInt A = bigOperand(static_cast<unsigned>(State.range(0)));
  BigInt B = bigOperand(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    BigInt P = A * B;
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_MulBalanced)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128)
    ->Arg(256);

/// The same ladder with the dispatch pinned to schoolbook: the ratio to
/// BM_MulBalanced at each size shows where Karatsuba starts paying.
void BM_MulSchoolbook(benchmark::State &State) {
  BigInt A = bigOperand(static_cast<unsigned>(State.range(0)));
  BigInt B = bigOperand(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    BigInt P = BigInt::mulSchoolbook(A, B);
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_MulSchoolbook)
    ->Arg(4)
    ->Arg(8)
    ->Arg(16)
    ->Arg(32)
    ->Arg(48)
    ->Arg(64)
    ->Arg(96)
    ->Arg(128)
    ->Arg(256);

void BM_MagMulSingleLimb(benchmark::State &State) {
  BigInt Long = bigOperand(static_cast<unsigned>(State.range(0)));
  BigInt Small(0x12345677);
  for (auto _ : State) {
    BigInt P = Long * Small;
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_MagMulSingleLimb)->Arg(8)->Arg(32)->Arg(128);

/// Long x short products (the fraction-free pivot shape): min(size) stays
/// below the threshold, so these must never enter the Karatsuba path.
void BM_MagMulLopsided(benchmark::State &State) {
  BigInt A = bigOperand(static_cast<unsigned>(State.range(0)));
  BigInt B = bigOperand(static_cast<unsigned>(State.range(0)) / 8 + 2);
  for (auto _ : State) {
    BigInt P = A * B;
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_MagMulLopsided)->Arg(32)->Arg(64)->Arg(128);

/// Gcd ladder on two unrelated (L + 2)-limb operands sharing a 2-limb odd
/// factor, so Euclid runs its full length (a pair like (A, 6A + 1) ends
/// after two quotients). The simplex's read-back calls this on y_k and P,
/// about 57 limbs each on the generator's LPs (Arg 55).
void BM_Gcd(benchmark::State &State) {
  unsigned L = static_cast<unsigned>(State.range(0));
  BigInt F(0xc2b2ae3d27d4eb4full, true);
  BigInt A = bigOperand(L) * F;
  BigInt B = bigOperand(L, 0x94d049bb133111ebull, 0x2545f4914f6cdd1dull) * F;
  for (auto _ : State) {
    BigInt G = BigInt::gcd(A, B);
    benchmark::DoNotOptimize(G);
  }
}
BENCHMARK(BM_Gcd)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(55);

/// The fraction-free pivot's division: a ~90-limb dividend, known to be a
/// multiple of the ~48-limb basis denominator P, divided by P.
struct PivotDivision {
  BigInt P = bigOperand(48) + BigInt(1);
  BigInt Num = P * bigOperand(42, 0x94d049bb133111ebull);
};

void BM_DivMod(benchmark::State &State) {
  PivotDivision D;
  for (auto _ : State) {
    BigInt Q, R;
    BigInt::divMod(D.Num, D.P, Q, R);
    benchmark::DoNotOptimize(Q);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_DivMod);

void BM_DivExact(benchmark::State &State) {
  PivotDivision D;
  for (auto _ : State) {
    BigInt Q = BigInt::divExact(D.Num, D.P);
    benchmark::DoNotOptimize(Q);
  }
}
BENCHMARK(BM_DivExact);

/// Value churn at small sizes: straddles the 4-limb inline capacity, so
/// Arg(3)/Arg(4) run heap-free under the small-buffer layout while Arg(6)
/// pays for allocation.
void BM_SmallValueChurn(benchmark::State &State) {
  BigInt Seed = bigOperand(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    BigInt A = Seed;           // copy
    BigInt B = A + BigInt(1);  // small add
    BigInt C = B - Seed;       // back to one limb
    A = std::move(B);
    benchmark::DoNotOptimize(A);
    benchmark::DoNotOptimize(C);
  }
}
BENCHMARK(BM_SmallValueChurn)->Arg(1)->Arg(3)->Arg(4)->Arg(6);

void BM_RationalNormalizeInteger(benchmark::State &State) {
  // Integer-valued rationals: the Den.isOne() early-out skips the gcd.
  BigInt N = bigOperand(static_cast<unsigned>(State.range(0)));
  for (auto _ : State) {
    Rational R(N);
    Rational Sq = R * R;
    benchmark::DoNotOptimize(Sq);
  }
}
BENCHMARK(BM_RationalNormalizeInteger)->Arg(8)->Arg(32);

void BM_RationalNormalizeFraction(benchmark::State &State) {
  // Dyadic fractions exercise the Henrici cross-gcd paths (power-of-two
  // denominators cancel by shifts).
  Rational A = Rational::fromDouble(0x1.fedcba9876543p-7);
  Rational B = Rational::fromDouble(0x1.23456789abcdep+9);
  for (auto _ : State) {
    Rational P = A * B + A;
    benchmark::DoNotOptimize(P);
  }
}
BENCHMARK(BM_RationalNormalizeFraction);

} // namespace

// Custom main via the shared helper: default to JSON output in
// bench_bigint.json so CI and EXPERIMENTS.md runs get machine-readable
// numbers without extra flags, while still honoring any --benchmark_*
// flags passed explicitly.
int main(int Argc, char **Argv) {
  return rfp::bench::runBenchmarkMain(Argc, Argv, "bench_bigint.json");
}
