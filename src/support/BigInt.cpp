//===- support/BigInt.cpp - Arbitrary-precision integers ------------------===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/BigInt.h"

#include <algorithm>
#include <cmath>
#include <cstring>

using namespace rfp;

BigInt::BigInt(int64_t V) {
  Negative = V < 0;
  // Avoid UB on INT64_MIN by negating in the unsigned domain.
  uint64_t M = Negative ? ~static_cast<uint64_t>(V) + 1 : static_cast<uint64_t>(V);
  if (M & 0xffffffffu)
    Limbs.push_back(static_cast<uint32_t>(M));
  if (M >> 32) {
    if (Limbs.empty())
      Limbs.push_back(0);
    Limbs.push_back(static_cast<uint32_t>(M >> 32));
  }
  trim();
}

BigInt::BigInt(uint64_t V, bool) {
  if (V & 0xffffffffu)
    Limbs.push_back(static_cast<uint32_t>(V));
  if (V >> 32) {
    if (Limbs.empty())
      Limbs.push_back(0);
    Limbs.push_back(static_cast<uint32_t>(V >> 32));
  }
  trim();
}

BigInt BigInt::fromDecimal(const std::string &S) {
  BigInt Result;
  size_t I = 0;
  bool Neg = false;
  if (I < S.size() && (S[I] == '-' || S[I] == '+')) {
    Neg = S[I] == '-';
    ++I;
  }
  assert(I < S.size() && "empty decimal literal");
  BigInt Ten(10);
  for (; I < S.size(); ++I) {
    assert(S[I] >= '0' && S[I] <= '9' && "bad digit in decimal literal");
    Result = Result * Ten + BigInt(static_cast<int64_t>(S[I] - '0'));
  }
  if (Neg)
    Result = -Result;
  return Result;
}

BigInt BigInt::pow2(unsigned K) {
  BigInt R(1);
  return R.shl(K);
}

void BigInt::trim() {
  while (!Limbs.empty() && Limbs.back() == 0)
    Limbs.pop_back();
  if (Limbs.empty())
    Negative = false;
}

bool BigInt::fitsInt64() const {
  unsigned Bits = bitLength();
  if (Bits < 64)
    return true;
  // INT64_MIN = -2^63 also fits.
  return Bits == 64 && Negative && !anyBitBelow(63);
}

int64_t BigInt::toInt64() const {
  assert(fitsInt64() && "value does not fit in int64_t");
  uint64_t M = 0;
  if (!Limbs.empty())
    M = Limbs[0];
  if (Limbs.size() > 1)
    M |= static_cast<uint64_t>(Limbs[1]) << 32;
  // Negate in the unsigned domain: -2^63 has no positive int64_t image.
  return static_cast<int64_t>(Negative ? ~M + 1 : M);
}

uint64_t BigInt::toUint64() const {
  assert(!Negative && bitLength() <= 64 && "value does not fit in uint64_t");
  uint64_t M = 0;
  if (!Limbs.empty())
    M = Limbs[0];
  if (Limbs.size() > 1)
    M |= static_cast<uint64_t>(Limbs[1]) << 32;
  return M;
}

double BigInt::toDouble() const {
  if (isZero())
    return 0.0;
  unsigned Bits = bitLength();
  if (Bits <= 63) {
    uint64_t M = Limbs[0];
    if (Limbs.size() > 1)
      M |= static_cast<uint64_t>(Limbs[1]) << 32;
    double D = static_cast<double>(M);
    return Negative ? -D : D;
  }
  // Extract the top 54 bits plus a sticky bit and round to nearest-even.
  unsigned Shift = Bits - 54;
  BigInt Top = shr(Shift);
  uint64_t M = Top.Limbs[0];
  if (Top.Limbs.size() > 1)
    M |= static_cast<uint64_t>(Top.Limbs[1]) << 32;
  bool Sticky = anyBitBelow(Shift);
  uint64_t RoundBit = M & 1;
  M >>= 1;
  if (RoundBit && (Sticky || (M & 1)))
    ++M;
  double D = std::ldexp(static_cast<double>(M), static_cast<int>(Shift + 1));
  return Negative ? -D : D;
}

unsigned BigInt::bitLength() const {
  if (Limbs.empty())
    return 0;
  unsigned Top = 32 - static_cast<unsigned>(__builtin_clz(Limbs.back()));
  return static_cast<unsigned>(Limbs.size() - 1) * 32 + Top;
}

bool BigInt::testBit(unsigned I) const {
  unsigned Limb = I / 32;
  if (Limb >= Limbs.size())
    return false;
  return (Limbs[Limb] >> (I % 32)) & 1;
}

bool BigInt::isPowerOfTwo() const {
  if (Limbs.empty())
    return false;
  const uint32_t *D = Limbs.data();
  size_t Top = Limbs.size() - 1;
  if (D[Top] & (D[Top] - 1))
    return false;
  for (size_t I = 0; I < Top; ++I)
    if (D[I] != 0)
      return false;
  return true;
}

bool BigInt::anyBitBelow(unsigned I) const {
  unsigned FullLimbs = I / 32;
  for (unsigned L = 0; L < FullLimbs && L < Limbs.size(); ++L)
    if (Limbs[L] != 0)
      return true;
  unsigned Rem = I % 32;
  if (Rem && FullLimbs < Limbs.size())
    if (Limbs[FullLimbs] & ((1u << Rem) - 1))
      return true;
  return false;
}

// NOTE on the loops below: limb accesses go through raw pointers hoisted
// before each loop, not through LimbVec::operator[]. The element type is
// uint32_t and so are the LimbVec header fields, so the compiler must
// assume a store through the element pointer can alias the inline/heap
// discriminant and would re-resolve data() after every write; hoisting the
// pointer once restores vector-grade codegen (measured ~2x on the
// schoolbook inner loop).

int BigInt::magCompare(const LimbVec &A, const LimbVec &B) {
  if (A.size() != B.size())
    return A.size() < B.size() ? -1 : 1;
  const uint32_t *AD = A.data(), *BD = B.data();
  for (size_t I = A.size(); I-- > 0;)
    if (AD[I] != BD[I])
      return AD[I] < BD[I] ? -1 : 1;
  return 0;
}

int BigInt::compare(const BigInt &RHS) const {
  if (Negative != RHS.Negative)
    return Negative ? -1 : 1;
  int M = magCompare(Limbs, RHS.Limbs);
  return Negative ? -M : M;
}

int BigInt::compareMagnitude(const BigInt &RHS) const {
  return magCompare(Limbs, RHS.Limbs);
}

LimbVec BigInt::magAdd(const LimbVec &A, const LimbVec &B) {
  const LimbVec &Long = A.size() >= B.size() ? A : B;
  const LimbVec &Short = A.size() >= B.size() ? B : A;
  size_t LongN = Long.size(), ShortN = Short.size();
  LimbVec R;
  R.resize(LongN + 1);
  const uint32_t *LD = Long.data(), *SD = Short.data();
  uint32_t *RD = R.data();
  uint64_t Carry = 0;
  size_t I = 0;
  for (; I < ShortN; ++I) {
    uint64_t Sum = Carry + LD[I] + SD[I];
    RD[I] = static_cast<uint32_t>(Sum);
    Carry = Sum >> 32;
  }
  for (; I < LongN; ++I) {
    uint64_t Sum = Carry + LD[I];
    RD[I] = static_cast<uint32_t>(Sum);
    Carry = Sum >> 32;
  }
  RD[LongN] = static_cast<uint32_t>(Carry);
  return R;
}

LimbVec BigInt::magSub(const LimbVec &A, const LimbVec &B) {
  assert(magCompare(A, B) >= 0 && "magSub requires |A| >= |B|");
  size_t AN = A.size(), BN = B.size();
  LimbVec R;
  R.resize(AN);
  const uint32_t *AD = A.data(), *BD = B.data();
  uint32_t *RD = R.data();
  int64_t Borrow = 0;
  size_t I = 0;
  for (; I < BN; ++I) {
    int64_t Diff =
        static_cast<int64_t>(AD[I]) - static_cast<int64_t>(BD[I]) - Borrow;
    Borrow = Diff < 0;
    if (Diff < 0)
      Diff += (1ll << 32);
    RD[I] = static_cast<uint32_t>(Diff);
  }
  for (; I < AN; ++I) {
    int64_t Diff = static_cast<int64_t>(AD[I]) - Borrow;
    Borrow = Diff < 0;
    if (Diff < 0)
      Diff += (1ll << 32);
    RD[I] = static_cast<uint32_t>(Diff);
  }
  assert(Borrow == 0 && "underflow in magSub");
  return R;
}

namespace {

/// Drops high zero limbs (magnitude canonical form for the helpers that
/// compare sizes).
void trimVec(LimbVec &V) {
  while (!V.empty() && V.back() == 0)
    V.pop_back();
}

/// Low M limbs of X (trimmed) into Lo, the rest into Hi.
void splitAt(const LimbVec &X, size_t M, LimbVec &Lo, LimbVec &Hi) {
  const uint32_t *XD = X.data();
  size_t Cut = std::min(M, X.size());
  Lo.resize(Cut);
  std::memcpy(Lo.data(), XD, Cut * sizeof(uint32_t));
  trimVec(Lo);
  Hi.clear();
  if (X.size() > M) {
    Hi.resize(X.size() - M);
    std::memcpy(Hi.data(), XD + M, (X.size() - M) * sizeof(uint32_t));
  }
}

/// R += V * 2^(32*Off). R must be pre-sized so the sum fits (true for the
/// Karatsuba recombination, where the running total never exceeds A*B).
void addInto(LimbVec &R, const LimbVec &V, size_t Off) {
  uint32_t *RD = R.data() + Off;
  const uint32_t *VD = V.data();
  uint64_t Carry = 0;
  size_t I = 0;
  for (; I < V.size(); ++I) {
    uint64_t Sum = static_cast<uint64_t>(RD[I]) + VD[I] + Carry;
    RD[I] = static_cast<uint32_t>(Sum);
    Carry = Sum >> 32;
  }
  while (Carry) {
    assert(Off + I < R.size() && "Karatsuba recombination overflow");
    uint64_t Sum = static_cast<uint64_t>(RD[I]) + Carry;
    RD[I] = static_cast<uint32_t>(Sum);
    Carry = Sum >> 32;
    ++I;
  }
}

} // namespace

LimbVec BigInt::magMulSchoolbook(const LimbVec &A, const LimbVec &B) {
  size_t AN = A.size(), BN = B.size();
  LimbVec R;
  R.assign(AN + BN, 0);
  const uint32_t *AD = A.data(), *BD = B.data();
  uint32_t *RD = R.data();
  for (size_t I = 0; I < AN; ++I) {
    uint64_t Carry = 0;
    uint64_t Ai = AD[I];
    uint32_t *Row = RD + I;
    for (size_t J = 0; J < BN; ++J) {
      uint64_t Cur = Row[J] + Ai * BD[J] + Carry;
      Row[J] = static_cast<uint32_t>(Cur);
      Carry = Cur >> 32;
    }
    Row[BN] = static_cast<uint32_t>(Carry);
  }
  return R;
}

LimbVec BigInt::magMulKaratsuba(const LimbVec &A, const LimbVec &B) {
  // A = A1*2^(32m) + A0, B likewise. Then
  //   A*B = Z2*2^(64m) + Z1*2^(32m) + Z0
  // with Z0 = A0*B0, Z2 = A1*B1, and the middle term computed from one
  // multiplication: Z1 = (A0+A1)*(B0+B1) - Z0 - Z2 (both subtractions are
  // non-negative). Recursion goes through magMul so sub-products drop back
  // to schoolbook below the threshold.
  size_t M = (std::max(A.size(), B.size()) + 1) / 2;
  LimbVec A0, A1, B0, B1;
  splitAt(A, M, A0, A1);
  splitAt(B, M, B0, B1);

  LimbVec Z0 = magMul(A0, B0);
  trimVec(Z0);
  LimbVec Z2 = magMul(A1, B1);
  trimVec(Z2);

  LimbVec SA = magAdd(A0, A1);
  trimVec(SA);
  LimbVec SB = magAdd(B0, B1);
  trimVec(SB);
  LimbVec Z1 = magMul(SA, SB);
  trimVec(Z1);
  Z1 = magSub(Z1, Z0);
  trimVec(Z1);
  Z1 = magSub(Z1, Z2);
  trimVec(Z1);

  LimbVec R;
  R.assign(A.size() + B.size(), 0);
  addInto(R, Z0, 0);
  addInto(R, Z1, M);
  addInto(R, Z2, 2 * M);
  return R;
}

LimbVec BigInt::magMul(const LimbVec &A, const LimbVec &B) {
  if (A.empty() || B.empty())
    return {};
  // Single-limb fast path: the LP solver's exact-rational pivots multiply
  // long numerators/denominators by small factors constantly, so 1xN
  // products dominate. One flat carry loop avoids the zeroed N+1-limb
  // accumulator and the inner-loop read-modify-write of the general case
  // (see EXPERIMENTS.md for the measured effect).
  if (A.size() == 1 || B.size() == 1) {
    uint64_t F = A.size() == 1 ? A[0] : B[0];
    const LimbVec &Long = A.size() == 1 ? B : A;
    size_t N = Long.size();
    LimbVec R;
    R.resize(N + 1);
    const uint32_t *LD = Long.data();
    uint32_t *RD = R.data();
    uint64_t Carry = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t Cur = F * LD[I] + Carry;
      RD[I] = static_cast<uint32_t>(Cur);
      Carry = Cur >> 32;
    }
    RD[N] = static_cast<uint32_t>(Carry);
    return R;
  }
  if (std::min(A.size(), B.size()) >= KaratsubaThreshold)
    return magMulKaratsuba(A, B);
  return magMulSchoolbook(A, B);
}

BigInt BigInt::mulSchoolbook(const BigInt &A, const BigInt &B) {
  BigInt R;
  if (!A.Limbs.empty() && !B.Limbs.empty())
    R.Limbs = magMulSchoolbook(A.Limbs, B.Limbs);
  R.Negative = A.Negative != B.Negative;
  R.trim();
  return R;
}

BigInt BigInt::operator-() const {
  BigInt R = *this;
  if (!R.isZero())
    R.Negative = !R.Negative;
  return R;
}

BigInt BigInt::operator+(const BigInt &RHS) const {
  BigInt R;
  if (Negative == RHS.Negative) {
    R.Limbs = magAdd(Limbs, RHS.Limbs);
    R.Negative = Negative;
  } else if (magCompare(Limbs, RHS.Limbs) >= 0) {
    R.Limbs = magSub(Limbs, RHS.Limbs);
    R.Negative = Negative;
  } else {
    R.Limbs = magSub(RHS.Limbs, Limbs);
    R.Negative = RHS.Negative;
  }
  R.trim();
  return R;
}

BigInt BigInt::operator-(const BigInt &RHS) const { return *this + (-RHS); }

BigInt BigInt::operator*(const BigInt &RHS) const {
  BigInt R;
  R.Limbs = magMul(Limbs, RHS.Limbs);
  R.Negative = Negative != RHS.Negative;
  R.trim();
  return R;
}

void BigInt::divMod(const BigInt &A, const BigInt &B, BigInt &Q, BigInt &R) {
  assert(!B.isZero() && "division by zero");
  int Cmp = magCompare(A.Limbs, B.Limbs);
  if (Cmp < 0) {
    Q = BigInt();
    R = A;
    return;
  }

  // Dyadic fast path, |B| = 2^K: the quotient is |A| >> K (truncation
  // toward zero, since the magnitude is what shifts) and the remainder is
  // the low K bits of |A|, both signed as in the general path.
  if (B.isPowerOfTwo()) {
    unsigned K = B.bitLength() - 1;
    BigInt Rem; // |A| >= 2^K, so A has all ceil(K / 32) low limbs.
    Rem.Limbs.resize((K + 31) / 32);
    std::memcpy(Rem.Limbs.data(), A.Limbs.data(),
                Rem.Limbs.size() * sizeof(uint32_t));
    if (K % 32 != 0)
      Rem.Limbs.back() &= (1u << (K % 32)) - 1;
    Rem.Negative = A.Negative;
    Rem.trim();
    BigInt Quo = A.shr(K); // Non-zero, for the same reason.
    Quo.Negative = A.Negative != B.Negative;
    Q = std::move(Quo);
    R = std::move(Rem);
    return;
  }

  // Single-limb fast path.
  if (B.Limbs.size() == 1) {
    uint64_t D = B.Limbs[0];
    LimbVec QL;
    QL.resize(A.Limbs.size());
    const uint32_t *AD = A.Limbs.data();
    uint32_t *QD = QL.data();
    uint64_t Rem = 0;
    for (size_t I = A.Limbs.size(); I-- > 0;) {
      uint64_t Cur = (Rem << 32) | AD[I];
      QD[I] = static_cast<uint32_t>(Cur / D);
      Rem = Cur % D;
    }
    Q.Limbs = std::move(QL);
    Q.Negative = A.Negative != B.Negative;
    Q.trim();
    R = BigInt(static_cast<int64_t>(Rem));
    if (A.Negative && !R.isZero())
      R.Negative = true;
    return;
  }

  // Knuth Algorithm D on normalized magnitudes.
  unsigned Shift = static_cast<unsigned>(__builtin_clz(B.Limbs.back()));
  BigInt U = A.shl(Shift);
  BigInt V = B.shl(Shift);
  U.Negative = V.Negative = false;
  size_t N = V.Limbs.size();
  size_t M = U.Limbs.size() - N;
  U.Limbs.push_back(0); // Room for the virtual high limb u[m+n].

  LimbVec QL;
  QL.resize(M + 1);
  uint32_t *QD = QL.data();
  uint32_t *UD = U.Limbs.data();
  const uint32_t *VD = V.Limbs.data();
  uint64_t VTop = VD[N - 1];
  uint64_t VNext = VD[N - 2];

  for (size_t J = M + 1; J-- > 0;) {
    // Estimate q_hat from the top two dividend limbs. When the estimate
    // saturates at 2^32 - 1 the remainder estimate must be recomputed for
    // that clamped value, or the correction loop below tests garbage and
    // the digit can be off by more than the one unit add-back repairs.
    uint64_t Num = (static_cast<uint64_t>(UD[J + N]) << 32) | UD[J + N - 1];
    uint64_t QHat, RHat;
    if ((Num >> 32) >= VTop) {
      QHat = 0xffffffffull;
      RHat = Num - QHat * VTop;
    } else {
      QHat = Num / VTop;
      RHat = Num % VTop;
    }
    while (RHat <= 0xffffffffull &&
           QHat * VNext > ((RHat << 32) | UD[J + N - 2])) {
      --QHat;
      RHat += VTop;
    }

    // Multiply-and-subtract: U[j..j+n] -= QHat * V.
    int64_t Borrow = 0;
    uint64_t Carry = 0;
    for (size_t I = 0; I < N; ++I) {
      uint64_t P = QHat * VD[I] + Carry;
      Carry = P >> 32;
      int64_t Sub = static_cast<int64_t>(UD[I + J]) -
                    static_cast<int64_t>(P & 0xffffffffull) - Borrow;
      Borrow = Sub < 0;
      if (Sub < 0)
        Sub += (1ll << 32);
      UD[I + J] = static_cast<uint32_t>(Sub);
    }
    int64_t Sub = static_cast<int64_t>(UD[J + N]) -
                  static_cast<int64_t>(Carry) - Borrow;
    bool NegStep = Sub < 0;
    if (Sub < 0)
      Sub += (1ll << 32);
    UD[J + N] = static_cast<uint32_t>(Sub);

    // Add-back step (rare): q_hat was one too large.
    if (NegStep) {
      --QHat;
      uint64_t C = 0;
      for (size_t I = 0; I < N; ++I) {
        uint64_t Sum = static_cast<uint64_t>(UD[I + J]) + VD[I] + C;
        UD[I + J] = static_cast<uint32_t>(Sum);
        C = Sum >> 32;
      }
      UD[J + N] = static_cast<uint32_t>(UD[J + N] + C);
    }
    QD[J] = static_cast<uint32_t>(QHat);
  }

  Q.Limbs = std::move(QL);
  Q.Negative = A.Negative != B.Negative;
  Q.trim();

  U.Limbs.resize(N);
  U.trim();
  R = U.shr(Shift);
  if (A.Negative && !R.isZero())
    R.Negative = true;
}

namespace {

/// Inverse of an odd D modulo 2^32 by Newton's iteration X <- X(2 - DX),
/// which doubles the number of correct low bits: 3D xor 2 is right to 5
/// bits, so three steps reach 40.
uint32_t inverseMod32(uint32_t D) {
  assert((D & 1) && "only odd words are invertible modulo 2^32");
  uint32_t X = (3 * D) ^ 2;
  X *= 2 - D * X;
  X *= 2 - D * X;
  X *= 2 - D * X;
  return X;
}

/// Bits [Shift, Shift + 64) of the magnitude D[0..N), reading zero above
/// the top.
uint64_t bitsFrom(const uint32_t *D, size_t N, unsigned Shift) {
  size_t L = Shift / 32;
  unsigned B = Shift % 32;
  auto Limb = [&](size_t I) -> uint64_t { return L + I < N ? D[L + I] : 0; };
  uint64_t Lo = Limb(0) | Limb(1) << 32;
  return B == 0 ? Lo : (Lo >> B) | (Limb(2) << (64 - B));
}

/// True when Q * B and A agree in their leading 40 bits. Q * B == A holds
/// modulo 2^(32 * limbs of Q) by construction of divExact, so an inexact
/// division shows in the high bits; this O(1) check catches it without the
/// full product, which would cost more than the division.
[[maybe_unused]] bool leadingBitsAgree(const BigInt &Q, const BigInt &B,
                                       const BigInt &A) {
  int64_t EQ, EB, EA;
  double Prod = Q.frexpApprox(EQ) * B.frexpApprox(EB);
  double Want = A.frexpApprox(EA);
  int64_t Gap = EQ + EB - EA;
  if (Gap < -1 || Gap > 1)
    return false;
  return std::fabs(std::ldexp(Prod, static_cast<int>(Gap)) - Want) <=
         std::ldexp(std::fabs(Want), -40);
}

} // namespace

BigInt BigInt::divExact(const BigInt &A, const BigInt &B) {
  assert(!B.isZero() && "division by zero");
  if (A.isZero())
    return BigInt();
  // A = Q * B, so A has at least B's trailing zeros; dropping them from
  // both leaves an odd divisor, and Q < 2^(QBits) with QBits the
  // difference of the stripped bit lengths plus one.
  unsigned Z = B.countTrailingZeros();
  assert(A.countTrailingZeros() >= Z && "divExact: inexact division");
  unsigned ABits = A.bitLength() - Z, BBits = B.bitLength() - Z;
  assert(ABits >= BBits && "divExact: inexact division");
  size_t QN = (ABits - BBits + 32) / 32;
  size_t BN = (BBits + 31) / 32;

  // Q starts as the low QN limbs of |A| >> Z: the running remainder, read
  // from the bottom. Limbs of A and B above QN never influence Q mod
  // 2^(32 QN), which is all of Q.
  BigInt Q;
  Q.Limbs.resize(QN);
  uint32_t *QD = Q.Limbs.data();
  for (size_t I = 0; I < QN; ++I)
    QD[I] = static_cast<uint32_t>(bitsFrom(A.Limbs.data(), A.Limbs.size(),
                                           Z + 32 * static_cast<unsigned>(I)));
  size_t DN = std::min(BN, QN);
  LimbVec Shifted;
  const uint32_t *DD = B.Limbs.data() + Z / 32;
  if (Z % 32 != 0) {
    Shifted.resize(DN);
    for (size_t I = 0; I < DN; ++I)
      Shifted[I] = static_cast<uint32_t>(bitsFrom(
          B.Limbs.data(), B.Limbs.size(), Z + 32 * static_cast<unsigned>(I)));
    DD = Shifted.data();
  }

  // Each step picks the limb q_I that clears remainder limb I modulo 2^32
  // and subtracts q_I * D from the limbs above it, truncated at QN.
  // Borrow stays below 2^32: q * d + Borrow <= 2^64 - 2^32.
  uint32_t Inv = inverseMod32(DD[0]);
  for (size_t I = 0; I < QN; ++I) {
    uint32_t QI = QD[I] * Inv;
    QD[I] = QI;
    size_t Len = std::min(DN, QN - I);
    uint64_t Borrow = (static_cast<uint64_t>(QI) * DD[0]) >> 32;
    uint32_t *R = QD + I;
    for (size_t J = 1; J < Len; ++J) {
      uint64_t Prod = static_cast<uint64_t>(QI) * DD[J] + Borrow;
      uint32_t Lo = static_cast<uint32_t>(Prod);
      uint32_t Cur = R[J];
      R[J] = Cur - Lo;
      Borrow = (Prod >> 32) + (Cur < Lo);
    }
    for (size_t K = I + Len; Borrow != 0 && K < QN; ++K) {
      uint32_t Lo = static_cast<uint32_t>(Borrow);
      uint32_t Cur = QD[K];
      QD[K] = Cur - Lo;
      Borrow = Cur < Lo;
    }
  }
  Q.Negative = A.Negative != B.Negative;
  Q.trim();
  assert(leadingBitsAgree(Q, B, A) && "divExact: inexact division");
  return Q;
}

BigInt BigInt::operator/(const BigInt &RHS) const {
  BigInt Q, R;
  divMod(*this, RHS, Q, R);
  return Q;
}

BigInt BigInt::operator%(const BigInt &RHS) const {
  BigInt Q, R;
  divMod(*this, RHS, Q, R);
  return R;
}

BigInt BigInt::shl(unsigned K) const {
  if (isZero() || K == 0)
    return *this;
  unsigned LimbShift = K / 32, BitShift = K % 32;
  BigInt R;
  R.Negative = Negative;
  R.Limbs.assign(Limbs.size() + LimbShift + 1, 0);
  const uint32_t *SD = Limbs.data();
  uint32_t *RD = R.Limbs.data() + LimbShift;
  for (size_t I = 0; I < Limbs.size(); ++I) {
    uint64_t V = static_cast<uint64_t>(SD[I]) << BitShift;
    RD[I] |= static_cast<uint32_t>(V);
    RD[I + 1] |= static_cast<uint32_t>(V >> 32);
  }
  R.trim();
  return R;
}

BigInt BigInt::shr(unsigned K) const {
  if (isZero() || K == 0)
    return *this;
  unsigned LimbShift = K / 32, BitShift = K % 32;
  if (LimbShift >= Limbs.size())
    return BigInt();
  BigInt R;
  R.Negative = Negative;
  R.Limbs.assign(Limbs.size() - LimbShift, 0);
  const uint32_t *SD = Limbs.data() + LimbShift;
  uint32_t *RD = R.Limbs.data();
  size_t N = R.Limbs.size();
  for (size_t I = 0; I < N; ++I) {
    uint64_t V = SD[I] >> BitShift;
    if (BitShift && I + 1 < N)
      V |= static_cast<uint64_t>(SD[I + 1]) << (32 - BitShift);
    RD[I] = static_cast<uint32_t>(V);
  }
  R.trim();
  return R;
}

unsigned BigInt::countTrailingZeros() const {
  for (size_t I = 0; I < Limbs.size(); ++I)
    if (Limbs[I] != 0)
      return static_cast<unsigned>(I) * 32 +
             static_cast<unsigned>(__builtin_ctz(Limbs[I]));
  return 0;
}

namespace {

/// Out = X * U + Y * V for cofactors |X|, |Y| < 2^63 whose result is known
/// to be non-negative and no longer than U (N limbs; V may be shorter).
void cofactorCombine(const LimbVec &U, const LimbVec &V, int64_t X, int64_t Y,
                     LimbVec &Out) {
  size_t N = U.size(), VN = V.size();
  Out.resize(N);
  const uint32_t *UD = U.data(), *VD = V.data();
  uint32_t *OD = Out.data();
  __int128 Acc = 0;
  for (size_t I = 0; I < N; ++I) {
    Acc += static_cast<__int128>(X) * UD[I];
    if (I < VN)
      Acc += static_cast<__int128>(Y) * VD[I];
    OD[I] = static_cast<uint32_t>(Acc);
    Acc >>= 32;
  }
  assert(Acc == 0 && "Lehmer cofactor step left its range");
  trimVec(Out);
}

} // namespace

BigInt BigInt::gcd(BigInt A, BigInt B) {
  A.Negative = B.Negative = false;
  if (A.isZero())
    return B;
  if (B.isZero())
    return A;
  // Dyadic fast path: when either operand is a power of two the gcd is
  // the common power of two. This is the exact layer's common case -- a
  // dyadic denominator against anything, and gcd(x, 1) in the Henrici
  // paths.
  if (A.isPowerOfTwo() || B.isPowerOfTwo())
    return pow2(std::min(A.countTrailingZeros(), B.countTrailingZeros()));
  if (magCompare(A.Limbs, B.Limbs) < 0)
    std::swap(A, B);

  // Lehmer: U >= V > 0 throughout. T and W are the next pair's buffers;
  // swapping keeps every buffer's capacity, so the loop allocates only
  // while the first pair of buffers grows.
  LimbVec &U = A.Limbs, &V = B.Limbs;
  LimbVec T, W;
  while (!V.empty()) {
    size_t N = U.size();
    if (N <= 2) {
      // Word-size finish.
      uint64_t X = bitsFrom(U.data(), N, 0);
      uint64_t Y = bitsFrom(V.data(), V.size(), 0);
      while (Y != 0) {
        uint64_t R = X % Y;
        X = Y;
        Y = R;
      }
      return BigInt(X, /*UnsignedTag=*/true);
    }

    // Algorithm L on the top 62 bits UH of U and the same bits VH of V,
    // with cofactors (CA CB; CC CD). UH + CA, UH + CB, VH + CC and VH + CD
    // stay in [0, 2^62] (they are Euclid's remainders of the box's corner
    // pairs), so every quantity fits an int64_t, and a quotient on which
    // both corners agree is Euclid's true one for U and V.
    int64_t CA = 1, CB = 0, CC = 0, CD = 1;
    if (N <= V.size() + 1) {
      unsigned Shift = 32 * static_cast<unsigned>(N - 1) +
                       (32 - static_cast<unsigned>(__builtin_clz(U[N - 1]))) -
                       62;
      int64_t UH = static_cast<int64_t>(bitsFrom(U.data(), N, Shift));
      int64_t VH = static_cast<int64_t>(bitsFrom(V.data(), V.size(), Shift));
      while (VH + CC != 0 && VH + CD != 0) {
        int64_t Q = (UH + CA) / (VH + CC);
        if (Q != (UH + CB) / (VH + CD))
          break;
        int64_t Tmp = CA - Q * CC;
        CA = CC;
        CC = Tmp;
        Tmp = CB - Q * CD;
        CB = CD;
        CD = Tmp;
        Tmp = UH - Q * VH;
        UH = VH;
        VH = Tmp;
      }
    }
    if (CB == 0) {
      // No simulated step (a long quotient, or lengths more than a limb
      // apart): one full division.
      BigInt Q, R;
      divMod(A, B, Q, R);
      std::swap(A, B);
      B = std::move(R);
      continue;
    }
    cofactorCombine(U, V, CA, CB, T);
    cofactorCombine(U, V, CC, CD, W);
    std::swap(U, T);
    std::swap(V, W);
  }
  return A;
}

double BigInt::frexpApprox(int64_t &Exp) const {
  if (isZero()) {
    Exp = 0;
    return 0.0;
  }
  const uint32_t *D = Limbs.data();
  size_t NL = Limbs.size();
  double V = static_cast<double>(D[NL - 1]);
  if (NL >= 2)
    V = V * 4294967296.0 + static_cast<double>(D[NL - 2]);
  if (NL >= 3)
    V = V * 4294967296.0 + static_cast<double>(D[NL - 3]);
  int E;
  V = std::frexp(V, &E);
  size_t Used = NL < 3 ? NL : 3;
  Exp = static_cast<int64_t>(E) + 32 * static_cast<int64_t>(NL - Used);
  return Negative ? -V : V;
}

uint64_t BigInt::hash() const {
  uint64_t H = 0xcbf29ce484222325ull; // FNV-1a offset basis.
  constexpr uint64_t Prime = 0x100000001b3ull;
  H = (H ^ (Negative ? 1u : 0u)) * Prime;
  const uint32_t *D = Limbs.data();
  for (size_t I = 0, E = Limbs.size(); I < E; ++I)
    H = (H ^ D[I]) * Prime;
  return H;
}

std::string BigInt::toDecimal() const {
  if (isZero())
    return "0";
  // Peel off 9 decimal digits at a time (10^9 < 2^32).
  LimbVec Work = Limbs;
  std::string Digits;
  while (!Work.empty()) {
    uint64_t Rem = 0;
    for (size_t I = Work.size(); I-- > 0;) {
      uint64_t Cur = (Rem << 32) | Work[I];
      Work[I] = static_cast<uint32_t>(Cur / 1000000000u);
      Rem = Cur % 1000000000u;
    }
    while (!Work.empty() && Work.back() == 0)
      Work.pop_back();
    for (int D = 0; D < 9; ++D) {
      Digits.push_back(static_cast<char>('0' + Rem % 10));
      Rem /= 10;
    }
  }
  while (Digits.size() > 1 && Digits.back() == '0')
    Digits.pop_back();
  if (Negative)
    Digits.push_back('-');
  std::reverse(Digits.begin(), Digits.end());
  return Digits;
}

std::string BigInt::toHex() const {
  if (isZero())
    return "0x0";
  static const char *HexDigits = "0123456789abcdef";
  std::string S;
  for (size_t I = Limbs.size(); I-- > 0;)
    for (int Nib = 7; Nib >= 0; --Nib)
      S.push_back(HexDigits[(Limbs[I] >> (Nib * 4)) & 0xf]);
  size_t First = S.find_first_not_of('0');
  S = S.substr(First);
  return (Negative ? "-0x" : "0x") + S;
}
