//===- support/BigInt.h - Arbitrary-precision integers ---------*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Arbitrary-precision signed integers. This is the substrate underneath the
/// exact rational arithmetic used by the LP solver (the paper uses SoPlex,
/// which uses GMP) and by the multiple-precision floating point library (the
/// paper uses MPFR). Magnitudes are stored as base-2^32 limbs, least
/// significant first; the sign is kept separately so the magnitude algorithms
/// stay branch-free with respect to sign.
///
/// Performance model (see DESIGN.md, "Arithmetic substrate and the
/// exact-LP performance model"): limb storage is a small-buffer vector with
/// inline capacity for 4 limbs (128 bits of magnitude), so the dominant
/// small-operand path -- interval endpoints, LP columns, pivot scalars --
/// never touches the heap. Multiplication switches from schoolbook to
/// Karatsuba above a tuned limb threshold. Divisions known to be exact (the
/// simplex's fraction-free updates, cancelling a gcd) take divExact, a
/// 2-adic division that builds the quotient from its low limbs and never
/// reads the dividend's high half; gcd is Lehmer's algorithm, which
/// replaces most multi-precision steps with word-size ones.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_SUPPORT_BIGINT_H
#define RFP_SUPPORT_BIGINT_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>

namespace rfp {

/// Small-buffer limb vector: the first InlineCapacity limbs live inside the
/// object (no allocation); larger magnitudes spill to the heap. The API is
/// the subset of std::vector<uint32_t> the BigInt algorithms use. Capacity
/// never shrinks, so repeated resize/assign cycles on a heap-backed value
/// (the long-division work buffers) do not reallocate.
class LimbVec {
public:
  /// 4 limbs = 128-bit magnitudes inline. Rounding intervals, integerized
  /// LP columns, and most pivot scalars fit; the basis-inverse numerators
  /// in deep pivots are the main heap clients.
  static constexpr uint32_t InlineCapacity = 4;

  LimbVec() = default;
  LimbVec(const LimbVec &O) { assignRaw(O.data(), O.Sz); }
  LimbVec(LimbVec &&O) noexcept { moveFrom(O); }
  LimbVec &operator=(const LimbVec &O) {
    if (this != &O)
      assignRaw(O.data(), O.Sz);
    return *this;
  }
  LimbVec &operator=(LimbVec &&O) noexcept {
    if (this != &O) {
      release();
      moveFrom(O);
    }
    return *this;
  }
  ~LimbVec() { release(); }

  size_t size() const { return Sz; }
  bool empty() const { return Sz == 0; }
  bool isInline() const { return Cap == InlineCapacity; }

  uint32_t *data() { return isInline() ? Inline : Heap; }
  const uint32_t *data() const { return isInline() ? Inline : Heap; }
  uint32_t &operator[](size_t I) { return data()[I]; }
  uint32_t operator[](size_t I) const { return data()[I]; }
  uint32_t &back() { return data()[Sz - 1]; }
  uint32_t back() const { return data()[Sz - 1]; }

  void clear() { Sz = 0; }
  void pop_back() { --Sz; }
  void push_back(uint32_t V) {
    if (Sz == Cap)
      grow(Sz + 1, /*PreserveContents=*/true);
    data()[Sz++] = V;
  }

  /// std::vector semantics: new slots (when growing) are zero-filled.
  void resize(size_t N) {
    if (N > Cap)
      grow(N, /*PreserveContents=*/true);
    uint32_t *D = data();
    for (size_t I = Sz; I < N; ++I)
      D[I] = 0;
    Sz = static_cast<uint32_t>(N);
  }

  void assign(size_t N, uint32_t V) {
    if (N > Cap)
      grow(N, /*PreserveContents=*/false);
    uint32_t *D = data();
    for (size_t I = 0; I < N; ++I)
      D[I] = V;
    Sz = static_cast<uint32_t>(N);
  }

private:
  void assignRaw(const uint32_t *Src, uint32_t N) {
    if (N > Cap)
      grow(N, /*PreserveContents=*/false);
    std::memcpy(data(), Src, N * sizeof(uint32_t));
    Sz = N;
  }

  void moveFrom(LimbVec &O) {
    if (O.isInline()) {
      std::memcpy(Inline, O.Inline, O.Sz * sizeof(uint32_t));
      Cap = InlineCapacity;
    } else {
      Heap = O.Heap;
      Cap = O.Cap;
      O.Cap = InlineCapacity;
    }
    Sz = O.Sz;
    O.Sz = 0;
  }

  void release() {
    if (!isInline())
      delete[] Heap;
  }

  void grow(size_t MinCap, bool PreserveContents) {
    size_t NewCap = Cap * 2 > MinCap ? Cap * 2 : MinCap;
    uint32_t *NewHeap = new uint32_t[NewCap];
    if (PreserveContents && Sz)
      std::memcpy(NewHeap, data(), Sz * sizeof(uint32_t));
    release();
    Heap = NewHeap;
    Cap = static_cast<uint32_t>(NewCap);
  }

  uint32_t Sz = 0;
  uint32_t Cap = InlineCapacity;
  union {
    uint32_t Inline[InlineCapacity] = {};
    uint32_t *Heap;
  };
};

/// Arbitrary-precision signed integer.
///
/// Value = Sign * sum(Limbs[i] * 2^(32*i)). Zero is canonically represented
/// with an empty limb vector and Sign == +1. All arithmetic is exact.
class BigInt {
public:
  /// Constructs zero.
  BigInt() = default;

  /// Constructs from a machine integer (exact).
  BigInt(int64_t V);
  BigInt(uint64_t V, bool /*UnsignedTag*/);

  /// Parses a base-10 literal with optional leading '-'. Asserts on
  /// malformed input (this is an internal library, not a user parser).
  static BigInt fromDecimal(const std::string &S);

  /// Returns 2^K (K >= 0).
  static BigInt pow2(unsigned K);

  bool isZero() const { return Limbs.empty(); }
  bool isNegative() const { return Negative; }
  bool isOne() const { return !Negative && Limbs.size() == 1 && Limbs[0] == 1; }

  /// True iff the magnitude is 2^K for some K >= 0 (false for zero). The
  /// dyadic fast paths of gcd, divMod and the LP's integerization key on
  /// it: every double is a dyadic rational, so the generator's
  /// denominators are all powers of two.
  bool isPowerOfTwo() const;

  /// Returns true iff the value fits in int64_t.
  bool fitsInt64() const;

  /// Converts to int64_t; asserts that the value fits.
  int64_t toInt64() const;

  /// Low 64 bits of the magnitude; asserts the magnitude fits in 64 bits
  /// and the value is non-negative.
  uint64_t toUint64() const;

  /// Converts to double with round-to-nearest-even. Returns +-inf on
  /// overflow. The conversion is correctly rounded.
  double toDouble() const;

  /// Number of significant bits in the magnitude (0 for zero).
  unsigned bitLength() const;

  /// Value of bit I (I = 0 is the least significant bit of the magnitude).
  bool testBit(unsigned I) const;

  /// True iff the magnitude has any set bit strictly below bit I.
  /// Used as an exact "sticky" test when truncating I low bits.
  bool anyBitBelow(unsigned I) const;

  /// Number of trailing zero bits of the magnitude (0 for zero).
  unsigned countTrailingZeros() const;

  /// Three-way comparison: -1, 0, or +1.
  int compare(const BigInt &RHS) const;
  /// Magnitude-only three-way comparison.
  int compareMagnitude(const BigInt &RHS) const;

  BigInt operator-() const;
  BigInt operator+(const BigInt &RHS) const;
  BigInt operator-(const BigInt &RHS) const;
  BigInt operator*(const BigInt &RHS) const;
  /// Truncating division (C semantics: quotient rounds toward zero). A
  /// divisor of +-2^K costs a shift (see divMod).
  BigInt operator/(const BigInt &RHS) const;
  /// Remainder paired with operator/ (sign follows the dividend).
  BigInt operator%(const BigInt &RHS) const;

  BigInt &operator+=(const BigInt &RHS) { return *this = *this + RHS; }
  BigInt &operator-=(const BigInt &RHS) { return *this = *this - RHS; }
  BigInt &operator*=(const BigInt &RHS) { return *this = *this * RHS; }

  /// Computes quotient and remainder in one pass (Knuth Algorithm D; a
  /// shift and a mask when |B| is a power of two).
  static void divMod(const BigInt &A, const BigInt &B, BigInt &Q, BigInt &R);

  /// A / B for a B that divides A exactly (asserted in debug builds; the
  /// result is meaningless otherwise). Jebelean's 2-adic (Hensel) exact
  /// division: strips B's trailing zeros, multiplies by the inverse of its
  /// odd low limb modulo 2^32 and produces the quotient's limbs from the
  /// bottom, touching only the quotient's low limbs of A and B -- about
  /// half of Algorithm D's limb products and no normalization shifts.
  static BigInt divExact(const BigInt &A, const BigInt &B);

  /// Limb count at and above which operator* switches from schoolbook to
  /// Karatsuba (both operands must reach it). Tuned with bench_bigint's
  /// mul ladder; see EXPERIMENTS.md.
  static constexpr size_t KaratsubaThreshold = 64;

  /// Schoolbook multiplication regardless of operand size. Exposed for the
  /// Karatsuba differential tests and the threshold-bracketing benchmark;
  /// use operator* everywhere else.
  static BigInt mulSchoolbook(const BigInt &A, const BigInt &B);

  /// Logical shift of the magnitude; sign is preserved.
  BigInt shl(unsigned K) const;
  BigInt shr(unsigned K) const;

  bool operator==(const BigInt &RHS) const { return compare(RHS) == 0; }
  bool operator!=(const BigInt &RHS) const { return compare(RHS) != 0; }
  bool operator<(const BigInt &RHS) const { return compare(RHS) < 0; }
  bool operator<=(const BigInt &RHS) const { return compare(RHS) <= 0; }
  bool operator>(const BigInt &RHS) const { return compare(RHS) > 0; }
  bool operator>=(const BigInt &RHS) const { return compare(RHS) >= 0; }

  /// Greatest common divisor of the magnitudes (always non-negative).
  /// When either magnitude is a power of two the answer is 2^(the smaller
  /// trailing-zero count), returned at once. Otherwise Lehmer's algorithm
  /// (Knuth 4.5.2, Algorithm L): Euclid's quotients are simulated on the
  /// operands' top 62 bits, and each run of them is applied to the full
  /// operands as one 2x2 cofactor step; a full division steps over a
  /// length gap of more than a limb, and operands of 64 bits or fewer
  /// finish in machine words.
  static BigInt gcd(BigInt A, BigInt B);

  /// Signed frexp-style approximation: returns a mantissa Mant with
  /// 0.5 <= |Mant| < 1 and sets Exp such that the value is approximately
  /// Mant * 2^Exp (relative error < 3 * 2^-52, from truncating to the top
  /// ~96 bits). Returns 0 with Exp = 0 for zero. O(1): reads the top
  /// limbs only -- unlike toDouble(), never overflows for huge values.
  double frexpApprox(int64_t &Exp) const;

  /// 64-bit FNV-1a hash of the sign and canonical limb representation.
  /// Equal values hash equally; intended for hash-map keys with an exact
  /// equality check on collision.
  uint64_t hash() const;

  /// Base-10 rendering with leading '-' when negative.
  std::string toDecimal() const;
  /// Base-16 rendering (magnitude, "0x" prefix, leading '-' when negative).
  std::string toHex() const;

private:
  /// Drops high zero limbs and canonicalizes the sign of zero.
  void trim();

  static int magCompare(const LimbVec &A, const LimbVec &B);
  static LimbVec magAdd(const LimbVec &A, const LimbVec &B);
  /// Requires |A| >= |B|.
  static LimbVec magSub(const LimbVec &A, const LimbVec &B);
  static LimbVec magMul(const LimbVec &A, const LimbVec &B);
  static LimbVec magMulSchoolbook(const LimbVec &A, const LimbVec &B);
  static LimbVec magMulKaratsuba(const LimbVec &A, const LimbVec &B);

  LimbVec Limbs;
  bool Negative = false;
};

/// Rounds Mag * 2^BinExp to the nearest double (ties to even), where Mag is
/// a non-negative magnitude and Sticky records whether the true value has
/// additional non-zero weight strictly below 2^BinExp. Mag must carry at
/// least 55 significant bits whenever Sticky is set so the extra weight sits
/// strictly below the rounding position. Handles overflow (to +-inf) and
/// gradual underflow.
double roundScaledToDouble(const BigInt &Mag, int64_t BinExp, bool Sticky,
                           bool Negative);

} // namespace rfp

#endif // RFP_SUPPORT_BIGINT_H
