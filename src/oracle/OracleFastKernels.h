//===- oracle/OracleFastKernels.h - Fast oracle kernel interface -*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal interface between the fast oracle's dispatcher and scalar
/// kernel (OracleFast.cpp) and its lane kernels (OracleFastLanes.h,
/// instantiated by OracleFastAVX2.cpp and OracleFastAVX512.cpp): the
/// constants both kernel forms share, the one definition of the structural
/// verdicts, and the lane-kernel entry points. Nothing here is public API;
/// consumers use oracle/OracleFast.h.
///
//===----------------------------------------------------------------------===//

#ifndef RFP_ORACLE_ORACLEFASTKERNELS_H
#define RFP_ORACLE_ORACLEFASTKERNELS_H

#include "oracle/Oracle.h"
#include "support/ElemFunc.h"

#include <cstddef>
#include <cstdint>

namespace rfp {
namespace oracle_fast {
namespace detail {

/// What a query's certification concluded; tallies are indexed by it.
enum class Verdict : uint8_t {
  Accepted, ///< Enc is proved equal to RO_34(f(x)).
  Boundary, ///< Error interval straddles an FP34 boundary; fall back.
  Domain,   ///< Exp family between the kernel's range and the clamps.
};

/// Float bits of 2^-29, the tiny class's exclusive upper bound on |x|.
inline constexpr uint32_t TinyBits = (127u - 29u) << 23;

/// The exp kernel's range of y = x * log2(b): the bands between it and
/// Oracle::expSaturation's clamps (y in [127.5, 129] and [-154, -149.5],
/// around FP34's overflow and subnormal edges) are left to the exact path.
inline constexpr double ExpYMin = -149.5;
inline constexpr double ExpYMax = 127.5;

/// Asserted relative error bound of the exp-family kernel: 2^-84. The
/// per-op budget sums to < 2^-95 (dominated by |y|*2^-103 from the base-2
/// exponent y = x*log2(b), |y| < 151), leaving > 2^11 slack.
inline constexpr int ExpErrBits = 84;

/// Asserted absolute error bound of the log-family kernel, as a multiple
/// of the summed term magnitudes (the honest yardstick under the
/// cancellation between e*log(2) and log(F) + log1p(u)): 2^-88 * (|t1| +
/// |t2| + |t3| + |v|). The per-op budget sums to < 2^-99 of the same
/// yardstick, leaving > 2^11 slack.
inline constexpr int LogErrBits = 88;

/// certifyRO34 pads the enclosure by 2^-50 |v|, which absorbs the two
/// double roundings in forming each endpoint (each < ulp/2 ~ |v| 2^-53).
inline constexpr int PadBits = 50;

/// Sets \p Enc and returns true iff \p XBits is in a structural class
/// (tiny, special, saturated; see OracleFast.cpp). The one definition of
/// the closed forms: the scalar kernel calls it first, and the lane
/// kernels call it for the lanes their class masks pick.
bool structuralVerdict(ElemFunc Fn, uint32_t XBits, uint64_t &Enc);

/// What a lane kernel reads from baseline-ISA code, once per batch: the
/// FP34 format's shape (its round-to-odd step) and \p Fn's saturation
/// compare (its structural mask). The lane TUs touch no FPFormat member.
struct LaneContext {
  unsigned TotalBits, ExpBits;
  Oracle::SaturationClamp Sat;
};

/// A lane kernel: evalToOdd34Batch's contract over XBits[0..N), adding
/// each verdict to Tally[Verdict]. Each is defined only in its own TU,
/// the only object built with its ISA's flags, and referenced only when
/// the matching RFP_HAVE_*_KERNELS macro is defined.
using LaneKernelFn = void (*)(ElemFunc Fn, const LaneContext &Ctx,
                              const uint32_t *XBits, size_t N, uint64_t *Enc,
                              uint8_t *Status, uint64_t *Tally);
void evalToOdd34AVX2(ElemFunc Fn, const LaneContext &Ctx,
                     const uint32_t *XBits, size_t N, uint64_t *Enc,
                     uint8_t *Status, uint64_t *Tally);
void evalToOdd34AVX512(ElemFunc Fn, const LaneContext &Ctx,
                       const uint32_t *XBits, size_t N, uint64_t *Enc,
                       uint8_t *Status, uint64_t *Tally);

} // namespace detail
} // namespace oracle_fast
} // namespace rfp

#endif // RFP_ORACLE_ORACLEFASTKERNELS_H
