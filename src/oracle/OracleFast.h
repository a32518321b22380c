//===- oracle/OracleFast.h - Certified double-double oracle ----*- C++ -*-===//
//
// Part of the rlibm-fastpoly project, under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certified fast path in front of the exact MPFloat/Ziv oracle. It
/// settles an input in one of two ways, and every verdict it gives is
/// bit-identical to Oracle::eval(Fn, x, fp34, ToOdd):
///
///   1. Structural verdicts, checked first: input classes whose RO_34
///      encoding is known in closed form -- exp-family 0 < |x| < 2^-29
///      (b^x lies strictly inside the round-to-odd cell beside 1.0, so the
///      result is succ(1) or pred(1)), non-finite x and log-family x <= 0
///      (Oracle::eval's domain rules), and exp-family saturation beyond
///      Oracle::expSaturation's clamps (one encoding per side).
///   2. Otherwise f(x) evaluated in double-double (two-prod/two-sum)
///      arithmetic with a proved absolute error bound, checked against the
///      FP(34, 8) round-to-odd decision boundaries. When the whole error
///      interval [v - e, v + e] rounds to one FP34 encoding, that encoding
///      *is* RO_34(f(x)) -- round-to-odd is monotone in value, so an
///      enclosure whose endpoints agree pins the result.
///
/// Everything else falls back to the exact path. The decision boundaries
/// of round-to-odd are the representable values themselves (RO is constant
/// on each open inter-value gap), and the only inputs whose exact result
/// lands *on* a boundary are the algebraically exact cases (exp2 of an
/// integer, log2 of a power of two, f(0), log(1), ...) that
/// mpt::exactResult enumerates -- by Lindemann-Weierstrass those always
/// straddle here and always fall back, which is what makes the acceptance
/// predicate sound rather than probabilistic. See DESIGN.md, "Certified
/// fast-path oracle", for the proofs and the fallback taxonomy.
///
/// Accuracy: ~2^-96 relative (exp family) / ~2^-99 of the summed term
/// magnitudes (log family), asserted conservatively as 2^-84 / 2^-88 in
/// the acceptance test; the enclosure is padded to ~2^-50 relative. FP34
/// rounding intervals are ~2^-25 relative, so the inputs that fall back
/// are those whose result lies within that pad of a representable value
/// (the exact cases among them) and the exp family's narrow bands between
/// the kernel's range and the saturation clamps.
///
/// Telemetry: `oracle.fast.accepts` (structural and certified verdicts),
/// `oracle.fast.fallbacks` (certification straddled a boundary),
/// `oracle.fast.rejects` (an exp-family band the kernel does not model).
///
//===----------------------------------------------------------------------===//

#ifndef RFP_ORACLE_ORACLEFAST_H
#define RFP_ORACLE_ORACLEFAST_H

#include "support/ElemFunc.h"

#include <cstddef>
#include <cstdint>

namespace rfp {

/// Certified double-double fast path over Oracle::eval(Fn, x, fp34, ToOdd).
namespace oracle_fast {

/// Process-wide switch consulted by the oracle cache and the generator's
/// prepare sweep. Resolved once from RFP_ORACLE_FAST (only "0" disables;
/// the fast path is the default -- the exact path is the referee).
bool enabled();
/// Programmatic override (benchmarks, differential tests). Thread-safe.
void setEnabled(bool On);

/// Attempts the certified fast evaluation of RO_34(f(x)) for the float
/// with bit pattern \p XBits. Returns true and sets \p Enc only when the
/// result is *proved*: x is in a structural class or the double-double
/// error interval rounds cleanly.
/// A false return carries no information about the value -- the caller
/// must consult the exact oracle. Lock-free and allocation-free.
bool tryEvalToOdd34(ElemFunc Fn, uint32_t XBits, uint64_t &Enc);

/// Batch form over contiguous arrays (the generator's and the verifier's
/// sweep shape): for each input either certifies (Status[i] = 1, Enc[i]
/// set) or leaves it for the exact path (Status[i] = 0, Enc[i] untouched).
/// Results are identical to per-element tryEvalToOdd34 calls; the
/// telemetry counters are updated once per batch.
void evalToOdd34Batch(ElemFunc Fn, const uint32_t *XBits, size_t N,
                      uint64_t *Enc, uint8_t *Status);

} // namespace oracle_fast

} // namespace rfp

#endif // RFP_ORACLE_ORACLEFAST_H
